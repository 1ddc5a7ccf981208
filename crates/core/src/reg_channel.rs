//! The secure register channel (§4.5).
//!
//! Register transactions between the SM enclave and the SM logic are
//! protected by `Key_session` + `Ctr_session`, both injected alongside
//! `Key_attest` during bitstream manipulation. Each transaction is
//! AES-CTR-encrypted and HMAC-authenticated with the monotonically
//! increasing counter bound in — so shell-level confidentiality,
//! integrity *and replay* attacks on PCIe all fail closed. The SM logic
//! "transparently decrypts, verifies, and forwards the register
//! transaction to the accelerator."

use std::ops::{Deref, DerefMut};

use salus_crypto::aes::{Aes256, BLOCK_SIZE};
use salus_crypto::hmac::HmacKey;

use crate::keys::KeySession;
use crate::SalusError;

/// The longest payload a sealed message carries: one AES block, so its
/// keystream is the single block `E(nonce)`. A register operation is 13
/// bytes and a response 8.
pub const MAX_PAYLOAD: usize = BLOCK_SIZE;

/// Bytes of the truncated HMAC tag.
const MAC_LEN: usize = 16;

/// Bytes ahead of the ciphertext on the wire: the counter (u64 LE) and
/// the ciphertext length (u32 LE).
const HEADER_LEN: usize = 8 + 4;

/// The longest encoded [`SealedRegMsg`].
pub const MAX_WIRE_LEN: usize = HEADER_LEN + MAX_PAYLOAD + MAC_LEN;

/// Bytes of the MAC input: direction, counter and ciphertext.
const MAC_INPUT_LEN: usize = 1 + 8 + MAX_PAYLOAD;

/// At most `CAP` bytes, held inline: a payload, a ciphertext or an
/// encoded message of the register channel, which never touches the
/// heap. Dereferences to the bytes in use; the bytes past them are
/// zero, so fixed-size code may read the whole array.
#[derive(Clone, Copy)]
pub struct InlineBytes<const CAP: usize> {
    bytes: [u8; CAP],
    len: usize,
}

impl<const CAP: usize> InlineBytes<CAP> {
    /// `parts` one after another. Every caller's parts fit in `CAP`; a
    /// part that would not is left out, with all parts after it.
    fn concat<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> InlineBytes<CAP> {
        let mut out = InlineBytes {
            bytes: [0; CAP],
            len: 0,
        };
        for part in parts {
            let Some(dst) = out.bytes.get_mut(out.len..out.len + part.len()) else {
                break;
            };
            dst.copy_from_slice(part);
            out.len += part.len();
        }
        out
    }

    /// `bytes`, whose length the compiler checks against `CAP`.
    fn from_array<const N: usize>(bytes: [u8; N]) -> InlineBytes<CAP> {
        const { assert!(N <= CAP) };
        InlineBytes::concat([&bytes[..]])
    }

    /// A copy of `bytes`, or `None` if they exceed `CAP`.
    fn from_slice(bytes: &[u8]) -> Option<InlineBytes<CAP>> {
        (bytes.len() <= CAP).then(|| InlineBytes::concat([bytes]))
    }
}

impl<const CAP: usize> Deref for InlineBytes<CAP> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes.get(..self.len).unwrap_or_default()
    }
}

impl<const CAP: usize> DerefMut for InlineBytes<CAP> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.bytes.get_mut(..self.len).unwrap_or_default()
    }
}

impl<const CAP: usize> PartialEq for InlineBytes<CAP> {
    fn eq(&self, other: &InlineBytes<CAP>) -> bool {
        **self == **other
    }
}

impl<const CAP: usize> Eq for InlineBytes<CAP> {}

impl<const CAP: usize> std::fmt::Debug for InlineBytes<CAP> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A register operation as seen by the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterOp {
    /// Write `value` to register `addr`.
    Write {
        /// Register address.
        addr: u32,
        /// Value to write.
        value: u64,
    },
    /// Read register `addr`.
    Read {
        /// Register address.
        addr: u32,
    },
}

impl RegisterOp {
    fn to_bytes(self) -> [u8; 13] {
        let (tag, addr, value) = match self {
            RegisterOp::Write { addr, value } => (1, addr, value),
            RegisterOp::Read { addr } => (2, addr, 0),
        };
        let [a0, a1, a2, a3] = addr.to_le_bytes();
        let [v0, v1, v2, v3, v4, v5, v6, v7] = value.to_le_bytes();
        [tag, a0, a1, a2, a3, v0, v1, v2, v3, v4, v5, v6, v7]
    }

    fn from_bytes(bytes: &[u8]) -> Result<RegisterOp, SalusError> {
        let Ok(&[tag, a0, a1, a2, a3, ref value @ ..]) = <&[u8; 13]>::try_from(bytes) else {
            return Err(SalusError::Malformed("register op"));
        };
        let addr = u32::from_le_bytes([a0, a1, a2, a3]);
        match tag {
            1 => Ok(RegisterOp::Write {
                addr,
                value: u64::from_le_bytes(*value),
            }),
            2 => Ok(RegisterOp::Read { addr }),
            _ => Err(SalusError::Malformed("register op tag")),
        }
    }
}

/// One protected message (either direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedRegMsg {
    /// The counter value this message was sealed at.
    pub ctr: u64,
    /// AES-CTR ciphertext of the payload.
    ciphertext: InlineBytes<MAX_PAYLOAD>,
    /// Truncated HMAC-SHA256 over `(direction, ctr, ciphertext)`.
    pub mac: [u8; MAC_LEN],
}

impl SealedRegMsg {
    /// AES-CTR ciphertext of the payload.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// Canonical byte encoding: counter (u64 LE), ciphertext length
    /// (u32 LE), ciphertext, tag.
    pub fn to_bytes(&self) -> InlineBytes<MAX_WIRE_LEN> {
        let len = self.ciphertext.len;
        let mut out = InlineBytes::concat([
            &self.ctr.to_le_bytes()[..],
            &(len as u32).to_le_bytes(),
            &self.ciphertext.bytes,
        ]);
        // The tag goes over the ciphertext's zero tail.
        let tag_at = HEADER_LEN + len;
        if let Some(dst) = out.bytes.get_mut(tag_at..tag_at + MAC_LEN) {
            dst.copy_from_slice(&self.mac);
            out.len = tag_at + MAC_LEN;
        }
        out
    }

    /// Decodes [`to_bytes`](SealedRegMsg::to_bytes) output.
    ///
    /// # Errors
    ///
    /// [`SalusError::Malformed`] on truncation, on a length field that
    /// disagrees with the message, and on a ciphertext longer than
    /// [`MAX_PAYLOAD`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SealedRegMsg, SalusError> {
        let truncated = || SalusError::Malformed("sealed reg msg");
        let (ctr, rest) = bytes.split_first_chunk::<8>().ok_or_else(truncated)?;
        let (len, rest) = rest.split_first_chunk::<4>().ok_or_else(truncated)?;
        let (ciphertext, mac) = rest.split_last_chunk::<MAC_LEN>().ok_or_else(truncated)?;
        if u32::try_from(ciphertext.len()) != Ok(u32::from_le_bytes(*len)) {
            return Err(SalusError::Malformed("sealed reg msg length"));
        }
        Ok(SealedRegMsg {
            ctr: u64::from_le_bytes(*ctr),
            ciphertext: InlineBytes::from_slice(ciphertext)
                .ok_or(SalusError::Malformed("sealed reg msg too long"))?,
            mac: *mac,
        })
    }
}

/// Direction of a message, bound into nonce and MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HostToLogic,
    LogicToHost,
}

/// `Key_session` expanded once per endpoint: the AES-256 schedule for
/// the payload keystream and the HMAC midstates for the tag. A
/// transaction then costs one AES block per payload and two SHA-256
/// compressions per tag, with no key expansion and no allocation.
#[derive(Debug, Clone)]
struct SessionCrypto {
    cipher: Aes256,
    mac: HmacKey,
}

impl SessionCrypto {
    fn new(key: &KeySession) -> SessionCrypto {
        SessionCrypto {
            cipher: Aes256::new(key.as_bytes()),
            mac: HmacKey::new(key.as_bytes()),
        }
    }

    /// XORs the `(dir, ctr)` keystream into `payload`: AES-CTR from the
    /// counter block `dir + 1 || 0⁷ || ctr (u64 LE)`, whose first block
    /// covers any payload. The payload's zero tail stays zero.
    fn apply_keystream(&self, dir: Direction, ctr: u64, payload: &mut InlineBytes<MAX_PAYLOAD>) {
        let mut keystream = (u128::from(ctr) << 64 | u128::from(dir as u8 + 1)).to_le_bytes();
        self.cipher.encrypt_block(&mut keystream);
        let in_use = u128::MAX
            .checked_shr(8 * BLOCK_SIZE.saturating_sub(payload.len) as u32)
            .unwrap_or(0);
        let keystream = u128::from_le_bytes(keystream) & in_use;
        payload.bytes = (u128::from_le_bytes(payload.bytes) ^ keystream).to_le_bytes();
    }

    /// Truncated HMAC over `(direction, ctr, ciphertext)`.
    fn tag(
        &self,
        dir: Direction,
        ctr: u64,
        ciphertext: &InlineBytes<MAX_PAYLOAD>,
    ) -> [u8; MAC_LEN] {
        let input = InlineBytes::<MAC_INPUT_LEN>::concat([
            &[dir as u8 + 1][..],
            &ctr.to_le_bytes(),
            &ciphertext.bytes,
        ]);
        let in_use = MAC_INPUT_LEN - MAX_PAYLOAD + ciphertext.len;
        let digest = self.mac.tag(input.bytes.get(..in_use).unwrap_or_default());
        core::array::from_fn(|i| digest[i])
    }

    fn seal(
        &self,
        dir: Direction,
        ctr: u64,
        mut ciphertext: InlineBytes<MAX_PAYLOAD>,
    ) -> SealedRegMsg {
        self.apply_keystream(dir, ctr, &mut ciphertext);
        let mac = self.tag(dir, ctr, &ciphertext);
        SealedRegMsg {
            ctr,
            ciphertext,
            mac,
        }
    }

    fn open(
        &self,
        dir: Direction,
        expected_ctr: u64,
        msg: &SealedRegMsg,
    ) -> Result<InlineBytes<MAX_PAYLOAD>, SalusError> {
        if msg.ctr != expected_ctr {
            return Err(SalusError::RegisterChannelViolation("counter mismatch"));
        }
        let mac = self.tag(dir, msg.ctr, &msg.ciphertext);
        if !salus_crypto::ct::eq(&mac, &msg.mac) {
            return Err(SalusError::RegisterChannelViolation("MAC mismatch"));
        }
        let mut plaintext = msg.ciphertext;
        self.apply_keystream(dir, msg.ctr, &mut plaintext);
        Ok(plaintext)
    }
}

/// The host (SM enclave) endpoint of the channel.
#[derive(Debug)]
pub struct HostRegChannel {
    crypto: SessionCrypto,
    ctr: u64,
}

impl HostRegChannel {
    /// Creates the host endpoint from the injected secrets.
    pub fn new(key: KeySession, ctr_seed: u64) -> HostRegChannel {
        HostRegChannel {
            crypto: SessionCrypto::new(&key),
            ctr: ctr_seed,
        }
    }

    /// Seals the next register operation.
    pub fn seal_op(&mut self, op: RegisterOp) -> SealedRegMsg {
        let msg = self.crypto.seal(
            Direction::HostToLogic,
            self.ctr,
            InlineBytes::from_array(op.to_bytes()),
        );
        self.ctr = self.ctr.wrapping_add(1);
        msg
    }

    /// Opens the logic's response to the operation just sent
    /// (the response echoes the request counter).
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] on tampering or replay.
    pub fn open_response(&self, msg: &SealedRegMsg) -> Result<u64, SalusError> {
        let plain = self
            .crypto
            .open(Direction::LogicToHost, self.ctr.wrapping_sub(1), msg)?;
        let value =
            <[u8; 8]>::try_from(&*plain).map_err(|_| SalusError::Malformed("register response"))?;
        Ok(u64::from_le_bytes(value))
    }
}

/// The SM-logic endpoint of the channel.
#[derive(Debug)]
pub struct LogicRegChannel {
    crypto: SessionCrypto,
    expected_ctr: u64,
}

impl LogicRegChannel {
    /// Creates the logic endpoint from the BRAM-loaded secrets.
    pub fn new(key: KeySession, ctr_seed: u64) -> LogicRegChannel {
        LogicRegChannel {
            crypto: SessionCrypto::new(&key),
            expected_ctr: ctr_seed,
        }
    }

    /// Verifies and decrypts the next host operation.
    ///
    /// # Errors
    ///
    /// [`SalusError::RegisterChannelViolation`] on tampering or replay.
    pub fn open_op(&mut self, msg: &SealedRegMsg) -> Result<RegisterOp, SalusError> {
        let plain = self
            .crypto
            .open(Direction::HostToLogic, self.expected_ctr, msg)?;
        let op = RegisterOp::from_bytes(&plain)?;
        self.expected_ctr = self.expected_ctr.wrapping_add(1);
        Ok(op)
    }

    /// Seals the response value for the operation just opened.
    pub fn seal_response(&self, value: u64) -> SealedRegMsg {
        self.crypto.seal(
            Direction::LogicToHost,
            self.expected_ctr.wrapping_sub(1),
            InlineBytes::from_array(value.to_le_bytes()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (HostRegChannel, LogicRegChannel) {
        let key = KeySession::from_bytes([0x33; 32]);
        (
            HostRegChannel::new(key, 1000),
            LogicRegChannel::new(key, 1000),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut host, mut logic) = pair();
        let sealed = host.seal_op(RegisterOp::Write { addr: 4, value: 99 });
        let op = logic.open_op(&sealed).unwrap();
        assert_eq!(op, RegisterOp::Write { addr: 4, value: 99 });
        let rsp = logic.seal_response(0);
        assert_eq!(host.open_response(&rsp).unwrap(), 0);

        let sealed = host.seal_op(RegisterOp::Read { addr: 4 });
        assert_eq!(
            logic.open_op(&sealed).unwrap(),
            RegisterOp::Read { addr: 4 }
        );
        let rsp = logic.seal_response(99);
        assert_eq!(host.open_response(&rsp).unwrap(), 99);
    }

    #[test]
    fn replay_rejected() {
        let (mut host, mut logic) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        logic.open_op(&sealed).unwrap();
        assert!(matches!(
            logic.open_op(&sealed),
            Err(SalusError::RegisterChannelViolation("counter mismatch"))
        ));
    }

    #[test]
    fn tampering_rejected() {
        let (mut host, mut logic) = pair();
        let mut sealed = host.seal_op(RegisterOp::Write { addr: 1, value: 2 });
        sealed.ciphertext[0] ^= 1;
        assert!(matches!(
            logic.open_op(&sealed),
            Err(SalusError::RegisterChannelViolation("MAC mismatch"))
        ));
    }

    #[test]
    fn ctr_forgery_rejected() {
        let (mut host, mut logic) = pair();
        let mut sealed = host.seal_op(RegisterOp::Write { addr: 1, value: 2 });
        sealed.ctr += 1; // attacker advances the counter field
        assert!(logic.open_op(&sealed).is_err());
    }

    #[test]
    fn mismatched_seeds_fail() {
        let key = KeySession::from_bytes([0x33; 32]);
        let mut host = HostRegChannel::new(key, 5);
        let mut logic = LogicRegChannel::new(key, 6);
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        assert!(logic.open_op(&sealed).is_err());
    }

    #[test]
    fn reflected_message_rejected() {
        // A host→logic message replayed back to the host as a response
        // must fail: directions are domain-separated.
        let (mut host, _logic) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 1 });
        assert!(host.open_response(&sealed).is_err());
    }

    #[test]
    fn confidentiality_of_payload() {
        let (mut host, _) = pair();
        let value: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let sealed = host.seal_op(RegisterOp::Write { addr: 1, value });
        let bytes = sealed.to_bytes();
        assert!(
            !bytes.windows(8).any(|w| w == value.to_le_bytes()),
            "plaintext value must not appear on the bus"
        );
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // One request and its response, byte for byte: any change to the
        // nonce layout, keystream, MAC input or encoding shows up here.
        let (mut host, mut logic) = pair();
        let request = host.seal_op(RegisterOp::Write {
            addr: 4,
            value: 0x0123_4567_89ab_cdef,
        });
        logic.open_op(&request).unwrap();
        let response = logic.seal_response(0xdead_beef);
        assert_eq!(host.open_response(&response).unwrap(), 0xdead_beef);
        assert_eq!(
            salus_crypto::sha256::to_hex(&request.to_bytes()),
            "e8030000000000000d0000006c45dc10ef3b9f9aa0d26cd4cf18abb149820b177696d27675638a8af6"
        );
        assert_eq!(
            salus_crypto::sha256::to_hex(&response.to_bytes()),
            "e803000000000000080000002edd291c0b79d48ca3848ec80ac4f947b800582f1d18bd8e"
        );
    }

    #[test]
    fn byte_roundtrip() {
        let (mut host, _) = pair();
        let sealed = host.seal_op(RegisterOp::Read { addr: 7 });
        assert_eq!(
            SealedRegMsg::from_bytes(&sealed.to_bytes()).unwrap(),
            sealed
        );
        assert!(SealedRegMsg::from_bytes(&[0; 4]).is_err());
    }
}
