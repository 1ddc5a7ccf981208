//! Bitstream wire format: sync word, configuration packets, CRC, and the
//! encrypted envelope.
//!
//! The format is a simplified Xilinx UltraScale stream: dummy padding, a
//! sync word, then type-1/type-2 packets addressing configuration
//! registers (CMD, FAR, FDRI, CRC, ...). Encrypted bitstreams wrap the
//! whole inner plaintext stream in one AES-GCM envelope addressed to the
//! `ENC` register; only the internal configuration engine (which alone
//! can read the fused key) can open it — the property Salus repurposes
//! to keep the RoT confidential from the shell.

/// CRC-32 (IEEE 802.3, reflected), the integrity word a stream's `CRC`
/// packet carries over its `FAR` and `FDRI` words.
pub use salus_crypto::crc32::{crc32, Crc32};
use salus_crypto::gcm::{AesGcm256, TAG_SIZE};

use crate::FpgaError;

/// The Xilinx sync word.
pub const SYNC_WORD: u32 = 0xAA99_5566;

/// Dummy padding word.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// Configuration registers addressable by type-1 packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum Reg {
    Crc = 0x00,
    Far = 0x01,
    Fdri = 0x02,
    Fdro = 0x03,
    Cmd = 0x04,
    Idcode = 0x0C,
    /// Encrypted-payload envelope (Salus: carries the GCM-sealed inner
    /// stream).
    Enc = 0x1A,
}

impl Reg {
    fn from_addr(addr: u16) -> Option<Reg> {
        Some(match addr {
            0x00 => Reg::Crc,
            0x01 => Reg::Far,
            0x02 => Reg::Fdri,
            0x03 => Reg::Fdro,
            0x04 => Reg::Cmd,
            0x0C => Reg::Idcode,
            0x1A => Reg::Enc,
            _ => return None,
        })
    }
}

/// CMD register command codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
#[allow(missing_docs)]
pub enum Cmd {
    Null = 0x0,
    Wcfg = 0x1,
    Rcfg = 0x4,
    Rcrc = 0x7,
    Desync = 0xD,
}

impl Cmd {
    pub(crate) fn from_word(w: u32) -> Option<Cmd> {
        Some(match w {
            0x0 => Cmd::Null,
            0x1 => Cmd::Wcfg,
            0x4 => Cmd::Rcfg,
            0x7 => Cmd::Rcrc,
            0xD => Cmd::Desync,
            _ => return None,
        })
    }
}

/// A parsed configuration packet, borrowing its payload from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet<'a> {
    /// Write `payload` words to `reg`.
    Write {
        /// Target register.
        reg: Reg,
        /// Payload words.
        payload: Payload<'a>,
    },
    /// Request a read of `words` words from `reg` (readback).
    Read {
        /// Source register.
        reg: Reg,
        /// Number of words requested.
        words: usize,
    },
    /// A no-op packet.
    Nop,
}

const TYPE1: u32 = 0b001 << 29;
const TYPE2: u32 = 0b010 << 29;
const OP_NOP: u32 = 0b00 << 27;
const OP_READ: u32 = 0b01 << 27;
const OP_WRITE: u32 = 0b10 << 27;
const TYPE1_COUNT_MASK: u32 = 0x7FF;
/// Type-1 header bits between the register address and the word count.
const TYPE1_RESERVED: u32 = 0b11 << 11;
const TYPE2_COUNT_MASK: u32 = 0x07FF_FFFF;

/// Serializes configuration packets into a byte stream.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    bytes: Vec<u8>,
}

/// Bytes a stream usually ends with after its long payload: a CRC
/// write and the desync command, one-word type-1 packets both.
const TRAILER_BYTES: usize = 16;

impl WireWriter {
    /// Starts a stream with dummy padding and the sync word.
    pub fn new() -> WireWriter {
        let mut w = WireWriter { bytes: Vec::new() };
        for _ in 0..8 {
            w.push(DUMMY_WORD);
        }
        w.push(SYNC_WORD);
        w
    }

    fn push(&mut self, word: u32) {
        self.bytes.extend_from_slice(&word.to_be_bytes());
    }

    fn type1_header(op: u32, reg: Reg, count: u32) -> u32 {
        debug_assert!(count <= TYPE1_COUNT_MASK);
        TYPE1 | op | ((reg as u32) << 13) | count
    }

    /// Writes `payload` to `reg` via a type-1 packet (≤ 2047 words).
    pub fn write_reg(&mut self, reg: Reg, payload: &[u32]) -> &mut Self {
        assert!(
            payload.len() as u32 <= TYPE1_COUNT_MASK,
            "type-1 payload too long"
        );
        self.push(Self::type1_header(OP_WRITE, reg, payload.len() as u32));
        for &word in payload {
            self.push(word);
        }
        self
    }

    /// Writes a command to the CMD register.
    pub fn write_cmd(&mut self, cmd: Cmd) -> &mut Self {
        self.write_reg(Reg::Cmd, &[cmd as u32])
    }

    /// Writes a long byte payload to `reg` via a type-1 header followed
    /// by a type-2 packet (used for FDRI frame data and ENC envelopes),
    /// packed into big-endian words and zero-padded to a whole word.
    pub fn write_long_bytes(&mut self, reg: Reg, payload: &[u8]) -> &mut Self {
        self.write_long_with(reg, payload.len(), |out| out.extend_from_slice(payload))
    }

    /// Writes the headers of a `len`-byte long payload, lets `fill`
    /// append exactly `len` bytes to the stream, and zero-pads them to
    /// a whole word. The buffer grows once, so a multi-megabyte payload
    /// is written where it ends up.
    fn write_long_with(
        &mut self,
        reg: Reg,
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> &mut Self {
        let padded = len.next_multiple_of(4);
        assert!(
            padded / 4 <= TYPE2_COUNT_MASK as usize,
            "type-2 payload too long"
        );
        self.push(Self::type1_header(OP_WRITE, reg, 0));
        self.push(TYPE2 | OP_WRITE | (padded / 4) as u32);
        self.bytes.reserve(padded + TRAILER_BYTES);
        let start = self.bytes.len();
        fill(&mut self.bytes);
        assert_eq!(self.bytes.len() - start, len, "payload length");
        self.bytes.resize(start + padded, 0);
        self
    }

    /// Emits a readback request for `words` words of `reg`.
    pub fn read_request(&mut self, reg: Reg, words: usize) -> &mut Self {
        self.push(Self::type1_header(OP_READ, reg, 0));
        self.push(TYPE2 | OP_READ | words as u32);
        self
    }

    /// Finishes the stream (desync) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.write_cmd(Cmd::Desync);
        self.bytes
    }
}

/// A packet payload: whole big-endian words, as the bytes they occupy
/// in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Whether the payload has no words.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The first word, if any.
    pub fn first(&self) -> Option<u32> {
        self.0.first_chunk().map(|w| u32::from_be_bytes(*w))
    }

    /// The payload's bytes, as they appear in the stream.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.0
    }
}

/// Parses a wire stream into packets.
///
/// # Errors
///
/// Returns [`FpgaError::MalformedBitstream`] for truncated or
/// unrecognised streams.
pub fn parse(bytes: &[u8]) -> Result<Vec<Packet<'_>>, FpgaError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(FpgaError::MalformedBitstream("length not word aligned"));
    }
    let words = Words(bytes);

    // Skip dummy words, find sync.
    let mut i = 0;
    while words.get(i) == Some(DUMMY_WORD) {
        i += 1;
    }
    if words.get(i) != Some(SYNC_WORD) {
        return Err(FpgaError::MalformedBitstream("missing sync word"));
    }
    i += 1;

    let mut packets = Vec::new();
    while let Some(header) = words.get(i) {
        i += 1;
        let ptype = header >> 29;
        let op = header & (0b11 << 27);
        match ptype {
            0b001 => {
                if header & TYPE1_RESERVED != 0 {
                    return Err(FpgaError::MalformedBitstream("reserved header bits set"));
                }
                let reg = Reg::from_addr(((header >> 13) & 0x3FFF) as u16)
                    .ok_or(FpgaError::MalformedBitstream("unknown register"))?;
                let count = (header & TYPE1_COUNT_MASK) as usize;
                match op {
                    OP_NOP => packets.push(Packet::Nop),
                    OP_WRITE => {
                        if count == 0 {
                            // Followed by a type-2 packet carrying the data.
                            let t2 = words
                                .get(i)
                                .ok_or(FpgaError::MalformedBitstream("truncated type-2"))?;
                            i += 1;
                            if t2 >> 29 != 0b010 || t2 & (0b11 << 27) != OP_WRITE {
                                return Err(FpgaError::MalformedBitstream("expected type-2 write"));
                            }
                            let t2_count = (t2 & TYPE2_COUNT_MASK) as usize;
                            let payload = words
                                .range(i, t2_count)
                                .ok_or(FpgaError::MalformedBitstream("truncated type-2 payload"))?;
                            packets.push(Packet::Write { reg, payload });
                            i += t2_count;
                        } else {
                            let payload = words
                                .range(i, count)
                                .ok_or(FpgaError::MalformedBitstream("truncated type-1 payload"))?;
                            packets.push(Packet::Write { reg, payload });
                            i += count;
                        }
                    }
                    OP_READ => {
                        if count == 0 {
                            // Long-form read: a type-2 word carries the count.
                            let t2 = words
                                .get(i)
                                .ok_or(FpgaError::MalformedBitstream("truncated type-2 read"))?;
                            i += 1;
                            if t2 >> 29 != 0b010 || t2 & (0b11 << 27) != OP_READ {
                                return Err(FpgaError::MalformedBitstream("expected type-2 read"));
                            }
                            packets.push(Packet::Read {
                                reg,
                                words: (t2 & TYPE2_COUNT_MASK) as usize,
                            });
                        } else {
                            packets.push(Packet::Read { reg, words: count });
                        }
                    }
                    _ => return Err(FpgaError::MalformedBitstream("bad opcode")),
                }
            }
            _ => return Err(FpgaError::MalformedBitstream("unexpected packet type")),
        }
    }
    Ok(packets)
}

/// A word-aligned byte stream read as big-endian words.
struct Words<'a>(&'a [u8]);

impl<'a> Words<'a> {
    /// Word `i`, if the stream has it.
    fn get(&self, i: usize) -> Option<u32> {
        let bytes = self.0.get(4 * i..)?.first_chunk::<4>()?;
        Some(u32::from_be_bytes(*bytes))
    }

    /// Words `start..start + count`, if the stream has them all.
    fn range(&self, start: usize, count: usize) -> Option<Payload<'a>> {
        let end = start.checked_add(count)?.checked_mul(4)?;
        self.0.get(4 * start..end).map(Payload)
    }
}

/// Envelope layout constants: `nonce (12 B) || GCM(ciphertext || tag)`.
pub const ENC_NONCE_BYTES: usize = 12;

/// Envelope bytes around the sealed stream: nonce, length header, tag.
const ENVELOPE_OVERHEAD: usize = ENC_NONCE_BYTES + 8 + TAG_SIZE;

/// Opens the ENC payload of a [`build_encrypted_stream`] in place and returns
/// the inner stream, a slice of `envelope`. Internal-use by the
/// configuration engine. The tag is checked before anything is
/// decrypted; on any error `envelope` holds no plaintext.
///
/// # Errors
///
/// [`FpgaError::MalformedBitstream`] when the envelope is too short for
/// its header and tag or its length header disagrees with the length
/// sealed (the header is outside the AAD, so it is checked, not
/// trusted); [`FpgaError::DecryptionFailed`] when the tag does not
/// verify.
pub(crate) fn open_envelope<'e>(
    key: &[u8; 32],
    device_dna: u64,
    envelope: &'e mut [u8],
) -> Result<&'e [u8], FpgaError> {
    let too_short = FpgaError::MalformedBitstream("envelope too short");
    let (nonce, rest) = envelope
        .split_first_chunk_mut::<ENC_NONCE_BYTES>()
        .ok_or(too_short.clone())?;
    let (inner_len, sealed) = rest.split_first_chunk_mut::<8>().ok_or(too_short.clone())?;
    let tag_at = sealed.len().checked_sub(TAG_SIZE).ok_or(too_short)?;
    if u64::from_be_bytes(*inner_len) != tag_at as u64 {
        return Err(FpgaError::MalformedBitstream("envelope length header"));
    }
    let (ciphertext, tag) = sealed.split_at_mut(tag_at);
    AesGcm256::new(key)
        .open_in_place_detached(nonce, &device_dna.to_le_bytes(), ciphertext, tag)
        .map_err(|_| FpgaError::DecryptionFailed)?;
    Ok(ciphertext)
}

/// Builds an encrypted wire stream that carries `inner_plain` (itself a
/// complete plaintext wire stream) inside one ENC envelope.
pub fn build_encrypted_stream(
    key: &[u8; 32],
    nonce: &[u8; ENC_NONCE_BYTES],
    device_dna: u64,
    inner_plain: &[u8],
) -> Vec<u8> {
    let Ok(stream) = build_encrypted_stream_patched(
        &AesGcm256::new(key),
        nonce,
        device_dna,
        inner_plain,
        |_| Ok::<(), std::convert::Infallible>(()),
    );
    stream
}

/// Builds an encrypted wire stream around a patched copy of
/// `inner_plain`: the plaintext is copied once, straight into the ENC
/// payload, `patch` edits that copy in place, and the envelope is sealed
/// where it lies, so the returned stream is the only buffer the
/// plaintext ever occupies outside `inner_plain`. The AAD binds the
/// target device's DNA, so an envelope cannot be re-targeted.
///
/// # Errors
///
/// Whatever `patch` returns; the stream is then dropped unsealed.
pub fn build_encrypted_stream_patched<E>(
    cipher: &AesGcm256,
    nonce: &[u8; ENC_NONCE_BYTES],
    device_dna: u64,
    inner_plain: &[u8],
    patch: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<Vec<u8>, E> {
    // A whole-word inner stream makes a whole-word envelope, so the
    // type-2 payload needs no padding and the engine can check the
    // length header against the sealed size.
    let mut patched = Ok(());
    let mut writer = WireWriter::new();
    writer.write_long_with(Reg::Enc, ENVELOPE_OVERHEAD + inner_plain.len(), |out| {
        out.extend_from_slice(nonce);
        out.extend_from_slice(&(inner_plain.len() as u64).to_be_bytes());
        let start = out.len();
        out.extend_from_slice(inner_plain);
        let inner = &mut out[start..];
        patched = patch(inner);
        let tag = match patched {
            Ok(()) => cipher.seal_in_place_detached(nonce, &device_dna.to_le_bytes(), inner),
            Err(_) => [0; TAG_SIZE],
        };
        out.extend_from_slice(&tag);
    });
    patched.map(|()| writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_parser_roundtrip() {
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Idcode, &[0x0BAD_C0DE])
            .write_reg(Reg::Far, &[0x0100_0000])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &[1, 2, 3, 4, 5].map(u32::to_be_bytes).concat());
        let bytes = w.finish();
        let writes: Vec<(Reg, Vec<u8>)> = parse(&bytes)
            .unwrap()
            .into_iter()
            .map(|p| match p {
                Packet::Write { reg, payload } => (reg, payload.as_bytes().to_vec()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<(Reg, Vec<u8>)> = [
            (Reg::Cmd, vec![Cmd::Rcrc as u32]),
            (Reg::Idcode, vec![0x0BAD_C0DE]),
            (Reg::Far, vec![0x0100_0000]),
            (Reg::Cmd, vec![Cmd::Wcfg as u32]),
            (Reg::Fdri, vec![1, 2, 3, 4, 5]),
            (Reg::Cmd, vec![Cmd::Desync as u32]),
        ]
        .into_iter()
        .map(|(reg, words)| (reg, words.iter().flat_map(|w| w.to_be_bytes()).collect()))
        .collect();
        assert_eq!(writes, expected);
    }

    #[test]
    fn read_request_roundtrip() {
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcfg).read_request(Reg::Fdro, 100);
        let stream = w.finish();
        let packets = parse(&stream).unwrap();
        assert!(packets.contains(&Packet::Read {
            reg: Reg::Fdro,
            words: 100
        }));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(b"xyz").is_err()); // unaligned
        assert!(parse(&[0u8; 16]).is_err()); // no sync
        let mut w = WireWriter::new();
        w.write_reg(Reg::Far, &[1]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 6); // truncate + unalign
        assert!(parse(&bytes).is_err());
    }

    /// The bit-at-a-time CRC-32: the oracle for the re-exported kernel.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_value() {
        // CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_oracle_on_every_short_length_and_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let expected = crc32_bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), expected, "len {len}");
            for split in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..split]);
                crc.update(&data[split..len]);
                assert_eq!(crc.finish(), expected, "len {len} split at {split}");
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_oracle_on_a_paper_sized_wire() {
        // A full U200 partition (the paper's board) laid out as the
        // compiler lays it out, with its CRC word from the oracle: the running
        // CRC in the ICAP must accept it, and `crc32` must agree with
        // the oracle over the whole wire.
        let geometry = crate::geometry::DeviceGeometry::u200();
        let payload: Vec<u8> = (0..geometry.partitions[0].config_bytes())
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_left(13) as u8)
            .collect();
        let far = 0u32;
        let covered = [&far.to_be_bytes()[..], &payload].concat();
        let family = geometry.family().code();
        let mut w = WireWriter::new();
        w.write_reg(Reg::Idcode, &[family])
            .write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[far])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &payload)
            .write_reg(Reg::Crc, &[crc32_bytewise(&covered)]);
        let stream = w.finish();
        assert!(stream.len() > 3_390_000, "{} bytes", stream.len());
        assert_eq!(crc32(&stream), crc32_bytewise(&stream));
        let mut device = crate::device::Device::manufacture(geometry, 1);
        device.icap_load(&stream).expect("the ICAP's CRC agrees");
    }

    #[test]
    fn envelope_roundtrip_and_binding() {
        let key = [9u8; 32];
        let plain = b"inner stream: 24 bytes!!".to_vec();
        let stream = build_encrypted_stream(&key, &[1u8; 12], 0xABCD, &plain);
        let env = match parse(&stream).unwrap().as_slice() {
            [Packet::Write {
                reg: Reg::Enc,
                payload,
            }, ..] => payload.as_bytes().to_vec(),
            other => panic!("expected an ENC write first, got {other:?}"),
        };
        let open = |key: &[u8; 32], dna, env: &[u8]| {
            open_envelope(key, dna, &mut env.to_vec()).map(<[u8]>::to_vec)
        };
        assert_eq!(open(&key, 0xABCD, &env).unwrap(), plain);
        // Wrong device: AAD mismatch.
        assert_eq!(open(&key, 0xABCE, &env), Err(FpgaError::DecryptionFailed));
        // Wrong key.
        assert_eq!(
            open(&[8u8; 32], 0xABCD, &env),
            Err(FpgaError::DecryptionFailed)
        );
        // Tampered ciphertext.
        let mut bad = env.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert_eq!(open(&key, 0xABCD, &bad), Err(FpgaError::DecryptionFailed));
        // A failed open leaves no plaintext behind.
        let mut failed = env.clone();
        assert!(open_envelope(&key, 0xABCE, &mut failed).is_err());
        assert_eq!(failed, env);
    }

    #[test]
    fn encrypted_stream_parses_to_enc_packet() {
        let key = [7u8; 32];
        let stream = build_encrypted_stream(&key, &[0u8; 12], 1, b"abcd");
        let packets = parse(&stream).unwrap();
        assert!(matches!(&packets[0], Packet::Write { reg: Reg::Enc, .. }));
    }

    #[test]
    fn bytes_words_roundtrip_with_padding() {
        let bytes = vec![1u8, 2, 3, 4, 5];
        let mut w = WireWriter::new();
        w.write_long_bytes(Reg::Fdri, &bytes);
        let stream = w.finish();
        let packets = parse(&stream).unwrap();
        let Packet::Write { payload, .. } = &packets[0] else {
            panic!("expected the FDRI write first");
        };
        assert_eq!(payload.len(), 2);
        assert_eq!(payload.first(), Some(0x0102_0304));
        assert_eq!(payload.as_bytes(), [1, 2, 3, 4, 5, 0, 0, 0]);
    }
}
