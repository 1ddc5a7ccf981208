//! The append-only SHA-256 hash chain under the control plane's two
//! logs: the audit log (`platform::audit`) and the write-ahead intent
//! journal (`platform::journal`).
//!
//! A [`HashChain<E>`] holds [`ChainRecord`]s: sequence number, virtual
//! timestamp, the previous record's digest, and one entry `E`. Each
//! record's digest is a domain-separated SHA-256 over all four, so the
//! chain is anchored at a fixed per-log genesis digest: mutating,
//! reordering, or truncating any prefix is detectable from the chain
//! head alone. [`HashChain::verify`] re-walks the chain and pinpoints
//! the first record where it breaks; [`HashChain::to_bytes`] /
//! [`HashChain::from_bytes`] give a canonical serialization whose
//! decoder turns every malformed input into a typed error, never a
//! panic.
//!
//! What differs between logs — digest domain, serialization magic,
//! entry codec, and the error a broken chain surfaces as — is the
//! [`ChainEntry`] trait.

use std::time::Duration;

use salus_crypto::sha256::{Digest, Sha256};

use super::fleet::{DeployPath, SlotId};
use crate::SalusError;

/// Serialized size of the smallest record: seq (8), timestamp (16),
/// previous digest (32), entry length (8), a one-byte entry (its tag),
/// and the digest (32). Bounds the record count a blob can claim.
const MIN_RECORD_LEN: usize = 8 + 16 + 32 + 8 + 1 + 32;

/// What one kind of log plugs into [`HashChain`].
pub trait ChainEntry: Sized {
    /// Domain prefix: the genesis digest is SHA-256 of
    /// `"{DOMAIN}-genesis"`, and every record digest starts with
    /// `"{DOMAIN}-record"`.
    const DOMAIN: &'static str;

    /// The 16 bytes a serialized chain starts with.
    const MAGIC: [u8; 16];

    /// Canonical encoding: one tag byte, then the fields in declaration
    /// order, little-endian, strings length-prefixed.
    fn encode(&self, out: &mut Vec<u8>);

    /// Inverse of [`encode`](ChainEntry::encode).
    ///
    /// # Errors
    ///
    /// A static reason on malformed bytes.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, &'static str>;

    /// The error a broken chain of this kind surfaces as.
    fn error(reason: &'static str) -> SalusError;
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn push_slot(out: &mut Vec<u8>, slot: SlotId) {
    push_u64(out, slot.device as u64);
    push_u64(out, slot.partition as u64);
}

pub(crate) fn push_duration(out: &mut Vec<u8>, d: Duration) {
    out.extend_from_slice(&d.as_nanos().to_le_bytes());
}

pub(crate) fn path_tag(path: DeployPath) -> u8 {
    match path {
        DeployPath::Cold => 0,
        DeployPath::WarmKey => 1,
        DeployPath::WarmImage => 2,
    }
}

/// Inverse of [`path_tag`].
pub(crate) fn deploy_path(tag: u8) -> Result<DeployPath, &'static str> {
    match tag {
        0 => Ok(DeployPath::Cold),
        1 => Ok(DeployPath::WarmKey),
        2 => Ok(DeployPath::WarmImage),
        _ => Err("unknown deploy path"),
    }
}

/// Bounded little-endian reader over serialized chain bytes. Every read
/// is checked: running out of bytes is an error, never a panic.
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let (out, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or("truncated record bytes")?;
        self.rest = rest;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let (out, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or("truncated record bytes")?;
        self.rest = rest;
        Ok(*out)
    }

    /// One byte.
    pub(crate) fn u8(&mut self) -> Result<u8, &'static str> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// A little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// A 32-byte digest.
    pub(crate) fn digest(&mut self) -> Result<Digest, &'static str> {
        self.take_array()
    }

    /// A duration stored as little-endian `u128` nanoseconds.
    pub(crate) fn duration(&mut self) -> Result<Duration, &'static str> {
        let nanos = u128::from_le_bytes(self.take_array()?);
        u64::try_from(nanos)
            .map(Duration::from_nanos)
            .map_err(|_| "duration out of range")
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Result<String, &'static str> {
        let len = usize::try_from(self.u64()?).map_err(|_| "oversized string length")?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-utf8 string")
    }

    /// A (device, partition) slot.
    pub(crate) fn slot(&mut self) -> Result<SlotId, &'static str> {
        Ok(SlotId {
            device: self.u64()? as usize,
            partition: self.u64()? as usize,
        })
    }
}

/// One hash-chained record. All fields are public for observers and for
/// tamper-evidence tests, which rebuild chains from deliberately
/// corrupted records via [`HashChain::from_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecord<E> {
    /// Position in the chain, starting at 0.
    pub seq: u64,
    /// Virtual timestamp the entry was appended at.
    pub at: Duration,
    /// Digest of the previous record ([`HashChain::genesis`] for the
    /// first).
    pub prev_digest: Digest,
    /// The entry itself.
    pub entry: E,
    /// Domain-separated SHA-256 over seq, timestamp, `prev_digest`, and
    /// the canonical entry bytes.
    pub digest: Digest,
}

impl<E: ChainEntry> ChainRecord<E> {
    /// Recomputes what this record's digest must be from its own
    /// fields.
    pub fn expected_digest(&self) -> Digest {
        let mut entry = Vec::new();
        self.entry.encode(&mut entry);
        Sha256::digest_parts(&[
            E::DOMAIN.as_bytes(),
            b"-record",
            &self.seq.to_le_bytes(),
            &self.at.as_nanos().to_le_bytes(),
            &self.prev_digest,
            &entry,
        ])
    }

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.seq);
        push_duration(out, self.at);
        out.extend_from_slice(&self.prev_digest);
        let mut entry = Vec::new();
        self.entry.encode(&mut entry);
        push_u64(out, entry.len() as u64);
        out.extend_from_slice(&entry);
        out.extend_from_slice(&self.digest);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<ChainRecord<E>, &'static str> {
        let seq = cur.u64()?;
        let at = cur.duration()?;
        let prev_digest = cur.digest()?;
        let entry_len = usize::try_from(cur.u64()?).map_err(|_| "oversized entry length")?;
        let mut entry_cur = Cursor::new(cur.take(entry_len)?);
        let entry = E::decode(&mut entry_cur)?;
        if !entry_cur.rest.is_empty() {
            return Err("trailing entry bytes");
        }
        let digest = cur.digest()?;
        Ok(ChainRecord {
            seq,
            at,
            prev_digest,
            entry,
            digest,
        })
    }
}

/// Where [`HashChain::verify`] found a chain broken.
#[derive(Debug, Clone, Copy)]
pub struct ChainFault {
    /// Index of the first record that fails verification.
    pub index: usize,
    /// What is wrong with it.
    pub reason: &'static str,
    error: fn(&'static str) -> SalusError,
}

impl std::fmt::Display for ChainFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}: {}", self.index, (self.error)(self.reason))
    }
}

impl From<ChainFault> for SalusError {
    fn from(fault: ChainFault) -> SalusError {
        (fault.error)(fault.reason)
    }
}

/// The append-only hash chain itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashChain<E> {
    records: Vec<ChainRecord<E>>,
}

impl<E> Default for HashChain<E> {
    fn default() -> HashChain<E> {
        HashChain {
            records: Vec::new(),
        }
    }
}

impl<E: ChainEntry> HashChain<E> {
    /// An empty chain.
    pub fn new() -> HashChain<E> {
        HashChain::default()
    }

    /// The fixed digest the first record chains from.
    pub fn genesis() -> Digest {
        Sha256::digest_parts(&[E::DOMAIN.as_bytes(), b"-genesis"])
    }

    /// Rebuilds a chain from raw records *without* verifying them — for
    /// tamper-evidence tests and external verifiers; run
    /// [`verify`](HashChain::verify) afterwards.
    pub fn from_records(records: Vec<ChainRecord<E>>) -> HashChain<E> {
        HashChain { records }
    }

    /// Appends `entry` at virtual time `at` and returns the new chain
    /// head.
    pub fn append(&mut self, at: Duration, entry: E) -> Digest {
        let mut record = ChainRecord {
            seq: self.records.len() as u64,
            at,
            prev_digest: self.head(),
            entry,
            digest: [0; 32],
        };
        record.digest = record.expected_digest();
        self.records.push(record);
        self.head()
    }

    /// The digest of the latest record (the genesis digest when empty).
    /// Anchoring this head externally commits to the entire history.
    pub fn head(&self) -> Digest {
        self.records
            .last()
            .map_or_else(HashChain::<E>::genesis, |r| r.digest)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[ChainRecord<E>] {
        &self.records
    }

    /// Walks the whole chain and reports the first record that breaks
    /// it: wrong genesis anchor, non-contiguous sequence numbers, time
    /// running backwards, a record not chaining from its predecessor's
    /// digest, or a digest that does not match the record's own fields.
    ///
    /// # Errors
    ///
    /// [`ChainFault`] naming the first bad record.
    pub fn verify(&self) -> Result<(), ChainFault> {
        self.verify_with(|_| Ok(()))
    }

    /// [`verify`](HashChain::verify), then `check` on each entry in
    /// chain order once its record's links hold — for logs whose entries
    /// carry their own invariants.
    ///
    /// # Errors
    ///
    /// [`ChainFault`] naming the first bad record.
    pub(crate) fn verify_with(
        &self,
        mut check: impl FnMut(&E) -> Result<(), &'static str>,
    ) -> Result<(), ChainFault> {
        let mut prev_digest = HashChain::<E>::genesis();
        let mut prev_at = Duration::ZERO;
        for (index, record) in self.records.iter().enumerate() {
            let verdict = if record.seq != index as u64 {
                Err("sequence number out of order")
            } else if record.at < prev_at {
                Err("timestamp runs backwards")
            } else if record.prev_digest != prev_digest {
                Err("does not chain from predecessor")
            } else if record.digest != record.expected_digest() {
                Err("digest does not match record contents")
            } else {
                check(&record.entry)
            };
            verdict.map_err(|reason| ChainFault {
                index,
                reason,
                error: E::error,
            })?;
            prev_digest = record.digest;
            prev_at = record.at;
        }
        Ok(())
    }

    /// Canonical serialization of the whole chain: magic, record count,
    /// then each record little-endian. Two chains holding the same
    /// history serialize identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&E::MAGIC);
        push_u64(&mut out, self.records.len() as u64);
        for record in &self.records {
            record.encode(&mut out);
        }
        out
    }

    /// Decodes a serialized chain. Decoding checks structure only; run
    /// [`verify`](HashChain::verify) on the result to check integrity.
    ///
    /// # Errors
    ///
    /// [`ChainEntry::error`] on any malformed framing.
    pub fn from_bytes(bytes: &[u8]) -> Result<HashChain<E>, SalusError> {
        HashChain::decode(bytes).map_err(E::error)
    }

    fn decode(bytes: &[u8]) -> Result<HashChain<E>, &'static str> {
        let mut cur = Cursor::new(bytes);
        if cur.take_array()? != E::MAGIC {
            return Err("bad chain magic");
        }
        let count = usize::try_from(cur.u64()?)
            .ok()
            .filter(|&c| c <= cur.rest.len() / MIN_RECORD_LEN)
            .ok_or("implausible record count")?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(ChainRecord::decode(&mut cur)?);
        }
        if !cur.rest.is_empty() {
            return Err("trailing chain bytes");
        }
        Ok(HashChain { records })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::platform::audit::{AuditEvent, AuditLog};
    use crate::platform::journal::JournalEntry;
    use salus_net::fault::SplitMix64;

    /// Serialized chain header: 16-byte magic, then the record count.
    const HEADER_LEN: usize = 16 + 8;

    /// Seeded entry generator each chained entry type provides to the
    /// shared suite below.
    pub(crate) trait Sample: ChainEntry + Clone + PartialEq + std::fmt::Debug {
        /// The `i`-th entry of a stream drawn from `rng`.
        fn sample(rng: &mut SplitMix64, i: usize) -> Self;
    }

    pub(crate) fn seeded_chain<E: Sample>(seed: u64, n: usize) -> HashChain<E> {
        let mut rng = SplitMix64::new(seed);
        let mut chain = HashChain::new();
        let mut at = Duration::ZERO;
        for i in 0..n {
            at += Duration::from_millis(rng.below(50));
            chain.append(at, E::sample(&mut rng, i));
        }
        chain
    }

    /// Some entry that differs from `entry`.
    fn other_than<E: Sample>(entry: &E) -> E {
        let mut rng = SplitMix64::new(0x07E5);
        (0..)
            .map(|i| E::sample(&mut rng, i))
            .find(|e| e != entry)
            .unwrap()
    }

    /// True when `bytes` with `bit` flipped still decode to a chain that
    /// verifies clean.
    fn flip_survives<E: Sample>(bytes: &[u8], bit: usize) -> bool {
        let mut tampered = bytes.to_vec();
        tampered[bit / 8] ^= 1 << (bit % 8);
        HashChain::<E>::from_bytes(&tampered).is_ok_and(|chain| chain.verify().is_ok())
    }

    fn chain_anchors_at_genesis_and_commits_to_history<E: Sample>() {
        let empty = HashChain::<E>::new();
        assert!(empty.is_empty());
        assert_eq!(empty.head(), HashChain::<E>::genesis());
        empty.verify().unwrap();
        assert_eq!(HashChain::from_bytes(&empty.to_bytes()).unwrap(), empty);

        let chain = seeded_chain::<E>(11, 40);
        assert_eq!(chain.len(), 40);
        chain.verify().unwrap();
        assert_eq!(chain.head(), chain.records().last().unwrap().digest);
        let decoded = HashChain::from_bytes(&chain.to_bytes()).unwrap();
        assert_eq!(decoded, chain);
        decoded.verify().unwrap();

        // Same entries ⇒ same bytes and same head; a different stream ⇒
        // a different head.
        assert_eq!(chain.to_bytes(), seeded_chain::<E>(11, 40).to_bytes());
        assert_ne!(chain.head(), seeded_chain::<E>(12, 40).head());
    }

    fn tampered_records_are_pinpointed<E: Sample>() {
        let chain = seeded_chain::<E>(21, 12);
        let fault_of = |edit: &dyn Fn(&mut Vec<ChainRecord<E>>)| {
            let mut records = chain.records().to_vec();
            edit(&mut records);
            HashChain::from_records(records).verify().unwrap_err()
        };

        let fault = fault_of(&|r| r[5].entry = other_than(&r[5].entry));
        assert_eq!(
            (fault.index, fault.reason),
            (5, "digest does not match record contents")
        );

        // Re-sealing a mutated record's own digest breaks the *next*
        // record's chain link instead.
        let fault = fault_of(&|r| {
            r[5].entry = other_than(&r[5].entry);
            r[5].digest = r[5].expected_digest();
        });
        assert_eq!(
            (fault.index, fault.reason),
            (6, "does not chain from predecessor")
        );

        // Time running backwards is caught before the digest mismatch.
        let fault = fault_of(&|r| r[6].at = Duration::ZERO);
        assert_eq!((fault.index, fault.reason), (6, "timestamp runs backwards"));

        let fault = fault_of(&|r| r.swap(3, 4));
        assert_eq!(fault.index, 3, "first displaced record: {fault}");
        let fault = fault_of(&|r| drop(r.remove(6)));
        assert_eq!(fault.index, 6, "first record after the gap: {fault}");

        // Truncating the *tail* silently is exactly what the exported
        // chain head defends against: the shortened chain still
        // verifies, but its head no longer matches the anchored one.
        let shorter = HashChain::from_records(chain.records()[..8].to_vec());
        shorter.verify().unwrap();
        assert_ne!(shorter.head(), chain.head());
    }

    fn bit_flips_are_rejected<E: Sample>() {
        // Exhaustive over a small chain: each flip must fail to decode
        // or fail verification — never verify clean.
        let bytes = seeded_chain::<E>(41, 3).to_bytes();
        for bit in 0..bytes.len() * 8 {
            assert!(
                !flip_survives::<E>(&bytes, bit),
                "bit flip {bit} went undetected"
            );
        }

        // One seeded random flip per longer stream.
        for seed in 0..20u64 {
            let chain = seeded_chain::<E>(seed, 30);
            chain
                .verify()
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            let bytes = chain.to_bytes();
            assert_eq!(HashChain::from_bytes(&bytes).unwrap(), chain);
            let bit = SplitMix64::new(seed ^ 0xF1_1B).below((bytes.len() * 8) as u64) as usize;
            assert!(
                !flip_survives::<E>(&bytes, bit),
                "seed {seed}: bit flip {bit} went undetected"
            );
        }
    }

    fn malformed_framing_is_refused<E: Sample>() {
        let bytes = seeded_chain::<E>(61, 3).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                HashChain::<E>::from_bytes(&bytes[..len]).is_err(),
                "strict prefix of {len} bytes decoded"
            );
        }

        // A header claiming more records than the blob could hold is
        // refused before anything is allocated for them.
        let with_count = |count: usize| {
            let mut forged = bytes.clone();
            forged[16..HEADER_LEN].copy_from_slice(&(count as u64).to_le_bytes());
            HashChain::<E>::from_bytes(&forged)
        };
        let fits = (bytes.len() - HEADER_LEN) / MIN_RECORD_LEN;
        let implausible = E::error("implausible record count");
        assert_eq!(with_count(fits + 1).unwrap_err(), implausible);
        assert_ne!(with_count(fits).err(), Some(implausible));
    }

    /// Instantiates each generic test above once per entry type.
    macro_rules! for_each_entry_type {
        ($($name:ident),* $(,)?) => {
            mod audit {
                $(#[test]
                fn $name() {
                    super::$name::<super::AuditEvent>();
                })*
            }
            mod journal {
                $(#[test]
                fn $name() {
                    super::$name::<super::JournalEntry>();
                })*
            }
        };
    }

    for_each_entry_type!(
        chain_anchors_at_genesis_and_commits_to_history,
        tampered_records_are_pinpointed,
        bit_flips_are_rejected,
        malformed_framing_is_refused,
    );

    #[test]
    fn logs_are_domain_separated() {
        assert_ne!(AuditLog::genesis(), HashChain::<JournalEntry>::genesis());
        assert_eq!(
            HashChain::<JournalEntry>::from_bytes(&AuditLog::new().to_bytes()).unwrap_err(),
            SalusError::JournalCorrupt("bad chain magic")
        );
    }
}
