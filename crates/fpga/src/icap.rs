//! The Internal Configuration Access Port (ICAP) state machine.
//!
//! The ICAP is the only path into configuration memory. Two properties
//! matter for Salus:
//!
//! 1. **Internal decryption**: encrypted (`ENC`) payloads are opened with
//!    the fused device key, which only this engine can read. The shell
//!    pushes ciphertext through the ICAP but never sees plaintext.
//! 2. **Readback disable**: the paper requires "a new ICAP IP with
//!    readback disabled" (§5.1.2). [`Icap::salus`] models that IP:
//!    `FDRO` read requests fail with [`FpgaError::ReadbackDisabled`].
//!    [`Icap::standard`] models today's COTS ICAP where the malicious
//!    shell *can* scan the loaded CL — the weakness all prior FPGA-TEE
//!    work shares, demonstrated by the `readback_attack` experiments.

use crate::keys::DeviceKey;
use crate::wire::{self, Cmd, Packet, Reg};
use crate::FpgaError;

/// The device state the ICAP engine operates on.
///
/// Implemented by [`crate::device::Device`]; the indirection keeps the
/// packet state machine independently testable.
pub trait ConfigSink {
    /// Reads the fused decryption key (configuration-engine privilege).
    fn device_key(&self) -> Result<DeviceKey, FpgaError>;
    /// The device's DNA (used as AAD for envelope decryption).
    fn dna_raw(&self) -> u64;
    /// Bytes per configuration frame of this device's family — FDRI
    /// payloads are chunked into frames of this length.
    fn frame_bytes(&self) -> usize;
    /// The device's family identification code, checked against the
    /// IDCODE a compiled stream carries.
    fn family_code(&self) -> u32;
    /// Commits a full set of frames, back to back in the given runs of
    /// bytes, to partition `index`.
    fn commit_partition(&mut self, index: usize, frames: &[&[u8]]) -> Result<(), FpgaError>;
    /// The buffer envelopes are opened in, kept across loads so a load
    /// reuses its memory. The engine leaves it all zeros after every
    /// envelope, opened or not.
    fn envelope_buffer(&mut self) -> &mut Vec<u8>;
    /// Flattens partition `index` for readback.
    fn read_partition(&self, index: usize) -> Result<Vec<u8>, FpgaError>;
}

/// Summary of one committed partition load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSummary {
    /// Partition index that was reconfigured.
    pub partition: usize,
    /// Number of frames written.
    pub frames_written: u32,
    /// Whether the stream arrived through an encrypted envelope.
    pub encrypted: bool,
}

/// Outcome of processing one wire stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Partition loads committed by the stream.
    pub loads: Vec<LoadSummary>,
    /// Readback data, if the stream requested any and readback is
    /// enabled.
    pub readback: Vec<u8>,
}

/// The ICAP engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Icap {
    readback_enabled: bool,
}

impl Icap {
    /// A COTS ICAP: readback enabled (vulnerable to shell snooping).
    pub fn standard() -> Icap {
        Icap {
            readback_enabled: true,
        }
    }

    /// The Salus manufacturer-released ICAP IP: readback disabled.
    pub fn salus() -> Icap {
        Icap {
            readback_enabled: false,
        }
    }

    /// Whether configuration readback is possible.
    pub fn readback_enabled(&self) -> bool {
        self.readback_enabled
    }

    /// Processes a complete wire stream against `sink`.
    ///
    /// # Errors
    ///
    /// Propagates format errors, CRC mismatches, decryption failures,
    /// incomplete reconfigurations, and disabled-readback attempts.
    pub fn process<S: ConfigSink>(
        &self,
        sink: &mut S,
        stream: &[u8],
    ) -> Result<LoadOutcome, FpgaError> {
        let mut outcome = LoadOutcome::default();
        self.process_inner(sink, stream, false, &mut outcome)?;
        Ok(outcome)
    }

    fn process_inner<S: ConfigSink>(
        &self,
        sink: &mut S,
        stream: &[u8],
        encrypted: bool,
        outcome: &mut LoadOutcome,
    ) -> Result<(), FpgaError> {
        let packets = wire::parse(stream)?;
        // A stream ends with DESYNC; anything else was cut short, and is
        // refused before any of its packets takes effect.
        let desync = (Cmd::Desync as u32).to_be_bytes();
        if !matches!(packets.last(), Some(Packet::Write { reg: Reg::Cmd, payload })
            if payload.as_bytes() == desync)
        {
            return Err(FpgaError::MalformedBitstream(
                "stream does not end in DESYNC",
            ));
        }

        let mut far: u32 = 0;
        let mut wcfg = false;
        let mut crc = wire::Crc32::new();
        // FDRI payloads since the last CRC check, borrowed from the
        // stream: they are copied once, into configuration memory, when
        // the CRC verifies.
        let mut fdri: Vec<&[u8]> = Vec::new();

        for packet in packets {
            match packet {
                Packet::Nop => {}
                Packet::Write {
                    reg: Reg::Cmd,
                    payload,
                } => {
                    let cmd = payload
                        .first()
                        .and_then(Cmd::from_word)
                        .ok_or(FpgaError::MalformedBitstream("bad CMD payload"))?;
                    match cmd {
                        Cmd::Wcfg => wcfg = true,
                        Cmd::Rcrc => crc = wire::Crc32::new(),
                        Cmd::Rcfg | Cmd::Null | Cmd::Desync => {}
                    }
                }
                Packet::Write {
                    reg: Reg::Far,
                    payload,
                } => {
                    far = payload
                        .first()
                        .ok_or(FpgaError::MalformedBitstream("empty FAR"))?;
                    crc.update(&far.to_be_bytes());
                }
                Packet::Write {
                    reg: Reg::Fdri,
                    payload,
                } => {
                    if !wcfg {
                        return Err(FpgaError::MalformedBitstream("FDRI outside WCFG"));
                    }
                    fdri.push(payload.as_bytes());
                    crc.update(payload.as_bytes());
                }
                Packet::Write {
                    reg: Reg::Crc,
                    payload,
                } => {
                    let expected = payload
                        .first()
                        .ok_or(FpgaError::MalformedBitstream("empty CRC"))?;
                    if crc.finish() != expected {
                        return Err(FpgaError::CrcMismatch);
                    }
                    // CRC verified: commit the pending frames, framed
                    // at the *device's* family frame length. A stream
                    // compiled for another family would mis-chunk here
                    // even if its IDCODE were stripped — the explicit
                    // IDCODE check below fails first and cleanly.
                    let partition = (far >> 24) as usize;
                    let frame_bytes = sink.frame_bytes();
                    let len: usize = fdri.iter().map(|run| run.len()).sum();
                    if !len.is_multiple_of(frame_bytes) {
                        return Err(FpgaError::MalformedBitstream(
                            "frame data not frame aligned",
                        ));
                    }
                    let count = (len / frame_bytes) as u32;
                    sink.commit_partition(partition, &fdri)?;
                    fdri.clear();
                    outcome.loads.push(LoadSummary {
                        partition,
                        frames_written: count,
                        encrypted,
                    });
                    crc = wire::Crc32::new();
                }
                Packet::Write {
                    reg: Reg::Enc,
                    payload,
                } => {
                    let key = sink.device_key()?;
                    let dna = sink.dna_raw();
                    // The sink's buffer is taken for the envelope's
                    // lifetime (an envelope nested inside it gets a
                    // buffer of its own) and wiped before it goes back,
                    // whatever the outcome: plaintext never outlives
                    // the load.
                    let mut envelope = std::mem::take(sink.envelope_buffer());
                    envelope.clear();
                    envelope.extend_from_slice(payload.as_bytes());
                    let loaded = wire::open_envelope(&key, dna, &mut envelope)
                        .and_then(|inner| self.process_inner(sink, inner, true, outcome));
                    envelope.fill(0);
                    *sink.envelope_buffer() = envelope;
                    loaded?;
                }
                Packet::Write {
                    reg: Reg::Idcode,
                    payload,
                } => {
                    // Family check (fail closed): a bitstream compiled
                    // for another family's framing must never reach
                    // configuration memory, whatever the scheduler
                    // believed — defense in depth at the load layer.
                    let claimed = payload
                        .first()
                        .ok_or(FpgaError::MalformedBitstream("empty IDCODE"))?;
                    let device = sink.family_code();
                    if claimed != device {
                        return Err(FpgaError::FamilyMismatch {
                            device,
                            bitstream: claimed,
                        });
                    }
                }
                Packet::Write { reg: Reg::Fdro, .. } => {
                    return Err(FpgaError::MalformedBitstream("write to FDRO"));
                }
                Packet::Read {
                    reg: Reg::Fdro,
                    words,
                } => {
                    if !self.readback_enabled {
                        return Err(FpgaError::ReadbackDisabled);
                    }
                    let partition = (far >> 24) as usize;
                    let data = sink.read_partition(partition)?;
                    let take = (words * 4).min(data.len());
                    outcome.readback.extend_from_slice(&data[..take]);
                }
                Packet::Read { .. } => {
                    return Err(FpgaError::MalformedBitstream("read from non-FDRO register"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyId;
    use crate::wire::WireWriter;

    const FRAME_BYTES: usize = FamilyId::UltraScale.frame_bytes();

    /// In-memory sink with one 2-frame partition (UltraScale framing).
    struct TestSink {
        key: Option<DeviceKey>,
        dna: u64,
        committed: Vec<(usize, Vec<u8>)>,
        frames_in_partition: usize,
        envelope: Vec<u8>,
    }

    impl TestSink {
        fn new() -> TestSink {
            TestSink {
                key: Some([9u8; 32]),
                dna: 0x1234,
                committed: Vec::new(),
                frames_in_partition: 2,
                envelope: Vec::new(),
            }
        }
    }

    impl ConfigSink for TestSink {
        fn device_key(&self) -> Result<DeviceKey, FpgaError> {
            self.key.ok_or(FpgaError::NoDeviceKey)
        }
        fn dna_raw(&self) -> u64 {
            self.dna
        }
        fn frame_bytes(&self) -> usize {
            FRAME_BYTES
        }
        fn family_code(&self) -> u32 {
            FamilyId::UltraScale.code()
        }
        fn commit_partition(&mut self, index: usize, frames: &[&[u8]]) -> Result<(), FpgaError> {
            let frames = frames.concat();
            if frames.len() != self.frames_in_partition * FRAME_BYTES {
                return Err(FpgaError::IncompleteReconfiguration {
                    written: (frames.len() / FRAME_BYTES) as u32,
                    expected: self.frames_in_partition as u32,
                });
            }
            self.committed.push((index, frames));
            Ok(())
        }
        fn envelope_buffer(&mut self) -> &mut Vec<u8> {
            &mut self.envelope
        }
        fn read_partition(&self, _index: usize) -> Result<Vec<u8>, FpgaError> {
            Ok(vec![0xCC; self.frames_in_partition * FRAME_BYTES])
        }
    }

    fn plain_stream(partition: u32, frame_data: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        let far = partition << 24;
        w.write_cmd(Cmd::Rcrc).write_reg(Reg::Far, &[far]);
        w.write_cmd(Cmd::Wcfg);
        w.write_long_bytes(Reg::Fdri, frame_data);
        let mut crc_input = far.to_be_bytes().to_vec();
        crc_input.extend_from_slice(frame_data);
        let crc = wire::crc32(&crc_input);
        w.write_reg(Reg::Crc, &[crc]);
        w.finish()
    }

    #[test]
    fn plaintext_load_commits_frames() {
        let mut sink = TestSink::new();
        let data = vec![0xAB; 2 * FRAME_BYTES];
        let outcome = Icap::salus()
            .process(&mut sink, &plain_stream(0, &data))
            .unwrap();
        assert_eq!(outcome.loads.len(), 1);
        assert!(!outcome.loads[0].encrypted);
        assert_eq!(sink.committed.len(), 1);
        assert_eq!(sink.committed[0].1[0], 0xAB);
    }

    #[test]
    fn crc_mismatch_rejected() {
        let mut sink = TestSink::new();
        let data = vec![0xAB; 2 * FRAME_BYTES];
        let mut stream = plain_stream(0, &data);
        // Corrupt one frame byte: CRC should now fail.
        let idx = stream.len() / 2;
        stream[idx] ^= 0xFF;
        let err = Icap::salus().process(&mut sink, &stream).unwrap_err();
        assert_eq!(err, FpgaError::CrcMismatch);
        assert!(sink.committed.is_empty());
    }

    #[test]
    fn incomplete_frames_rejected() {
        let mut sink = TestSink::new();
        let data = vec![0xAB; FRAME_BYTES]; // only 1 of 2 frames
        let err = Icap::salus()
            .process(&mut sink, &plain_stream(0, &data))
            .unwrap_err();
        assert!(matches!(err, FpgaError::IncompleteReconfiguration { .. }));
    }

    #[test]
    fn encrypted_load_roundtrips() {
        let mut sink = TestSink::new();
        let data = vec![0x5A; 2 * FRAME_BYTES];
        let inner = plain_stream(1, &data);
        let stream = wire::build_encrypted_stream(&[9u8; 32], &[3u8; 12], 0x1234, &inner);
        let outcome = Icap::salus().process(&mut sink, &stream).unwrap();
        assert_eq!(outcome.loads.len(), 1);
        assert!(outcome.loads[0].encrypted);
        assert_eq!(outcome.loads[0].partition, 1);
    }

    #[test]
    fn encrypted_load_wrong_key_fails() {
        let mut sink = TestSink::new();
        let inner = plain_stream(0, &vec![0u8; 2 * FRAME_BYTES]);
        let stream = wire::build_encrypted_stream(&[8u8; 32], &[3u8; 12], 0x1234, &inner);
        assert_eq!(
            Icap::salus().process(&mut sink, &stream).unwrap_err(),
            FpgaError::DecryptionFailed
        );
    }

    #[test]
    fn encrypted_load_wrong_dna_fails() {
        let mut sink = TestSink::new();
        let inner = plain_stream(0, &vec![0u8; 2 * FRAME_BYTES]);
        // Sealed for another device's DNA.
        let stream = wire::build_encrypted_stream(&[9u8; 32], &[3u8; 12], 0x9999, &inner);
        assert_eq!(
            Icap::salus().process(&mut sink, &stream).unwrap_err(),
            FpgaError::DecryptionFailed
        );
    }

    #[test]
    fn encrypted_load_without_key_fails() {
        let mut sink = TestSink::new();
        sink.key = None;
        let inner = plain_stream(0, &vec![0u8; 2 * FRAME_BYTES]);
        let stream = wire::build_encrypted_stream(&[9u8; 32], &[3u8; 12], 0x1234, &inner);
        assert_eq!(
            Icap::salus().process(&mut sink, &stream).unwrap_err(),
            FpgaError::NoDeviceKey
        );
    }

    #[test]
    fn fdri_runs_before_one_crc_commit_as_one_set_of_frames() {
        let mut sink = TestSink::new();
        let (first, second) = (vec![0x11; FRAME_BYTES], vec![0x22; FRAME_BYTES]);
        let mut w = WireWriter::new();
        w.write_cmd(Cmd::Rcrc)
            .write_reg(Reg::Far, &[0])
            .write_cmd(Cmd::Wcfg)
            .write_long_bytes(Reg::Fdri, &first)
            .write_long_bytes(Reg::Fdri, &second);
        let crc = wire::crc32(&[&0u32.to_be_bytes()[..], &first, &second].concat());
        w.write_reg(Reg::Crc, &[crc]);
        Icap::salus().process(&mut sink, &w.finish()).unwrap();
        assert_eq!(sink.committed, [(0, [first, second].concat())]);
    }

    #[test]
    fn the_device_envelope_buffer_is_kept_and_wiped_after_every_load() {
        use crate::device::Device;
        use crate::geometry::DeviceGeometry;

        let key = [0x42u8; 32];
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 9);
        device.program_device_key(key).unwrap();
        let frames = device.partition(0).unwrap().frame_count() as usize;
        let inner = plain_stream(0, &vec![0x5A; frames * FRAME_BYTES]);
        let dna = device.dna().read();
        let stream = wire::build_encrypted_stream(&key, &[1; 12], dna, &inner);
        let wiped = |device: &Device| {
            let buffer = device.envelope_buffer();
            !buffer.is_empty() && buffer.iter().all(|&b| b == 0)
        };

        device.icap_load(&stream).unwrap();
        assert!(device.partition(0).unwrap().is_configured());
        assert!(wiped(&device), "wiped after a good load");
        let kept = device.envelope_buffer().as_ptr();

        // A tag failure (one ciphertext bit flipped): the envelope was
        // copied into the buffer, the open refused it, and the buffer
        // is still wiped — and still the same allocation.
        let mut forged = stream.clone();
        let at = forged.len() / 2;
        forged[at] ^= 1;
        assert_eq!(
            device.icap_load(&forged).unwrap_err(),
            FpgaError::DecryptionFailed
        );
        assert!(wiped(&device), "wiped after a tag failure");
        assert_eq!(device.envelope_buffer().as_ptr(), kept);

        device.icap_load(&stream).unwrap();
        assert!(wiped(&device));
        assert_eq!(device.envelope_buffer().as_ptr(), kept, "no new buffer");
    }

    #[test]
    fn readback_gated_by_icap_variant() {
        let mut req = WireWriter::new();
        req.write_cmd(Cmd::Rcfg).read_request(Reg::Fdro, 4);
        let stream = req.finish();

        let mut sink = TestSink::new();
        assert_eq!(
            Icap::salus().process(&mut sink, &stream).unwrap_err(),
            FpgaError::ReadbackDisabled
        );

        let outcome = Icap::standard().process(&mut sink, &stream).unwrap();
        assert_eq!(outcome.readback.len(), 16);
        assert!(outcome.readback.iter().all(|&b| b == 0xCC));
    }

    #[test]
    fn foreign_family_idcode_fails_closed() {
        let mut sink = TestSink::new(); // UltraScale device
        let mut w = WireWriter::new();
        w.write_reg(Reg::Idcode, &[FamilyId::Versal.code()]);
        let err = Icap::salus().process(&mut sink, &w.finish()).unwrap_err();
        assert_eq!(
            err,
            FpgaError::FamilyMismatch {
                device: FamilyId::UltraScale.code(),
                bitstream: FamilyId::Versal.code(),
            }
        );
        assert!(sink.committed.is_empty());
    }

    #[test]
    fn matching_family_idcode_accepted() {
        let mut sink = TestSink::new();
        let mut w = WireWriter::new();
        w.write_reg(Reg::Idcode, &[FamilyId::UltraScale.code()]);
        assert!(Icap::salus().process(&mut sink, &w.finish()).is_ok());
    }

    #[test]
    fn fdri_outside_wcfg_rejected() {
        let mut w = WireWriter::new();
        w.write_long_bytes(Reg::Fdri, &[0; 16]);
        let mut sink = TestSink::new();
        assert!(matches!(
            Icap::salus().process(&mut sink, &w.finish()).unwrap_err(),
            FpgaError::MalformedBitstream(_)
        ));
    }
}
