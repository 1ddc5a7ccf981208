//! Bitstream disassembly and comparison (the byteman-style inspection
//! side of the toolchain).
//!
//! [`disassemble`] renders a wire stream as a human-readable packet
//! listing — what a developer uses to audit what their toolchain (or
//! the SM enclave) actually produced. [`diff_payload`] reports which
//! frame bytes differ between two streams of the same shape, which is
//! how the manipulation tests visualise "exactly one cell changed".

use salus_fpga::family::FamilyId;
use salus_fpga::wire::{self, Packet, Reg};

use crate::BitstreamError;

/// One line of a disassembly listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisasmLine {
    /// Packet ordinal within the stream.
    pub index: usize,
    /// Rendered text.
    pub text: String,
}

/// Disassembles a wire stream into a packet listing.
///
/// Encrypted payloads are summarised, not decrypted — the tool has no
/// keys, just like the shell.
///
/// # Errors
///
/// [`BitstreamError::Fpga`] when the stream cannot be parsed.
pub fn disassemble(stream: &[u8]) -> Result<Vec<DisasmLine>, BitstreamError> {
    let packets = wire::parse(stream).map_err(BitstreamError::Fpga)?;
    let mut lines = Vec::with_capacity(packets.len());
    // Frame length is family-scoped; learned from the stream's IDCODE.
    let mut frame_words: Option<usize> = None;
    for (index, packet) in packets.iter().enumerate() {
        let text = match packet {
            Packet::Nop => "NOP".to_owned(),
            Packet::Write {
                reg: Reg::Idcode,
                payload,
            } => match payload.first().map(FamilyId::from_code) {
                Some(Some(family)) => {
                    frame_words = Some(family.frame_words());
                    format!("WRITE IDCODE {:#010x} ({family})", family.code())
                }
                Some(None) => format!(
                    "WRITE IDCODE {:#010x} (unknown family)",
                    payload.first().unwrap_or(0)
                ),
                None => "WRITE IDCODE (empty)".to_owned(),
            },
            Packet::Read { reg, words } => format!("READ  {reg:?} ({words} words)"),
            Packet::Write {
                reg: Reg::Cmd,
                payload,
            } => {
                let name = match payload.first().unwrap_or(u32::MAX) {
                    0x0 => "Null",
                    0x1 => "Wcfg",
                    0x4 => "Rcfg",
                    0x7 => "Rcrc",
                    0xD => "Desync",
                    _ => "?",
                };
                format!("WRITE CMD {name}")
            }
            Packet::Write {
                reg: Reg::Fdri,
                payload,
            } => match frame_words {
                Some(fw) => format!(
                    "WRITE FDRI {} words ({} frames)",
                    payload.len(),
                    payload.len() / fw
                ),
                None => format!("WRITE FDRI {} words (unknown framing)", payload.len()),
            },
            Packet::Write {
                reg: Reg::Enc,
                payload,
            } => format!(
                "WRITE ENC {} words (AES-GCM envelope, opaque without Key_device)",
                payload.len()
            ),
            Packet::Write { reg, payload } => match payload.first() {
                Some(word) if payload.len() == 1 => format!("WRITE {reg:?} {word:#010x}"),
                _ => format!("WRITE {reg:?} {} words", payload.len()),
            },
        };
        lines.push(DisasmLine { index, text });
    }
    Ok(lines)
}

/// A contiguous range of differing bytes in the FDRI payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadDiff {
    /// First differing byte offset within the payload.
    pub start: usize,
    /// One past the last differing byte.
    pub end: usize,
}

impl PayloadDiff {
    /// Length of the differing range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty (never produced by
    /// [`diff_payload`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Compares the FDRI payloads of two plaintext streams, returning the
/// contiguous differing ranges (coalescing gaps smaller than
/// `coalesce`).
///
/// # Errors
///
/// [`BitstreamError::Fpga`] for unparsable streams or streams without
/// an FDRI payload.
pub fn diff_payload(
    a: &[u8],
    b: &[u8],
    coalesce: usize,
) -> Result<Vec<PayloadDiff>, BitstreamError> {
    let pa = fdri_payload(a)?;
    let pb = fdri_payload(b)?;
    let len = pa.len().min(pb.len());

    let mut diffs: Vec<PayloadDiff> = Vec::new();
    let mut current: Option<PayloadDiff> = None;
    for i in 0..len {
        if pa[i] != pb[i] {
            match &mut current {
                Some(d) if i <= d.end + coalesce => d.end = i + 1,
                Some(d) => {
                    diffs.push(*d);
                    current = Some(PayloadDiff {
                        start: i,
                        end: i + 1,
                    });
                }
                None => {
                    current = Some(PayloadDiff {
                        start: i,
                        end: i + 1,
                    })
                }
            }
        }
    }
    if let Some(d) = current {
        diffs.push(d);
    }
    if pa.len() != pb.len() {
        diffs.push(PayloadDiff {
            start: len,
            end: pa.len().max(pb.len()),
        });
    }
    Ok(diffs)
}

fn fdri_payload(stream: &[u8]) -> Result<Vec<u8>, BitstreamError> {
    let packets = wire::parse(stream).map_err(BitstreamError::Fpga)?;
    packets
        .iter()
        .find_map(|p| match p {
            Packet::Write {
                reg: Reg::Fdri,
                payload,
            } => Some(payload.as_bytes().to_vec()),
            _ => None,
        })
        .ok_or(BitstreamError::Fpga(
            salus_fpga::FpgaError::MalformedBitstream("no FDRI payload"),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::manipulate::rewrite_cell;
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_fpga::geometry::DeviceGeometry;

    fn compiled() -> crate::compile::CompiledBitstream {
        let mut n = Netlist::new("disasm");
        n.add_module(
            Module::new("top/sm", "sm_logic").with_bram(BramCell::zeroed("key_attest", 16)),
        );
        compile(&n, DeviceGeometry::tiny().partitions[0], 0).unwrap()
    }

    #[test]
    fn listing_shows_canonical_structure() {
        let c = compiled();
        let lines = disassemble(&c.wire).unwrap();
        let texts: Vec<&str> = lines.iter().map(|l| l.text.as_str()).collect();
        assert!(texts.iter().any(|t| t.contains("CMD Rcrc")));
        assert!(texts.iter().any(|t| t.starts_with("WRITE Far")));
        assert!(texts.iter().any(|t| t.contains("CMD Wcfg")));
        assert!(texts.iter().any(|t| t.starts_with("WRITE FDRI")));
        assert!(texts.iter().any(|t| t.starts_with("WRITE Crc")));
        assert!(texts.iter().any(|t| t.contains("CMD Desync")));
    }

    #[test]
    fn encrypted_stream_listing_shows_opaque_envelope() {
        let c = compiled();
        let enc = crate::encrypt::encrypt_for_device(&c.wire, &[7; 32], &[1; 12], 42);
        let lines = disassemble(&enc).unwrap();
        assert!(lines.iter().any(|l| l.text.contains("ENC")));
        assert!(
            !lines.iter().any(|l| l.text.contains("FDRI")),
            "no plaintext structure"
        );
    }

    #[test]
    fn diff_localises_a_manipulation() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let modified = rewrite_cell(&c.wire, loc, &[0xFF; 16]).unwrap();
        let diffs = diff_payload(&c.wire, &modified, 8).unwrap();
        assert_eq!(diffs.len(), 1, "exactly one region changed: {diffs:?}");
        assert_eq!(diffs[0].start, loc.byte_offset);
        assert!(diffs[0].len() <= loc.capacity);
    }

    #[test]
    fn identical_streams_have_no_diff() {
        let c = compiled();
        assert!(diff_payload(&c.wire, &c.wire, 0).unwrap().is_empty());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(disassemble(b"nonsense").is_err());
        assert!(diff_payload(b"a", b"b", 0).is_err());
    }
}
