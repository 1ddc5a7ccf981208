//! Bitstream-level manipulation (the RapidWright/byteman stand-in).
//!
//! "Bitstream manipulation takes a readily available FPGA bitstream and
//! the hierarchical location of a specific cell in the generated netlist
//! as inputs, and updates with a user-defined initialization value
//! without the need to modify the RTL code" (§2.3). [`rewrite_cell`]
//! does exactly that: it patches the cell's bytes inside the FDRI
//! payload and fixes the CRC — no netlist, no placement, no routing.
//! This is the operation Salus repurposes to inject `Key_attest`,
//! `Key_session` and `Ctr_session` inside the SM enclave at deployment
//! time.

use salus_crypto::crc32::crc32_patch;
use salus_fpga::wire::{self, Cmd, Packet, Reg};

use crate::compile::{CANONICAL_PAYLOAD_OFFSET, CANONICAL_TRAILER_BYTES};
use crate::placement::CellLocation;
use crate::BitstreamError;

/// Rewrites the contents of one placed BRAM cell directly in a plaintext
/// wire stream, returning the updated stream (with a patched CRC).
///
/// # Errors
///
/// Same conditions as [`rewrite_cells`].
pub fn rewrite_cell(
    wire_stream: &[u8],
    location: &CellLocation,
    new_contents: &[u8],
) -> Result<Vec<u8>, BitstreamError> {
    rewrite_cells(wire_stream, &[(location, new_contents)])
}

/// Rewrites several cells in one pass over a copy of the stream: see
/// [`rewrite_cells_in_place`], which this runs on the copy.
///
/// # Errors
///
/// Same conditions as [`rewrite_cells_in_place`].
pub fn rewrite_cells(
    wire_stream: &[u8],
    updates: &[(&CellLocation, &[u8])],
) -> Result<Vec<u8>, BitstreamError> {
    let mut out = wire_stream.to_vec();
    rewrite_cells_in_place(&mut out, updates)?;
    Ok(out)
}

/// Rewrites several cells of a stream where it lies: each cell's
/// reserved capacity is written where it sits in the FDRI payload (new
/// contents, then zeros — stale secret bytes must not survive a shorter
/// rewrite), and the CRC word is patched from the changed bytes alone
/// (see [`crc32_patch`]). Nothing else of the stream is read or
/// written, so the cost is the cells. Every update is checked before
/// any is written: on error the stream is unchanged.
///
/// The CRC word is patched, not recomputed: a stream whose CRC was wrong
/// stays wrong, just as every byte outside the cells stays as it was.
///
/// # Errors
///
/// * [`BitstreamError::ManipulationTooLarge`] if some contents exceed
///   their cell's reserved capacity,
/// * [`BitstreamError::Fpga`] if the stream does not parse or a cell
///   lies outside the FDRI payload,
/// * [`BitstreamError::NonCanonical`] if the stream is not laid out as
///   [`compile`](crate::compile::compile) emits it.
pub fn rewrite_cells_in_place(
    wire_stream: &mut [u8],
    updates: &[(&CellLocation, &[u8])],
) -> Result<(), BitstreamError> {
    let layout = CanonicalLayout::of(wire_stream)?;
    let spans = updates
        .iter()
        .map(|(location, new_contents)| {
            if new_contents.len() > location.capacity {
                return Err(BitstreamError::ManipulationTooLarge {
                    available: location.capacity,
                    requested: new_contents.len(),
                });
            }
            layout.cell_span(location)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut crc = layout.crc_word(wire_stream);
    let mut delta = Vec::new();
    for (span, (_, new_contents)) in spans.into_iter().zip(updates) {
        let trailing = (layout.payload_end - span.end) as u64;
        let cell = &mut wire_stream[span];
        delta.clear();
        delta.extend(
            cell.iter()
                .enumerate()
                .map(|(i, &old)| old ^ new_contents.get(i).copied().unwrap_or(0)),
        );
        crc = crc32_patch(crc, &delta, trailing);
        cell.fill(0);
        cell[..new_contents.len()].copy_from_slice(new_contents);
    }
    wire_stream[layout.crc_at..layout.crc_at + 4].copy_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// Reads a placed cell's bytes out of a plaintext wire stream (the
/// inspection direction of the manipulation tool).
///
/// # Errors
///
/// [`BitstreamError::Fpga`] for malformed streams or out-of-range
/// locations; [`BitstreamError::NonCanonical`] for streams not laid out
/// as the compiler emits them.
pub fn read_cell(wire_stream: &[u8], location: &CellLocation) -> Result<Vec<u8>, BitstreamError> {
    let layout = CanonicalLayout::of(wire_stream)?;
    Ok(wire_stream[layout.cell_span(location)?].to_vec())
}

/// Where the parts manipulation touches sit in a canonical stream.
#[derive(Debug)]
struct CanonicalLayout {
    /// Byte range of the FDRI payload.
    payload_start: usize,
    payload_end: usize,
    /// Byte offset of the CRC packet's one payload word.
    crc_at: usize,
}

impl CanonicalLayout {
    /// Checks that `wire` is exactly the canonical `IDCODE, RCRC, FAR,
    /// WCFG, FDRI, CRC, DESYNC` stream the compiler emits — each packet
    /// a one-word type-1 write but the FDRI's type-1/type-2 pair, behind
    /// the usual padding and sync — and locates its FDRI payload and
    /// CRC word.
    fn of(wire: &[u8]) -> Result<CanonicalLayout, BitstreamError> {
        let non_canonical = BitstreamError::NonCanonical;
        let packets = wire::parse(wire).map_err(BitstreamError::Fpga)?;
        let [Packet::Write {
            reg: Reg::Idcode,
            payload: idcode,
        }, Packet::Write {
            reg: Reg::Cmd,
            payload: rcrc,
        }, Packet::Write {
            reg: Reg::Far,
            payload: far,
        }, Packet::Write {
            reg: Reg::Cmd,
            payload: wcfg,
        }, Packet::Write {
            reg: Reg::Fdri,
            payload: fdri,
        }, Packet::Write {
            reg: Reg::Crc,
            payload: crc,
        }, Packet::Write {
            reg: Reg::Cmd,
            payload: desync,
        }] = packets.as_slice()
        else {
            return Err(non_canonical(
                "expected IDCODE, RCRC, FAR, WCFG, FDRI, CRC, DESYNC",
            ));
        };
        let command = |payload: &wire::Payload<'_>, cmd: Cmd| {
            payload.len() == 1 && payload.first() == Some(cmd as u32)
        };
        if !(command(rcrc, Cmd::Rcrc) && command(wcfg, Cmd::Wcfg) && command(desync, Cmd::Desync)) {
            return Err(non_canonical("unexpected command"));
        }
        if [idcode, far, crc].iter().any(|p| p.len() != 1) {
            return Err(non_canonical("IDCODE, FAR and CRC carry one word each"));
        }
        // The packet sequence is fixed; the offsets pin its encoding
        // (padding, header forms) to the compiler's as well.
        let offset = |part: &[u8]| part.as_ptr() as usize - wire.as_ptr() as usize;
        let payload_start = offset(fdri.as_bytes());
        let payload_end = payload_start + fdri.as_bytes().len();
        let crc_at = offset(crc.as_bytes());
        if payload_start != CANONICAL_PAYLOAD_OFFSET
            || crc_at != payload_end + 4
            || wire.len() != payload_end + CANONICAL_TRAILER_BYTES
        {
            return Err(non_canonical("packet encoding differs from the compiler's"));
        }
        Ok(CanonicalLayout {
            payload_start,
            payload_end,
            crc_at,
        })
    }

    /// The stream bytes of `location`'s reserved capacity.
    fn cell_span(&self, location: &CellLocation) -> Result<std::ops::Range<usize>, BitstreamError> {
        let start = self.payload_start.checked_add(location.byte_offset);
        let end = start.and_then(|s| s.checked_add(location.capacity));
        match (start, end) {
            (Some(start), Some(end)) if end <= self.payload_end => Ok(start..end),
            _ => Err(BitstreamError::Fpga(
                salus_fpga::FpgaError::MalformedBitstream("cell location outside payload"),
            )),
        }
    }

    /// The CRC word `wire` carries.
    fn crc_word(&self, wire: &[u8]) -> u32 {
        let word = wire[self.crc_at..self.crc_at + 4]
            .try_into()
            .expect("a CRC word is four bytes");
        u32::from_be_bytes(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{build_canonical_stream, compile, CompiledBitstream};
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_crypto::drbg::HmacDrbg;
    use salus_fpga::device::Device;
    use salus_fpga::family::{DeviceFamily, FamilyId};
    use salus_fpga::geometry::{DeviceGeometry, PartitionGeometry, Resources};
    use salus_fpga::wire::WireWriter;

    /// The manipulation the tailored path replaced, kept as its oracle:
    /// pull the FDRI payload out, rewrite the cells in it, and rebuild
    /// the whole canonical stream (recomputing the CRC from scratch).
    fn rewrite_cells_by_rebuild(
        wire_stream: &[u8],
        updates: &[(&CellLocation, &[u8])],
    ) -> Result<Vec<u8>, BitstreamError> {
        let malformed =
            |what| BitstreamError::Fpga(salus_fpga::FpgaError::MalformedBitstream(what));
        let packets = wire::parse(wire_stream)?;
        let (mut far, mut family_code, mut payload) = (None, None, None);
        for p in &packets {
            match p {
                Packet::Write {
                    reg: Reg::Far,
                    payload: w,
                } => far = w.first(),
                Packet::Write {
                    reg: Reg::Idcode,
                    payload: w,
                } => family_code = w.first(),
                Packet::Write {
                    reg: Reg::Fdri,
                    payload: w,
                } => payload = Some(w.as_bytes().to_vec()),
                _ => {}
            }
        }
        let far = far.ok_or(malformed("missing FAR"))?;
        let family_code = family_code.ok_or(malformed("missing IDCODE"))?;
        let mut payload = payload.ok_or(malformed("missing FDRI"))?;
        for (location, new_contents) in updates {
            if new_contents.len() > location.capacity {
                return Err(BitstreamError::ManipulationTooLarge {
                    available: location.capacity,
                    requested: new_contents.len(),
                });
            }
            let cell = payload
                .get_mut(location.byte_offset..location.byte_offset + location.capacity)
                .ok_or(malformed("cell location outside payload"))?;
            cell.fill(0);
            cell[..new_contents.len()].copy_from_slice(new_contents);
        }
        Ok(build_canonical_stream(far >> 24, family_code, &payload))
    }

    /// An SM-like CL: three secret cells of the SM logic's sizes next
    /// to an accelerator with a table of its own.
    fn secret_cells_cl(geometry: PartitionGeometry, partition: usize) -> CompiledBitstream {
        let mut n = Netlist::new("oracle");
        n.add_module(
            Module::new("cl/sm", "sm_logic")
                .with_resources(27_667, 29_631, 85)
                .with_bram(BramCell::zeroed("key_attest", 32))
                .with_bram(BramCell::zeroed("key_session", 32))
                .with_bram(BramCell::zeroed("ctr_session", 8)),
        );
        n.add_module(
            Module::new("cl/accel", "accel:table")
                .with_resources(1_000, 2_000, 1)
                .with_bram(BramCell::new("table", vec![0x5A; 48]).unwrap()),
        );
        compile(&n, geometry, partition).unwrap()
    }

    #[test]
    fn tailored_rewrite_matches_the_rebuild_oracle_on_every_family() {
        let node_rp = PartitionGeometry {
            family: FamilyId::UltraScale,
            logic_frames: 64,
            capacity: Resources {
                lut: 355_040,
                register: 710_080,
                bram: 696,
            },
        };
        let versal = DeviceFamily::versal().tiny_board(2);
        let cases = [
            ("tiny", DeviceGeometry::tiny().partitions[0], 0),
            ("u200", DeviceGeometry::u200().partitions[0], 0),
            ("node", node_rp, 0),
            ("versal", versal.partitions[1], 1),
        ];
        let mut drbg = HmacDrbg::new(b"tailored vs rebuild", b"manipulate");
        for (name, geometry, partition) in cases {
            let c = secret_cells_cl(geometry, partition);
            let cells = c.placement.entries().to_vec();
            for round in 0..4 {
                // Random contents, some shorter than their cell, over a
                // stream whose cells already hold earlier secrets.
                let base = if round % 2 == 0 {
                    c.wire.clone()
                } else {
                    let filler: Vec<Vec<u8>> =
                        cells.iter().map(|l| vec![0xFF; l.capacity]).collect();
                    let updates: Vec<_> = cells
                        .iter()
                        .zip(&filler)
                        .map(|(l, b)| (l, b.as_slice()))
                        .collect();
                    rewrite_cells(&c.wire, &updates).unwrap()
                };
                let contents: Vec<Vec<u8>> = cells
                    .iter()
                    .map(|l| {
                        let len = usize::from(drbg.generate_array::<1>()[0]) % (l.capacity + 1);
                        drbg.generate(len)
                    })
                    .collect();
                let updates: Vec<_> = cells
                    .iter()
                    .zip(&contents)
                    .map(|(l, b)| (l, b.as_slice()))
                    .collect();
                let tailored = rewrite_cells(&base, &updates).unwrap();
                assert_eq!(
                    tailored,
                    rewrite_cells_by_rebuild(&base, &updates).unwrap(),
                    "{name} round {round}"
                );
                for (location, contents) in cells.iter().zip(&contents) {
                    let cell = read_cell(&tailored, location).unwrap();
                    assert_eq!(&cell[..contents.len()], contents.as_slice());
                    assert!(cell[contents.len()..].iter().all(|&b| b == 0));
                }
            }
        }
    }

    #[test]
    fn tailored_rewrite_loads_on_the_device() {
        let geometry = DeviceGeometry::tiny();
        let c = secret_cells_cl(geometry.partitions[0], 0);
        let loc = c.placement.require("cl/sm/key_attest").unwrap();
        let manipulated = rewrite_cell(&c.wire, loc, &[0xEE; 20]).unwrap();
        let mut device = Device::manufacture(geometry, 1);
        device.icap_load(&manipulated).unwrap();
        let config = device.partition(0).unwrap();
        let image = crate::image::LogicImage::decode(config).unwrap();
        let cell = image.read_bram(config, "cl/sm/key_attest").unwrap();
        assert_eq!(&cell[..20], &[0xEE; 20]);
        assert_eq!(&cell[20..], &[0; 12]);
    }

    /// A canonical-looking stream for partition 0 of the tiny geometry,
    /// built packet by packet so each test can break one rule.
    fn stream_with(build: impl FnOnce(&mut WireWriter, &[u8], u32)) -> Vec<u8> {
        let payload = vec![0u8; DeviceGeometry::tiny().partitions[0].config_bytes()];
        let crc = salus_fpga::wire::crc32(&[&[0u8; 4][..], &payload].concat());
        let mut w = WireWriter::new();
        build(&mut w, &payload, crc);
        w.finish()
    }

    fn location() -> CellLocation {
        CellLocation {
            path: "x".into(),
            byte_offset: 64,
            capacity: 4,
        }
    }

    #[test]
    fn non_canonical_layouts_are_typed_errors() {
        let family = FamilyId::UltraScale.code();
        let canonical = stream_with(|w, payload, crc| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[0])
                .write_cmd(Cmd::Wcfg)
                .write_long_bytes(Reg::Fdri, payload)
                .write_reg(Reg::Crc, &[crc]);
        });
        assert!(rewrite_cell(&canonical, &location(), &[1; 4]).is_ok());

        let extra_packet = stream_with(|w, payload, crc| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[0])
                .write_cmd(Cmd::Wcfg)
                .write_cmd(Cmd::Null)
                .write_long_bytes(Reg::Fdri, payload)
                .write_reg(Reg::Crc, &[crc]);
        });
        let missing_crc = stream_with(|w, payload, _| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[0])
                .write_cmd(Cmd::Wcfg)
                .write_long_bytes(Reg::Fdri, payload);
        });
        let fdri_outside_wcfg = stream_with(|w, payload, crc| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[0])
                .write_long_bytes(Reg::Fdri, payload)
                .write_cmd(Cmd::Wcfg)
                .write_reg(Reg::Crc, &[crc]);
        });
        let wrong_command = stream_with(|w, payload, crc| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcfg)
                .write_reg(Reg::Far, &[0])
                .write_cmd(Cmd::Wcfg)
                .write_long_bytes(Reg::Fdri, payload)
                .write_reg(Reg::Crc, &[crc]);
        });
        let two_word_far = stream_with(|w, payload, crc| {
            w.write_reg(Reg::Idcode, &[family])
                .write_cmd(Cmd::Rcrc)
                .write_reg(Reg::Far, &[0, 0])
                .write_cmd(Cmd::Wcfg)
                .write_long_bytes(Reg::Fdri, payload)
                .write_reg(Reg::Crc, &[crc]);
        });
        let mut extra_padding = canonical[..4].to_vec();
        extra_padding.extend_from_slice(&canonical);
        for (name, stream) in [
            ("extra packet", extra_packet),
            ("missing CRC", missing_crc),
            ("FDRI outside WCFG", fdri_outside_wcfg),
            ("wrong command", wrong_command),
            ("two-word FAR", two_word_far),
            ("extra padding", extra_padding),
        ] {
            for result in [
                rewrite_cell(&stream, &location(), &[1; 4]).map(drop),
                read_cell(&stream, &location()).map(drop),
            ] {
                assert!(
                    matches!(result, Err(BitstreamError::NonCanonical(_))),
                    "{name}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_and_corrupted_streams_never_panic() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let len = c.wire.len();
        let cuts = (0..=128).chain(len - 128..len).chain((0..len).step_by(997));
        for cut in cuts {
            assert!(
                rewrite_cell(&c.wire[..cut], loc, &[1; 32]).is_err(),
                "cut at {cut}"
            );
        }
        // A flipped bit in any framing word is refused or, inside the
        // payload and CRC, carried through unchanged.
        for at in (0..CANONICAL_PAYLOAD_OFFSET).chain(len - CANONICAL_TRAILER_BYTES..len) {
            let mut flipped = c.wire.clone();
            flipped[at] ^= 0x10;
            let _ = rewrite_cell(&flipped, loc, &[1; 32]);
        }
    }

    #[test]
    fn cells_outside_the_payload_are_refused() {
        let c = compiled();
        let payload_len = c.wire.len() - CANONICAL_PAYLOAD_OFFSET - CANONICAL_TRAILER_BYTES;
        for (byte_offset, capacity) in [(payload_len - 3, 4), (payload_len, 1), (usize::MAX, 2)] {
            let far = CellLocation {
                path: "far".into(),
                byte_offset,
                capacity,
            };
            assert!(matches!(
                rewrite_cell(&c.wire, &far, &[]),
                Err(BitstreamError::Fpga(_))
            ));
        }
    }

    fn compiled() -> crate::compile::CompiledBitstream {
        let mut n = Netlist::new("manip");
        n.add_module(
            Module::new("top/sm", "sm_logic")
                .with_bram(BramCell::zeroed("key_attest", 32))
                .with_bram(BramCell::zeroed("key_session", 32)),
        );
        compile(&n, DeviceGeometry::tiny().partitions[0], 0).unwrap()
    }

    #[test]
    fn rewrite_then_load_exposes_new_contents() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let secret = [0xEE; 32];
        let manipulated = rewrite_cell(&c.wire, loc, &secret).unwrap();

        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.icap_load(&manipulated).unwrap();
        let config = device.partition(0).unwrap();
        let image = crate::image::LogicImage::decode(config).unwrap();
        assert_eq!(
            image.read_bram(config, "top/sm/key_attest").unwrap(),
            secret
        );
        // The sibling cell is untouched.
        assert_eq!(
            image.read_bram(config, "top/sm/key_session").unwrap(),
            vec![0u8; 32]
        );
    }

    #[test]
    fn rewrite_preserves_crc_validity() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let manipulated = rewrite_cell(&c.wire, loc, &[1; 32]).unwrap();
        // A device accepts the manipulated stream: CRC was recomputed.
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.icap_load(&manipulated).unwrap();
    }

    #[test]
    fn naive_byte_patch_without_crc_fix_is_rejected() {
        // Shows why manipulation must be CRC-aware: patching payload
        // bytes in place breaks the stream.
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let mut hacked = c.wire.clone();
        // FDRI payload starts somewhere after the headers; flipping any
        // payload byte invalidates the CRC.
        let off = hacked.len() / 2;
        hacked[off] ^= 0xFF;
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        assert!(device.icap_load(&hacked).is_err());
        let _ = loc;
    }

    #[test]
    fn oversized_rewrite_rejected() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        assert!(matches!(
            rewrite_cell(&c.wire, loc, &[0; 33]),
            Err(BitstreamError::ManipulationTooLarge { .. })
        ));
    }

    #[test]
    fn shorter_rewrite_zeroes_stale_bytes() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let first = rewrite_cell(&c.wire, loc, &[0xFF; 32]).unwrap();
        let second = rewrite_cell(&first, loc, &[0x11; 8]).unwrap();
        let cell = read_cell(&second, loc).unwrap();
        assert_eq!(&cell[..8], &[0x11; 8]);
        assert!(
            cell[8..].iter().all(|&b| b == 0),
            "stale 0xFF bytes cleared"
        );
    }

    #[test]
    fn rewrite_cells_updates_multiple_in_one_pass() {
        let c = compiled();
        let ka = c.placement.require("top/sm/key_attest").unwrap();
        let ks = c.placement.require("top/sm/key_session").unwrap();
        let out = rewrite_cells(&c.wire, &[(ka, &[1; 32]), (ks, &[2; 32])]).unwrap();
        assert_eq!(read_cell(&out, ka).unwrap(), vec![1; 32]);
        assert_eq!(read_cell(&out, ks).unwrap(), vec![2; 32]);
    }

    #[test]
    fn in_place_rewrite_checks_every_update_before_writing_any() {
        // The second update is too large for its cell: the first must
        // not have been written either.
        let c = compiled();
        let ka = c.placement.require("top/sm/key_attest").unwrap();
        let ks = c.placement.require("top/sm/key_session").unwrap();
        let mut stream = c.wire.clone();
        assert!(matches!(
            rewrite_cells_in_place(&mut stream, &[(ka, &[1; 32]), (ks, &[2; 33])]),
            Err(BitstreamError::ManipulationTooLarge { .. })
        ));
        assert_eq!(stream, c.wire);
        rewrite_cells_in_place(&mut stream, &[(ka, &[1; 32]), (ks, &[2; 32])]).unwrap();
        assert_eq!(
            stream,
            rewrite_cells(&c.wire, &[(ka, &[1; 32]), (ks, &[2; 32])]).unwrap()
        );
    }

    #[test]
    fn read_cell_roundtrips_initial_contents() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        assert_eq!(read_cell(&c.wire, loc).unwrap(), vec![0u8; 32]);
    }

    #[test]
    fn malformed_stream_rejected() {
        let loc = CellLocation {
            path: "x".into(),
            byte_offset: 0,
            capacity: 4,
        };
        assert!(matches!(
            rewrite_cell(b"junk", &loc, &[0; 4]),
            Err(BitstreamError::Fpga(_))
        ));
    }
}
