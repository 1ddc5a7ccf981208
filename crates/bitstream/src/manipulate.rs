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

use salus_fpga::wire::{self, Packet, Reg};

use crate::compile::build_canonical_stream;
use crate::placement::CellLocation;
use crate::BitstreamError;

/// Rewrites the contents of one placed BRAM cell directly in a plaintext
/// wire stream, returning the updated stream (with a recomputed CRC).
///
/// # Errors
///
/// * [`BitstreamError::ManipulationTooLarge`] if `new_contents` exceeds
///   the cell's reserved capacity,
/// * [`BitstreamError::Fpga`] if the stream cannot be parsed or lacks
///   the canonical FDRI structure.
pub fn rewrite_cell(
    wire_stream: &[u8],
    location: &CellLocation,
    new_contents: &[u8],
) -> Result<Vec<u8>, BitstreamError> {
    if new_contents.len() > location.capacity {
        return Err(BitstreamError::ManipulationTooLarge {
            available: location.capacity,
            requested: new_contents.len(),
        });
    }

    let (partition, family_code, mut payload) = extract_payload(wire_stream)?;
    if location.byte_offset + location.capacity > payload.len() {
        return Err(BitstreamError::Fpga(
            salus_fpga::FpgaError::MalformedBitstream("cell location outside payload"),
        ));
    }

    // Zero the full reserved capacity, then write the new contents —
    // stale secret bytes must not survive a shorter rewrite.
    payload[location.byte_offset..location.byte_offset + location.capacity].fill(0);
    payload[location.byte_offset..location.byte_offset + new_contents.len()]
        .copy_from_slice(new_contents);

    Ok(build_canonical_stream(partition, family_code, &payload))
}

/// Rewrites several cells in one pass (one parse + one rebuild).
///
/// # Errors
///
/// Same conditions as [`rewrite_cell`], checked per cell.
pub fn rewrite_cells(
    wire_stream: &[u8],
    updates: &[(&CellLocation, &[u8])],
) -> Result<Vec<u8>, BitstreamError> {
    let (partition, family_code, mut payload) = extract_payload(wire_stream)?;
    for (location, new_contents) in updates {
        if new_contents.len() > location.capacity {
            return Err(BitstreamError::ManipulationTooLarge {
                available: location.capacity,
                requested: new_contents.len(),
            });
        }
        if location.byte_offset + location.capacity > payload.len() {
            return Err(BitstreamError::Fpga(
                salus_fpga::FpgaError::MalformedBitstream("cell location outside payload"),
            ));
        }
        payload[location.byte_offset..location.byte_offset + location.capacity].fill(0);
        payload[location.byte_offset..location.byte_offset + new_contents.len()]
            .copy_from_slice(new_contents);
    }
    Ok(build_canonical_stream(partition, family_code, &payload))
}

/// Reads a placed cell's bytes out of a plaintext wire stream (the
/// inspection direction of the manipulation tool).
///
/// # Errors
///
/// [`BitstreamError::Fpga`] for malformed streams or out-of-range
/// locations.
pub fn read_cell(wire_stream: &[u8], location: &CellLocation) -> Result<Vec<u8>, BitstreamError> {
    let (_, _, payload) = extract_payload(wire_stream)?;
    payload
        .get(location.byte_offset..location.byte_offset + location.capacity)
        .map(<[u8]>::to_vec)
        .ok_or(BitstreamError::Fpga(
            salus_fpga::FpgaError::MalformedBitstream("cell location outside payload"),
        ))
}

/// Extracts `(partition, family code, FDRI payload bytes)` from a
/// canonical stream. The family code is re-emitted verbatim on
/// rebuild: manipulation rewrites cell contents, never the framing the
/// stream was compiled for.
fn extract_payload(wire_stream: &[u8]) -> Result<(u32, u32, Vec<u8>), BitstreamError> {
    let packets = wire::parse(wire_stream).map_err(BitstreamError::Fpga)?;
    let mut far: Option<u32> = None;
    let mut family_code: Option<u32> = None;
    let mut payload: Option<Vec<u8>> = None;
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
            } => {
                payload = Some(w.as_bytes().to_vec());
            }
            _ => {}
        }
    }
    let far = far.ok_or(BitstreamError::Fpga(
        salus_fpga::FpgaError::MalformedBitstream("missing FAR"),
    ))?;
    let family_code = family_code.ok_or(BitstreamError::Fpga(
        salus_fpga::FpgaError::MalformedBitstream("missing IDCODE"),
    ))?;
    let payload = payload.ok_or(BitstreamError::Fpga(
        salus_fpga::FpgaError::MalformedBitstream("missing FDRI"),
    ))?;
    Ok((far >> 24, family_code, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_fpga::device::Device;
    use salus_fpga::geometry::DeviceGeometry;

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
