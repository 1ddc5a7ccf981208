//! Netlist → full partial bitstream compilation.
//!
//! The compiler emits a canonical wire stream whose FDRI payload covers
//! **every** frame of the target partition (Observation 2): a module
//! table plus deterministic routing fill in the logic frames, and BRAM
//! initial contents in the BRAM frames. The output size is therefore a
//! pure function of the partition geometry — "a partial CL bitstream's
//! size is only determined by the area reserved for the CL during floor
//! planning" (§6.3).

use salus_crypto::sha256::Sha256;
use salus_fpga::family::FamilyId;
use salus_fpga::geometry::PartitionGeometry;
use salus_fpga::wire::{Cmd, Crc32, Reg, WireWriter};

use crate::netlist::Netlist;
use crate::placement::{CellLocation, PlacementMap};
use crate::BitstreamError;

/// Magic prefix of the encoded module table.
pub(crate) const IMAGE_MAGIC: &[u8; 4] = b"SLCL";

/// Image format version.
pub(crate) const IMAGE_VERSION: u8 = 1;

/// A compiled partial bitstream plus its side metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBitstream {
    /// The plaintext wire stream (what the developer ships encrypted-at-
    /// rest, and what the SM enclave manipulates).
    pub wire: Vec<u8>,
    /// The `Loc` metadata for every named BRAM cell.
    pub placement: PlacementMap,
    /// The target partition index.
    pub partition: usize,
    /// The design name.
    pub design_name: String,
    /// The partition geometry the bitstream was compiled for. The
    /// geometry's family fixes the framing, so a bitstream is only
    /// loadable on devices of the same family — the canonical stream
    /// carries the family code in its IDCODE packet and the ICAP fails
    /// closed on a mismatch.
    pub geometry: PartitionGeometry,
}

impl CompiledBitstream {
    /// The device family this bitstream's framing targets.
    pub fn family(&self) -> FamilyId {
        self.geometry.family
    }
}

/// Compiles `netlist` for partition `partition` with `geometry`.
///
/// # Errors
///
/// * [`BitstreamError::DuplicatePath`] for colliding module paths,
/// * [`BitstreamError::ResourceOverflow`] when the design exceeds the
///   partition's LUT/Register/BRAM budget or the module table does not
///   fit the logic frames.
pub fn compile(
    netlist: &Netlist,
    geometry: PartitionGeometry,
    partition: usize,
) -> Result<CompiledBitstream, BitstreamError> {
    netlist.validate()?;
    let total = netlist.total_resources();
    let cap = geometry.capacity;
    if total.lut > cap.lut {
        return Err(BitstreamError::ResourceOverflow { class: "LUT" });
    }
    if total.register > cap.register {
        return Err(BitstreamError::ResourceOverflow { class: "Register" });
    }
    if total.bram > cap.bram {
        return Err(BitstreamError::ResourceOverflow { class: "BRAM" });
    }

    // --- Assign BRAM slots and build the module table -------------------
    let frame_bytes = geometry.frame_bytes();
    let logic_bytes_total = geometry.logic_frames as usize * frame_bytes;
    let bram_bytes_total = geometry.bram_frames() as usize * frame_bytes;
    let mut placement = PlacementMap::new();
    let mut next_slot: u32 = 0;

    let mut table: Vec<u8> = Vec::new();
    table.extend_from_slice(IMAGE_MAGIC);
    table.push(IMAGE_VERSION);
    table.extend_from_slice(&(netlist.modules().len() as u16).to_le_bytes());
    for module in netlist.modules() {
        push_str(&mut table, module.path());
        push_str(&mut table, module.role());
        table.extend_from_slice(&(module.params().len() as u32).to_le_bytes());
        table.extend_from_slice(module.params());
        let res = module.total_resources();
        table.extend_from_slice(&res.lut.to_le_bytes());
        table.extend_from_slice(&res.register.to_le_bytes());
        table.extend_from_slice(&res.bram.to_le_bytes());
        table.extend_from_slice(&(module.brams().len() as u16).to_le_bytes());
        for cell in module.brams() {
            let slot = next_slot;
            next_slot += 1;
            push_str(&mut table, cell.name());
            table.extend_from_slice(&slot.to_le_bytes());
            table.extend_from_slice(&(cell.init().len() as u32).to_le_bytes());
            placement.insert(CellLocation {
                path: format!("{}/{}", module.path(), cell.name()),
                byte_offset: logic_bytes_total + bram_slot_offset(slot, geometry.family),
                capacity: cell.init().len(),
            });
        }
    }

    if table.len() > logic_bytes_total {
        return Err(BitstreamError::ResourceOverflow {
            class: "logic frames",
        });
    }

    // --- Build the full frame payload -----------------------------------
    let mut payload = vec![0u8; logic_bytes_total + bram_bytes_total];
    payload[..table.len()].copy_from_slice(&table);
    // Deterministic "routing fill" over the rest of the logic frames:
    // different designs produce different fill, and no logic frame is
    // left at the erased value — mirroring real partial bitstreams that
    // configure every cell of the region.
    let fill_seed = Sha256::digest(&table);
    fill_pseudo(&mut payload[table.len()..logic_bytes_total], &fill_seed);

    for module in netlist.modules() {
        for cell in module.brams() {
            let loc = placement
                .lookup(&format!("{}/{}", module.path(), cell.name()))
                .expect("just inserted");
            payload[loc.byte_offset..loc.byte_offset + cell.init().len()]
                .copy_from_slice(cell.init());
        }
    }

    // --- Serialize the canonical wire stream ----------------------------
    let wire = build_canonical_stream(partition as u32, geometry.family.code(), &payload);

    Ok(CompiledBitstream {
        wire,
        placement,
        partition,
        design_name: netlist.name().to_owned(),
        geometry,
    })
}

/// Flat byte offset of BRAM `slot` within the BRAM frame region —
/// family-dependent, since frame length and frames-per-BRAM both vary
/// per family. (`FamilyId::frames_per_bram` guarantees a slot's
/// reserved region holds a full BRAM for every catalog family.)
pub(crate) fn bram_slot_offset(slot: u32, family: FamilyId) -> usize {
    (slot * family.frames_per_bram()) as usize * family.frame_bytes()
}

/// Byte offset of the FDRI payload in a canonical stream: eight dummy
/// words and the sync word, the one-word IDCODE, RCRC, FAR and WCFG
/// writes (header and word each), then the FDRI's type-1 and type-2
/// headers.
pub(crate) const CANONICAL_PAYLOAD_OFFSET: usize = 4 * (9 + 4 * 2 + 2);

/// Bytes of a canonical stream after its FDRI payload: the CRC and
/// DESYNC writes, header and word each.
pub(crate) const CANONICAL_TRAILER_BYTES: usize = 4 * 2 * 2;

/// Builds the canonical `IDCODE, RCRC, FAR, WCFG, FDRI, CRC` stream
/// around a full-partition frame payload. `family_code` stamps the
/// framing the payload was built with; the ICAP checks it against the
/// device and fails closed on a mismatch.
pub(crate) fn build_canonical_stream(partition: u32, family_code: u32, payload: &[u8]) -> Vec<u8> {
    let far = partition << 24;
    let mut w = WireWriter::new();
    w.write_reg(Reg::Idcode, &[family_code])
        .write_cmd(Cmd::Rcrc)
        .write_reg(Reg::Far, &[far])
        .write_cmd(Cmd::Wcfg)
        .write_long_bytes(Reg::Fdri, payload);
    let mut crc = Crc32::new();
    crc.update(&far.to_be_bytes());
    crc.update(payload);
    w.write_reg(Reg::Crc, &[crc.finish()]);
    w.finish()
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Fills `buf` with a deterministic pseudo-random pattern from `seed`.
fn fill_pseudo(buf: &mut [u8], seed: &[u8; 32]) {
    let mut counter: u64 = 0;
    let mut pos = 0;
    while pos < buf.len() {
        let mut h = Sha256::new();
        h.update(seed);
        h.update(&counter.to_le_bytes());
        let block = h.finalize();
        let take = (buf.len() - pos).min(32);
        buf[pos..pos + take].copy_from_slice(&block[..take]);
        pos += take;
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{BramCell, Module};
    use salus_fpga::geometry::DeviceGeometry;
    use salus_fpga::wire;

    fn tiny_geom() -> PartitionGeometry {
        DeviceGeometry::tiny().partitions[0]
    }

    fn demo_netlist(role_suffix: &str) -> Netlist {
        let mut n = Netlist::new(format!("demo-{role_suffix}"));
        n.add_module(
            Module::new("top/sm", "sm_logic")
                .with_resources(100, 200, 0)
                .with_bram(BramCell::zeroed("key_attest", 32)),
        );
        n.add_module(
            Module::new("top/accel", format!("accel:{role_suffix}"))
                .with_resources(300, 400, 1)
                .with_bram(BramCell::new("weights", vec![0xAA; 64]).unwrap()),
        );
        n
    }

    #[test]
    fn compile_produces_full_coverage_stream() {
        let geom = tiny_geom();
        let compiled = compile(&demo_netlist("a"), geom, 0).unwrap();
        // The FDRI payload must equal the partition's full size.
        let packets = wire::parse(&compiled.wire).unwrap();
        let fdri = packets
            .iter()
            .find_map(|p| match p {
                wire::Packet::Write {
                    reg: wire::Reg::Fdri,
                    payload,
                } => Some(payload.len() * 4),
                _ => None,
            })
            .expect("has FDRI");
        assert_eq!(fdri, geom.config_bytes());
    }

    #[test]
    fn size_is_independent_of_design_contents() {
        let geom = tiny_geom();
        let a = compile(&demo_netlist("a"), geom, 0).unwrap();
        let b = compile(&demo_netlist("completely-different"), geom, 0).unwrap();
        assert_eq!(a.wire.len(), b.wire.len());
        assert_ne!(a.wire, b.wire, "different designs produce different bits");
    }

    #[test]
    fn placement_points_at_bram_contents() {
        let geom = tiny_geom();
        let compiled = compile(&demo_netlist("a"), geom, 0).unwrap();
        let loc = compiled.placement.lookup("top/accel/weights").unwrap();
        assert_eq!(loc.capacity, 64);
        // Verify the payload actually holds the init bytes there.
        let packets = wire::parse(&compiled.wire).unwrap();
        let payload = packets
            .iter()
            .find_map(|p| match p {
                wire::Packet::Write {
                    reg: wire::Reg::Fdri,
                    payload,
                } => Some(payload.as_bytes().to_vec()),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            &payload[loc.byte_offset..loc.byte_offset + 64],
            &[0xAA; 64][..]
        );
    }

    #[test]
    fn family_framing_changes_size_and_idcode() {
        // The same design, the same logical partition dimensions,
        // different families: frame length differs, so the body size
        // differs, and each stream is stamped with its own family.
        let mut versal_geom = tiny_geom();
        versal_geom.family = FamilyId::Versal;
        let us = compile(&demo_netlist("a"), tiny_geom(), 0).unwrap();
        let ve = compile(&demo_netlist("a"), versal_geom, 0).unwrap();
        assert_ne!(us.wire.len(), ve.wire.len());
        assert_eq!(us.family(), FamilyId::UltraScale);
        assert_eq!(ve.family(), FamilyId::Versal);
        for (c, family) in [(&us, FamilyId::UltraScale), (&ve, FamilyId::Versal)] {
            let idcode = wire::parse(&c.wire)
                .unwrap()
                .iter()
                .find_map(|p| match p {
                    wire::Packet::Write {
                        reg: wire::Reg::Idcode,
                        payload,
                    } => payload.first(),
                    _ => None,
                })
                .expect("stream carries an IDCODE");
            assert_eq!(idcode, family.code());
        }
    }

    #[test]
    fn resource_overflow_detected_per_class() {
        let geom = tiny_geom();
        let mut n = Netlist::new("big");
        n.add_module(Module::new("m", "x").with_resources(geom.capacity.lut + 1, 0, 0));
        assert_eq!(
            compile(&n, geom, 0).unwrap_err(),
            BitstreamError::ResourceOverflow { class: "LUT" }
        );
        let mut n = Netlist::new("big");
        n.add_module(Module::new("m", "x").with_resources(0, 0, geom.capacity.bram + 1));
        assert_eq!(
            compile(&n, geom, 0).unwrap_err(),
            BitstreamError::ResourceOverflow { class: "BRAM" }
        );
    }

    #[test]
    fn duplicate_module_paths_rejected() {
        let geom = tiny_geom();
        let mut n = Netlist::new("dup");
        n.add_module(Module::new("m", "x"));
        n.add_module(Module::new("m", "y"));
        assert!(matches!(
            compile(&n, geom, 0),
            Err(BitstreamError::DuplicatePath(_))
        ));
    }

    #[test]
    fn logic_frames_contain_no_erased_bytes_run() {
        // Spot-check the fill: no long run of zeros in the logic region.
        let geom = tiny_geom();
        let compiled = compile(&demo_netlist("a"), geom, 0).unwrap();
        let packets = wire::parse(&compiled.wire).unwrap();
        let payload = packets
            .iter()
            .find_map(|p| match p {
                wire::Packet::Write {
                    reg: wire::Reg::Fdri,
                    payload,
                } => Some(payload.as_bytes().to_vec()),
                _ => None,
            })
            .unwrap();
        let logic = &payload[..geom.logic_frames as usize * geom.frame_bytes()];
        let max_zero_run = logic.split(|&b| b != 0).map(<[u8]>::len).max().unwrap_or(0);
        assert!(max_zero_run < 64, "fill leaves no large erased areas");
    }
}
