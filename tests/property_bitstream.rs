//! Property-based tests of the bitstream pipeline and the structural
//! invariants behind the paper's Observation 2.

use proptest::prelude::*;

use salus::bitstream::compile::compile;
use salus::bitstream::image::LogicImage;
use salus::bitstream::manipulate::{read_cell, rewrite_cell};
use salus::bitstream::netlist::{BramCell, Module, Netlist};
use salus::core::dev::develop_cl;
use salus::crypto::crc32::crc32_patch;
use salus::fpga::device::Device;
use salus::fpga::geometry::DeviceGeometry;
use salus::fpga::wire::{crc32, parse, Packet, Reg};

/// Strategy: a small random netlist that fits the tiny geometry.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    let module = (
        "[a-z]{1,8}",
        "[a-z]{1,8}",
        0u32..500,
        0u32..1000,
        prop::collection::vec((any::<u8>(), 1usize..64), 0..3),
    );
    prop::collection::vec(module, 1..5).prop_map(|modules| {
        let mut netlist = Netlist::new("prop");
        for (i, (path, role, lut, reg, brams)) in modules.into_iter().enumerate() {
            let mut m = Module::new(format!("m{i}_{path}"), role).with_resources(lut, reg, 0);
            for (j, (fill, len)) in brams.into_iter().enumerate() {
                m = m.with_bram(BramCell::new(format!("cell{j}"), vec![fill; len]).unwrap());
            }
            netlist.add_module(m);
        }
        netlist
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observation 2: bitstream size is a pure function of the
    /// partition geometry, never of the design.
    #[test]
    fn bitstream_size_is_design_independent(a in arb_netlist(), b in arb_netlist()) {
        let geometry = DeviceGeometry::tiny().partitions[0];
        let ca = compile(&a, geometry, 0).unwrap();
        let cb = compile(&b, geometry, 0).unwrap();
        prop_assert_eq!(ca.wire.len(), cb.wire.len());
    }

    /// Compile → load → decode roundtrips every module and BRAM value.
    #[test]
    fn compile_load_decode_roundtrip(netlist in arb_netlist()) {
        let geometry = DeviceGeometry::tiny();
        let compiled = compile(&netlist, geometry.partitions[0], 0).unwrap();
        let mut device = Device::manufacture(geometry, 1);
        device.icap_load(&compiled.wire).unwrap();
        let config = device.partition(0).unwrap();
        let image = LogicImage::decode(config).unwrap();

        prop_assert_eq!(image.modules().len(), netlist.modules().len());
        for module in netlist.modules() {
            let loaded = image
                .modules()
                .iter()
                .find(|m| m.path == module.path())
                .expect("module present");
            prop_assert_eq!(&loaded.role, module.role());
            for cell in module.brams() {
                let path = format!("{}/{}", module.path(), cell.name());
                let live = image.read_bram(config, &path).unwrap();
                prop_assert_eq!(live.as_slice(), cell.init());
            }
        }
    }

    /// Manipulating one cell changes exactly that cell: all other cells
    /// and the module table are untouched, and the stream stays loadable.
    #[test]
    fn manipulation_is_surgical(
        netlist in arb_netlist(),
        new_byte in any::<u8>(),
    ) {
        let geometry = DeviceGeometry::tiny();
        let compiled = compile(&netlist, geometry.partitions[0], 0).unwrap();
        let cells: Vec<_> = compiled.placement.entries().to_vec();
        prop_assume!(!cells.is_empty());
        let target = &cells[0];
        let new_contents = vec![new_byte; target.capacity];

        let rewritten = rewrite_cell(&compiled.wire, target, &new_contents).unwrap();
        prop_assert_eq!(rewritten.len(), compiled.wire.len(), "size preserved");

        // Target updated; all sibling cells preserved.
        prop_assert_eq!(read_cell(&rewritten, target).unwrap(), new_contents);
        for other in &cells[1..] {
            prop_assert_eq!(
                read_cell(&rewritten, other).unwrap(),
                read_cell(&compiled.wire, other).unwrap()
            );
        }

        // Still loads (CRC fixed up) and decodes to the same module set.
        let mut device = Device::manufacture(geometry, 1);
        device.icap_load(&rewritten).unwrap();
        let image = LogicImage::decode(device.partition(0).unwrap()).unwrap();
        prop_assert_eq!(image.modules().len(), netlist.modules().len());
    }

    /// CRC-32 is linear: patching a stream's CRC from the XOR difference
    /// of one rewritten span alone gives the CRC of the whole rewritten
    /// stream, wherever the span sits and however long it is.
    #[test]
    fn patched_crc_equals_a_full_recompute(
        stream in prop::collection::vec(any::<u8>(), 1..4096),
        at_seed in any::<usize>(),
        len_seed in any::<usize>(),
        fill in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        let at = at_seed % stream.len();
        let span = 1 + len_seed % (stream.len() - at).min(fill.len());
        let mut rewritten = stream.clone();
        rewritten[at..at + span].copy_from_slice(&fill[..span]);
        let delta: Vec<u8> = stream[at..at + span]
            .iter()
            .zip(&fill[..span])
            .map(|(old, new)| old ^ new)
            .collect();
        let trailing = (stream.len() - at - span) as u64;
        prop_assert_eq!(
            crc32_patch(crc32(&stream), &delta, trailing),
            crc32(&rewritten)
        );
        prop_assert_eq!(crc32(&rewritten), crc32_bitwise(&rewritten));
    }

    /// Loading any corrupted stream never silently configures: either
    /// the load errors, or (for readback-area corruption beyond CRC
    /// coverage) the partition content equals the corrupted stream's
    /// payload — never a mix of old and new.
    #[test]
    fn corrupted_streams_fail_loudly(
        netlist in arb_netlist(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let geometry = DeviceGeometry::tiny();
        let compiled = compile(&netlist, geometry.partitions[0], 0).unwrap();
        let mut corrupted = compiled.wire.clone();
        let pos = pos_seed % corrupted.len();
        corrupted[pos] ^= 1 << bit;

        let mut device = Device::manufacture(geometry, 1);
        if device.icap_load(&corrupted).is_ok() {
            // Only tolerable if the flip landed outside integrity
            // coverage (e.g. dummy padding): content must then still be
            // exactly the original payload.
            let image = LogicImage::decode(device.partition(0).unwrap());
            prop_assert!(image.is_ok());
        } else {
            prop_assert!(!device.partition(0).unwrap().is_configured());
        }
    }
}

/// CRC-32 one bit at a time, with no table: an oracle independent of
/// both kernels behind `wire::crc32`, the PCLMULQDQ fold and the
/// slicing tables.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The 3.39 MB wire every paper-node deploy compiles, encrypts and
/// CRC-checks: `wire::crc32` agrees with the oracle over all of it, and
/// its CRC word is the oracle's CRC of FAR and the frame data.
#[test]
fn crc32_matches_bitwise_oracle_on_the_paper_wire() {
    let geometry = salus::node::node_geometry(2).partitions[0];
    let accelerator = salus::core::instance::TestBedConfig::paper().accelerator;
    let wire = develop_cl(accelerator, geometry, 0).unwrap().compiled.wire;
    assert_eq!(wire.len(), 3_389_756);
    assert_eq!(crc32(&wire), crc32_bitwise(&wire));
    let (mut far, mut fdri, mut crc_word) = (None, None, None);
    for packet in parse(&wire).unwrap() {
        if let Packet::Write { reg, payload } = packet {
            match reg {
                Reg::Far => far = Some(payload.as_bytes()),
                Reg::Fdri => fdri = Some(payload.as_bytes()),
                Reg::Crc => crc_word = payload.first(),
                _ => {}
            }
        }
    }
    let covered = [far.unwrap(), fdri.unwrap()].concat();
    assert_eq!(crc_word, Some(crc32_bitwise(&covered)));
}
