//! Property-based robustness: every wire-facing parser in the system
//! must handle arbitrary attacker-supplied bytes without panicking —
//! the shell and the network can deliver *anything*.

use proptest::prelude::*;

use salus::bitstream::disasm::disassemble;
use salus::bitstream::placement::PlacementMap;
use salus::core::cl_attest::{AttestRequest, AttestResponse};
use salus::core::dev::BitstreamMetadata;
use salus::core::keys::KeySession;
use salus::core::ra::RaEnvelope;
use salus::core::reg_channel::{
    HostRegChannel, LogicRegChannel, RegisterOp, SealedRegMsg, MAX_PAYLOAD,
};
use salus::core::SalusError;
use salus::fpga::device::Device;
use salus::fpga::geometry::DeviceGeometry;
use salus::fpga::wire;
use salus::tee::local::HandshakeMsg;
use salus::tee::quote::Quote;
use salus::tee::report::Report;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = wire::parse(&bytes);
        let _ = disassemble(&bytes);
    }

    #[test]
    fn icap_load_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 1);
        device.program_device_key([7; 32]).unwrap();
        let _ = device.icap_load(&bytes);
        // Garbage must never configure the partition.
        prop_assert!(!device.partition(0).unwrap().is_configured());
    }

    #[test]
    fn message_decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = AttestRequest::from_bytes(&bytes);
        let _ = AttestResponse::from_bytes(&bytes);
        let _ = SealedRegMsg::from_bytes(&bytes);
        let _ = RaEnvelope::from_bytes(&bytes);
        let _ = BitstreamMetadata::from_bytes(&bytes);
        let _ = PlacementMap::from_bytes(&bytes);
        let _ = Quote::from_bytes(&bytes);
        let _ = Report::from_bytes(&bytes);
        let _ = HandshakeMsg::from_bytes(&bytes);
    }

    /// Encode then decode is the identity for both payload sizes: a
    /// 13-byte register operation and an 8-byte response.
    #[test]
    fn sealed_reg_msg_roundtrips(
        key in prop::array::uniform32(any::<u8>()),
        seed in any::<u64>(),
        addr in any::<u32>(),
        value in any::<u64>(),
    ) {
        let key = KeySession::from_bytes(key);
        let mut host = HostRegChannel::new(key, seed);
        let mut logic = LogicRegChannel::new(key, seed);
        let request = host.seal_op(RegisterOp::Write { addr, value });
        logic.open_op(&request).unwrap();
        let response = logic.seal_response(value);
        for (msg, len) in [(request, 13), (response, 8)] {
            prop_assert_eq!(msg.ciphertext().len(), len);
            prop_assert_eq!(SealedRegMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    /// Decoders that accept some input must roundtrip it canonically.
    #[test]
    fn accepted_inputs_reencode_identically(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(msg) = SealedRegMsg::from_bytes(&bytes) {
            prop_assert_eq!(&msg.to_bytes()[..], &bytes[..]);
        }
        if let Ok(req) = AttestRequest::from_bytes(&bytes) {
            prop_assert_eq!(req.to_bytes().to_vec(), bytes.clone());
        }
        if let Ok(quote) = Quote::from_bytes(&bytes) {
            prop_assert_eq!(quote.to_bytes(), bytes.clone());
        }
        if let Ok(envelope) = RaEnvelope::from_bytes(&bytes) {
            prop_assert_eq!(envelope.to_bytes(), bytes);
        }
    }
}

/// Every declared ciphertext length from 0 to 64, against every actual
/// one, decodes or fails with a typed framing error: only a length that
/// matches the body and fits [`MAX_PAYLOAD`] decodes.
#[test]
fn sealed_reg_msg_lengths_are_total() {
    for declared in 0u32..=64 {
        for actual in 0usize..=64 {
            let mut bytes = 7u64.to_le_bytes().to_vec();
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend(std::iter::repeat_n(0xa5, actual + 16));
            let fits = declared as usize == actual && actual <= MAX_PAYLOAD;
            match SealedRegMsg::from_bytes(&bytes) {
                Ok(msg) => {
                    assert!(fits, "declared {declared}, actual {actual}");
                    assert_eq!(msg.ciphertext().len(), actual);
                    assert_eq!(&msg.to_bytes()[..], &bytes[..]);
                }
                Err(SalusError::Malformed(_)) => {
                    assert!(!fits, "declared {declared}, actual {actual}")
                }
                Err(other) => panic!("untyped framing error {other:?}"),
            }
        }
    }
}
