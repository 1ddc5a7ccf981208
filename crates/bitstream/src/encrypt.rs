//! Bitstream encryption and the developer-published digest `H`.
//!
//! The SM enclave's final step before handing the CL to the shell:
//! encrypt the manipulated plaintext stream with `Key_device` under
//! AES-GCM-256 ("the encryption algorithm aligns with the one used in
//! Vivado", §6.1), bound to the target device's DNA. The digest `H`
//! covers the plaintext bitstream *and* its placement metadata — the
//! value the data owner sends to the user enclave at deployment (§4.2).

use salus_crypto::sha256::{Digest, Sha256};

use crate::compile::CompiledBitstream;
use crate::placement::PlacementMap;

/// Computes the developer-published digest `H` over the plaintext wire
/// stream and its placement metadata.
pub fn bitstream_digest(wire: &[u8], placement: &PlacementMap) -> Digest {
    let mut h = Sha256::new();
    h.update(b"salus-bitstream-digest-v1");
    h.update(&(wire.len() as u64).to_le_bytes());
    h.update(wire);
    h.update(&placement.to_bytes());
    h.finalize()
}

/// Convenience: digest of a [`CompiledBitstream`].
pub fn compiled_digest(compiled: &CompiledBitstream) -> Digest {
    bitstream_digest(&compiled.wire, &compiled.placement)
}

/// Encrypts a plaintext wire stream for the device identified by
/// `device_dna`, producing a loadable encrypted stream.
///
/// The nonce must be unique per encryption under one key; Salus's SM
/// enclave draws it from its DRBG per deployment.
pub fn encrypt_for_device(
    plain_wire: &[u8],
    key_device: &[u8; 32],
    nonce: &[u8; 12],
    device_dna: u64,
) -> Vec<u8> {
    salus_fpga::wire::build_encrypted_stream(key_device, nonce, device_dna, plain_wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::manipulate::rewrite_cell;
    use crate::netlist::{BramCell, Module, Netlist};
    use salus_fpga::device::Device;
    use salus_fpga::geometry::DeviceGeometry;

    fn compiled() -> CompiledBitstream {
        let mut n = Netlist::new("enc");
        n.add_module(
            Module::new("top/sm", "sm_logic").with_bram(BramCell::zeroed("key_attest", 32)),
        );
        compile(&n, DeviceGeometry::tiny().partitions[0], 0).unwrap()
    }

    #[test]
    fn digest_changes_with_any_input() {
        let c = compiled();
        let h0 = compiled_digest(&c);
        assert_eq!(h0, bitstream_digest(&c.wire, &c.placement));

        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let modified = rewrite_cell(&c.wire, loc, &[1; 32]).unwrap();
        assert_ne!(h0, bitstream_digest(&modified, &c.placement));

        let mut other_placement = c.placement.clone();
        other_placement.insert(crate::placement::CellLocation {
            path: "fake".into(),
            byte_offset: 0,
            capacity: 1,
        });
        assert_ne!(h0, bitstream_digest(&c.wire, &other_placement));
    }

    #[test]
    fn encrypted_stream_loads_on_keyed_device_only() {
        let c = compiled();
        let key = [0x44u8; 32];
        let mut device = Device::manufacture(DeviceGeometry::tiny(), 5);
        device.program_device_key(key).unwrap();

        let enc = encrypt_for_device(&c.wire, &key, &[7; 12], device.dna().read());
        device.icap_load(&enc).unwrap();
        assert!(device.partition(0).unwrap().is_configured());

        // Another device with a different key cannot load it.
        let mut other = Device::manufacture(DeviceGeometry::tiny(), 6);
        other.program_device_key([0x55u8; 32]).unwrap();
        assert!(other.icap_load(&enc).is_err());
    }

    #[test]
    fn ciphertext_does_not_contain_plaintext_secret() {
        let c = compiled();
        let loc = c.placement.require("top/sm/key_attest").unwrap();
        let secret: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let manipulated = rewrite_cell(&c.wire, loc, &secret).unwrap();
        let enc = encrypt_for_device(&manipulated, &[9; 32], &[1; 12], 77);
        assert!(
            !enc.windows(secret.len()).any(|w| w == &secret[..]),
            "secret must not appear in ciphertext"
        );
    }
}
