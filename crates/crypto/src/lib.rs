//! # salus-crypto
//!
//! From-scratch cryptographic primitives backing the Salus reproduction.
//!
//! The paper's secure-manager stack (SM enclave application and SM logic)
//! "solely utilize\[s\] well-known cryptographic functionalities like AES
//! encryption, SHA, and HMAC" plus a SipHash MAC engine on the FPGA and
//! ECDH for the enclave-to-enclave channel. This crate provides exactly
//! those primitives with no external dependencies, so the whole trusted
//! codebase stays compact and inspectable — the property the paper relies
//! on for the SM HDK/SDK to be open-sourceable and verifiable.
//!
//! ## Contents
//!
//! * [`aes`] — AES-128/256 block cipher (FIPS 197)
//! * [`ctr`] — AES-CTR streaming mode (the accelerators' memory shim)
//! * [`gcm`] — AES-GCM authenticated encryption (bitstream encryption,
//!   matching the Vivado scheme per XAPP1267)
//! * [`cmac`] — AES-CMAC (RFC 4493; SGX local-attestation report MAC)
//! * [`crc32`] — CRC-32 (IEEE 802.3; bitstream integrity words)
//! * [`sha256`] — SHA-256 (FIPS 180-4; bitstream digests, measurements)
//! * [`hmac`] — HMAC-SHA256 and HKDF (RFC 2104 / RFC 5869)
//! * [`siphash`] — SipHash-2-4 (the SM logic's lightweight MAC engine)
//! * [`drbg`] — HMAC-DRBG (NIST SP 800-90A; enclave-side randomness)
//! * [`merkle`] — keyed Merkle root (the DRAM-integrity extension)
//! * [`x25519`] — X25519 Diffie-Hellman (RFC 7748; enclave key exchange)
//! * [`ct`] — constant-time comparison helpers
//!
//! On x86-64 hosts with AES-NI, the SHA extensions and PCLMULQDQ, the
//! AES block cipher, the SHA-256 compression function, GCM's GHASH and
//! CRC-32 run on those instructions, detected at run time; with VAES,
//! VPCLMULQDQ and AVX-512 as well, the CTR/GCTR keystream and GHASH run
//! on 512-bit registers. Every other host runs the portable code. All
//! give the same bytes. [`backend`] names the kernels in use.
//!
//! Every primitive runs on the calling thread and spawns none. The
//! platform's concurrency lives one level up: a serving drain runs each
//! board's lanes on its own core, and no buffer it hands a primitive
//! is large enough for a second split to pay for its thread.
//!
//! ## Example
//!
//! ```
//! use salus_crypto::{gcm::AesGcm256, drbg::HmacDrbg};
//!
//! let mut rng = HmacDrbg::new(b"seed material", b"salus-example");
//! let key = rng.generate_array::<32>();
//! let nonce = rng.generate_array::<12>();
//!
//! let cipher = AesGcm256::new(&key);
//! let sealed = cipher.seal(&nonce, b"device-dna", b"bitstream bytes");
//! let opened = cipher.open(&nonce, b"device-dna", &sealed).unwrap();
//! assert_eq!(opened, b"bitstream bytes");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod crc32;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod gcm;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod siphash;
pub mod x25519;

mod error;
#[cfg(target_arch = "x86_64")]
mod hw;

pub use error::CryptoError;

/// The AES, SHA-256, GHASH and CRC-32 kernels this host dispatches to: the
/// x86-64 extensions the CPU has among `aesni`, `shani`, `pclmul` and
/// `vaes+vpclmul` (the 512-bit keystream and GHASH kernels, which also
/// need AVX-512F and AVX-512BW), `+`-joined in that order
/// (`aesni+shani+pclmul+vaes+vpclmul` on a current x86-64 server),
/// otherwise `portable`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    return hw::backend();
    #[cfg(not(target_arch = "x86_64"))]
    "portable"
}

/// Runs `f` on the dispatched kernels, again with the wide kernels
/// switched off (when the host has them) and again on the portable
/// code, asserts every run agrees, and returns the result — so a unit
/// test covers every backend the host can run.
#[cfg(test)]
pub(crate) fn on_every_backend<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let dispatched = f();
    #[cfg(target_arch = "x86_64")]
    for kernels in [hw::Kernels::Narrow, hw::Kernels::Portable] {
        assert_eq!(
            hw::forcing(kernels, &f),
            dispatched,
            "{kernels:?} and dispatched kernels disagree"
        );
    }
    dispatched
}

/// The distinct backends [`on_every_backend`] runs on this host, for a
/// test to say which it covered: CI hosts may lack AVX-512 or even
/// AES-NI.
#[cfg(test)]
pub(crate) fn backends_run() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut names = Vec::new();
        for kernels in [
            hw::Kernels::Dispatched,
            hw::Kernels::Narrow,
            hw::Kernels::Portable,
        ] {
            let name = hw::forcing(kernels, backend);
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }
    #[cfg(not(target_arch = "x86_64"))]
    vec![backend()]
}

#[cfg(test)]
mod pins {
    use crate::ctr::AesCtr256;
    use crate::gcm::AesGcm256;
    use crate::merkle;
    use crate::sha256::{to_hex, Sha256};

    const MIB: usize = 1 << 20;

    #[test]
    fn bulk_outputs_are_pinned() {
        // The 1 MiB window `bench_crypto` roots, the CTR keystream over
        // 1 MiB and one GCM seal, on each backend.
        crate::on_every_backend(|| {
            let window: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
            let root = merkle::root(&[0x42; 32], &window, 256);
            assert_eq!(
                to_hex(&root),
                "a4cd0dfff7c6b5688b6df52e593c58b2cbd700dd0a9a1e5ddc246c32460f3b56"
            );

            let mut keystream = vec![0u8; MIB];
            AesCtr256::new(&[7; 32], &[1; 16]).apply_keystream(&mut keystream);
            assert_eq!(
                to_hex(&Sha256::digest(&keystream)),
                "f068784af9dfe875e326ca03bb5c67e091cecdb7f4bdae3cd369ee21b6494373"
            );

            let plain: Vec<u8> = (0..8192u32).map(|i| (i * 7) as u8).collect();
            let sealed = AesGcm256::new(&[7; 32]).seal(&[9; 12], b"aad", &plain);
            assert_eq!(
                to_hex(&Sha256::digest(&sealed)),
                "37fd5a10a9423f073c277a0bad2981287a13f8aae8820cd3e0e6c706be270d43"
            );
        });
    }
}
