//! The TEE-enabled CPU: root key, enclave loading, EGETKEY/EREPORT.
//!
//! Every key in the model derives from a per-platform root key (the
//! manufacturer-fused equivalent), so two enclaves can exchange
//! verifiable reports **iff** they run on the same physical platform —
//! the property SGX local attestation proves, and that Salus's cascaded
//! attestation chains outward to the FPGA.

use std::sync::Arc;

use parking_lot::Mutex;

use salus_crypto::drbg::HmacDrbg;
use salus_crypto::hmac::hkdf;

use crate::enclave::Enclave;
use crate::measurement::{EnclaveImage, Measurement};
use crate::TeeError;

/// Maximum simultaneously loaded enclaves (a coarse EPC model).
pub const MAX_ENCLAVES: usize = 64;

pub(crate) struct PlatformInner {
    root_key: [u8; 32],
    platform_id: u64,
    svn: u16,
    epc: Mutex<Epc>,
}

/// EPC bookkeeping: slots held by live enclaves, and every load ever
/// made — the ordinal that personalises each enclave's DRBG, which
/// never repeats even after slots are released.
#[derive(Debug, Default)]
struct Epc {
    live: usize,
    loads: u64,
}

/// One enclave's EPC slot, released when the last handle of that
/// enclave drops.
pub(crate) struct EpcSlot(Arc<PlatformInner>);

impl Drop for EpcSlot {
    fn drop(&mut self) {
        self.0.epc.lock().live -= 1;
    }
}

impl PlatformInner {
    /// `EGETKEY(REPORT)`: the report key of the enclave with measurement
    /// `of`. Only reachable through enclave handles and the quoting
    /// enclave — mirroring the instruction's enclave-mode-only rule.
    pub(crate) fn report_key(&self, of: &Measurement) -> [u8; 16] {
        let okm = hkdf(&self.root_key, of.as_bytes(), b"sgx-report-key-v1", 16);
        okm.try_into().expect("16 bytes")
    }

    /// `EGETKEY(SEAL)`: the sealing key of the enclave with measurement
    /// `of`.
    pub(crate) fn seal_key(&self, of: &Measurement) -> [u8; 32] {
        hkdf(&self.root_key, of.as_bytes(), b"sgx-seal-key-v1", 32)
            .try_into()
            .expect("32 bytes")
    }

    /// Attestation key used by the quoting enclave; derivable by the
    /// attestation service which knows the provisioning secret.
    pub(crate) fn attestation_key(&self, provisioning_secret: &[u8]) -> [u8; 32] {
        hkdf(
            provisioning_secret,
            &self.platform_id.to_le_bytes(),
            b"sgx-attestation-key-v1",
            32,
        )
        .try_into()
        .expect("32 bytes")
    }

    pub(crate) fn platform_id(&self) -> u64 {
        self.platform_id
    }

    pub(crate) fn svn(&self) -> u16 {
        self.svn
    }
}

/// A TEE-enabled CPU platform.
#[derive(Clone)]
pub struct SgxPlatform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxPlatform")
            .field("platform_id", &self.inner.platform_id)
            .field("loaded_enclaves", &self.loaded_enclaves())
            .finish_non_exhaustive()
    }
}

impl SgxPlatform {
    /// Boots a fully patched platform whose root key derives from
    /// `machine_seed`; the `platform_id` names it to the attestation
    /// service.
    pub fn new(machine_seed: &[u8], platform_id: u64) -> SgxPlatform {
        SgxPlatform::with_svn(machine_seed, platform_id, crate::quote::CURRENT_SVN)
    }

    /// Boots a platform at an explicit TCB level (e.g. an unpatched
    /// machine for negative tests).
    pub fn with_svn(machine_seed: &[u8], platform_id: u64, svn: u16) -> SgxPlatform {
        let root_key = hkdf(
            b"platform-root",
            machine_seed,
            &platform_id.to_le_bytes(),
            32,
        )
        .try_into()
        .expect("32 bytes");
        SgxPlatform {
            inner: Arc::new(PlatformInner {
                root_key,
                platform_id,
                svn,
                epc: Mutex::new(Epc::default()),
            }),
        }
    }

    /// The platform's security version number.
    pub fn svn(&self) -> u16 {
        self.inner.svn
    }

    /// The platform's public identifier.
    pub fn platform_id(&self) -> u64 {
        self.inner.platform_id
    }

    /// Enclaves currently holding an EPC slot.
    pub fn loaded_enclaves(&self) -> usize {
        self.inner.epc.lock().live
    }

    /// Loads (measures) an enclave image and returns its runtime handle.
    /// The enclave holds its EPC slot until its last handle drops.
    ///
    /// # Errors
    ///
    /// [`TeeError::EpcExhausted`] while [`MAX_ENCLAVES`] are loaded.
    pub fn load_enclave(&self, image: &EnclaveImage) -> Result<Enclave, TeeError> {
        let measurement = image.measure();
        // The slot and the ordinal are taken under one lock, so
        // concurrent loads of one image never share a personalisation.
        let ordinal = {
            let mut epc = self.inner.epc.lock();
            if epc.live >= MAX_ENCLAVES {
                return Err(TeeError::EpcExhausted);
            }
            epc.live += 1;
            epc.loads += 1;
            epc.loads
        };
        let slot = EpcSlot(Arc::clone(&self.inner));
        // Per-enclave DRBG personalised by platform + measurement + load
        // ordinal, standing in for RDSEED inside the enclave.
        let mut personalization = measurement.as_bytes().to_vec();
        personalization.extend_from_slice(&ordinal.to_le_bytes());
        personalization.extend_from_slice(&self.inner.platform_id.to_le_bytes());
        let drbg = HmacDrbg::new(&self.inner.root_key, &personalization);
        Ok(Enclave::new(
            Arc::clone(&self.inner),
            slot,
            measurement,
            image.name().to_owned(),
            drbg,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_keys_across_instances() {
        let a = SgxPlatform::new(b"seed", 1);
        let b = SgxPlatform::new(b"seed", 1);
        let m = Measurement([5; 32]);
        assert_eq!(a.inner.report_key(&m), b.inner.report_key(&m));
    }

    #[test]
    fn different_platforms_different_keys() {
        let a = SgxPlatform::new(b"seed", 1);
        let b = SgxPlatform::new(b"seed", 2);
        let m = Measurement([5; 32]);
        assert_ne!(a.inner.report_key(&m), b.inner.report_key(&m));
        assert_ne!(a.inner.seal_key(&m), b.inner.seal_key(&m));
    }

    #[test]
    fn report_key_bound_to_measurement() {
        let p = SgxPlatform::new(b"seed", 1);
        assert_ne!(
            p.inner.report_key(&Measurement([1; 32])),
            p.inner.report_key(&Measurement([2; 32]))
        );
    }

    #[test]
    fn epc_limit_enforced() {
        let p = SgxPlatform::new(b"seed", 1);
        let held: Vec<Enclave> = (0..MAX_ENCLAVES)
            .map(|i| {
                p.load_enclave(&EnclaveImage::from_code(format!("e{i}"), [i as u8]))
                    .unwrap()
            })
            .collect();
        assert_eq!(p.loaded_enclaves(), MAX_ENCLAVES);
        assert_eq!(
            p.load_enclave(&EnclaveImage::from_code("one-too-many", b"x"))
                .unwrap_err(),
            TeeError::EpcExhausted
        );
        drop(held);
        assert_eq!(p.loaded_enclaves(), 0);
    }

    #[test]
    fn epc_slot_is_released_with_the_last_handle() {
        let p = SgxPlatform::new(b"seed", 1);
        let image = EnclaveImage::from_code("e", b"e");
        let first = p.load_enclave(&image).unwrap();
        let clone = first.clone();
        drop(first);
        assert_eq!(p.loaded_enclaves(), 1, "a clone still holds the slot");
        drop(clone);
        assert_eq!(p.loaded_enclaves(), 0);
        // Far more loads than the EPC holds, one at a time, never
        // repeating a personalisation.
        let draws: std::collections::HashSet<[u8; 32]> = (0..3 * MAX_ENCLAVES)
            .map(|_| p.load_enclave(&image).unwrap().random_array())
            .collect();
        assert_eq!(draws.len(), 3 * MAX_ENCLAVES);
    }

    #[test]
    fn ordinals_count_loads_from_one() {
        // The n-th load of a platform is personalised with ordinal n,
        // as it was when the ordinal was the number of loaded enclaves.
        let p = SgxPlatform::new(b"seed", 1);
        let image = EnclaveImage::from_code("e", b"e");
        let draw = |ordinal: u64| {
            let mut personalization = image.measure().as_bytes().to_vec();
            personalization.extend_from_slice(&ordinal.to_le_bytes());
            personalization.extend_from_slice(&1u64.to_le_bytes());
            HmacDrbg::new(&p.inner.root_key, &personalization).generate_array::<32>()
        };
        let a = p.load_enclave(&image).unwrap();
        drop(p.load_enclave(&image).unwrap());
        let c = p.load_enclave(&image).unwrap();
        assert_eq!(a.random_array::<32>(), draw(1));
        assert_eq!(c.random_array::<32>(), draw(3));
    }

    #[test]
    fn concurrent_loads_of_one_image_draw_distinct_randomness() {
        let p = SgxPlatform::new(b"seed", 1);
        let image = EnclaveImage::from_code("sm", b"same image everywhere");
        let enclaves: Vec<Enclave> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..MAX_ENCLAVES / 8)
                            .map(|_| p.load_enclave(&image).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("loader thread"))
                .collect()
        });
        assert_eq!(enclaves.len(), MAX_ENCLAVES);
        let draws: std::collections::HashSet<[u8; 32]> =
            enclaves.iter().map(Enclave::random_array).collect();
        assert_eq!(
            draws.len(),
            MAX_ENCLAVES,
            "every enclave's first draw is its own"
        );
    }
}
