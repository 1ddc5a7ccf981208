//! The enclave runtime handle.
//!
//! Everything enclave code can do that ordinary code cannot is a method
//! here: draw enclave-private randomness, issue and verify reports
//! (`EREPORT`/`EGETKEY`), and seal data to its own identity. The struct
//! holds no secret material itself — keys are derived on demand from the
//! platform, as the instructions do.

use std::sync::Arc;

use parking_lot::Mutex;

use salus_crypto::drbg::HmacDrbg;

use crate::measurement::Measurement;
use crate::platform::{EpcSlot, PlatformInner};
use crate::report::{Report, ReportData};

/// A loaded enclave's runtime handle. Clones share one enclave; its EPC
/// slot is released when the last of them drops.
#[derive(Clone)]
pub struct Enclave {
    platform: Arc<PlatformInner>,
    _slot: Arc<EpcSlot>,
    measurement: Measurement,
    name: String,
    drbg: Arc<Mutex<HmacDrbg>>,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("name", &self.name)
            .field("measurement", &self.measurement)
            .finish_non_exhaustive()
    }
}

impl Enclave {
    pub(crate) fn new(
        platform: Arc<PlatformInner>,
        slot: EpcSlot,
        measurement: Measurement,
        name: String,
        drbg: HmacDrbg,
    ) -> Enclave {
        Enclave {
            platform,
            _slot: Arc::new(slot),
            measurement,
            name,
            drbg: Arc::new(Mutex::new(drbg)),
        }
    }

    /// This enclave's MRENCLAVE.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Human-readable name (debugging only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform identifier this enclave runs on.
    pub fn platform_id(&self) -> u64 {
        self.platform.platform_id()
    }

    /// The platform's security version number.
    pub fn platform_svn(&self) -> u16 {
        self.platform.svn()
    }

    /// Draws `n` bytes of enclave-private randomness.
    pub fn random(&self, n: usize) -> Vec<u8> {
        self.drbg.lock().generate(n)
    }

    /// Draws a fixed-size array of enclave-private randomness.
    pub fn random_array<const N: usize>(&self) -> [u8; N] {
        self.drbg.lock().generate_array::<N>()
    }

    /// `EREPORT`: issues a report **for** the enclave measured as
    /// `target`, binding `report_data`.
    pub fn ereport(&self, target: Measurement, report_data: ReportData) -> Report {
        let target_key = self.platform.report_key(&target);
        Report::issue(&target_key, self.measurement, target, report_data)
    }

    /// `EGETKEY` + MAC check: verifies a report that was targeted at
    /// *this* enclave. Returns false for reports targeted elsewhere,
    /// issued on other platforms, or tampered in transit.
    pub fn verify_report(&self, report: &Report) -> bool {
        if report.target != self.measurement {
            return false;
        }
        report.verify_with_key(&self.platform.report_key(&self.measurement))
    }

    /// Seals `data` to this enclave's identity on this platform.
    pub fn seal(&self, data: &[u8]) -> Vec<u8> {
        crate::sealing::seal(&self.platform.seal_key(&self.measurement), self, data)
    }

    /// Unseals data previously sealed by this same enclave identity.
    ///
    /// # Errors
    ///
    /// [`crate::TeeError::UnsealFailed`] for foreign or corrupted blobs.
    pub fn unseal(&self, sealed: &[u8]) -> Result<Vec<u8>, crate::TeeError> {
        crate::sealing::unseal(&self.platform.seal_key(&self.measurement), sealed)
    }

    pub(crate) fn platform_inner(&self) -> &Arc<PlatformInner> {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use crate::measurement::EnclaveImage;
    use crate::platform::SgxPlatform;

    #[test]
    fn local_report_roundtrip() {
        let p = SgxPlatform::new(b"s", 1);
        let a = p.load_enclave(&EnclaveImage::from_code("a", b"a")).unwrap();
        let b = p.load_enclave(&EnclaveImage::from_code("b", b"b")).unwrap();
        let report = b.ereport(a.measurement(), [9; 64]);
        assert!(a.verify_report(&report));
        assert_eq!(report.mrenclave, b.measurement());
    }

    #[test]
    fn report_targeted_elsewhere_rejected() {
        let p = SgxPlatform::new(b"s", 1);
        let a = p.load_enclave(&EnclaveImage::from_code("a", b"a")).unwrap();
        let b = p.load_enclave(&EnclaveImage::from_code("b", b"b")).unwrap();
        let c = p.load_enclave(&EnclaveImage::from_code("c", b"c")).unwrap();
        let report = b.ereport(c.measurement(), [9; 64]);
        assert!(!a.verify_report(&report), "wrong target");
        assert!(c.verify_report(&report));
    }

    #[test]
    fn cross_platform_report_rejected() {
        let p1 = SgxPlatform::new(b"s1", 1);
        let p2 = SgxPlatform::new(b"s2", 2);
        let a = p1
            .load_enclave(&EnclaveImage::from_code("a", b"a"))
            .unwrap();
        let b = p2
            .load_enclave(&EnclaveImage::from_code("b", b"b"))
            .unwrap();
        // b (on p2) targets a's measurement, but a runs on p1: the
        // report keys differ, so verification fails.
        let report = b.ereport(a.measurement(), [9; 64]);
        assert!(!a.verify_report(&report));
    }

    #[test]
    fn tampered_report_rejected() {
        let p = SgxPlatform::new(b"s", 1);
        let a = p.load_enclave(&EnclaveImage::from_code("a", b"a")).unwrap();
        let b = p.load_enclave(&EnclaveImage::from_code("b", b"b")).unwrap();
        let mut report = b.ereport(a.measurement(), [9; 64]);
        report.report_data[0] ^= 1;
        assert!(!a.verify_report(&report));
    }

    #[test]
    fn enclave_randomness_is_private_and_distinct() {
        let p = SgxPlatform::new(b"s", 1);
        let a = p.load_enclave(&EnclaveImage::from_code("a", b"a")).unwrap();
        let b = p.load_enclave(&EnclaveImage::from_code("b", b"b")).unwrap();
        assert_ne!(a.random(32), b.random(32));
        assert_ne!(a.random(32), a.random(32), "stream advances");
    }

    #[test]
    fn seal_unseal_same_identity_only() {
        let p = SgxPlatform::new(b"s", 1);
        let a = p.load_enclave(&EnclaveImage::from_code("a", b"a")).unwrap();
        let b = p.load_enclave(&EnclaveImage::from_code("b", b"b")).unwrap();
        let sealed = a.seal(b"device key material");
        assert_eq!(a.unseal(&sealed).unwrap(), b"device key material");
        assert!(b.unseal(&sealed).is_err(), "different identity");
    }
}
