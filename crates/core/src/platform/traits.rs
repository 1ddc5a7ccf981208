//! Service seams of the shared platform.
//!
//! The boot machine, the RPC service layer, and the multi-RP path
//! reach the manufacturer's key distribution only through
//! [`KeyService`], so a deployment can run against the in-process
//! manufacturer, a [`SharedManufacturer`] clone, or the RPC client
//! without knowing which it got.

use std::sync::Arc;

use parking_lot::Mutex;
use salus_fpga::device::Device;
use salus_fpga::geometry::DeviceGeometry;
use salus_tee::quote::Quote;

use crate::keys::KeyDevice;
use crate::manufacturer::Manufacturer;
use crate::ra::RaEnvelope;
use crate::sm_app::SmApp;
use crate::SalusError;

/// The manufacturer's key-distribution interface (§4.2): challenge,
/// quote-verified redemption, and the idempotent variants the resilient
/// boot machine retries against.
///
/// Default impls: [`Manufacturer`] (in-process), [`SharedManufacturer`]
/// (one manufacturer behind a lock, shared by every tenant of a fleet)
/// and [`ManufacturerClient`](crate::services::ManufacturerClient) (the
/// RPC stub, for callers on the far side of the fabric).
pub trait KeyService {
    /// Step 1: issue a fresh RA challenge for `dna`'s key.
    ///
    /// # Errors
    ///
    /// [`SalusError::KeyDistributionRefused`] for unknown devices.
    fn begin_key_request(&mut self, dna: u64) -> Result<[u8; 32], SalusError>;

    /// Step 2: verify the SM enclave quote and release the wrapped key.
    ///
    /// # Errors
    ///
    /// Refusal or attestation failure on any failed check.
    fn redeem_key_request(
        &mut self,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError>;

    /// Idempotent [`begin_key_request`](KeyService::begin_key_request)
    /// keyed by a caller-chosen `token`.
    ///
    /// # Errors
    ///
    /// Same as [`begin_key_request`](KeyService::begin_key_request).
    fn begin_key_request_idem(&mut self, dna: u64, token: u64) -> Result<[u8; 32], SalusError>;

    /// Idempotent [`redeem_key_request`](KeyService::redeem_key_request)
    /// keyed by `token`.
    ///
    /// # Errors
    ///
    /// Same as [`redeem_key_request`](KeyService::redeem_key_request).
    fn redeem_key_request_idem(
        &mut self,
        token: u64,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError>;
}

impl KeyService for Manufacturer {
    fn begin_key_request(&mut self, dna: u64) -> Result<[u8; 32], SalusError> {
        Manufacturer::begin_key_request(self, dna)
    }

    fn redeem_key_request(
        &mut self,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        Manufacturer::redeem_key_request(self, dna, challenge, quote, enclave_pub)
    }

    fn begin_key_request_idem(&mut self, dna: u64, token: u64) -> Result<[u8; 32], SalusError> {
        Manufacturer::begin_key_request_idem(self, dna, token)
    }

    fn redeem_key_request_idem(
        &mut self,
        token: u64,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        Manufacturer::redeem_key_request_idem(self, token, dna, challenge, quote, enclave_pub)
    }
}

/// One [`Manufacturer`] behind a lock, cheaply cloneable so every
/// tenant deployment of a fleet talks to the same key database. The
/// forwarding methods take `&self`; interior mutability keeps the
/// `TestBed` field drop-in compatible with the old owned value.
#[derive(Clone)]
pub struct SharedManufacturer {
    inner: Arc<Mutex<Manufacturer>>,
}

impl std::fmt::Debug for SharedManufacturer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.lock().fmt(f)
    }
}

impl SharedManufacturer {
    /// Wraps a manufacturer for shared use.
    pub fn new(manufacturer: Manufacturer) -> SharedManufacturer {
        SharedManufacturer {
            inner: Arc::new(Mutex::new(manufacturer)),
        }
    }

    /// Manufactures a device (fuses a fresh `Key_device`).
    pub fn manufacture_device(&self, geometry: DeviceGeometry, serial: u64) -> Device {
        self.inner.lock().manufacture_device(geometry, serial)
    }

    /// Number of manufactured devices.
    pub fn device_count(&self) -> usize {
        self.inner.lock().device_count()
    }

    /// Locks the underlying manufacturer for direct access.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, Manufacturer> {
        self.inner.lock()
    }
}

impl KeyService for SharedManufacturer {
    fn begin_key_request(&mut self, dna: u64) -> Result<[u8; 32], SalusError> {
        self.inner.lock().begin_key_request(dna)
    }

    fn redeem_key_request(
        &mut self,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        self.inner
            .lock()
            .redeem_key_request(dna, challenge, quote, enclave_pub)
    }

    fn begin_key_request_idem(&mut self, dna: u64, token: u64) -> Result<[u8; 32], SalusError> {
        self.inner.lock().begin_key_request_idem(dna, token)
    }

    fn redeem_key_request_idem(
        &mut self,
        token: u64,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        self.inner
            .lock()
            .redeem_key_request_idem(token, dna, challenge, quote, enclave_pub)
    }
}

/// Runs the §4.2 key-distribution round for `dna` against any
/// [`KeyService`], leaving `Key_device` installed in `sm` and returning
/// it for caching. This is the interface-level version of the round the
/// multi-RP master and the fleet control plane both perform outside the
/// full boot machine.
///
/// # Errors
///
/// Refusal or attestation failure from the service; decryption failure
/// in the enclave.
pub fn distribute_device_key(
    service: &mut dyn KeyService,
    sm: &mut SmApp,
    dna: u64,
) -> Result<KeyDevice, SalusError> {
    sm.set_target_device(dna);
    let challenge = service.begin_key_request(dna)?;
    let (quote, pubkey) = sm.key_request_quote(challenge)?;
    let envelope = service.redeem_key_request(dna, challenge, &quote, &pubkey)?;
    sm.receive_device_key(&envelope)?;
    sm.device_key()
        .ok_or(SalusError::KeyDistributionRefused("key not installed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TestBed;

    #[test]
    fn shared_manufacturer_clones_see_one_key_db() {
        let bed = TestBed::quick_demo();
        let a = bed.manufacturer.clone();
        let b = bed.manufacturer.clone();
        let before = a.device_count();
        b.manufacture_device(DeviceGeometry::tiny(), 7_001);
        assert_eq!(a.device_count(), before + 1);
        assert_eq!(bed.manufacturer.device_count(), before + 1);
    }

    #[test]
    fn distribute_device_key_round_trips_through_the_trait() {
        let mut bed = TestBed::quick_demo();
        let dna = bed.shell.device().lock().dna().read();
        let mut manufacturer = bed.manufacturer.clone();
        let key = distribute_device_key(&mut manufacturer, &mut bed.sm_app, dna)
            .expect("honest round succeeds");
        assert_eq!(bed.sm_app.device_key(), Some(key));
    }

    #[test]
    fn distribute_device_key_refuses_unknown_devices() {
        let mut bed = TestBed::quick_demo();
        let mut manufacturer = bed.manufacturer.clone();
        let err = distribute_device_key(&mut manufacturer, &mut bed.sm_app, 0xdead_beef)
            .expect_err("unknown DNA must be refused");
        assert_eq!(err, SalusError::KeyDistributionRefused("unknown device"));
    }
}
