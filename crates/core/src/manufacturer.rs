//! The hardware manufacturer: device manufacturing and the key
//! distribution service (§4.1, §4.2).
//!
//! "A random symmetric device key, `Key_device`, is injected into every
//! manufactured FPGA during the manufacturing process. The manufacturer
//! also maintains a key distribution server for device-key pairs." The
//! server releases a device's key **only** to a remotely attested SM
//! enclave, encrypted to the quote-bound public key.

use std::collections::{HashMap, HashSet};

use salus_crypto::drbg::HmacDrbg;
use salus_fpga::device::Device;
use salus_fpga::geometry::DeviceGeometry;
use salus_tee::measurement::Measurement;
use salus_tee::quote::{AttestationService, Quote};

use crate::keys::KeyDevice;
use crate::ra::{RaEnvelope, RaVerifier};
use crate::SalusError;

/// The manufacturer: a device factory plus the key-distribution server.
pub struct Manufacturer {
    key_db: HashMap<u64, KeyDevice>,
    drbg: HmacDrbg,
    attestation: AttestationService,
    expected_sm_enclave: Measurement,
    outstanding_challenges: HashSet<[u8; 32]>,
    /// Idempotency caches: completed request rounds keyed by the
    /// caller-chosen token, so a client retrying after a lost response
    /// gets the original answer instead of a "unknown challenge" refusal.
    begin_cache: HashMap<u64, [u8; 32]>,
    redeem_cache: HashMap<u64, RaEnvelope>,
}

impl std::fmt::Debug for Manufacturer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manufacturer")
            .field("devices", &self.key_db.len())
            .finish_non_exhaustive()
    }
}

impl Manufacturer {
    /// Creates the manufacturer with its RNG seed, the attestation
    /// service it trusts, and the SM enclave binary it released.
    pub fn new(
        seed: &[u8],
        attestation: AttestationService,
        expected_sm_enclave: Measurement,
    ) -> Manufacturer {
        Manufacturer {
            key_db: HashMap::new(),
            drbg: HmacDrbg::new(seed, b"manufacturer"),
            attestation,
            expected_sm_enclave,
            outstanding_challenges: HashSet::new(),
            begin_cache: HashMap::new(),
            redeem_cache: HashMap::new(),
        }
    }

    /// Manufactures a device: fuses a fresh `Key_device` and records the
    /// (DNA, key) pair in the distribution database.
    pub fn manufacture_device(&mut self, geometry: DeviceGeometry, serial: u64) -> Device {
        let mut device = Device::manufacture(geometry, serial);
        let key = KeyDevice::from_bytes(self.drbg.generate_array());
        device
            .program_device_key(*key.as_bytes())
            .expect("fresh device has unprogrammed efuse");
        self.key_db.insert(device.dna().read(), key);
        device
    }

    /// Number of manufactured devices.
    pub fn device_count(&self) -> usize {
        self.key_db.len()
    }

    /// Step 1 of a key request: the server issues a fresh RA challenge
    /// for the requesting SM enclave.
    pub fn begin_key_request(&mut self, dna: u64) -> Result<[u8; 32], SalusError> {
        if !self.key_db.contains_key(&dna) {
            return Err(SalusError::KeyDistributionRefused("unknown device"));
        }
        let challenge: [u8; 32] = self.drbg.generate_array();
        self.outstanding_challenges.insert(challenge);
        Ok(challenge)
    }

    /// Step 2: verifies the SM enclave's quote for `challenge` and, on
    /// success, returns `Key_device` encrypted to the quote-bound key.
    ///
    /// # Errors
    ///
    /// [`SalusError::KeyDistributionRefused`] /
    /// [`SalusError::RemoteAttestationFailed`] on any failed check.
    pub fn redeem_key_request(
        &mut self,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        if !self.outstanding_challenges.remove(&challenge) {
            return Err(SalusError::KeyDistributionRefused("unknown challenge"));
        }
        let key = self
            .key_db
            .get(&dna)
            .ok_or(SalusError::KeyDistributionRefused("unknown device"))?;
        RaVerifier::new(self.expected_sm_enclave).verify(
            &self.attestation,
            quote,
            enclave_pub,
            &challenge,
        )?;
        let entropy: [u8; 44] = self.drbg.generate_array();
        Ok(RaVerifier::encrypt_to(
            enclave_pub,
            key.as_bytes(),
            &entropy,
        ))
    }

    /// Idempotent [`begin_key_request`](Manufacturer::begin_key_request):
    /// the first call under `token` runs the normal path; any repeat of
    /// the same token returns the cached challenge without minting a new
    /// one. A client whose response was lost in transit can therefore
    /// resend the request and continue the round it already started.
    ///
    /// # Errors
    ///
    /// Same conditions as [`begin_key_request`](Manufacturer::begin_key_request).
    pub fn begin_key_request_idem(&mut self, dna: u64, token: u64) -> Result<[u8; 32], SalusError> {
        if let Some(challenge) = self.begin_cache.get(&token) {
            return Ok(*challenge);
        }
        let challenge = self.begin_key_request(dna)?;
        self.begin_cache.insert(token, challenge);
        Ok(challenge)
    }

    /// Idempotent [`redeem_key_request`](Manufacturer::redeem_key_request):
    /// a repeated `token` replays the cached envelope instead of failing
    /// with "unknown challenge" (the challenge is single-use, but the
    /// *round* is replay-tolerant). Only successful redemptions are
    /// cached — a failed attestation is re-evaluated in full on retry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`redeem_key_request`](Manufacturer::redeem_key_request).
    pub fn redeem_key_request_idem(
        &mut self,
        token: u64,
        dna: u64,
        challenge: [u8; 32],
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        if let Some(envelope) = self.redeem_cache.get(&token) {
            return Ok(envelope.clone());
        }
        let envelope = self.redeem_key_request(dna, challenge, quote, enclave_pub)?;
        self.redeem_cache.insert(token, envelope.clone());
        Ok(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::RaResponder;
    use salus_tee::measurement::EnclaveImage;
    use salus_tee::platform::SgxPlatform;
    use salus_tee::quote::QuotingEnclave;

    struct Setup {
        manufacturer: Manufacturer,
        device: Device,
        sm_enclave: salus_tee::enclave::Enclave,
        qe: QuotingEnclave,
    }

    fn setup() -> Setup {
        let mut service = AttestationService::new(b"prov");
        let platform = SgxPlatform::new(b"m", 3);
        service.register_platform(3);
        let mut qe = QuotingEnclave::load(&platform).unwrap();
        qe.provision(service.provisioning_secret());
        let sm_image = crate::dev::sm_enclave_image();
        let sm_enclave = platform.load_enclave(&sm_image).unwrap();
        let mut manufacturer = Manufacturer::new(b"mseed", service, sm_image.measure());
        let device = manufacturer.manufacture_device(DeviceGeometry::tiny(), 1);
        Setup {
            manufacturer,
            device,
            sm_enclave,
            qe,
        }
    }

    #[test]
    fn manufactured_devices_have_unique_fused_keys() {
        let mut s = setup();
        let d2 = s.manufacturer.manufacture_device(DeviceGeometry::tiny(), 2);
        assert!(s.device.has_device_key());
        assert!(d2.has_device_key());
        assert_ne!(s.device.dna(), d2.dna());
        assert_eq!(s.manufacturer.device_count(), 2);
    }

    #[test]
    fn honest_key_request_succeeds() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request(dna).unwrap();
        let responder = RaResponder::new(&s.sm_enclave);
        let quote = responder
            .quote(&s.sm_enclave, &s.qe, &challenge, &[0; 32])
            .unwrap();
        let envelope = s
            .manufacturer
            .redeem_key_request(dna, challenge, &quote, &responder.pubkey())
            .unwrap();
        let key = responder.decrypt(&envelope).unwrap();
        assert_eq!(key.len(), 32);
    }

    #[test]
    fn unknown_device_refused() {
        let mut s = setup();
        assert!(matches!(
            s.manufacturer.begin_key_request(0xDEAD),
            Err(SalusError::KeyDistributionRefused("unknown device"))
        ));
    }

    #[test]
    fn wrong_enclave_binary_refused() {
        // A malicious CSP runs its own enclave to phish the device key.
        let mut s = setup();
        let platform = SgxPlatform::new(b"m", 3);
        let evil = platform
            .load_enclave(&EnclaveImage::from_code("evil", b"evil sm"))
            .unwrap();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request(dna).unwrap();
        let responder = RaResponder::new(&evil);
        let quote = responder.quote(&evil, &s.qe, &challenge, &[0; 32]).unwrap();
        assert!(s
            .manufacturer
            .redeem_key_request(dna, challenge, &quote, &responder.pubkey())
            .is_err());
    }

    #[test]
    fn challenge_is_single_use() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request(dna).unwrap();
        let responder = RaResponder::new(&s.sm_enclave);
        let quote = responder
            .quote(&s.sm_enclave, &s.qe, &challenge, &[0; 32])
            .unwrap();
        s.manufacturer
            .redeem_key_request(dna, challenge, &quote, &responder.pubkey())
            .unwrap();
        assert!(matches!(
            s.manufacturer
                .redeem_key_request(dna, challenge, &quote, &responder.pubkey()),
            Err(SalusError::KeyDistributionRefused("unknown challenge"))
        ));
    }

    #[test]
    fn idempotent_begin_returns_same_challenge_for_same_token() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let first = s.manufacturer.begin_key_request_idem(dna, 7).unwrap();
        // A retried (duplicated or re-sent) request is absorbed.
        let again = s.manufacturer.begin_key_request_idem(dna, 7).unwrap();
        assert_eq!(first, again);
        // A different token is a fresh round with a fresh challenge.
        let other = s.manufacturer.begin_key_request_idem(dna, 8).unwrap();
        assert_ne!(first, other);
    }

    #[test]
    fn idempotent_redeem_replays_envelope_after_lost_response() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request_idem(dna, 7).unwrap();
        let responder = RaResponder::new(&s.sm_enclave);
        let quote = responder
            .quote(&s.sm_enclave, &s.qe, &challenge, &[0; 32])
            .unwrap();
        let first = s
            .manufacturer
            .redeem_key_request_idem(7, dna, challenge, &quote, &responder.pubkey())
            .unwrap();
        // The response was lost; the client resends the same token and
        // gets the identical envelope even though the challenge was
        // consumed by the first redemption.
        let again = s
            .manufacturer
            .redeem_key_request_idem(7, dna, challenge, &quote, &responder.pubkey())
            .unwrap();
        assert_eq!(first, again);
        assert_eq!(responder.decrypt(&again).unwrap().len(), 32);
    }

    #[test]
    fn idempotent_redeem_does_not_cache_failures() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request_idem(dna, 7).unwrap();
        let responder = RaResponder::new(&s.sm_enclave);
        let quote = responder
            .quote(&s.sm_enclave, &s.qe, &challenge, &[0; 32])
            .unwrap();
        // Wrong challenge → refused, and the token stays uncached.
        assert!(s
            .manufacturer
            .redeem_key_request_idem(9, dna, [0xAB; 32], &quote, &responder.pubkey())
            .is_err());
        // The genuine round under the same token still succeeds.
        assert!(s
            .manufacturer
            .redeem_key_request_idem(9, dna, challenge, &quote, &responder.pubkey())
            .is_ok());
    }

    #[test]
    fn key_envelope_not_decryptable_by_observer() {
        let mut s = setup();
        let dna = s.device.dna().read();
        let challenge = s.manufacturer.begin_key_request(dna).unwrap();
        let responder = RaResponder::new(&s.sm_enclave);
        let quote = responder
            .quote(&s.sm_enclave, &s.qe, &challenge, &[0; 32])
            .unwrap();
        let envelope = s
            .manufacturer
            .redeem_key_request(dna, challenge, &quote, &responder.pubkey())
            .unwrap();
        // A snooping OS holding a different secret cannot open it.
        let other = RaResponder::new(&s.sm_enclave);
        assert!(other.decrypt(&envelope).is_err());
    }
}
