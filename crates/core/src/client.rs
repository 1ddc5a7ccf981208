//! The data owner's client (runs in the owner's trusted environment).
//!
//! The client knows the published measurements of the user and SM
//! enclave binaries and the CL package metadata, trusts the attestation
//! service, and will only release `Key_data` after one successful
//! cascaded remote attestation covering the user enclave, SM enclave,
//! and CL (§4.4: "as soon as the data owner receives the attestation
//! report, the data owner could immediately upload sensitive data").

use salus_crypto::drbg::HmacDrbg;
use salus_tee::measurement::Measurement;
use salus_tee::quote::{AttestationService, Quote};

use crate::dev::BitstreamMetadata;
use crate::keys::KeyData;
use crate::ra::{RaEnvelope, RaVerifier};
use crate::user_app::cascade_hash;
use crate::SalusError;

/// The user client.
pub struct UserClient {
    expected_user: Measurement,
    expected_sm: Measurement,
    attestation: AttestationService,
    metadata: BitstreamMetadata,
    key_data: KeyData,
    drbg: HmacDrbg,
    initial_challenge: Option<[u8; 32]>,
    final_challenge: Option<[u8; 32]>,
    enclave_pub: Option<[u8; 32]>,
    attested: bool,
}

impl std::fmt::Debug for UserClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserClient")
            .field("attested", &self.attested)
            .finish_non_exhaustive()
    }
}

impl UserClient {
    /// Creates the client with its trust anchors and deployment inputs.
    pub fn new(
        expected_user: Measurement,
        expected_sm: Measurement,
        attestation: AttestationService,
        metadata: BitstreamMetadata,
        key_data: KeyData,
        seed: &[u8],
    ) -> UserClient {
        UserClient {
            expected_user,
            expected_sm,
            attestation,
            metadata,
            key_data,
            drbg: HmacDrbg::new(seed, b"user-client"),
            initial_challenge: None,
            final_challenge: None,
            enclave_pub: None,
            attested: false,
        }
    }

    /// Whether the full platform has been attested.
    pub fn platform_attested(&self) -> bool {
        self.attested
    }

    /// Starts the (cascaded) remote attestation: returns the challenge
    /// for the user enclave.
    pub fn begin_ra(&mut self) -> [u8; 32] {
        let challenge: [u8; 32] = self.drbg.generate_array();
        self.initial_challenge = Some(challenge);
        challenge
    }

    /// Verifies the user enclave's initial quote and returns the sealed
    /// metadata + final challenge.
    ///
    /// # Errors
    ///
    /// [`SalusError::RemoteAttestationFailed`] on any failed check.
    pub fn process_initial_quote(
        &mut self,
        quote: &Quote,
        enclave_pub: &[u8; 32],
    ) -> Result<RaEnvelope, SalusError> {
        let challenge = self
            .initial_challenge
            .ok_or(SalusError::RemoteAttestationFailed("no RA in progress"))?;
        RaVerifier::new(self.expected_user).verify(
            &self.attestation,
            quote,
            enclave_pub,
            &challenge,
        )?;
        self.enclave_pub = Some(*enclave_pub);

        let final_challenge: [u8; 32] = self.drbg.generate_array();
        self.final_challenge = Some(final_challenge);

        let mut payload = self.metadata.to_bytes();
        payload.extend_from_slice(&final_challenge);
        let entropy: [u8; 44] = self.drbg.generate_array();
        Ok(RaVerifier::encrypt_to(enclave_pub, &payload, &entropy))
    }

    /// Verifies the deferred final quote: fresh challenge, same key
    /// exchange, and a cascade hash covering the expected SM enclave and
    /// CL digest. On success returns the encrypted `Key_data`.
    ///
    /// # Errors
    ///
    /// [`SalusError::CascadeReportInvalid`] /
    /// [`SalusError::RemoteAttestationFailed`] on any failed check.
    pub fn process_final_quote(&mut self, quote: &Quote) -> Result<RaEnvelope, SalusError> {
        let challenge = self
            .final_challenge
            .ok_or(SalusError::CascadeReportInvalid("no final challenge"))?;
        let enclave_pub = self
            .enclave_pub
            .ok_or(SalusError::CascadeReportInvalid("no prior RA"))?;
        let extra = RaVerifier::new(self.expected_user).verify(
            &self.attestation,
            quote,
            &enclave_pub,
            &challenge,
        )?;

        let expected = cascade_hash(&self.expected_sm, &self.metadata.digest);
        if extra != expected {
            return Err(SalusError::CascadeReportInvalid("cascade hash mismatch"));
        }
        self.attested = true;

        let entropy: [u8; 44] = self.drbg.generate_array();
        Ok(RaVerifier::encrypt_to(
            &enclave_pub,
            self.key_data.as_bytes(),
            &entropy,
        ))
    }
}
