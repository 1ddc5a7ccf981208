//! The secure manager (SM) enclave application (§4.1, §5.2.2).
//!
//! Released by the manufacturer as an SDK, the SM application runs on
//! the cloud host next to the user enclave and performs, inside its
//! enclave: local-attestation response, device-key retrieval (gated on
//! its own remote attestation), bitstream verification, RoT injection by
//! bitstream manipulation, bitstream encryption, and CL attestation.
//! Nothing here holds a hardcoded secret — every key is generated or
//! received at deployment time, per Kerckhoff's doctrine (§4.6).

use std::sync::Arc;

use salus_bitstream::manipulate::rewrite_cells_in_place;
use salus_fpga::wire::build_encrypted_stream_patched;
use salus_tee::enclave::Enclave;
use salus_tee::local::{respond, HandshakeMsg, SecureChannel};
use salus_tee::measurement::Measurement;
use salus_tee::quote::{Quote, QuotingEnclave};

use crate::cl_attest::{build_request, verify_response, AttestRequest, AttestResponse};
use crate::dev::{package_digest, BitstreamMetadata};
use crate::keys::{CtrSession, KeyAttest, KeyDevice, KeySession};
use crate::ra::{RaEnvelope, RaResponder};
use crate::reg_channel::HostRegChannel;
use crate::SalusError;

/// How many lost predecessors an LA-channel receive tolerates. A peer
/// retrying over a lossy transport seals each attempt at a fresh
/// counter; the window lets the receiver accept the attempt that
/// finally arrives without mistaking it for a replay (true replays sit
/// *below* the receive counter and stay rejected).
pub(crate) const LA_RETRY_WINDOW: u64 = 8;

/// The secrets injected into the current CL (enclave-private state).
struct InjectedSecrets {
    key_attest: KeyAttest,
    key_session: KeySession,
    ctr_seed: u64,
}

/// The SM enclave application.
pub struct SmApp {
    enclave: Enclave,
    qe: QuotingEnclave,
    expected_user: Measurement,
    la: Option<SecureChannel>,
    metadata: Option<BitstreamMetadata>,
    key_device: Option<KeyDevice>,
    /// GCM context (AES schedule + GHASH tables) expanded lazily from
    /// `key_device` and reused across deployments under the same key.
    gcm: Option<salus_crypto::gcm::AesGcm256>,
    ra: Option<RaResponder>,
    injected: Option<InjectedSecrets>,
    target_dna: Option<u64>,
    pending_nonce: Option<u64>,
    cl_attested: bool,
    /// The most recent device-encrypted CL produced by
    /// [`prepare_bitstream`](SmApp::prepare_bitstream). The platform
    /// control plane harvests this on eviction so a warm redeploy can
    /// reload the identical ciphertext without re-running manipulation
    /// and encryption. It is immutable once sealed, so the channel to the
    /// shell delivers it by reference rather than as a copy.
    prepared: Option<Arc<Vec<u8>>>,
}

impl std::fmt::Debug for SmApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmApp")
            .field("cl_attested", &self.cl_attested)
            .field("has_device_key", &self.key_device.is_some())
            .finish_non_exhaustive()
    }
}

impl SmApp {
    /// Boots the SM application inside `enclave`.
    pub fn new(enclave: Enclave, qe: QuotingEnclave, expected_user: Measurement) -> SmApp {
        SmApp {
            enclave,
            qe,
            expected_user,
            la: None,
            metadata: None,
            key_device: None,
            gcm: None,
            ra: None,
            injected: None,
            target_dna: None,
            pending_nonce: None,
            cl_attested: false,
            prepared: None,
        }
    }

    /// The SM enclave's measurement.
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// Whether the loaded CL has passed attestation.
    pub fn cl_attested(&self) -> bool {
        self.cl_attested
    }

    /// Records the DNA of the FPGA the CSP assigned to this instance.
    pub fn set_target_device(&mut self, dna: u64) {
        self.target_dna = Some(dna);
    }

    /// Responds to the user enclave's local-attestation handshake.
    ///
    /// # Errors
    ///
    /// [`SalusError::LocalAttestationFailed`] if the initiator is not
    /// the expected user enclave on this platform.
    pub fn la_respond(&mut self, msg: &HandshakeMsg) -> Result<HandshakeMsg, SalusError> {
        let (channel, reply) = respond(&self.enclave, self.expected_user, msg)
            .map_err(|_| SalusError::LocalAttestationFailed("sm-side handshake"))?;
        self.la = Some(channel);
        Ok(reply)
    }

    /// Receives `H` and `Loc` from the user enclave over the LA channel.
    ///
    /// # Errors
    ///
    /// Channel or decoding failures.
    pub fn receive_metadata(&mut self, sealed: &[u8]) -> Result<(), SalusError> {
        let channel = self
            .la
            .as_mut()
            .ok_or(SalusError::LocalAttestationFailed("no channel"))?;
        let bytes = channel
            .open_window(sealed, LA_RETRY_WINDOW)
            .map_err(|_| SalusError::LocalAttestationFailed("metadata message"))?;
        self.metadata = Some(BitstreamMetadata::from_bytes(&bytes)?);
        Ok(())
    }

    /// Produces the quote answering the manufacturer's key-request
    /// challenge, binding a fresh key-exchange public key.
    ///
    /// # Errors
    ///
    /// Propagates quoting failures.
    pub fn key_request_quote(
        &mut self,
        challenge: [u8; 32],
    ) -> Result<(Quote, [u8; 32]), SalusError> {
        let responder = RaResponder::new(&self.enclave);
        let quote = responder.quote(&self.enclave, &self.qe, &challenge, &[0; 32])?;
        let pubkey = responder.pubkey();
        self.ra = Some(responder);
        Ok((quote, pubkey))
    }

    /// Receives the encrypted `Key_device` from the manufacturer.
    ///
    /// # Errors
    ///
    /// Decryption failures.
    pub fn receive_device_key(&mut self, envelope: &RaEnvelope) -> Result<(), SalusError> {
        let responder = self
            .ra
            .as_ref()
            .ok_or(SalusError::KeyDistributionRefused("no pending request"))?;
        let bytes = responder.decrypt(envelope)?;
        let key: [u8; 32] = bytes
            .try_into()
            .map_err(|_| SalusError::Malformed("device key length"))?;
        self.key_device = Some(KeyDevice::from_bytes(key));
        self.gcm = None; // schedule must be re-expanded for the new key
        Ok(())
    }

    /// Installs metadata directly (multi-RP master path, where the SM
    /// enclave already holds the per-partition metadata set).
    pub(crate) fn install_metadata(&mut self, metadata: BitstreamMetadata) {
        self.metadata = Some(metadata);
    }

    /// Installs an already-distributed device key (multi-RP path: one
    /// key request serves all partitions of the same board).
    pub(crate) fn install_device_key(&mut self, key: KeyDevice) {
        self.key_device = Some(key);
        self.gcm = None; // schedule must be re-expanded for the new key
    }

    /// The cached device key, if distributed.
    pub(crate) fn device_key(&self) -> Option<KeyDevice> {
        self.key_device
    }

    /// The last device-encrypted CL this enclave prepared, if any.
    /// Valid only for the (device, partition) pair it was prepared for —
    /// the partition index is baked into the package digest and the
    /// ciphertext is GCM-bound to the device DNA. It is the stream the
    /// shell loads, so it exposes nothing the shell does not see.
    pub fn prepared_bitstream(&self) -> Option<&Arc<Vec<u8>>> {
        self.prepared.as_ref()
    }

    /// Step ⑤: verifies the fetched plaintext bitstream against `H`,
    /// injects fresh `Key_attest` / `Key_session` / `Ctr_session` by
    /// bitstream manipulation, and encrypts the result for the target
    /// device. The CL is copied once, straight into the ENC payload of
    /// the stream for the shell, and manipulated and sealed there.
    /// Returns that stream; the enclave keeps it, so an evicted
    /// deployment can reload it warm.
    ///
    /// # Errors
    ///
    /// * [`SalusError::DigestMismatch`] when the fetched bitstream is
    ///   not the expected one,
    /// * state errors when metadata / device key / DNA are missing.
    pub fn prepare_bitstream(&mut self, cl_bitstream: &[u8]) -> Result<&Arc<Vec<u8>>, SalusError> {
        let metadata = self
            .metadata
            .as_ref()
            .ok_or(SalusError::Malformed("no metadata received"))?;
        let key_device = self
            .key_device
            .as_ref()
            .ok_or(SalusError::KeyDistributionRefused("no device key"))?;
        let dna = self
            .target_dna
            .ok_or(SalusError::Malformed("no target device"))?;

        // 1. Verify the fetched bitstream is the user-expected one.
        let digest = package_digest(
            cl_bitstream,
            &metadata.locations,
            metadata.partition,
            metadata.family,
        );
        if digest != metadata.digest {
            return Err(SalusError::DigestMismatch);
        }

        // 2. Generate the RoT and session secrets inside the enclave,
        // then the deployment's fresh nonce.
        let key_attest = KeyAttest::from_bytes(self.enclave.random_array());
        let key_session = KeySession::from_bytes(self.enclave.random_array());
        let ctr_seed = u64::from_le_bytes(self.enclave.random_array());
        let ctr = CtrSession::from_seed(ctr_seed);
        let nonce: [u8; 12] = self.enclave.random_array();

        // 3. Inject them by bitstream-level manipulation of the copy in
        // the ENC payload, and 4. encrypt it there for the target device.
        // The GCM context is cached across deployments under one key.
        let key_bytes = *key_device.as_bytes();
        let cipher = self
            .gcm
            .get_or_insert_with(|| salus_crypto::gcm::AesGcm256::new(&key_bytes));
        let ctr_bytes = ctr.to_bram_bytes();
        let cells = [
            (
                &metadata.locations.key_attest,
                key_attest.as_bytes().as_slice(),
            ),
            (
                &metadata.locations.key_session,
                key_session.as_bytes().as_slice(),
            ),
            (&metadata.locations.ctr_session, ctr_bytes.as_slice()),
        ];
        let encrypted = build_encrypted_stream_patched(cipher, &nonce, dna, cl_bitstream, |cl| {
            rewrite_cells_in_place(cl, &cells)
        })?;

        self.injected = Some(InjectedSecrets {
            key_attest,
            key_session,
            ctr_seed,
        });
        self.cl_attested = false;
        Ok(self.prepared.insert(Arc::new(encrypted)))
    }

    /// Step ⑦ part 1: issues a fresh CL-attestation challenge.
    ///
    /// # Errors
    ///
    /// State errors when no secrets were injected.
    pub fn attest_request(&mut self) -> Result<AttestRequest, SalusError> {
        let injected = self
            .injected
            .as_ref()
            .ok_or(SalusError::ClAttestationFailed("no injected secrets"))?;
        let dna = self
            .target_dna
            .ok_or(SalusError::Malformed("no target device"))?;
        let nonce = u64::from_le_bytes(self.enclave.random_array());
        self.pending_nonce = Some(nonce);
        Ok(build_request(&injected.key_attest, nonce, dna))
    }

    /// Step ⑦ part 2: verifies the SM logic's response.
    ///
    /// # Errors
    ///
    /// [`SalusError::ClAttestationFailed`] on any mismatch.
    pub fn process_attest_response(&mut self, response: &AttestResponse) -> Result<(), SalusError> {
        let injected = self
            .injected
            .as_ref()
            .ok_or(SalusError::ClAttestationFailed("no injected secrets"))?;
        let nonce = self
            .pending_nonce
            .take()
            .ok_or(SalusError::ClAttestationFailed("no pending challenge"))?;
        let dna = self
            .target_dna
            .ok_or(SalusError::Malformed("no target device"))?;
        verify_response(&injected.key_attest, nonce, response, dna)?;
        self.cl_attested = true;
        Ok(())
    }

    /// Builds the sealed CL-attestation-result message for the user
    /// enclave (over the LA channel).
    ///
    /// # Errors
    ///
    /// State errors when the CL is not attested or no channel exists.
    pub fn cl_result_message(&mut self) -> Result<Vec<u8>, SalusError> {
        if !self.cl_attested {
            return Err(SalusError::ClAttestationFailed("cl not attested"));
        }
        let digest = self
            .metadata
            .as_ref()
            .ok_or(SalusError::Malformed("no metadata"))?
            .digest;
        let channel = self
            .la
            .as_mut()
            .ok_or(SalusError::LocalAttestationFailed("no channel"))?;
        let mut msg = b"CL_OK:".to_vec();
        msg.extend_from_slice(&digest);
        Ok(channel.seal(&msg))
    }

    /// Hands out the host endpoint of the secure register channel.
    ///
    /// # Errors
    ///
    /// State errors before a successful CL attestation.
    pub fn host_reg_channel(&self) -> Result<HostRegChannel, SalusError> {
        if !self.cl_attested {
            return Err(SalusError::ClAttestationFailed("cl not attested"));
        }
        let injected = self
            .injected
            .as_ref()
            .ok_or(SalusError::ClAttestationFailed("no injected secrets"))?;
        Ok(HostRegChannel::new(injected.key_session, injected.ctr_seed))
    }
}
