//! Attack-injection drivers for the Table 3 experiments.
//!
//! Table 3 maps each boot step ①–⑨ to the confidentiality/integrity
//! property protecting its secret. [`run_attack`] arms one concrete
//! attack against a fresh deployment, runs the full secure boot, and
//! reports whether the attack was **detected** (boot failed closed) and
//! with which error — the executable version of the table.

use salus_net::adversary::BitFlipper;

use crate::boot::{secure_boot, BootPlan};
use crate::instance::{endpoints, TestBed, TestBedConfig};
use crate::SalusError;

/// One concrete attack against the secure boot flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootAttack {
    /// No attack — the honest baseline.
    None,
    /// Tamper with the client's RA challenge in flight (step ②).
    TamperRaChallenge,
    /// Tamper with the encrypted metadata envelope (steps ①②).
    TamperMetadataEnvelope,
    /// Tamper with the local-attestation handshake (step ③).
    TamperLaHandshake,
    /// Tamper with the sealed metadata forwarded to the SM enclave
    /// (step ③).
    TamperMetadataToSm,
    /// Tamper with the encrypted device-key envelope (step ④).
    TamperDeviceKeyEnvelope,
    /// Substitute the CL bitstream in untrusted host storage (step ⑤).
    SubstituteStoredBitstream,
    /// Shell corrupts the encrypted bitstream during loading (steps ⑤⑥).
    ShellCorruptsBitstream,
    /// Shell replays a previously valid encrypted bitstream (steps ⑤⑥).
    ShellReplaysOldBitstream,
    /// Shell attempts configuration readback after loading (§5.1.2).
    ShellReadback,
    /// Tamper with the CL attestation request on PCIe (step ⑦).
    TamperClAttestRequest,
    /// Tamper with the CL attestation response on PCIe (step ⑦).
    TamperClAttestResponse,
    /// Tamper with the final cascaded quote (step ⑧).
    TamperFinalQuote,
    /// Replay the *initial* quote in place of the final cascaded quote
    /// (a freshness attack on the deferred report).
    ReplayInitialQuoteAsFinal,
    /// CSP runs a counterfeit SM enclave binary.
    CounterfeitSmEnclave,
    /// CSP runs a counterfeit user enclave binary.
    CounterfeitUserEnclave,
    /// CSP advertises a DNA that belongs to a different board.
    SpoofedDeviceDna,
    /// CSP hosts the instance on an unpatched (out-of-date TCB) CPU.
    UnpatchedPlatform,
}

impl BootAttack {
    /// Every attack (excluding the honest baseline).
    pub fn all() -> Vec<BootAttack> {
        vec![
            BootAttack::TamperRaChallenge,
            BootAttack::TamperMetadataEnvelope,
            BootAttack::TamperLaHandshake,
            BootAttack::TamperMetadataToSm,
            BootAttack::TamperDeviceKeyEnvelope,
            BootAttack::SubstituteStoredBitstream,
            BootAttack::ShellCorruptsBitstream,
            BootAttack::ShellReplaysOldBitstream,
            BootAttack::ShellReadback,
            BootAttack::TamperClAttestRequest,
            BootAttack::TamperClAttestResponse,
            BootAttack::TamperFinalQuote,
            BootAttack::ReplayInitialQuoteAsFinal,
            BootAttack::CounterfeitSmEnclave,
            BootAttack::CounterfeitUserEnclave,
            BootAttack::SpoofedDeviceDna,
            BootAttack::UnpatchedPlatform,
        ]
    }

    /// Which Table 3 step(s) the attack targets.
    pub fn paper_step(&self) -> &'static str {
        match self {
            BootAttack::None => "-",
            BootAttack::TamperRaChallenge | BootAttack::TamperMetadataEnvelope => "①②",
            BootAttack::TamperLaHandshake | BootAttack::TamperMetadataToSm => "③",
            BootAttack::TamperDeviceKeyEnvelope => "④",
            BootAttack::SubstituteStoredBitstream => "⑤",
            BootAttack::ShellCorruptsBitstream | BootAttack::ShellReplaysOldBitstream => "⑤⑥⑧",
            BootAttack::ShellReadback => "§5.1.2",
            BootAttack::TamperClAttestRequest | BootAttack::TamperClAttestResponse => "⑨",
            BootAttack::TamperFinalQuote | BootAttack::ReplayInitialQuoteAsFinal => "②⑧",
            BootAttack::CounterfeitSmEnclave => "③④",
            BootAttack::CounterfeitUserEnclave => "①②",
            BootAttack::SpoofedDeviceDna => "④⑨",
            BootAttack::UnpatchedPlatform => "①②④",
        }
    }
}

/// Result of one attack run.
#[derive(Debug)]
pub struct AttackOutcome {
    /// The attack that was run.
    pub attack: BootAttack,
    /// Whether the system detected it (boot failed closed, or the
    /// attack primitive itself was refused).
    pub detected: bool,
    /// The error the defence raised, if any.
    pub error: Option<SalusError>,
}

/// Arms [`BootAttack::SubstituteStoredBitstream`] on `bed`: the host
/// flips one byte of the CL it serves this bed. The flip is
/// copy-on-write ([`Arc::make_mut`](std::sync::Arc::make_mut)), so beds
/// sharing the node's stored package keep fetching the original.
pub fn substitute_stored_bitstream(bed: &mut TestBed) {
    let wire = &mut std::sync::Arc::make_mut(&mut bed.cl_store).compiled.wire;
    let mid = wire.len() / 2;
    wire[mid] ^= 0x01;
}

/// Provisions a fresh quick deployment, arms `attack`, and runs the
/// boot. For [`BootAttack::None`] the boot must succeed.
pub fn run_attack(attack: BootAttack) -> AttackOutcome {
    let mut bed = if attack == BootAttack::UnpatchedPlatform {
        TestBed::provision(TestBedConfig {
            platform_svn: salus_tee::quote::CURRENT_SVN - 1,
            ..TestBedConfig::quick()
        })
    } else {
        TestBed::provision(TestBedConfig::quick())
    };

    match attack {
        BootAttack::None => {}
        BootAttack::TamperRaChallenge => {
            // client→host message 0 is the RA challenge.
            bed.fabric
                .channel(endpoints::CLIENT, endpoints::HOST)
                .interpose(BitFlipper::new(0, 0));
        }
        BootAttack::TamperMetadataEnvelope => {
            // client→host message 1 is the metadata envelope.
            bed.fabric
                .channel(endpoints::CLIENT, endpoints::HOST)
                .interpose(BitFlipper::new(1, 50));
        }
        BootAttack::TamperLaHandshake => {
            bed.fabric
                .channel(endpoints::USER_ENCLAVE, endpoints::SM_ENCLAVE)
                .interpose(BitFlipper::new(0, 10));
        }
        BootAttack::TamperMetadataToSm => {
            // user→sm message 1 is the sealed metadata.
            bed.fabric
                .channel(endpoints::USER_ENCLAVE, endpoints::SM_ENCLAVE)
                .interpose(BitFlipper::new(1, 10));
        }
        BootAttack::TamperDeviceKeyEnvelope => {
            // manufacturer→host message 1 is the key envelope.
            bed.fabric
                .channel(endpoints::MANUFACTURER, endpoints::HOST)
                .interpose(BitFlipper::new(1, 40));
        }
        BootAttack::SubstituteStoredBitstream => substitute_stored_bitstream(&mut bed),
        BootAttack::ShellCorruptsBitstream => {
            // The shell flips a ciphertext byte of the CL stream (host→fpga
            // message 0) before it reaches the ICAP.
            bed.fabric
                .channel(endpoints::HOST, endpoints::FPGA)
                .interpose(BitFlipper::new(0, 1 << 12));
        }
        BootAttack::ShellReplaysOldBitstream => {
            // Boot once honestly — host→fpga messages 0 (the encrypted
            // bitstream) and 1 (the attestation request) — then the shell
            // replays that stale-but-valid stream as message 2, the
            // reboot's bitstream.
            bed.fabric
                .channel(endpoints::HOST, endpoints::FPGA)
                .interpose(salus_net::adversary::CrossReplayer::new(0, 2));
            secure_boot(&mut bed, BootPlan::single()).expect("first boot is honest");
        }
        BootAttack::ShellReadback => {
            // The attack happens after an honest boot.
            secure_boot(&mut bed, BootPlan::single()).expect("boot is honest");
            let result = bed.shell.snoop_configuration(bed.partition);
            return AttackOutcome {
                attack,
                detected: result.is_err(),
                error: result.err().map(SalusError::Fpga),
            };
        }
        BootAttack::TamperClAttestRequest => {
            // host→fpga message 0 is the encrypted bitstream, message 1
            // the attestation request.
            bed.fabric
                .channel(endpoints::HOST, endpoints::FPGA)
                .interpose(BitFlipper::new(1, 3));
        }
        BootAttack::TamperClAttestResponse => {
            bed.fabric
                .channel(endpoints::FPGA, endpoints::HOST)
                .interpose(BitFlipper::new(0, 3));
        }
        BootAttack::TamperFinalQuote => {
            // host→client message 0 is the initial quote, message 1 the
            // final cascaded quote.
            bed.fabric
                .channel(endpoints::HOST, endpoints::CLIENT)
                .interpose(BitFlipper::new(1, 40));
        }
        BootAttack::ReplayInitialQuoteAsFinal => {
            bed.fabric
                .channel(endpoints::HOST, endpoints::CLIENT)
                .interpose(salus_net::adversary::CrossReplayer::new(0, 1));
        }
        BootAttack::CounterfeitSmEnclave => {
            let evil_image =
                salus_tee::measurement::EnclaveImage::from_code("evil-sm", b"evil sm binary");
            let evil = bed.platform.load_enclave(&evil_image).expect("EPC space");
            // The CSP swaps the SM application for its own. The QE is
            // platform infrastructure and stays.
            let qe = {
                let mut qe = salus_tee::quote::QuotingEnclave::load(&bed.platform).unwrap();
                qe.provision(bed.attestation.provisioning_secret());
                qe
            };
            bed.sm_app =
                crate::sm_app::SmApp::new(evil, qe, crate::dev::user_enclave_image().measure());
        }
        BootAttack::CounterfeitUserEnclave => {
            let evil_image =
                salus_tee::measurement::EnclaveImage::from_code("evil-user", b"evil user binary");
            let evil = bed.platform.load_enclave(&evil_image).expect("EPC space");
            let qe = {
                let mut qe = salus_tee::quote::QuotingEnclave::load(&bed.platform).unwrap();
                qe.provision(bed.attestation.provisioning_secret());
                qe
            };
            bed.user_app =
                crate::user_app::UserApp::new(evil, qe, crate::dev::sm_enclave_image().measure());
        }
        BootAttack::UnpatchedPlatform => {} // armed at provisioning above
        BootAttack::SpoofedDeviceDna => {
            // The CSP advertises the DNA of a *different* genuine board.
            let other = bed
                .manufacturer
                .manufacture_device(salus_fpga::geometry::DeviceGeometry::tiny(), 9999);
            bed.advertised_dna_override = Some(other.dna().read());
        }
    }

    let result = secure_boot(&mut bed, BootPlan::single()).map_err(SalusError::from);
    match attack {
        BootAttack::None => AttackOutcome {
            attack,
            detected: false,
            error: result.err(),
        },
        _ => AttackOutcome {
            attack,
            detected: result.is_err(),
            error: result.err(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_baseline_boots() {
        let outcome = run_attack(BootAttack::None);
        assert!(
            outcome.error.is_none(),
            "baseline failed: {:?}",
            outcome.error
        );
    }

    #[test]
    fn every_attack_is_detected() {
        for attack in BootAttack::all() {
            let outcome = run_attack(attack);
            assert!(
                outcome.detected,
                "attack {attack:?} was NOT detected (error: {:?})",
                outcome.error
            );
        }
    }

    #[test]
    fn stored_bitstream_substitution_hits_digest_check() {
        let outcome = run_attack(BootAttack::SubstituteStoredBitstream);
        assert_eq!(outcome.error, Some(SalusError::DigestMismatch));
    }

    #[test]
    fn shell_corruption_hits_internal_decryption() {
        let outcome = run_attack(BootAttack::ShellCorruptsBitstream);
        assert!(matches!(
            outcome.error,
            Some(SalusError::Fpga(salus_fpga::FpgaError::DecryptionFailed))
        ));
    }

    #[test]
    fn replayed_bitstream_fails_cl_attestation() {
        let outcome = run_attack(BootAttack::ShellReplaysOldBitstream);
        assert!(matches!(
            outcome.error,
            Some(SalusError::ClAttestationFailed(_))
        ));
    }

    #[test]
    fn readback_attack_blocked_by_salus_icap() {
        let outcome = run_attack(BootAttack::ShellReadback);
        assert!(matches!(
            outcome.error,
            Some(SalusError::Fpga(salus_fpga::FpgaError::ReadbackDisabled))
        ));
    }

    #[test]
    fn counterfeit_enclaves_fail_attestation() {
        assert!(matches!(
            run_attack(BootAttack::CounterfeitSmEnclave).error,
            Some(SalusError::LocalAttestationFailed(_))
        ));
        assert!(matches!(
            run_attack(BootAttack::CounterfeitUserEnclave).error,
            Some(SalusError::RemoteAttestationFailed(_))
        ));
    }
}
