//! Regenerates Figure 9: execution time of CL booting — by running the
//! full secure boot flow on the paper-scale deployment (U200 geometry,
//! calibrated cost model) and printing the per-phase breakdown grouped
//! into the figure's four rows.

use std::time::Duration;

use salus_bench::fmt_ms;
use salus_core::boot::{secure_boot, BootPhase, BootPlan};
use salus_core::instance::TestBed;

fn main() {
    println!("Figure 9. Execution time of CL booting (paper-scale deployment)\n");

    let mut bed = TestBed::paper_scale();
    let outcome = secure_boot(&mut bed, BootPlan::single()).expect("honest boot succeeds");
    assert!(outcome.report.all_attested());
    let b = &outcome.breakdown;

    // Group phases into the figure's rows.
    let device_key_dist = b.phase(BootPhase::SmQuoteGen)
        + b.phase(BootPhase::SmQuoteVerify)
        + b.phase(BootPhase::DeviceKeyTransfer);
    let cl_deployment = b.phase(BootPhase::BitstreamVerify)
        + b.phase(BootPhase::BitstreamManipulation)
        + b.phase(BootPhase::BitstreamEncrypt)
        + b.phase(BootPhase::ClLoad);
    let local_attestation = b.phase(BootPhase::LocalAttestation);
    let cl_authentication = b.phase(BootPhase::ClAuthentication);
    let user_ra = b.phase(BootPhase::UserQuoteGen)
        + b.phase(BootPhase::UserQuoteVerify)
        + b.phase(BootPhase::FinalQuoteGen)
        + b.phase(BootPhase::FinalQuoteVerify);
    let transfers = b.phase(BootPhase::MetadataTransfer) + b.phase(BootPhase::DataKeyTransfer);
    let total = b.total();

    let pct = |d: Duration| format!("{:.1}%", 100.0 * d.as_secs_f64() / total.as_secs_f64());
    let rows = vec![
        vec![
            "Local Attestation".into(),
            fmt_ms(local_attestation),
            pct(local_attestation),
        ],
        vec![
            "Device Key Dist.".into(),
            fmt_ms(device_key_dist),
            pct(device_key_dist),
        ],
        vec![
            "CL Deployment".into(),
            fmt_ms(cl_deployment),
            pct(cl_deployment),
        ],
        vec![
            "CL Authentication".into(),
            fmt_ms(cl_authentication),
            pct(cl_authentication),
        ],
        vec!["User RA".into(), fmt_ms(user_ra), pct(user_ra)],
        vec![
            "Metadata/Key Transfers".into(),
            fmt_ms(transfers),
            pct(transfers),
        ],
        vec!["TOTAL".into(), fmt_ms(total), "100%".into()],
    ];
    salus_bench::print_table(&["Boot row", "Time", "Share"], &rows);

    println!("\nSegment detail (figure legend):");
    let detail = [
        ("SM Enclv. Quote Gen.", b.phase(BootPhase::SmQuoteGen)),
        ("SM Enclv. Quote Verif.", b.phase(BootPhase::SmQuoteVerify)),
        (
            "Bitstream Verif. & Enc.",
            b.phase(BootPhase::BitstreamVerify) + b.phase(BootPhase::BitstreamEncrypt),
        ),
        (
            "Bitstream Manipulation",
            b.phase(BootPhase::BitstreamManipulation),
        ),
        ("CL Load (PCIe+ICAP)", b.phase(BootPhase::ClLoad)),
        (
            "User Enclv. Quote Gen.",
            b.phase(BootPhase::UserQuoteGen) + b.phase(BootPhase::FinalQuoteGen),
        ),
        (
            "User Enclv. Quote Verif.",
            b.phase(BootPhase::UserQuoteVerify) + b.phase(BootPhase::FinalQuoteVerify),
        ),
    ];
    for (name, d) in &detail {
        println!("  {name:<26} {}", fmt_ms(*d));
    }

    let manip_share = b.phase(BootPhase::BitstreamManipulation).as_secs_f64() / total.as_secs_f64();
    println!(
        "\nPaper reference: total 18.8 s on top of VM boot; manipulation 73.2%; \
         verify+encrypt 725 ms; device key dist 1709 ms; user RA 2568 ms;"
    );
    println!(
        "Measured here:   total {}; manipulation {:.1}%",
        fmt_ms(total),
        manip_share * 100.0
    );

    salus_bench::print_json(
        "fig9",
        serde_json::json!({
            "total_ms": total.as_secs_f64() * 1e3,
            "local_attestation_ms": local_attestation.as_secs_f64() * 1e3,
            "device_key_dist_ms": device_key_dist.as_secs_f64() * 1e3,
            "cl_deployment_ms": cl_deployment.as_secs_f64() * 1e3,
            "cl_authentication_ms": cl_authentication.as_secs_f64() * 1e3,
            "user_ra_ms": user_ra.as_secs_f64() * 1e3,
            "manipulation_share": manip_share,
        }),
    );
}
