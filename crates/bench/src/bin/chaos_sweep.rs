//! Chaos sweep: virtual boot time and retry pressure vs fault rate.
//!
//! Runs the retrying secure-boot orchestrator across a grid of drop
//! rates (three fixed fault seeds each) and prints how the virtual boot
//! time, retry count, and outcome classification degrade. Everything is
//! deterministic: re-running this binary reproduces the table exactly.

use std::time::Duration;

use salus_bench::fmt_ms;
use salus_core::boot::{secure_boot, BootPlan, RetryPolicy};
use salus_core::instance::{TestBed, TestBedConfig};
use salus_net::fault::{FaultPlane, FaultSpec};

const SEEDS: [u64; 3] = [11, 23, 47];
const DROP_RATES_PER_MILLE: [u32; 6] = [0, 10, 25, 50, 100, 200];

fn main() {
    println!("Chaos sweep: secure boot under increasing packet loss\n");

    let policy = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 250,
        deadline: Some(Duration::from_millis(500)),
    };
    let plan = BootPlan::resilient().with_retry(policy);

    let mut rows = Vec::new();
    for rate in DROP_RATES_PER_MILLE {
        let mut completed = 0u32;
        let mut retries = 0u32;
        let mut time_sum = Duration::ZERO;
        let mut classifications = Vec::new();
        for seed in SEEDS {
            let mut bed = TestBed::provision(TestBedConfig::quick());
            bed.fabric.install_fault_plane(FaultPlane::new(
                seed,
                FaultSpec::default().with_drop_per_mille(rate),
            ));
            match secure_boot(&mut bed, plan) {
                Ok(boot) => {
                    assert!(boot.report.all_attested());
                    completed += 1;
                    retries += boot.trace.total_transient_failures();
                    time_sum += boot.trace.total_elapsed();
                }
                Err(failure) => classifications.push(failure.classification()),
            }
        }
        let mean_time = if completed > 0 {
            fmt_ms(time_sum / completed)
        } else {
            "-".into()
        };
        rows.push(vec![
            format!("{:.1}%", f64::from(rate) / 10.0),
            format!("{completed}/{}", SEEDS.len()),
            format!("{retries}"),
            mean_time,
            if classifications.is_empty() {
                "-".into()
            } else {
                classifications.join(", ")
            },
        ]);
    }

    salus_bench::print_table(
        &[
            "Drop rate",
            "Booted",
            "Retries",
            "Mean virtual time",
            "Failures",
        ],
        &rows,
    );

    println!(
        "\nEvery outcome is classified (completed / transient-exhausted / \
         fail-closed / suspended); no schedule leaves the platform half-attested."
    );
}
