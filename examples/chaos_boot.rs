//! Chaos boot: secure boots under an escalating deterministic fault
//! schedule.
//!
//! Sweeps the fault-injection plane from a clean network up to heavy
//! packet loss plus a manufacturer outage, driving the retrying boot
//! orchestrator each time. For every schedule it prints the per-step
//! retry/backoff trace and the final classification — completed,
//! suspended (resumable), or failed closed.
//!
//! ```sh
//! cargo run --example chaos_boot
//! ```

use std::time::Duration;

use salus::core::boot::{secure_boot, BootFailure, BootPlan, RetryPolicy};
use salus::core::instance::{endpoints, TestBed, TestBedConfig};
use salus::net::fault::{FaultPlane, FaultSpec};

fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

fn main() {
    println!("=== Salus chaos boot: escalating fault schedules ===\n");

    let policy = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(20),
        backoff_factor: 2,
        max_backoff: Duration::from_millis(200),
        jitter_per_mille: 250,
        deadline: Some(Duration::from_millis(500)),
    };
    let plan = BootPlan::resilient().with_retry(policy);

    let schedules: Vec<(&str, FaultSpec)> = vec![
        ("clean network", FaultSpec::default()),
        (
            "light loss (2% drop)",
            FaultSpec::default().with_drop_per_mille(20),
        ),
        (
            "lossy + duplicating (8% drop, 5% dup)",
            FaultSpec::default()
                .with_drop_per_mille(80)
                .with_duplicate_per_mille(50),
        ),
        (
            "heavy loss (20% drop)",
            FaultSpec::default().with_drop_per_mille(200),
        ),
        (
            "manufacturer outage (first 4 s)",
            FaultSpec::default().with_outage(
                endpoints::MANUFACTURER,
                Duration::ZERO,
                Duration::from_secs(4),
            ),
        ),
    ];

    for (label, spec) in schedules {
        println!("── schedule: {label}");
        let mut bed = TestBed::provision(TestBedConfig::quick());
        bed.fabric.install_fault_plane(FaultPlane::new(42, spec));

        match secure_boot(&mut bed, plan) {
            Ok(boot) => {
                println!(
                    "   COMPLETED  all attested: {}   virtual boot time: {}",
                    boot.report.all_attested(),
                    fmt_ms(boot.trace.total_elapsed()),
                );
                for s in boot.trace.steps() {
                    if s.transient_failures > 0 {
                        println!(
                            "     retried {:<18} attempts {}  transient failures {}  backoff {}",
                            format!("{:?}", s.step),
                            s.attempts,
                            s.transient_failures,
                            fmt_ms(s.backoff),
                        );
                    }
                }
                if boot.trace.total_transient_failures() == 0 {
                    println!("     no retries needed");
                }
            }
            Err(failure) => {
                println!("   {}", failure.classification().to_uppercase());
                match failure {
                    BootFailure::Fatal(f) => println!(
                        "     step {:?}: {} (retries exhausted: {})",
                        f.step, f.error, f.retries_exhausted
                    ),
                    BootFailure::Suspended(s) => {
                        println!(
                            "     parked at {:?} after {} attempts: {}",
                            s.step(),
                            s.trace().total_attempts(),
                            s.last_error()
                        );
                        // The failed attempts burned through the outage
                        // window in virtual time — resume finishes the boot.
                        let boot = s
                            .resume(&mut bed)
                            .unwrap_or_else(|f| panic!("resume failed: {}", f.classification()));
                        println!(
                            "     RESUMED → completed, all attested: {}  total virtual time: {}",
                            boot.report.all_attested(),
                            fmt_ms(boot.trace.total_elapsed()),
                        );
                    }
                }
            }
        }
        println!();
    }
}
