//! # salus-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§6), the platform benchmarks and chaos sweeps beyond it,
//! plus criterion micro-benchmarks of the substrates.
//!
//! | Binary                 | Regenerates / measures |
//! |------------------------|------------------------|
//! | `table1_comparison`    | Table 1 — FPGA-TEE works comparison |
//! | `table2_analogy`       | Table 2 — SGX LA ↔ CL attestation analogy (executed live) |
//! | `table3_secrets`       | Table 3 — per-step secret protection (attack matrix) |
//! | `table4_apps`          | Table 4 — benchmark applications |
//! | `table5_resources`     | Table 5 — CL resource utilisation |
//! | `table6_slowdown`      | Table 6 — CPU/FPGA TEE slowdowns |
//! | `fig9_boot_time`       | Figure 9 — CL boot-time breakdown |
//! | `fig9_ablation`        | Boot-time ablations beyond Figure 9 |
//! | `fig10_speedup`        | Figure 10 — normalised workload performance |
//! | `bench_crypto`         | Crypto data-plane throughput (`BENCH_crypto.json`) |
//! | `bench_fleet`          | Cold vs warm deploys on a mixed fleet (`BENCH_fleet.json`) |
//! | `bench_serving`        | Serving-plane throughput, serial vs pipelined (`BENCH_serving.json`) |
//! | `bench_attest`         | Runtime re-attestation detection latency (`BENCH_attest.json`) |
//! | `chaos_sweep`          | Boot time and retries vs link fault rate |
//! | `chaos_fleet_sweep`    | Fleet deploy success vs fault intensity (`BENCH_chaos_fleet.json`) |
//! | `chaos_recovery_sweep` | Crash-recovery latency at every crash point (`BENCH_recovery.json`) |
//!
//! Every binary but `chaos_sweep` prints a human-readable table followed
//! by a `JSON:` line for tooling; `chaos_sweep` prints its table only.
//! A binary whose row names a record also writes it into the working
//! directory. Run one with `cargo run -p salus-bench --bin <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// Formats a duration as milliseconds with sensible precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.0} µs", ms * 1e3)
    }
}

/// Prints a markdown-style table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Emits the machine-readable record for EXPERIMENTS.md tooling.
pub fn print_json(id: &str, value: serde_json::Value) {
    println!(
        "JSON: {}",
        serde_json::json!({ "experiment": id, "data": value })
    );
}

/// Timed runs behind every host-clock figure a bench record spreads.
const RUNS: usize = 5;

/// The spread of five timed runs of one host-clock measurement: the
/// median and the nearest-rank quartiles, so a change can be told from
/// run-to-run noise.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// The median run.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Spread {
    /// Runs `measure` five times and spreads what the runs return.
    pub fn of_runs(mut measure: impl FnMut() -> f64) -> Spread {
        let mut runs: Vec<f64> = (0..RUNS).map(|_| measure()).collect();
        runs.sort_by(f64::total_cmp);
        let rank = |q: f64| runs[((q * RUNS as f64).ceil() as usize).clamp(1, RUNS) - 1];
        Spread {
            median: rank(0.5),
            q1: rank(0.25),
            q3: rank(0.75),
        }
    }

    /// The record fields `name` (the median), `name_q1`, `name_q3` and
    /// `runs`.
    pub fn fields(self, name: &str) -> [(String, serde_json::Value); 4] {
        [
            (name.to_owned(), self.median.into()),
            (format!("{name}_q1"), self.q1.into()),
            (format!("{name}_q3"), self.q3.into()),
            ("runs".to_owned(), (RUNS as u64).into()),
        ]
    }
}

/// Version stamped into every `BENCH_*.json` artifact by
/// [`write_bench_json`]; bump when the shared envelope shape changes.
///
/// v2: `bench_crypto` grew hash-path sections (SHA-256, SipHash,
/// Merkle build/update) whose rows carry `unit` alongside `mbps`.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Writes the standard experiment artifact `BENCH_<name>.json`.
///
/// `report` is the experiment's own record — its `experiment` id, any
/// context fields, and the `data` rows. The helper stamps the shared
/// `schema_version` envelope field, writes the artifact next to the
/// working directory, and prints the `JSON:` line plus the artifact
/// path, which every bench binary previously hand-rolled.
///
/// # Panics
///
/// When the artifact cannot be written — bench binaries treat that as
/// fatal.
pub fn write_bench_json(name: &str, mut report: serde_json::Value) {
    if let serde_json::Value::Object(entries) = &mut report {
        entries.push((
            "schema_version".to_owned(),
            serde_json::Value::from(BENCH_SCHEMA_VERSION),
        ));
    }
    let rendered = format!("{report}");
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nJSON: {rendered}");
    println!("\nWrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(Duration::from_micros(500)), "500 µs");
        assert_eq!(fmt_ms(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500 ms");
    }

    #[test]
    fn spread_is_the_median_and_nearest_rank_quartiles() {
        let mut runs = [4.0, 1.0, 5.0, 3.0, 2.0].into_iter();
        let spread = Spread::of_runs(|| runs.next().unwrap());
        assert_eq!((spread.q1, spread.median, spread.q3), (2.0, 3.0, 4.0));
        let [median, q1, q3, count] = spread.fields("ns");
        assert_eq!(median, ("ns".to_owned(), 3.0.into()));
        assert_eq!(q1, ("ns_q1".to_owned(), 2.0.into()));
        assert_eq!(q3, ("ns_q3".to_owned(), 4.0.into()));
        assert_eq!(count, ("runs".to_owned(), 5_u64.into()));
    }
}
