//! `bench_e2e`: one benchmark for deploy churn and three serving mixes,
//! timed on the host and model clocks, with a traced per-layer run.
//!
//! The paper's evaluation asks how long a tenant waits for an attested
//! CL (Fig. 9) and what the protected data path costs per request
//! (Table 6, Fig. 10). The benchmark follows ShEF's split: a control
//! plane that attests once (deploy) in front of a data plane that
//! streams (serving).
//!
//! # Workloads
//!
//! All four are closed loops driven by one client thread; the program's
//! parallel crypto may use every core. A run repeats *units* — a churn
//! epoch or a serving node, each with its own set-up — until the
//! measured time reaches `--seconds`.
//!
//! * `deploy-churn` — the control plane. Each epoch is a fresh
//!   `SalusNode::paper(4, 2)` (8 slots, a 3.39 MB CL bitstream) with 12
//!   tenants alternating Conv and Affine. Set-up deploys random idle
//!   tenants until every slot is taken. Then one operator draws a tenant
//!   at random: a running tenant is evicted, a parked one redeployed, an
//!   idle one deployed if a slot is free. The epoch ends at 28 full
//!   deploys. The work is bitstream compile, digest and GCM encryption,
//!   CL load and attestation, the journal and the audit log; the data
//!   plane barely runs.
//! * `serve-small` — fixed per-request costs: register-channel MACs,
//!   batching bookkeeping, small CTR calls. `SalusNode::quick(2, 2)`
//!   (zero boot cost, so the clock starts at 0), four Confidentiality
//!   lanes alternating Conv and Affine at 4 KiB,
//!   `ServingConfig::pipelined(8)` with queue capacity 1024, 1024
//!   clients per lane sending one request per round.
//! * `serve-bulk` — bulk CTR, DMA copies and accelerator compute: the
//!   same node with four lanes of `Affine::new(512, ..)` (256 KiB in,
//!   256 KiB encrypted out), 32 clients per lane, no integrity work.
//! * `serve-bulk-verified` — `serve-bulk` with
//!   `MemoryProtection::ConfidentialityAndIntegrity` and 16 clients per
//!   lane. Set against `serve-bulk` it isolates `accel::integrity`: a
//!   gain there should move this workload and leave `serve-bulk` alone.
//!
//! A serving node runs one warm-up round (part of set-up) and up to 7
//! measured rounds. The workload seed drives only payload bytes and
//! churn choices; the platform seed stays 42. Each churn epoch draws its
//! own choices, so a run averages several sequences; per-layer counts
//! come from the first unit, which every run at a seed repeats exactly.
//!
//! # Metrics
//!
//! End-to-end, every workload, tracing off:
//!
//! * `setup_s` — median set-up time of the run's units: provisioning, the
//!   deploys and the warm-up round, correctness checks excluded.
//! * `throughput_per_s` — measured operations (churn operations or
//!   served requests) per host second.
//! * `latency_host_ms_p50` — what a tenant waits for: a full deploy on
//!   `deploy-churn`, submit to take of one request on `serve-*`.
//! * `peak_rss_mib` — `VmHWM` at the end of the run.
//!
//! Their bounds in `BENCHMARK.json` are 25%, the most the format allows:
//! on a shared two-vCPU machine, memory bandwidth and CPU speed drift by
//! 7–14% within a minute, and ten seeds of one workload spread by 4–18%
//! (interquartile range over median), `serve-bulk` — the most
//! memory-bound — by up to 25% in a noisy hour. Per-layer metrics
//! — see `salus_bench_e2e::metrics::per_layer` for the end-to-end metric
//! and workload each should move — come from the traced run; a layer a
//! workload does not exercise reads 0.
//!
//! # Correctness
//!
//! Outside every timed region, each served response is compared with
//! `Workload::compute`, and each deploy or redeploy is followed by one
//! attested `SecureSession::run` on a seeded payload, checked the same
//! way. A mismatch is a failed operation and the process exits 1.
//!
//! # Two clocks
//!
//! * *host* — `Instant` time, the CPU the simulator burns. Every
//!   end-to-end metric is a host metric; this is what performance
//!   changes move.
//! * *model* — `SimClock` time, deterministic and comparable with
//!   Fig. 9. Model metrics (units `model_ms`, `model_s`, `1/model_s`)
//!   are per-layer metrics and repeat exactly. Model serving throughput
//!   comes from each round's arrival instant plus per-request latencies,
//!   never from `makespan`.
//!
//! # Two program limits the benchmark works around
//!
//! * `ServingPlane::drain` advances the shared clock by a makespan
//!   measured from t=0, so the clock roughly doubles per drain and wraps
//!   after about 34 drains: a node runs at most
//!   [`MAX_DRAINS_PER_NODE`](salus_bench_e2e::run::MAX_DRAINS_PER_NODE)
//!   drains, and every drain checks that the clock did not go backwards.
//! * Every full deploy loads two enclaves that are never released, and
//!   the 32nd panics for want of EPC space: an epoch stops at
//!   [`MAX_FULL_DEPLOYS_PER_NODE`](salus_bench_e2e::run::MAX_FULL_DEPLOYS_PER_NODE).
//!
//! Once either limit is fixed, the only number that should change is
//! `serving.clock_overshoot_ms` (the clock advance over a node's first
//! measured drain minus that round's span), which drops to 0.
//!
//! # Commands
//!
//! From the repository root (`CARGO_TARGET_DIR` may point anywhere):
//!
//! ```text
//! # one workload, end-to-end metrics, last stdout line = result JSON
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload serve-small --seed 1 --seconds 15 --trace 0
//! # the same workload traced: per-layer metrics, spans written to
//! # target/bench_e2e/trace-serve-small-seed1.json
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload serve-small --seed 1 --seconds 15 --trace 1
//! # every workload, each in its own child process, 3 runs each, saved
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --seed 1 --runs 3 --out base.json
//! # judge a head result against a base under BENCHMARK.json's bounds
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --compare base.json head.json
//! ```
//!
//! Every metric prints as `<workload> <metric> <value> <unit> n=<samples>`.
//!
//! # Trace
//!
//! `--trace 1` records every other serving round (every other churn
//! operation); `trace.overhead_pct` compares the median latency of the
//! recorded and the unrecorded ones, interleaved under the same host
//! conditions. Spans are recorded only around
//! the benchmark's own calls: the `SalusNode` and `ServingPlane` calls,
//! `Workload::compute` (through a wrapper deployed in the workload's
//! place, so accelerator time nests inside `drain`), a replay of 64
//! requests per lane through the public stages after the measured
//! rounds, and one pass per unit of the bitstream tool chain and crypto
//! kernels. Each span is `{id, parent, op_id, layer, name, host_ns,
//! model_ns}`; a layer's self time is its span minus its children.
//!
//! # Seed-state numbers
//!
//! Medians of ten seeds per workload, `--seconds 15`, on a two-vCPU
//! x86-64 virtual machine (2.1 GHz) shared with other tenants:
//!
//! | workload | setup_s | throughput_per_s | latency_host_ms_p50 | peak_rss_mib |
//! |---|---|---|---|---|
//! | deploy-churn | 1.2 | 24 ops | 135–141 (a full deploy) | 520–540 |
//! | serve-small | 1.6 | 4 800–4 900 req | 800–810 | 185 |
//! | serve-bulk | 1.7 | 152–156 req | 820–845 | 184 |
//! | serve-bulk-verified | 2.0–2.1 | 49–55 req | 1 180–1 330 | 156 |
//!
//! Model time: a cold deploy takes 14.42 s (9.55 s of it bitstream
//! manipulation) and a warm-image redeploy 9.96 ms; serving sustains
//! 652, 354 and 226 requests per model second on `serve-small`,
//! `serve-bulk` and `serve-bulk-verified`. Tracing costs −1 to 8% (noise
//! included), and the replayed stage self times per request add up to
//! 0.95–1.1 times the host time per request of the unrecorded rounds.

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use salus_bench_e2e::json::{self, get, items};
use salus_bench_e2e::run::{run, Kind, Spec};
use salus_bench_e2e::{compare, result_json};

const USAGE: &str = "usage: bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--runs <k>] [--out <file>]\n       bench_e2e --compare <base.json> <head.json>";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::parse(&v).ok_or(bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or(bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--runs" => {
                let v = value()?;
                args.runs = v.parse().ok().filter(|&k| k > 0).ok_or(bad(&v))?;
            }
            "--out" => args.out = Some(value()?),
            "--compare" => {
                let base = value()?;
                args.compare = Some((base, value()?));
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((base, head)) = &args.compare {
        compare_files(base, head)
    } else if let Some(kind) = args.workload {
        run_one(kind, &args)
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process. Returns whether every operation
/// succeeded.
fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let outcome = run(&Spec::full(kind), args.seed, args.seconds, args.trace);
    for m in &outcome.metrics {
        println!(
            "{} {} {} {} n={}",
            kind.name(),
            m.name,
            m.value,
            m.unit,
            m.n
        );
    }
    if args.trace {
        let path = format!(
            "target/bench_e2e/trace-{}-seed{}.json",
            kind.name(),
            args.seed
        );
        write_file(&path, |out| {
            salus_bench_e2e::trace::write_json(&outcome.spans, out)
        })?;
        eprintln!("wrote {} spans to {path}", outcome.spans.len());
    }
    if let Some(failure) = &outcome.first_failure {
        eprintln!(
            "{}: {} of {} operations failed; first: {failure}",
            kind.name(),
            outcome.failed,
            outcome.attempted
        );
    }
    println!("{}", result_json(&outcome));
    Ok(outcome.failed == 0)
}

/// Runs every workload, each as a child process, forwards their metric
/// lines and saves one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for kind in Kind::ALL {
        for _ in 0..args.runs {
            let child = Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            let result = json::parse(last)
                .map_err(|e| format!("{} printed no result ({e}): {last:?}", kind.name()))?;
            all_ok &= child.status.success();
            let mut entries = vec![("workload".to_owned(), kind.name().into())];
            if let serde_json::Value::Object(fields) = result {
                entries.extend(fields);
            }
            runs.push(serde_json::Value::Object(entries));
        }
    }
    let saved = serde_json::json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    });
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("target/bench_e2e/result-seed{}.json", args.seed));
    write_file(&path, |out| writeln!(out, "{saved}"))?;
    println!("wrote {path}");
    Ok(all_ok)
}

/// Prints the comparison table. Returns false when a metric regressed.
fn compare_files(base: &str, head: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| json::parse(&text))
    };
    let benchmark = read("BENCHMARK.json")?;
    let (base, head) = (read(base)?, read(head)?);
    if items(get(&base, "runs").unwrap_or(&serde_json::Value::Null)).is_empty() {
        return Err("base result holds no runs".to_owned());
    }
    Ok(!compare::print(&benchmark, &base, &head))
}

fn write_file(
    path: &str,
    fill: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write {path}: {e}");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    fill(&mut out).map_err(io)?;
    out.flush().map_err(io)
}
