//! The benchmark's own contract: seeded inputs, repeatable shrunk runs,
//! and `BENCHMARK.json` in step with what the binary emits.

use std::collections::BTreeSet;

use salus_bench_e2e::inputs::{payload, Rng};
use salus_bench_e2e::json::{self, as_f64, as_str, get, items};
use salus_bench_e2e::metrics::{self, Clock, MetricDef};
use salus_bench_e2e::run::{run, Kind, Outcome, Spec};

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(defs: &[MetricDef]) -> Vec<&str> {
    defs.iter().map(|d| d.name.as_str()).collect()
}

fn emitted(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn input_generators_repeat_per_seed_and_differ_across_seeds() {
    assert_eq!(payload(1, &[0, 2, 3], 4096), payload(1, &[0, 2, 3], 4096));
    assert_ne!(payload(1, &[0, 2, 3], 4096), payload(2, &[0, 2, 3], 4096));
    assert_ne!(payload(1, &[0, 2, 3], 4096), payload(1, &[0, 2, 4], 4096));
    assert_eq!(payload(7, &[1], 13).len(), 13);

    let draws = |seed| {
        let mut rng = Rng::stream(seed, &[0]);
        (0..64).map(|_| rng.below(12)).collect::<Vec<_>>()
    };
    assert_eq!(draws(1), draws(1));
    assert_ne!(draws(1), draws(2));
}

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let bench = benchmark_json();
    let valid_name = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for workload in items(get(&bench, "workloads").expect("workloads")) {
        let name = get(workload, "name")
            .and_then(as_str)
            .expect("workload name");
        assert!(valid_name(name), "bad workload name {name:?}");
        assert!(Kind::parse(name).is_some(), "unknown workload {name:?}");
    }
    let listed: Vec<&str> = items(get(&bench, "workloads").unwrap())
        .iter()
        .filter_map(|w| get(w, "name").and_then(as_str))
        .collect();
    assert_eq!(listed, Kind::ALL.map(Kind::name));

    for (section, catalogue) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let entries = items(get(&bench, section).expect(section));
        let listed: Vec<&str> = entries
            .iter()
            .map(|m| get(m, "name").and_then(as_str).expect("metric name"))
            .collect();
        assert_eq!(listed, names(&catalogue), "{section} names");
        for (entry, def) in entries.iter().zip(&catalogue) {
            assert!(valid_name(&def.name), "bad metric name {:?}", def.name);
            assert_eq!(get(entry, "unit").and_then(as_str), Some(def.unit));
            assert_eq!(get(entry, "better").and_then(as_str), Some(def.better));
            if section == "end_to_end" {
                let bound = get(entry, "bound").and_then(as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
                assert_eq!(def.clock, Clock::Host, "{} is not a host metric", def.name);
            }
        }
    }
    let all: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    let unique: BTreeSet<&str> = names(&all).into_iter().collect();
    assert_eq!(unique.len(), all.len(), "a metric name is used twice");
}

/// One shrunk run per workload and mode, twice traced: the emitted sets
/// match the catalogue, nothing fails, and model-time metrics and counts
/// repeat exactly.
fn shrunk_runs_repeat(kind: Kind) {
    let spec = Spec::shrunk(kind);
    let untraced = run(&spec, 3, 1e9, false);
    assert_eq!(untraced.failed, 0, "{:?}", untraced.first_failure);
    assert_eq!(emitted(&untraced), names(&metrics::end_to_end()));
    assert!(untraced.metrics.iter().all(|m| m.value > 0.0));

    let first = run(&spec, 3, 1e9, true);
    let second = run(&spec, 3, 1e9, true);
    let defs = metrics::per_layer();
    for outcome in [&first, &second] {
        assert_eq!(outcome.failed, 0, "{:?}", outcome.first_failure);
        assert!(outcome.attempted > 0);
        assert_eq!(emitted(outcome), names(&defs));
        assert!(!outcome.spans.is_empty());
    }
    for ((a, b), def) in first.metrics.iter().zip(&second.metrics).zip(&defs) {
        if def.clock != Clock::Host {
            assert_eq!(a.value, b.value, "{} differs between runs", def.name);
        }
    }
}

#[test]
fn shrunk_deploy_churn_repeats() {
    shrunk_runs_repeat(Kind::DeployChurn);
}

#[test]
fn shrunk_serve_small_repeats() {
    shrunk_runs_repeat(Kind::ServeSmall);
}

#[test]
fn shrunk_serve_bulk_repeats() {
    shrunk_runs_repeat(Kind::ServeBulk);
}

#[test]
fn shrunk_serve_bulk_verified_repeats() {
    shrunk_runs_repeat(Kind::ServeBulkVerified);
}
