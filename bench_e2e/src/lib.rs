//! # salus-bench-e2e
//!
//! The end-to-end, layer-by-layer benchmark of a Salus node, run by the
//! `bench_e2e` binary (see its documentation for the workloads, clocks
//! and commands).
//!
//! | Module      | Holds |
//! |-------------|-------|
//! | [`run`]     | the four workloads and the runner that measures them |
//! | [`metrics`] | the metric catalogue `BENCHMARK.json` mirrors |
//! | [`trace`]   | in-memory spans on the host and model clocks |
//! | [`stats`]   | medians, quartiles, the tail rule, peak RSS |
//! | [`inputs`]  | seeded payloads and churn choices |
//! | [`compare`] | base-versus-head verdicts under the metric bounds |
//! | [`json`]    | a reader for the JSON files the benchmark consumes |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;

/// Renders an outcome as the result line: exactly `correct`,
/// `attempted`, `failed` and `metrics`, each metric as `{value, unit}`.
pub fn result_json(outcome: &run::Outcome) -> serde_json::Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                serde_json::json!({ "value": m.value, "unit": m.unit }),
            )
        })
        .collect();
    serde_json::json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": serde_json::Value::Object(metrics),
    })
}
