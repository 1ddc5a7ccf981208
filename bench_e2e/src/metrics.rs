//! The metric catalogue: every name the benchmark emits, its unit and
//! direction, which clock it is read from, and — for per-layer metrics —
//! the end-to-end metric and workload it should move. `BENCHMARK.json`
//! mirrors these tables; a test keeps the two in step.

use salus::core::boot::BootPhase;

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `Instant` time or a ratio of it: varies run to run.
    Host,
    /// `SimClock` time: deterministic per workload.
    Model,
    /// An event count or a ratio of counts: deterministic per seed.
    Count,
}

/// One metric's definition.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name as emitted and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
    /// For per-layer metrics: the end-to-end metric it should move, and
    /// on which workload.
    pub moves: &'static str,
}

fn def(
    name: &str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        clock,
        moves,
    }
}

/// End-to-end metrics, emitted by every workload with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Clock::Host;
    vec![
        def("setup_s", "s", "lower", Host, ""),
        def("throughput_per_s", "1/s", "higher", Host, ""),
        def("latency_host_ms_p50", "ms", "lower", Host, ""),
        def("peak_rss_mib", "MiB", "lower", Host, ""),
    ]
}

/// Every [`BootPhase`] with its snake-case metric label, in Fig. 9 order.
pub const BOOT_PHASES: [(BootPhase, &str); 15] = [
    (BootPhase::UserQuoteGen, "user_quote_gen"),
    (BootPhase::UserQuoteVerify, "user_quote_verify"),
    (BootPhase::MetadataTransfer, "metadata_transfer"),
    (BootPhase::LocalAttestation, "local_attestation"),
    (BootPhase::SmQuoteGen, "sm_quote_gen"),
    (BootPhase::SmQuoteVerify, "sm_quote_verify"),
    (BootPhase::DeviceKeyTransfer, "device_key_transfer"),
    (BootPhase::BitstreamVerify, "bitstream_verify"),
    (BootPhase::BitstreamManipulation, "bitstream_manipulation"),
    (BootPhase::BitstreamEncrypt, "bitstream_encrypt"),
    (BootPhase::ClLoad, "cl_load"),
    (BootPhase::ClAuthentication, "cl_authentication"),
    (BootPhase::FinalQuoteGen, "final_quote_gen"),
    (BootPhase::FinalQuoteVerify, "final_quote_verify"),
    (BootPhase::DataKeyTransfer, "data_key_transfer"),
];

/// Per-layer metrics, emitted by every workload with tracing on. A layer
/// a workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Clock::{Count, Host, Model};
    const DEPLOY: &str = "latency_host_ms_p50 on deploy-churn";
    const CHURN: &str = "throughput_per_s on deploy-churn";
    const SMALL: &str = "throughput_per_s on serve-small";
    const SMALL_LATENCY: &str = "latency_host_ms_p50 on serve-small";
    const BULK: &str = "throughput_per_s on serve-bulk";
    const VERIFIED: &str = "throughput_per_s on serve-bulk-verified";
    const SERVE: &str = "throughput_per_s on the matching serve-* workload";
    let mut defs = vec![
        def("latency_host_ms_tail", "ms", "lower", Host, ""),
        def("node.deploy.cold.host_ms_p50", "ms", "lower", Host, DEPLOY),
        def(
            "node.deploy.warm_key.host_ms_p50",
            "ms",
            "lower",
            Host,
            DEPLOY,
        ),
        def(
            "node.redeploy.warm_image.host_ms_p50",
            "ms",
            "lower",
            Host,
            CHURN,
        ),
        def("node.evict.host_ms_p50", "ms", "lower", Host, CHURN),
        def("node.path.cold", "count", "lower", Count, CHURN),
        def("node.path.warm_key", "count", "lower", Count, CHURN),
        def("node.path.warm_image", "count", "higher", Count, CHURN),
        def("node.redeploy.fallbacks", "count", "lower", Count, CHURN),
        def("node.warm_image.hit_ratio", "ratio", "higher", Count, CHURN),
        def("deploy_cold_model_s", "model_s", "lower", Model, DEPLOY),
        def(
            "redeploy_warm_image_model_ms",
            "model_ms",
            "lower",
            Model,
            CHURN,
        ),
    ];
    for (path, moves) in [("cold", DEPLOY), ("warm_image", CHURN)] {
        for (_, phase) in BOOT_PHASES {
            defs.push(def(
                &format!("boot.{path}.{phase}.model_ms"),
                "model_ms",
                "lower",
                Model,
                moves,
            ));
        }
    }
    defs.extend([
        def(
            "platform.journal.records_per_op",
            "count",
            "lower",
            Count,
            CHURN,
        ),
        def(
            "platform.audit.records_per_op",
            "count",
            "lower",
            Count,
            CHURN,
        ),
        def("bitstream.develop_cl.host_ms", "ms", "lower", Host, DEPLOY),
        def(
            "bitstream.compiled_digest.host_ms",
            "ms",
            "lower",
            Host,
            DEPLOY,
        ),
        def(
            "bitstream.encrypt_for_device.host_ms",
            "ms",
            "lower",
            Host,
            DEPLOY,
        ),
        def("bitstream.wire_bytes", "bytes", "lower", Count, DEPLOY),
        def("serving.submit.host_us_p50", "us", "lower", Host, SMALL),
        def("serving.take.host_us_p50", "us", "lower", Host, SMALL),
        def("serving.drain.host_ms_p50", "ms", "lower", Host, SMALL),
        def("serving.self.host_share", "ratio", "lower", Host, SMALL),
        def(
            "serving.batch_size.mean",
            "count",
            "higher",
            Count,
            SMALL_LATENCY,
        ),
        def(
            "serving.batches_per_round",
            "count",
            "lower",
            Count,
            SMALL_LATENCY,
        ),
        def("serving.clock_overshoot_ms", "model_ms", "lower", Model, ""),
        def("serve_model_rps", "1/model_s", "higher", Model, SMALL),
        def(
            "serve_model_latency_ms_p50",
            "model_ms",
            "lower",
            Model,
            SMALL,
        ),
        def(
            "serve_model_latency_ms_p99",
            "model_ms",
            "lower",
            Model,
            SMALL_LATENCY,
        ),
        def("accel.compute.host_us_p50", "us", "lower", Host, BULK),
        def(
            "accel.compute.calls_per_request",
            "count",
            "lower",
            Count,
            BULK,
        ),
        def("accel.compute.host_share", "ratio", "lower", Host, BULK),
    ]);
    for stage in [
        "encrypt_input",
        "dma_in",
        "program_key",
        "execute",
        "dma_out",
        "decrypt_output",
        "verify_output",
    ] {
        defs.push(def(
            &format!("stage.{stage}.host_us_p50"),
            "us",
            "lower",
            Host,
            SERVE,
        ));
    }
    defs.extend([
        def("stage.replay_coverage", "ratio", "higher", Host, SERVE),
        def("regchan.write.host_us_p50", "us", "lower", Host, SMALL),
        def("regchan.read.host_us_p50", "us", "lower", Host, SMALL),
        def(
            "integrity.full_builds_per_request",
            "count",
            "lower",
            Count,
            VERIFIED,
        ),
        def(
            "integrity.incr_refreshes_per_request",
            "count",
            "lower",
            Count,
            VERIFIED,
        ),
        def(
            "integrity.chunks_rehashed_per_request",
            "count",
            "lower",
            Count,
            VERIFIED,
        ),
        def(
            "integrity.incremental_ratio",
            "ratio",
            "higher",
            Count,
            VERIFIED,
        ),
        def("crypto.ctr_4k.mib_s", "MiB/s", "higher", Host, SMALL),
        def("crypto.ctr_256k.mib_s", "MiB/s", "higher", Host, BULK),
        def(
            "crypto.buffer_root.mib_s",
            "MiB/s",
            "higher",
            Host,
            VERIFIED,
        ),
        def("crypto.gcm_seal.mib_s", "MiB/s", "higher", Host, DEPLOY),
        def("crypto.sha256.mib_s", "MiB/s", "higher", Host, DEPLOY),
        def("trace.overhead_pct", "%", "lower", Host, ""),
    ]);
    defs
}
