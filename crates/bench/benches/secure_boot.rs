//! Criterion benchmark of the full secure boot flow on the small test
//! geometry: wall-clock cost of actually executing every protocol step
//! (all crypto, bitstream work, and device loading are real — only link
//! latencies are virtual).

use criterion::{criterion_group, criterion_main, Criterion};

use salus_core::boot::{secure_boot, BootPlan};
use salus_core::instance::{TestBed, TestBedConfig};

fn bench_secure_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("secure_boot");
    group.sample_size(10);

    group.bench_function("quick_geometry_full_flow", |b| {
        b.iter_with_setup(
            || TestBed::provision(TestBedConfig::quick()),
            |mut bed| {
                let outcome = secure_boot(&mut bed, BootPlan::single()).unwrap();
                assert!(outcome.report.all_attested());
                outcome
            },
        );
    });

    group.bench_function("provision_only", |b| {
        b.iter(|| TestBed::provision(TestBedConfig::quick()));
    });

    group.finish();
}

criterion_group!(benches, bench_secure_boot);
criterion_main!(benches);
