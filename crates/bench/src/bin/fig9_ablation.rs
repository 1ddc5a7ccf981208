//! Boot-time ablations beyond the paper's Figure 9:
//!
//! 1. **Warm boot** — the SM enclave reuses the (sealable) device key,
//!    skipping the manufacturer round trip.
//! 2. **Tailored manipulation** — the paper attributes 73% of boot time
//!    to "directly wrapping the RapidWright inside an enclave without
//!    tailoring"; this ablation projects the boot with a 10×-faster
//!    native manipulation library.
//! 3. **RP-size sweep** — §6.3: bitstream operation time depends only on
//!    the reserved area; boot time is measured across partition sizes.

use salus_bench::fmt_ms;
use salus_core::boot::{secure_boot, BootPlan};
use salus_core::instance::{TestBed, TestBedConfig};
use salus_core::timing::CostModel;
use salus_fpga::geometry::{DeviceGeometry, PartitionGeometry, Resources};

fn main() {
    println!("Figure 9 ablations: boot-time variants\n");

    // ── 1+2: cold vs warm vs tailored ─────────────────────────────────
    let mut bed = TestBed::paper_scale();
    let cold = secure_boot(&mut bed, BootPlan::single())
        .expect("cold boot")
        .breakdown
        .total();
    let warm = secure_boot(
        &mut bed,
        BootPlan::single().with_reuse_cached_device_key(true),
    )
    .expect("warm boot")
    .breakdown
    .total();

    let tailored_cost = CostModel {
        manipulate_bytes_per_sec: CostModel::paper_calibrated().manipulate_bytes_per_sec * 10,
        ..CostModel::paper_calibrated()
    };
    let mut tailored_bed = TestBed::provision(TestBedConfig {
        cost: tailored_cost,
        ..TestBedConfig::paper()
    });
    let tailored = secure_boot(&mut tailored_bed, BootPlan::single())
        .expect("tailored boot")
        .breakdown
        .total();

    let rows = vec![
        vec![
            "Cold boot (paper flow)".into(),
            fmt_ms(cold),
            "1.00x".into(),
        ],
        vec![
            "Warm boot (cached device key)".into(),
            fmt_ms(warm),
            format!("{:.2}x", cold.as_secs_f64() / warm.as_secs_f64()),
        ],
        vec![
            "Tailored manipulation (10x)".into(),
            fmt_ms(tailored),
            format!("{:.2}x", cold.as_secs_f64() / tailored.as_secs_f64()),
        ],
    ];
    salus_bench::print_table(&["Variant", "Boot time", "Speedup"], &rows);

    // ── 3: RP-size sweep ───────────────────────────────────────────────
    println!("\nBoot time vs reconfigurable-partition size (§6.3 linearity):\n");
    let mut sweep_rows = Vec::new();
    let mut json_sweep = Vec::new();
    for frac in [4u32, 2, 1] {
        let base = DeviceGeometry::u200().partitions[0];
        let rp = PartitionGeometry {
            family: base.family,
            logic_frames: base.logic_frames / frac,
            capacity: Resources {
                lut: base.capacity.lut / frac,
                register: base.capacity.register / frac,
                bram: base.capacity.bram / frac,
            },
        };
        let geometry = DeviceGeometry {
            static_region: DeviceGeometry::u200().static_region,
            partitions: vec![rp],
            clock_hz: 250_000_000,
            dram_bytes: 1 << 20,
        };
        let accelerator = salus_bitstream::netlist::Module::new("cl/accel", "accel:sweep")
            .with_resources(1_000, 2_000, 2);
        let mut bed = TestBed::provision(TestBedConfig {
            geometry,
            accelerator,
            ..TestBedConfig::paper()
        });
        let outcome = secure_boot(&mut bed, BootPlan::single()).expect("sweep boot");
        let total = outcome.breakdown.total();
        sweep_rows.push(vec![
            format!("1/{frac} SLR ({} bytes)", rp.config_bytes()),
            fmt_ms(total),
        ]);
        json_sweep.push(serde_json::json!({
            "rp_bytes": rp.config_bytes(),
            "boot_ms": total.as_secs_f64() * 1e3,
        }));
    }
    salus_bench::print_table(&["RP size", "Boot time"], &sweep_rows);

    salus_bench::print_json(
        "fig9_ablation",
        serde_json::json!({
            "cold_ms": cold.as_secs_f64() * 1e3,
            "warm_ms": warm.as_secs_f64() * 1e3,
            "tailored_ms": tailored.as_secs_f64() * 1e3,
            "rp_sweep": json_sweep,
        }),
    );
}
