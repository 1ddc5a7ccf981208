//! Multi-tenant partitions: the paper's §4.7 extension, driven through
//! the platform control plane.
//!
//! Splits one board's reconfigurable area into several partitions and
//! schedules an independent tenant CL onto each — every partition with
//! its own SM logic and per-tenant fresh secrets. The first tenant's
//! cold boot redeems the board's `Key_device`; every co-resident
//! tenant after that boots warm off the fleet's key cache, so one
//! device-key distribution serves all of them.
//!
//! ```sh
//! cargo run --example multi_tenant_rp
//! ```

use salus::bitstream::netlist::Module;
use salus::core::platform::{ControlPlane, DeployPath, DeployPolicy, PlatformConfig};

fn main() {
    println!("=== Multi-tenant reconfigurable partitions (§4.7) ===\n");

    for n in [1usize, 2, 4] {
        let plane = ControlPlane::provision(PlatformConfig::quick(1, n)).expect("plane provisions");

        let kinds = ["conv", "affine", "rendering", "nnsearch"];
        let mut paths = Vec::new();
        for i in 0..n {
            // Each tenant ships a different accelerator.
            let tenant = plane.register_tenant(&format!("tenant{i}"));
            let module = Module::new(
                format!("cl/tenant{i}"),
                format!("accel:{}", kinds[i % kinds.len()]),
            )
            .with_resources(5_000, 8_000, 4);
            let deployment = plane
                .deploy(tenant, module, DeployPolicy::single())
                .expect("co-resident deployment succeeds");
            assert!(deployment.outcome.report.all_attested());
            paths.push(deployment.path);
        }

        println!(
            "{} partition(s): deployed {}, all attested: true, paths: {:?}",
            n,
            paths.len(),
            paths
        );
        // One cold boot per board; everyone after rides the key cache.
        assert_eq!(paths[0], DeployPath::Cold);
        assert!(paths[1..].iter().all(|p| *p == DeployPath::WarmKey));
    }

    println!("\nEach partition holds independently injected secrets; every CL");
    println!("attested against its own dynamically generated Key_attest — and");
    println!("only the first tenant paid the manufacturer round trip.");
}
