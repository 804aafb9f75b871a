//! Network serving demo, server side: a TCP gateway over one persistent
//! serving instance.
//!
//! Builds a disk-backed dataset (preloaded as `"paper"`), starts a
//! [`cca_net::Gateway`] with a bounded queue and a per-tenant quota for
//! tenant 2, binds a loopback TCP server and serves until killed. Pair it
//! with the `net_client` example:
//!
//! ```text
//! cargo run --release --example net_server             # terminal 1
//! cargo run --release --example net_client             # terminal 2
//! ```
//!
//! Run with: `cargo run --release --example net_server [addr]`
//! (default address `127.0.0.1:4708`).

use std::sync::Arc;
use std::time::Duration;

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::{ServeConfig, SpatialAssignment, TenantId, TenantQuota};
use cca_net::{Gateway, NetServer};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:4708".to_string());

    println!("building dataset `paper` (16 providers, 8k customers)…");
    let w = WorkloadConfig {
        num_providers: 16,
        num_customers: 8_000,
        capacity: CapacitySpec::Fixed(600),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 2008,
    }
    .generate();
    let data = Arc::new(SpatialAssignment::build_with_storage(
        w.providers,
        w.customers,
        1024,
        8.0,
    ));

    let gateway = Arc::new(
        Gateway::builder()
            .serve_config(
                ServeConfig::default()
                    .workers(4)
                    .queue_capacity(32)
                    // Tenant 2 is deliberately throttled so the client
                    // demo can show quota shedding.
                    .tenant_quota(TenantId(2), TenantQuota::default().queue_slots(2).weight(1)),
            )
            .dataset("paper", Arc::clone(&data))
            .start(),
    );

    let server = NetServer::bind(addr.as_str(), Arc::clone(&gateway)).expect("bind");
    println!("serving on {} — Ctrl+C to stop", server.local_addr());
    println!("datasets: paper (γ = {})", data.gamma());

    // Serve forever; print a small per-tenant dashboard now and then.
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let stats = gateway.instance().tenant_stats();
        if stats.is_empty() {
            println!("idle — no tenants seen yet");
            continue;
        }
        for s in stats {
            println!(
                "tenant {:>3}: {:.2} qps, {} completed, {} aborted, {} shed, {} faults",
                s.tenant.0, s.qps, s.completed, s.aborted, s.rejected, s.io.faults
            );
        }
    }
}
