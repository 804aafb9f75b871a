//! Inputs, all derived from `--seed` through `cca-datagen`; the program
//! under test receives only what is generated here.

use cca::datagen::{CapacitySpec, SpatialDistribution, StreamEvent, Workload, WorkloadConfig};
use cca::{SolverConfig, WorldEvent};

/// An independent generator seed per (run seed, stream): splitmix64's
/// finaliser, so neighbouring run seeds share no instance.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One CCA instance with fixed capacity `k` and the same distribution for
/// providers and customers.
pub fn instance(
    seed: u64,
    providers: usize,
    customers: usize,
    k: u32,
    dist: SpatialDistribution,
) -> Workload {
    WorkloadConfig {
        num_providers: providers,
        num_customers: customers,
        capacity: CapacitySpec::Fixed(k),
        q_dist: dist,
        p_dist: dist,
        seed,
    }
    .generate()
}

/// The solver configurations the workloads cycle through, by registry
/// name, with the approximation knobs the paper's figures use.
pub fn solver(name: &str) -> SolverConfig {
    match name {
        "ca" => SolverConfig::new("ca").delta(10.0),
        "sa" => SolverConfig::new("sa").delta(40.0),
        exact => SolverConfig::new(exact),
    }
}

/// Every solver is deterministic, so a reply's cost must equal, bit for
/// bit, the `reference` the same solver produced in-process during setup;
/// an exact solver's cost must also be the `optimum` (up to the rounding
/// of a different summation order). Returns the cost ratio to the optimum.
pub fn check_cost(name: &str, cost: f64, reference: f64, optimum: f64) -> Result<f64, String> {
    if cost.to_bits() != reference.to_bits() {
        return Err(format!(
            "{name} cost {cost} differs from its reference {reference}"
        ));
    }
    let exact = !matches!(name, "ca" | "sa");
    if exact && (cost - optimum).abs() > 1e-9 * optimum {
        return Err(format!("{name} cost {cost} is not the optimum {optimum}"));
    }
    Ok(cost / optimum)
}

/// `cca-datagen` sits below `cca-core`, so the event conversion lives
/// with the caller.
pub fn world_event(ev: StreamEvent) -> WorldEvent {
    match ev {
        StreamEvent::CustomerArrive { id, pos } => WorldEvent::CustomerArrive { id, pos },
        StreamEvent::CustomerDepart { id, .. } => WorldEvent::CustomerDepart { id },
        StreamEvent::ProviderCapacityDelta { index, delta } => {
            WorldEvent::ProviderCapacityDelta { index, delta }
        }
        StreamEvent::ProviderMove { index, to } => WorldEvent::ProviderMove { index, to },
    }
}

/// Hardware threads of this host; client and worker counts are clamped to
/// it, and every result depends on it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
