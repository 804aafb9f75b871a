//! The sharding-era constructors survive only as shims for the benchmark
//! package: `build_with_storage_sharded(.., default_shards())` must build
//! exactly what `build_with_storage` builds.

use cca::datagen::{CapacitySpec, SpatialDistribution, WorkloadConfig};
use cca::storage::default_shards;
use cca::{SolverConfig, SpatialAssignment};

/// A cold `ida` run gives a bit-identical matching and `IoStats` through
/// both constructors, with a buffer small enough to evict (1 %) and with
/// the whole tree resident (100 %, as the wire benchmark preloads it).
#[test]
fn sharded_shim_builds_the_same_store() {
    let w = WorkloadConfig {
        num_providers: 50,
        num_customers: 1000,
        capacity: CapacitySpec::Fixed(16),
        q_dist: SpatialDistribution::Clustered,
        p_dist: SpatialDistribution::Clustered,
        seed: 2008,
    }
    .generate();
    for buffer_percent in [1.0, 100.0] {
        let plain = SpatialAssignment::build_with_storage(
            w.providers.clone(),
            w.customers.clone(),
            1024,
            buffer_percent,
        );
        let shim = SpatialAssignment::build_with_storage_sharded(
            w.providers.clone(),
            w.customers.clone(),
            1024,
            buffer_percent,
            default_shards(),
        );
        let config = SolverConfig::new("ida");
        let a = plain.run_config(&config).unwrap();
        let b = shim.run_config(&config).unwrap();
        assert_eq!(a.matching.pairs, b.matching.pairs, "{buffer_percent} %");
        assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "{buffer_percent} %");
        assert_eq!(a.stats.io, b.stats.io, "{buffer_percent} %");
        assert!(a.stats.io.faults > 0, "a cold run faults");
    }
}
