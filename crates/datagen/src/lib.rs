//! Synthetic workload generator reproducing the paper's data protocol.
//!
//! §5.1 generates both point sets on the San Francisco road map with the
//! Brinkhoff network-based generator: points fall on network edges, 80 % in
//! ten dense clusters, 20 % uniform, normalised to `[0, 1000]²`. Neither the
//! map nor the generator binary is available offline, so this crate
//! synthesises an SF-like street network and reproduces the placement
//! protocol exactly (see DESIGN.md §5 for the substitution argument).
//!
//! Everything is deterministic per seed, so experiments are reproducible
//! run-to-run.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod network;
pub mod spatial;
pub mod workload;

pub use capacity::CapacitySpec;
pub use network::RoadNetwork;
pub use spatial::{generate_points, SpatialDistribution};
pub use workload::{ArrivalProcess, StreamEvent, Workload, WorkloadConfig};
