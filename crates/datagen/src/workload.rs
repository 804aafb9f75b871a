//! Workload assembly: Table 2 parameters → concrete CCA instances, plus the
//! [`ArrivalProcess`] event-stream generator for dynamic-world benchmarks.

use cca_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::capacity::CapacitySpec;
use crate::network::RoadNetwork;
use crate::spatial::{cluster_centers, generate_points, SpatialDistribution};

/// Parameters of one CCA experiment instance (Table 2 plus distribution
/// axes).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// |Q| — number of service providers.
    pub num_providers: usize,
    /// |P| — number of customers.
    pub num_customers: usize,
    /// Capacity policy (fixed k or a mixed range).
    pub capacity: CapacitySpec,
    /// Distribution of Q.
    pub q_dist: SpatialDistribution,
    /// Distribution of P.
    pub p_dist: SpatialDistribution,
    /// Master seed; sub-streams are derived deterministically.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's default setting (Table 2): |Q| = 1 K, |P| = 100 K, k = 80,
    /// clustered vs clustered.
    pub fn paper_default() -> Self {
        WorkloadConfig {
            num_providers: 1000,
            num_customers: 100_000,
            capacity: CapacitySpec::Fixed(80),
            q_dist: SpatialDistribution::Clustered,
            p_dist: SpatialDistribution::Clustered,
            seed: 2008,
        }
    }

    /// Generates the instance: providers with capacities, plus customers.
    ///
    /// The network, Q, P and the capacity stream each derive their own seed
    /// from the master seed so they are mutually independent.
    pub fn generate(&self) -> Workload {
        const NET_STREAM: u64 = 0x5eed_0001;
        const Q_STREAM: u64 = 0x5eed_0002;
        const P_STREAM: u64 = 0x5eed_0003;
        const CAP_STREAM: u64 = 0x5eed_0004;
        let net = RoadNetwork::default_map(self.seed ^ NET_STREAM);
        // Dense districts belong to the map: Q and P share them, as on a
        // real road map where providers cluster where customers do.
        let centers = cluster_centers(&net, self.seed ^ NET_STREAM);
        let q_points = generate_points(
            &net,
            &centers,
            self.num_providers,
            self.q_dist,
            self.seed ^ Q_STREAM,
        );
        let p_points = generate_points(
            &net,
            &centers,
            self.num_customers,
            self.p_dist,
            self.seed ^ P_STREAM,
        );
        let caps = self
            .capacity
            .generate(self.num_providers, self.seed ^ CAP_STREAM);
        Workload {
            providers: q_points.into_iter().zip(caps).collect(),
            customers: p_points,
        }
    }
}

/// A fully generated CCA instance.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Service providers: position + capacity.
    pub providers: Vec<(Point, u32)>,
    /// Customers: positions (ids are their indices).
    pub customers: Vec<Point>,
}

impl Workload {
    /// `γ = min(|P|, Σ q.k)`.
    pub fn gamma(&self) -> u64 {
        let cap: u64 = self.providers.iter().map(|&(_, k)| u64::from(k)).sum();
        cap.min(self.customers.len() as u64)
    }
}

/// One event of a dynamic CCA world, in the vocabulary the continuous
/// engine consumes (`cca-core`'s `WorldEvent` mirrors this enum; the two
/// crates stay decoupled because datagen sits below core in the layering).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamEvent {
    /// A new customer appears. Ids are sequential and never reused, starting
    /// from the seed workload's `|P|`.
    CustomerArrive { id: u64, pos: Point },
    /// A live customer leaves; `pos` is its position (as needed to delete it
    /// from a spatial index keyed by point + id).
    CustomerDepart { id: u64, pos: Point },
    /// Provider `index` gains or loses capacity. The generator never drives
    /// a provider's capacity below zero.
    ProviderCapacityDelta { index: usize, delta: i32 },
    /// Provider `index` relocates to `to`.
    ProviderMove { index: usize, to: Point },
}

/// Deterministic event-stream generator over a seed [`Workload`].
///
/// The process mirrors the world it narrates — it tracks which customers
/// are alive and what each provider's capacity is — so every emitted event
/// is *valid* by construction: departs name a live customer, capacity cuts
/// never overshoot below zero. Two processes built from the same workload
/// and seed emit identical streams ([`Iterator`], infinite).
#[derive(Clone, Debug)]
pub struct ArrivalProcess {
    rng: StdRng,
    /// Relative odds of arrive / depart / capacity-delta / move.
    weights: [f64; 4],
    /// Live customers, as the engine would see them.
    live: Vec<(u64, Point)>,
    next_id: u64,
    /// Tracked provider capacities (clamping capacity cuts).
    provider_caps: Vec<u32>,
    /// Tracked provider positions (moves step from the current spot).
    provider_pos: Vec<Point>,
    /// Half-width of the uniform step a moving provider takes.
    pub move_sigma: f64,
    /// Largest |delta| a capacity event may carry.
    pub max_capacity_delta: u32,
}

impl ArrivalProcess {
    /// World bounds shared with [`crate::spatial::generate_points`].
    const WORLD: f64 = 1000.0;

    /// A mixed stream over `workload`: arrivals and departures dominate,
    /// with occasional capacity changes and provider moves.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        ArrivalProcess {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_0005),
            weights: [4.0, 3.0, 1.0, 0.5],
            live: workload
                .customers
                .iter()
                .enumerate()
                .map(|(i, &p)| (i as u64, p))
                .collect(),
            next_id: workload.customers.len() as u64,
            provider_caps: workload.providers.iter().map(|&(_, k)| k).collect(),
            provider_pos: workload.providers.iter().map(|&(p, _)| p).collect(),
            move_sigma: 25.0,
            max_capacity_delta: 3,
        }
    }

    /// A pure single-customer-arrival stream (the acceptance benchmark's
    /// regime: every event dirties exactly one new point).
    pub fn arrivals_only(workload: &Workload, seed: u64) -> Self {
        let mut p = Self::new(workload, seed);
        p.weights = [1.0, 0.0, 0.0, 0.0];
        p
    }

    /// Overrides the event-mix odds (arrive, depart, capacity, move).
    pub fn with_weights(mut self, arrive: f64, depart: f64, capacity: f64, mv: f64) -> Self {
        assert!(
            arrive >= 0.0 && depart >= 0.0 && capacity >= 0.0 && mv >= 0.0,
            "negative weight"
        );
        assert!(arrive + depart + capacity + mv > 0.0, "all weights zero");
        self.weights = [arrive, depart, capacity, mv];
        self
    }

    /// Number of customers currently alive in the narrated world.
    pub fn live_customers(&self) -> usize {
        self.live.len()
    }

    /// Draws the next event, advancing the narrated world.
    pub fn next_event(&mut self) -> StreamEvent {
        let total: f64 = self.weights.iter().sum();
        let mut pick = self.rng.random_range(0.0..total);
        let mut kind = 0usize;
        for (i, &w) in self.weights.iter().enumerate() {
            if pick < w {
                kind = i;
                break;
            }
            pick -= w;
        }
        match kind {
            1 if !self.live.is_empty() => {
                let at = self.rng.random_range(0..self.live.len());
                let (id, pos) = self.live.swap_remove(at);
                StreamEvent::CustomerDepart { id, pos }
            }
            2 if !self.provider_caps.is_empty() => {
                let index = self.rng.random_range(0..self.provider_caps.len());
                let max = i64::from(self.max_capacity_delta);
                let cap = i64::from(self.provider_caps[index]);
                // Uniform over the valid non-zero deltas.
                let lo = (-max).max(-cap);
                let mut delta = self.rng.random_range(lo..=max);
                if delta == 0 {
                    delta = if cap == 0 { 1 } else { -1 };
                }
                self.provider_caps[index] = u32::try_from(cap + delta).expect("clamped above");
                StreamEvent::ProviderCapacityDelta {
                    index,
                    delta: i32::try_from(delta).expect("small delta"),
                }
            }
            3 if !self.provider_caps.is_empty() => {
                let index = self.rng.random_range(0..self.provider_pos.len());
                let s = self.move_sigma;
                let from = self.provider_pos[index];
                let to = Point::new(
                    (from.x + self.rng.random_range(-s..=s)).clamp(0.0, Self::WORLD),
                    (from.y + self.rng.random_range(-s..=s)).clamp(0.0, Self::WORLD),
                );
                self.provider_pos[index] = to;
                StreamEvent::ProviderMove { index, to }
            }
            // Arrival, and the fallback when a depart/maintenance draw finds
            // nothing to act on.
            _ => {
                let pos = Point::new(
                    self.rng.random_range(0.0..Self::WORLD),
                    self.rng.random_range(0.0..Self::WORLD),
                );
                let id = self.next_id;
                self.next_id += 1;
                self.live.push((id, pos));
                StreamEvent::CustomerArrive { id, pos }
            }
        }
    }
}

impl Iterator for ArrivalProcess {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        Some(self.next_event())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            num_providers: 20,
            num_customers: 500,
            capacity: CapacitySpec::Fixed(10),
            q_dist: SpatialDistribution::Clustered,
            p_dist: SpatialDistribution::Clustered,
            seed: 1,
        }
    }

    #[test]
    fn generate_produces_requested_sizes() {
        let w = small_config().generate();
        assert_eq!(w.providers.len(), 20);
        assert_eq!(w.customers.len(), 500);
        assert!(w.providers.iter().all(|&(_, k)| k == 10));
    }

    #[test]
    fn gamma_takes_the_minimum_side() {
        let w = small_config().generate();
        assert_eq!(w.gamma(), 200, "Σk = 200 < |P| = 500");
        let mut cfg = small_config();
        cfg.num_customers = 100;
        let w = cfg.generate();
        assert_eq!(w.gamma(), 100, "|P| = 100 < Σk = 200");
    }

    #[test]
    fn q_and_p_use_independent_streams() {
        let w = small_config().generate();
        // Provider and customer positions must differ (different sub-seeds).
        assert_ne!(w.providers[0].0, w.customers[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.customers, b.customers);
        let mut cfg = small_config();
        cfg.seed = 2;
        let c = cfg.generate();
        assert_ne!(a.customers, c.customers);
    }

    #[test]
    fn arrival_process_is_deterministic_per_seed() {
        let w = small_config().generate();
        let a: Vec<StreamEvent> = ArrivalProcess::new(&w, 42).take(500).collect();
        let b: Vec<StreamEvent> = ArrivalProcess::new(&w, 42).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<StreamEvent> = ArrivalProcess::new(&w, 43).take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_process_emits_only_valid_events() {
        let w = small_config().generate();
        let mut proc = ArrivalProcess::new(&w, 7);
        let mut live: std::collections::HashMap<u64, Point> = w
            .customers
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u64, p))
            .collect();
        let mut caps: Vec<i64> = w.providers.iter().map(|&(_, k)| i64::from(k)).collect();
        let mut next_id = w.customers.len() as u64;
        let mut seen = [0usize; 4];
        for _ in 0..5000 {
            match proc.next_event() {
                StreamEvent::CustomerArrive { id, pos } => {
                    assert_eq!(id, next_id, "ids must be sequential, never reused");
                    assert!((0.0..=1000.0).contains(&pos.x) && (0.0..=1000.0).contains(&pos.y));
                    next_id += 1;
                    live.insert(id, pos);
                    seen[0] += 1;
                }
                StreamEvent::CustomerDepart { id, pos } => {
                    let stored = live.remove(&id).expect("depart must name a live customer");
                    assert_eq!(stored, pos);
                    seen[1] += 1;
                }
                StreamEvent::ProviderCapacityDelta { index, delta } => {
                    assert!(delta != 0, "zero-delta events are noise");
                    caps[index] += i64::from(delta);
                    assert!(caps[index] >= 0, "capacity driven below zero");
                    seen[2] += 1;
                }
                StreamEvent::ProviderMove { index, to } => {
                    assert!(index < w.providers.len());
                    assert!((0.0..=1000.0).contains(&to.x) && (0.0..=1000.0).contains(&to.y));
                    seen[3] += 1;
                }
            }
            assert_eq!(proc.live_customers(), live.len());
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "all event kinds drawn: {seen:?}"
        );
    }

    #[test]
    fn arrivals_only_never_departs_or_mutates_providers() {
        let w = small_config().generate();
        let events: Vec<StreamEvent> = ArrivalProcess::arrivals_only(&w, 9).take(1000).collect();
        assert!(events
            .iter()
            .all(|e| matches!(e, StreamEvent::CustomerArrive { .. })));
        // Sequential fresh ids.
        for (i, e) in events.iter().enumerate() {
            let StreamEvent::CustomerArrive { id, .. } = e else {
                unreachable!()
            };
            assert_eq!(*id, w.customers.len() as u64 + i as u64);
        }
    }
}
