//! Matching types and validation.

use cca_geo::Point;

/// One matched pair. `units` is 1 for ordinary customers and may exceed 1
/// when the "customer" is a weighted representative (CA concise matching,
/// §4.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchPair {
    /// Provider index into the instance's provider list.
    pub provider: usize,
    /// Customer identifier (index into `P`, or a representative id).
    pub customer: u64,
    /// Units assigned (1 for unit customers).
    pub units: u32,
    /// Euclidean distance of the pair.
    pub dist: f64,
    /// Position of the customer (kept so downstream phases — e.g. the
    /// approximation refinements — need no id→position lookup).
    pub customer_pos: Point,
}

/// A CCA matching `M ⊆ Q × P` with its assignment cost `Ψ(M)` (Equation 1).
#[derive(Clone, Debug, Default)]
pub struct Matching {
    pub pairs: Vec<MatchPair>,
}

impl Matching {
    /// Assignment cost `Ψ(M) = Σ units · dist(q, p)`.
    pub fn cost(&self) -> f64 {
        self.pairs.iter().map(|p| f64::from(p.units) * p.dist).sum()
    }

    /// Matching size `|M|` in units.
    pub fn size(&self) -> u64 {
        self.pairs.iter().map(|p| u64::from(p.units)).sum()
    }

    /// Units per provider.
    pub fn provider_load(&self, num_providers: usize) -> Vec<u64> {
        let mut load = vec![0u64; num_providers];
        for p in &self.pairs {
            load[p.provider] += u64::from(p.units);
        }
        load
    }

    /// Validates the matching against an instance with unit customers:
    /// distances correct, capacities respected, each customer at most once,
    /// size = `γ = min(|P|, Σ q.k)`.
    pub fn validate_unit(
        &self,
        providers: &[(Point, u32)],
        customers: &[Point],
    ) -> Result<(), String> {
        self.validate_unit_impl(providers, customers, true)
    }

    /// Like [`Matching::validate_unit`] but for the *partial* matching of
    /// an aborted run: every structural invariant must hold (distances,
    /// capacities, no duplicated customer), except the size may fall short
    /// of γ — an abort stops early, it never corrupts what was committed.
    pub fn validate_unit_partial(
        &self,
        providers: &[(Point, u32)],
        customers: &[Point],
    ) -> Result<(), String> {
        self.validate_unit_impl(providers, customers, false)
    }

    fn validate_unit_impl(
        &self,
        providers: &[(Point, u32)],
        customers: &[Point],
        require_full: bool,
    ) -> Result<(), String> {
        let mut qload = vec![0u64; providers.len()];
        let mut passigned = vec![false; customers.len()];
        for p in &self.pairs {
            if p.provider >= providers.len() {
                return Err(format!("unknown provider {}", p.provider));
            }
            let cid = usize::try_from(p.customer).expect("customer id fits usize");
            if cid >= customers.len() {
                return Err(format!("unknown customer {cid}"));
            }
            if p.units != 1 {
                return Err(format!("unit matching has units={} pair", p.units));
            }
            if passigned[cid] {
                return Err(format!("customer {cid} assigned twice"));
            }
            passigned[cid] = true;
            qload[p.provider] += 1;
            let true_dist = providers[p.provider].0.dist(&customers[cid]);
            if (true_dist - p.dist).abs() > 1e-6 {
                return Err(format!(
                    "pair ({}, {cid}) dist {} but geometry says {true_dist}",
                    p.provider, p.dist
                ));
            }
        }
        for (i, (&load, &(_, cap))) in qload.iter().zip(providers).enumerate() {
            if load > u64::from(cap) {
                return Err(format!("provider {i} overloaded: {load} > {cap}"));
            }
        }
        let total_cap: u64 = providers.iter().map(|&(_, k)| u64::from(k)).sum();
        let gamma = total_cap.min(customers.len() as u64);
        if require_full && self.size() != gamma {
            return Err(format!("size {} != γ = {gamma}", self.size()));
        }
        if self.size() > gamma {
            return Err(format!("size {} exceeds γ = {gamma}", self.size()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(q: usize, p: u64, d: f64) -> MatchPair {
        MatchPair {
            provider: q,
            customer: p,
            units: 1,
            dist: d,
            customer_pos: Point::origin(),
        }
    }

    #[test]
    fn cost_and_size_accumulate() {
        let m = Matching {
            pairs: vec![pair(0, 0, 2.0), pair(0, 1, 3.0)],
        };
        assert_eq!(m.cost(), 5.0);
        assert_eq!(m.size(), 2);
        assert_eq!(m.provider_load(2), vec![2, 0]);
    }

    #[test]
    fn weighted_pairs_scale_cost() {
        let m = Matching {
            pairs: vec![MatchPair {
                provider: 0,
                customer: 0,
                units: 3,
                dist: 2.0,
                customer_pos: Point::origin(),
            }],
        };
        assert_eq!(m.cost(), 6.0);
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn validate_accepts_correct_matching() {
        let providers = vec![(Point::new(0.0, 0.0), 1), (Point::new(10.0, 0.0), 1)];
        let customers = vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)];
        let m = Matching {
            pairs: vec![pair(0, 0, 1.0), pair(1, 1, 1.0)],
        };
        m.validate_unit(&providers, &customers).unwrap();
    }

    #[test]
    fn validate_rejects_double_assignment() {
        let providers = vec![(Point::new(0.0, 0.0), 2)];
        let customers = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let m = Matching {
            pairs: vec![pair(0, 0, 1.0), pair(0, 0, 1.0)],
        };
        assert!(m
            .validate_unit(&providers, &customers)
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn validate_rejects_wrong_distance() {
        let providers = vec![(Point::new(0.0, 0.0), 1)];
        let customers = vec![Point::new(1.0, 0.0)];
        let m = Matching {
            pairs: vec![pair(0, 0, 5.0)],
        };
        assert!(m
            .validate_unit(&providers, &customers)
            .unwrap_err()
            .contains("geometry"));
    }

    #[test]
    fn partial_validator_accepts_undersized_but_not_broken() {
        let providers = vec![(Point::new(0.0, 0.0), 2)];
        let customers = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let partial = Matching {
            pairs: vec![MatchPair {
                provider: 0,
                customer: 0,
                units: 1,
                dist: 1.0,
                customer_pos: customers[0],
            }],
        };
        assert!(partial.validate_unit(&providers, &customers).is_err());
        partial
            .validate_unit_partial(&providers, &customers)
            .unwrap();
        // Structural breakage still fails the partial validator.
        let broken = Matching {
            pairs: vec![MatchPair {
                provider: 0,
                customer: 0,
                units: 1,
                dist: 99.0,
                customer_pos: customers[0],
            }],
        };
        assert!(broken
            .validate_unit_partial(&providers, &customers)
            .is_err());
    }

    #[test]
    fn validate_rejects_undersized() {
        let providers = vec![(Point::new(0.0, 0.0), 2)];
        let customers = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let m = Matching {
            pairs: vec![pair(0, 0, 1.0)],
        };
        assert!(m
            .validate_unit(&providers, &customers)
            .unwrap_err()
            .contains("γ"));
    }
}
