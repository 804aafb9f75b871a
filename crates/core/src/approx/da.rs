//! Deterministic-annealing capacitated allocation — an independent
//! approximate baseline for the coreset tier.
//!
//! Instead of sampling, DA keeps *every* customer and relaxes the
//! assignment itself: each customer holds a Gibbs distribution over its K
//! nearest providers, `p(q|c) ∝ exp(−(d(c,q) + λ_q)/T)`, where the dual
//! prices `λ_q ≥ 0` are raised on overloaded providers (a Sinkhorn-style
//! multiplicative update on the loads). The temperature `T` follows a
//! geometric cooling schedule; as `T → 0` the soft assignment hardens
//! toward a capacity-priced nearest-provider rule. A final
//! capacity-respecting greedy hardening turns the soft state into a
//! feasible unit matching of exactly `γ` pairs (a grid fallback reroutes
//! customers whose candidate providers filled up), so feasibility is exact
//! and only cost is approximate — the same contract as SA/CA/coreset.
//!
//! Entirely CPU-bound after the customer sweep: annealing touches no
//! pages, so attributed I/O is exactly the collection sweep's faults.

use std::time::Instant;

use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::QueryContext;

use crate::approx::pgrid::PointGrid;
use crate::matching::{MatchPair, Matching};
use crate::stats::AlgoStats;

/// Deterministic-annealing tuning.
#[derive(Clone, Copy, Debug)]
pub struct DaConfig {
    /// Candidate providers per customer (K nearest).
    pub candidates: usize,
    /// Temperature steps in the cooling schedule.
    pub temps: usize,
    /// Dual (λ) sweeps per temperature.
    pub sweeps: usize,
    /// Geometric cooling factor in `(0, 1)`.
    pub cooling: f64,
}

impl Default for DaConfig {
    fn default() -> Self {
        DaConfig {
            candidates: 6,
            temps: 8,
            sweeps: 2,
            cooling: 0.6,
        }
    }
}

/// Runs DA over R-tree-indexed customers. With a query context the
/// collection sweep charges its faults to `ctx`; the annealing loop polls it
/// between temperature steps, and an abort skips straight to hardening so
/// the caller still receives a feasible (just less annealed) partial
/// matching.
pub fn da(
    providers: &[(Point, u32)],
    tree: &RTree,
    cfg: &DaConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let mut items = Vec::new();
    if tree
        .for_each_point_ctx(ctx, |pos, id| items.push((pos, id)))
        .is_err()
    {
        return (
            Matching::default(),
            AlgoStats {
                cpu_time: start.elapsed(),
                ..Default::default()
            },
        );
    }
    da_points(providers, &items, cfg, ctx)
}

/// The DA pipeline over an explicit `(position, id)` customer slice.
pub fn da_points(
    providers: &[(Point, u32)],
    items: &[(Point, u64)],
    cfg: &DaConfig,
    ctx: Option<&QueryContext>,
) -> (Matching, AlgoStats) {
    let start = Instant::now();
    let n = items.len();
    let total_cap: u64 = providers.iter().map(|&(_, c)| u64::from(c)).sum();
    let gamma = total_cap.min(n as u64);
    if gamma == 0 {
        return (
            Matching::default(),
            AlgoStats {
                cpu_time: start.elapsed(),
                ..Default::default()
            },
        );
    }

    // Candidate lists: K nearest providers per customer, flat layout.
    let qgrid = PointGrid::new(providers.iter().map(|&(p, _)| p).collect());
    // The per-customer softmax uses a fixed stack buffer; 32 candidates is
    // already far past the point of diminishing returns.
    let k = cfg.candidates.clamp(1, providers.len()).min(32);
    let mut cand = Vec::with_capacity(n * k);
    let mut cand_starts = Vec::with_capacity(n + 1);
    cand_starts.push(0u32);
    let mut dist_sum = 0.0f64;
    let mut dist_cnt = 0u64;
    for &(pos, _) in items {
        for (qi, d) in qgrid.k_nearest(pos, k) {
            cand.push((qi as u32, d));
            dist_sum += d;
            dist_cnt += 1;
        }
        cand_starts.push(cand.len() as u32);
    }

    // In the scarce regime (Σcap < |P|) total soft demand n would exceed
    // capacity at any price and the duals would diverge. A *reject option*
    // fixes that: each customer may also "choose" to stay unmatched at
    // constant effective cost ρ — the γ-th smallest nearest-provider
    // distance, i.e. the marginal distance a nearest-greedy matching would
    // still accept. Far customers then shed their demand onto the reject
    // option and the prices λ equilibrate around real capacity.
    let scarce = total_cap < n as u64;
    let rho = if scarce {
        let mut best: Vec<f64> = (0..n).map(|c| cand[cand_starts[c] as usize].1).collect();
        best.sort_by(f64::total_cmp);
        best[(gamma as usize).min(n) - 1]
    } else {
        f64::INFINITY
    };

    // Annealing: cool T geometrically; at each temperature run a few
    // Sinkhorn-style dual sweeps that raise λ on overloaded providers and
    // decay it on idle ones. Aborts break to hardening with the λ reached.
    let mut lambda = vec![0.0f64; providers.len()];
    let t0 = 2.0 * dist_sum / dist_cnt.max(1) as f64;
    let mut steps_run = 0u64;
    if t0 > 0.0 {
        let mut t = t0;
        'anneal: for _ in 0..cfg.temps {
            for _ in 0..cfg.sweeps.max(1) {
                if ctx.is_some_and(|c| c.check().is_err()) {
                    break 'anneal;
                }
                let mut load = vec![0.0f64; providers.len()];
                for c in 0..n {
                    let span = &cand[cand_starts[c] as usize..cand_starts[c + 1] as usize];
                    let min_eff = span
                        .iter()
                        .map(|&(qi, d)| d + lambda[qi as usize])
                        .fold(rho, f64::min);
                    let mut norm = if scarce {
                        (-(rho - min_eff) / t).exp()
                    } else {
                        0.0
                    };
                    let mut w = [0.0f64; 32];
                    for (s, &(qi, d)) in span.iter().enumerate() {
                        let e = (-(d + lambda[qi as usize] - min_eff) / t).exp();
                        w[s] = e;
                        norm += e;
                    }
                    for (s, &(qi, _)) in span.iter().enumerate() {
                        load[qi as usize] += w[s] / norm;
                    }
                }
                for (qi, l) in load.iter().enumerate() {
                    let cap = f64::from(providers[qi].1).max(1e-9);
                    if *l > 1e-12 {
                        lambda[qi] = (lambda[qi] + t * (l / cap).ln()).max(0.0);
                    } else {
                        lambda[qi] *= 0.5;
                    }
                }
                steps_run += 1;
            }
            t *= cfg.cooling.clamp(0.05, 0.99);
        }
    }

    // Hardening: greedy capacity-respecting rounding of the priced soft
    // state. In the scarce regime (Σcap < n) customers with the cheapest
    // priced cost go first — the exact solver would keep them too; with
    // surplus capacity the order maximises regret (customers with the most
    // to lose from missing their best candidate commit first). A grid
    // fallback guarantees exactly γ units even when whole candidate lists
    // fill up.
    let mut order: Vec<(f64, u32)> = (0..n)
        .map(|c| {
            let span = &cand[cand_starts[c] as usize..cand_starts[c + 1] as usize];
            let mut best = f64::INFINITY;
            let mut second = f64::INFINITY;
            for &(qi, d) in span {
                let eff = d + lambda[qi as usize];
                if eff < best {
                    second = best;
                    best = eff;
                } else if eff < second {
                    second = eff;
                }
            }
            let key = if scarce {
                best
            } else {
                -(second - best) // descending regret
            };
            (key, c as u32)
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut residual: Vec<u32> = providers.iter().map(|&(_, c)| c).collect();
    let mut pairs = Vec::with_capacity(gamma as usize);
    for &(_, c) in &order {
        if pairs.len() as u64 == gamma {
            break;
        }
        let c = c as usize;
        let (pos, id) = items[c];
        let span = &cand[cand_starts[c] as usize..cand_starts[c + 1] as usize];
        let mut chosen: Option<(usize, f64)> = None;
        let mut best_eff = f64::INFINITY;
        for &(qi, d) in span {
            let eff = d + lambda[qi as usize];
            if residual[qi as usize] > 0 && eff < best_eff {
                best_eff = eff;
                chosen = Some((qi as usize, d));
            }
        }
        let chosen = chosen.or_else(|| {
            // All candidates saturated: nearest provider with residual
            // capacity anywhere (one exists while pairs.len() < Σcap).
            qgrid.nearest_filtered(pos, |qi| residual[qi] > 0)
        });
        if let Some((qi, d)) = chosen {
            residual[qi] -= 1;
            pairs.push(MatchPair {
                provider: qi,
                customer: id,
                units: 1,
                dist: d,
                customer_pos: pos,
            });
        }
    }

    let stats = AlgoStats {
        iterations: steps_run.max(1),
        esub_edges: cand.len() as u64,
        cpu_time: start.elapsed(),
        ..Default::default()
    };
    (Matching { pairs }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_testutil::{build_tree, gamma, optimal_cost, random_instance};

    #[test]
    fn da_is_feasible_and_full_size() {
        for seed in [70, 71, 72, 73] {
            let (providers, customers) = random_instance(seed, 10, 200, 6);
            let tree = build_tree(&customers);
            let (m, stats) = da(&providers, &tree, &DaConfig::default(), None);
            m.validate_unit(&providers, &customers).unwrap();
            assert_eq!(m.size(), gamma(&providers, &customers));
            assert!(stats.iterations > 0);
        }
    }

    #[test]
    fn da_quality_is_in_the_approximate_ballpark() {
        // No theorem backs DA; pin a generous empirical envelope so gross
        // regressions (e.g. a broken dual update) fail loudly.
        let mut ratio_sum = 0.0;
        let seeds = [75, 76, 77, 78, 79];
        for &seed in &seeds {
            let (providers, customers) = random_instance(seed, 8, 250, 6);
            let tree = build_tree(&customers);
            let opt = optimal_cost(&providers, &customers);
            let (m, _) = da(&providers, &tree, &DaConfig::default(), None);
            m.validate_unit(&providers, &customers).unwrap();
            ratio_sum += m.cost() / opt;
        }
        let mean = ratio_sum / seeds.len() as f64;
        assert!(mean < 2.0, "mean DA cost ratio degraded to {mean}");
    }

    #[test]
    fn surplus_capacity_assigns_every_customer() {
        let (providers, customers) = random_instance(85, 12, 60, 10);
        let tree = build_tree(&customers);
        let (m, _) = da(&providers, &tree, &DaConfig::default(), None);
        m.validate_unit(&providers, &customers).unwrap();
    }

    #[test]
    fn single_provider_degenerates_to_nearest_fill() {
        let providers = vec![(cca_geo::Point::new(0.0, 0.0), 2u32)];
        let customers = vec![
            cca_geo::Point::new(1.0, 0.0),
            cca_geo::Point::new(5.0, 0.0),
            cca_geo::Point::new(2.0, 0.0),
        ];
        let tree = build_tree(&customers);
        let (m, _) = da(&providers, &tree, &DaConfig::default(), None);
        m.validate_unit(&providers, &customers).unwrap();
        assert_eq!(m.size(), 2);
        assert!((m.cost() - 3.0).abs() < 1e-9, "nearest two chosen");
    }

    #[test]
    fn aborted_annealing_still_hardens_to_a_feasible_matching() {
        use std::time::{Duration, Instant};
        let (providers, customers) = random_instance(86, 6, 150, 4);
        let tree = build_tree(&customers);
        // Deadline expires after collection begins: the traversal may abort
        // (empty partial) or the annealing poll catches it and hardening
        // still runs. Either way the result must be feasible.
        let ctx = QueryContext::new().with_deadline(Instant::now() + Duration::from_micros(50));
        let (m, _) = da(&providers, &tree, &DaConfig::default(), Some(&ctx));
        if m.size() > 0 {
            m.validate_unit(&providers, &customers).unwrap();
        }
    }
}
