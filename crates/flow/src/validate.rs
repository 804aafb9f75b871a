//! Validation oracles: matching validity, brute-force optima, the SSPA
//! optimality certificate, and cross-checking helpers used throughout the
//! workspace's tests.

use cca_geo::Point;

use crate::hungarian::rectangular_assignment;
use crate::residual::EPS;
use crate::sspa::{required_flow, Assignment, FlowCustomer, FlowProvider};

/// Checks that `asg` is a *valid maximal* matching for the instance:
/// provider loads within capacity, customer loads within weight, total size
/// equal to `γ = min(Σ q.k, Σ p.w)`, and the reported cost consistent with
/// the pair distances.
pub fn validate_assignment(
    providers: &[FlowProvider],
    customers: &[FlowCustomer],
    asg: &Assignment,
) -> Result<(), String> {
    let mut qload = vec![0u64; providers.len()];
    let mut pload = vec![0u64; customers.len()];
    let mut cost = 0.0;
    for &(qi, pj, units) in &asg.pairs {
        if qi >= providers.len() {
            return Err(format!("pair references unknown provider {qi}"));
        }
        if pj >= customers.len() {
            return Err(format!("pair references unknown customer {pj}"));
        }
        if units == 0 {
            return Err(format!("zero-unit pair ({qi}, {pj})"));
        }
        qload[qi] += u64::from(units);
        pload[pj] += u64::from(units);
        cost += f64::from(units) * providers[qi].pos.dist(&customers[pj].pos);
    }
    for (i, (&load, q)) in qload.iter().zip(providers).enumerate() {
        if load > u64::from(q.cap) {
            return Err(format!("provider {i} overloaded: {load} > {}", q.cap));
        }
    }
    for (j, (&load, p)) in pload.iter().zip(customers).enumerate() {
        if load > u64::from(p.weight) {
            return Err(format!("customer {j} overloaded: {load} > {}", p.weight));
        }
    }
    let gamma = required_flow(providers, customers);
    if asg.size() != gamma {
        return Err(format!("matching size {} != γ = {gamma}", asg.size()));
    }
    if (cost - asg.cost).abs() > 1e-6 * (1.0 + cost.abs()) {
        return Err(format!(
            "reported cost {} inconsistent with pairs ({cost})",
            asg.cost
        ));
    }
    Ok(())
}

/// The optimality certificate of a flow on a bipartite graph
/// `s → Q → P → t`, given as `rows` — one `(provider, customer, dist,
/// units)` per `q→p` edge — over providers of capacities `caps` and
/// customers of weights `weights`. It holds when the flow respects every
/// capacity and weight, has value γ = min(Σ caps, Σ weights), and every
/// residual arc — `s→q`, `q→s`, `q→p`, `p→q`, `p→t`, `t→p` — has reduced
/// cost ≥ −100·EPS under the potentials `tau = (τ(s), τ(q), τ(p))`, with
/// `τ(t) = 0`. A flow of value γ with no negative residual arc is a
/// minimum-cost flow on the rows' graph (§2.2), so `Ok` proves it optimal
/// there without solving the instance again. [`crate::Residual::certify`]
/// applies it to the kernel's rows: the complete graph for [`crate::Sspa`],
/// `Esub` for the incremental algorithms.
pub fn assert_optimal(
    caps: &[u32],
    weights: &[u32],
    rows: &[(usize, usize, f64, u32)],
    tau: (f64, &[f64], &[f64]),
) -> Result<(), String> {
    let (tau_s, tau_q, tau_p) = tau;
    // Errs on a residual arc whose reduced cost is below the tolerance.
    fn check(residual: bool, rc: f64, arc: impl FnOnce() -> String) -> Result<(), String> {
        if residual && rc < -100.0 * EPS {
            return Err(format!("{} has reduced cost {rc}", arc()));
        }
        Ok(())
    }
    let mut q_load = vec![0u64; caps.len()];
    let mut p_load = vec![0u64; weights.len()];
    for &(i, j, d, f) in rows {
        if i >= caps.len() || j >= weights.len() {
            return Err(format!("edge q{i}→p{j} names an unknown node"));
        }
        q_load[i] += u64::from(f);
        p_load[j] += u64::from(f);
        let (tq, tp) = (tau_q[i], tau_p[j]);
        check(f < weights[j], d - tq + tp, || format!("q{i}→p{j}"))?;
        check(f > 0, -d - tp + tq, || format!("p{j}→q{i}"))?;
    }
    for (i, (&load, &cap)) in q_load.iter().zip(caps).enumerate() {
        if load > u64::from(cap) {
            return Err(format!("provider {i} overloaded: {load} > {cap}"));
        }
        check(load < u64::from(cap), tau_q[i] - tau_s, || {
            format!("s→q{i}")
        })?;
        check(load > 0, tau_s - tau_q[i], || format!("q{i}→s"))?;
    }
    for (j, (&load, &weight)) in p_load.iter().zip(weights).enumerate() {
        if load > u64::from(weight) {
            return Err(format!("customer {j} overloaded: {load} > {weight}"));
        }
        check(load < u64::from(weight), -tau_p[j], || format!("p{j}→t"))?;
        check(load > 0, tau_p[j], || format!("t→p{j}"))?;
    }
    let total = |v: &[u32]| v.iter().map(|&x| u64::from(x)).sum::<u64>();
    let (size, gamma) = (q_load.iter().sum::<u64>(), total(caps).min(total(weights)));
    if size != gamma {
        return Err(format!("flow size {size} != γ = {gamma}"));
    }
    Ok(())
}

/// Exhaustive optimal assignment cost for *tiny* instances (unit-weight
/// customers), by trying every assignment of customers to providers or to
/// "unmatched" and keeping the cheapest one of maximal size.
///
/// Complexity is O((|Q|+1)^|P|); keep |P| ≤ ~8.
pub fn brute_force_optimal_cost(providers: &[FlowProvider], customers: &[Point]) -> f64 {
    let gamma = {
        let cap: u64 = providers.iter().map(|q| u64::from(q.cap)).sum();
        cap.min(customers.len() as u64)
    };
    #[allow(clippy::too_many_arguments)]
    fn rec(
        providers: &[FlowProvider],
        customers: &[Point],
        j: usize,
        remaining: &mut [u32],
        matched: u64,
        cost: f64,
        gamma: u64,
        best: &mut f64,
    ) {
        if cost >= *best {
            return; // branch and bound
        }
        if j == customers.len() {
            if matched == gamma {
                *best = cost;
            }
            return;
        }
        // Option 1: leave customer j unmatched (only useful if γ can still
        // be reached).
        let left = (customers.len() - j - 1) as u64;
        let capacity_left: u64 = remaining.iter().map(|&c| u64::from(c)).sum();
        if matched + left.min(capacity_left) >= gamma {
            rec(
                providers,
                customers,
                j + 1,
                remaining,
                matched,
                cost,
                gamma,
                best,
            );
        }
        // Option 2: assign to any provider with spare capacity.
        for i in 0..providers.len() {
            if remaining[i] > 0 {
                remaining[i] -= 1;
                rec(
                    providers,
                    customers,
                    j + 1,
                    remaining,
                    matched + 1,
                    cost + providers[i].pos.dist(&customers[j]),
                    gamma,
                    best,
                );
                remaining[i] += 1;
            }
        }
    }
    let mut best = f64::INFINITY;
    let mut remaining: Vec<u32> = providers.iter().map(|q| q.cap).collect();
    rec(
        providers,
        customers,
        0,
        &mut remaining,
        0,
        0.0,
        gamma,
        &mut best,
    );
    if best.is_infinite() {
        0.0
    } else {
        best
    }
}

/// Optimal CCA cost via the Hungarian oracle: providers are expanded into
/// `q.k` unit slots and the rectangular assignment is solved with the
/// smaller side as rows. Only for small instances (dense matrix).
pub fn hungarian_optimal_cost(providers: &[FlowProvider], customers: &[Point]) -> f64 {
    let slots: Vec<Point> = providers
        .iter()
        .flat_map(|q| std::iter::repeat_n(q.pos, q.cap as usize))
        .collect();
    if slots.is_empty() || customers.is_empty() {
        return 0.0;
    }
    let cost_matrix: Vec<Vec<f64>> = if customers.len() <= slots.len() {
        customers
            .iter()
            .map(|p| slots.iter().map(|s| s.dist(p)).collect())
            .collect()
    } else {
        slots
            .iter()
            .map(|s| customers.iter().map(|p| s.dist(p)).collect())
            .collect()
    };
    rectangular_assignment(&cost_matrix).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sspa::{unit_customers, Sspa};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn q(x: f64, y: f64, cap: u32) -> FlowProvider {
        FlowProvider {
            pos: Point::new(x, y),
            cap,
        }
    }

    #[test]
    fn validate_accepts_sspa_output() {
        let providers = [q(0.0, 0.0, 2), q(50.0, 50.0, 3)];
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(48.0, 48.0),
            Point::new(60.0, 60.0),
        ];
        let customers = unit_customers(&pts);
        let (asg, _) = Sspa::default().solve(&providers, &customers).unwrap();
        validate_assignment(&providers, &customers, &asg).unwrap();
    }

    #[test]
    fn validate_rejects_overload() {
        let providers = [q(0.0, 0.0, 1)];
        let customers = unit_customers(&[Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let bad = Assignment {
            pairs: vec![(0, 0, 1), (0, 1, 1)],
            cost: 3.0,
        };
        let err = validate_assignment(&providers, &customers, &bad).unwrap_err();
        assert!(err.contains("overloaded"), "{err}");
    }

    #[test]
    fn validate_rejects_undersized_matching() {
        let providers = [q(0.0, 0.0, 2)];
        let customers = unit_customers(&[Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let bad = Assignment {
            pairs: vec![(0, 0, 1)],
            cost: 1.0,
        };
        let err = validate_assignment(&providers, &customers, &bad).unwrap_err();
        assert!(err.contains("size"), "{err}");
    }

    #[test]
    fn three_oracles_agree_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let nq = rng.random_range(1..=3);
            let np = rng.random_range(1..=7);
            let providers: Vec<FlowProvider> = (0..nq)
                .map(|_| {
                    q(
                        rng.random_range(0.0..100.0),
                        rng.random_range(0.0..100.0),
                        rng.random_range(1..=3),
                    )
                })
                .collect();
            let pts: Vec<Point> = (0..np)
                .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
                .collect();
            let customers = unit_customers(&pts);
            let (asg, _) = Sspa::default().solve(&providers, &customers).unwrap();
            validate_assignment(&providers, &customers, &asg).unwrap();
            let brute = brute_force_optimal_cost(&providers, &pts);
            let hung = hungarian_optimal_cost(&providers, &pts);
            assert!(
                (asg.cost - brute).abs() < 1e-6,
                "trial {trial}: sspa {} vs brute {brute}",
                asg.cost
            );
            assert!(
                (hung - brute).abs() < 1e-6,
                "trial {trial}: hungarian {hung} vs brute {brute}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sspa_is_optimal(
            seed in 0u64..10_000,
            nq in 1usize..4,
            np in 1usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let providers: Vec<FlowProvider> = (0..nq)
                .map(|_| q(
                    rng.random_range(0.0..1000.0),
                    rng.random_range(0.0..1000.0),
                    rng.random_range(1..=4),
                ))
                .collect();
            let pts: Vec<Point> = (0..np)
                .map(|_| Point::new(
                    rng.random_range(0.0..1000.0),
                    rng.random_range(0.0..1000.0),
                ))
                .collect();
            let customers = unit_customers(&pts);
            let (asg, _) = Sspa::default().solve(&providers, &customers).unwrap();
            prop_assert!(validate_assignment(&providers, &customers, &asg).is_ok());
            let brute = brute_force_optimal_cost(&providers, &pts);
            prop_assert!((asg.cost - brute).abs() < 1e-6,
                         "sspa {} vs brute {}", asg.cost, brute);
        }
    }
}
