//! [`SolverConfig`] — a solver selection as plain data (name + parameters).

use crate::approx::RefineMethod;

/// Data-driven solver selection: a registry name plus every tuning knob any
/// of the eight registered solvers understands. Irrelevant knobs are simply
/// ignored by the chosen solver, so configs can be stored, compared and
/// shipped around uniformly (benches, examples, tests and the network
/// gateway all construct solvers from these through
/// [`crate::solver::SolverRegistry::build`], which range-checks them).
///
/// ```
/// # use cca_core::solver::SolverConfig;
/// let cfg = SolverConfig::new("ca").delta(10.0);
/// assert_eq!(cfg.name(), "ca");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    name: String,
    /// RIA range increment θ (§3.1; the paper tunes 0.8 for its default
    /// workload).
    pub theta: f64,
    /// SA/CA group-diagonal budget δ (§4; paper defaults 40 for SA, 10 for
    /// CA).
    pub delta: f64,
    /// SA/CA refinement heuristic (§4.3).
    pub refine: RefineMethod,
    /// Grouped-ANN group size (§3.4.2) for `ida-grouped`.
    pub group_size: usize,
    /// Coreset target size `m` for `coreset` (0 = auto `64·√n`).
    pub coreset_size: usize,
    /// Sampling seed for `coreset` (cost may vary with it; feasibility
    /// never does).
    pub sample_seed: u64,
    /// Bounded local-refinement passes for `coreset` after the lift.
    pub swap_passes: usize,
}

impl SolverConfig {
    /// A config for the solver registered under `name`, with the paper's
    /// default parameters (δ picks the SA or CA default by name).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let delta = if name == "ca" { 10.0 } else { 40.0 };
        SolverConfig {
            name,
            theta: 0.8,
            delta,
            refine: RefineMethod::default(),
            group_size: 8,
            coreset_size: 0,
            sample_seed: 0xc0_5e7,
            swap_passes: 2,
        }
    }

    /// The registry name this config selects.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets RIA's range increment θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets SA/CA's group-diagonal budget δ.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the SA/CA refinement heuristic.
    pub fn refine(mut self, refine: RefineMethod) -> Self {
        self.refine = refine;
        self
    }

    /// Sets the grouped-ANN group size.
    pub fn group_size(mut self, group_size: usize) -> Self {
        self.group_size = group_size;
        self
    }

    /// Sets the coreset target size (0 = auto).
    pub fn coreset_size(mut self, size: usize) -> Self {
        self.coreset_size = size;
        self
    }

    /// Sets the coreset sampling seed.
    pub fn sample_seed(mut self, seed: u64) -> Self {
        self.sample_seed = seed;
        self
    }

    /// Sets the coreset swap-refinement pass budget.
    pub fn swap_passes(mut self, passes: usize) -> Self {
        self.swap_passes = passes;
        self
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::SolverConfig;
    use crate::approx::RefineMethod;
    use serde::json::{Parser, Writer};
    use serde::{Deserialize, Error, Serialize};

    serde::derive_struct!(SolverConfig {
        coreset_size,
        delta,
        group_size,
        name,
        refine,
        sample_seed,
        swap_passes,
        theta,
    });

    impl Serialize for RefineMethod {
        fn serialize(&self, w: &mut Writer) {
            w.str(match self {
                RefineMethod::NnBased => "nn-based",
                RefineMethod::ExclusiveNn => "exclusive-nn",
            });
        }
    }

    impl Deserialize for RefineMethod {
        fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
            match &*p.str()? {
                "nn-based" => Ok(RefineMethod::NnBased),
                "exclusive-nn" => Ok(RefineMethod::ExclusiveNn),
                other => Err(Error(format!("unknown refine method `{other}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_defaults() {
        let cfg = SolverConfig::new("ria").theta(2.5);
        assert_eq!(cfg.name(), "ria");
        assert_eq!(cfg.theta, 2.5);
        assert_eq!(cfg.delta, 40.0, "non-CA default δ");
        assert_eq!(SolverConfig::new("ca").delta, 10.0, "CA default δ");
        let cfg = SolverConfig::new("ida").group_size(4).swap_passes(3);
        assert_eq!((cfg.group_size, cfg.swap_passes), (4, 3));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn config_json_roundtrip() {
        let cfg = SolverConfig::new("sa")
            .delta(25.0)
            .refine(RefineMethod::ExclusiveNn)
            .group_size(4);
        let json = serde::json::to_string(&cfg);
        let back: SolverConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // The approximate-tier knobs survive the round trip too.
        let cfg = SolverConfig::new("coreset")
            .coreset_size(4096)
            .sample_seed(0xfeed)
            .swap_passes(3);
        let json = serde::json::to_string(&cfg);
        let back: SolverConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
