//! [`SolverRegistry`] — the fixed table from registry names to solvers.

use std::fmt;

use crate::solver::config::SolverConfig;
use crate::solver::{Algo, Solver};

/// The solver table: maps registry names to [`Solver`]s, so callers
/// (benches, examples, tests, the network gateway) can
/// enumerate and select algorithms uniformly from data.
///
/// ```
/// # use cca_core::solver::{SolverConfig, SolverRegistry};
/// let registry = SolverRegistry::with_defaults();
/// let solver = registry.build(&SolverConfig::new("ida")).unwrap();
/// assert_eq!(solver.name(), "ida");
/// assert_eq!(registry.names().count(), 8);
/// ```
#[non_exhaustive]
pub struct SolverRegistry;

impl SolverRegistry {
    /// The seven paper algorithms plus the approximate scale-out tier,
    /// under their canonical names: `sspa`, `ria`, `nia`, `ida`,
    /// `ida-grouped`, `sa`, `ca`, `coreset`.
    pub fn with_defaults() -> Self {
        SolverRegistry
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        Algo::ALL.into_iter().map(Algo::name)
    }

    /// Builds the solver selected by `config`, rejecting an unknown name
    /// and any parameter a solver would panic on: `theta` and `delta` must
    /// be finite and positive, `group_size` at least 1.
    pub fn build(&self, config: &SolverConfig) -> Result<Solver, SolverConfigError> {
        let algo = Algo::ALL
            .into_iter()
            .find(|algo| algo.name() == config.name())
            .ok_or_else(|| SolverConfigError::UnknownName {
                name: config.name().to_string(),
                known: self.names().collect(),
            })?;
        for (name, value) in [("theta", config.theta), ("delta", config.delta)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SolverConfigError::BadParameter {
                    name,
                    reason: format!("must be finite and > 0, got {value}"),
                });
            }
        }
        if config.group_size == 0 {
            return Err(SolverConfigError::BadParameter {
                name: "group_size",
                reason: "must be at least 1, got 0".into(),
            });
        }
        Ok(Solver {
            algo,
            config: config.clone(),
        })
    }
}

/// Why [`SolverRegistry::build`] refused a [`SolverConfig`].
#[derive(Clone, Debug)]
pub enum SolverConfigError {
    /// The config names no registered solver.
    UnknownName {
        /// The requested name.
        name: String,
        /// Names the registry does know.
        known: Vec<&'static str>,
    },
    /// A parameter is out of range.
    BadParameter {
        /// The parameter (`"theta"`, `"delta"`, `"group_size"`).
        name: &'static str,
        /// What is wrong with its value.
        reason: String,
    },
}

impl fmt::Display for SolverConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverConfigError::UnknownName { name, known } => write!(
                f,
                "unknown solver `{name}` (registered: {})",
                known.join(", ")
            ),
            SolverConfigError::BadParameter { name, reason } => {
                write!(f, "bad solver parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SolverConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_has_the_eight_algorithms() {
        let r = SolverRegistry::with_defaults();
        let names: Vec<_> = r.names().collect();
        assert_eq!(
            names,
            [
                "sspa",
                "ria",
                "nia",
                "ida",
                "ida-grouped",
                "sa",
                "ca",
                "coreset"
            ]
        );
        for name in names {
            let solver = r.build(&SolverConfig::new(name)).unwrap();
            assert_eq!(solver.name(), name);
            assert_eq!(solver.needs_tree(), matches!(name, "sa" | "ca"));
        }
    }

    #[test]
    fn configs_reach_the_solver() {
        let r = SolverRegistry::with_defaults();
        let solver = r
            .build(&SolverConfig::new("sa").refine(crate::RefineMethod::ExclusiveNn))
            .unwrap();
        assert_eq!(solver.label(), "SAE");
        let solver = r.build(&SolverConfig::new("ca")).unwrap();
        assert_eq!(solver.label(), "CAN");
    }

    #[test]
    fn unknown_name_is_a_helpful_error() {
        let r = SolverRegistry::with_defaults();
        let err = r.build(&SolverConfig::new("voronoi")).unwrap_err();
        assert!(err.to_string().contains("voronoi"));
        assert!(err.to_string().contains("ida"));
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        let r = SolverRegistry::with_defaults();
        for (config, param) in [
            (SolverConfig::new("ria").theta(0.0), "theta"),
            (SolverConfig::new("ria").theta(-1.0), "theta"),
            (SolverConfig::new("ria").theta(f64::NAN), "theta"),
            (SolverConfig::new("ca").delta(0.0), "delta"),
            (SolverConfig::new("sa").delta(f64::INFINITY), "delta"),
            (SolverConfig::new("ida-grouped").group_size(0), "group_size"),
        ] {
            match r.build(&config) {
                Err(SolverConfigError::BadParameter { name, .. }) => assert_eq!(name, param),
                other => panic!("{config:?}: expected BadParameter, got {other:?}"),
            }
        }
    }
}
