//! Per-run algorithm statistics — the quantities the paper's figures plot.

use std::time::Duration;

use cca_storage::IoStats;

/// Counters collected by every CCA algorithm run.
///
/// `esub_edges` is the `|Esub|` of Figures 9–13 (number of q→p edges
/// materialised in the subgraph); CPU time is measured, I/O time is charged
/// from `io.faults` at 10 ms/fault exactly as in §5.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgoStats {
    /// q→p edges inserted into the subgraph (`|Esub|`).
    pub esub_edges: u64,
    /// Full Dijkstra executions.
    pub dijkstra_runs: u64,
    /// Nodes settled across all committed searches (search effort) — `s`,
    /// the settled providers, the customers labelled below `α(t)` and `t`,
    /// per search, as the flow kernel counts them
    /// ([`cca_flow::Residual::update_potentials`]); `sspa` reports the same
    /// count.
    pub settled: u64,
    /// PUA invocations (edge insertions re-optimised incrementally).
    pub pua_runs: u64,
    /// Completed SSPA iterations (valid shortest paths augmented) = γ.
    pub iterations: u64,
    /// Shortest paths rejected by the Theorem-1 test.
    pub invalid_paths: u64,
    /// Matches produced by IDA's Theorem-2 fast phase (no Dijkstra).
    pub fast_phase_matches: u64,
    /// Wall-clock CPU time of the algorithm (excludes index construction).
    pub cpu_time: Duration,
    /// Buffer-pool traffic during the run.
    pub io: IoStats,
}

impl AlgoStats {
    /// The paper's "total time": measured CPU time plus charged I/O time.
    pub fn total_time_s(&self) -> f64 {
        self.cpu_time.as_secs_f64() + self.io.charged_io_time_s()
    }

    /// Charged I/O seconds (faults × 10 ms).
    pub fn io_time_s(&self) -> f64 {
        self.io.charged_io_time_s()
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::AlgoStats;

    serde::derive_struct!(AlgoStats {
        cpu_time,
        dijkstra_runs,
        esub_edges,
        fast_phase_matches,
        invalid_paths,
        io,
        iterations,
        pua_runs,
        settled,
    });

    #[cfg(test)]
    mod tests {
        use super::*;
        use cca_storage::IoStats;
        use std::time::Duration;

        #[test]
        fn algo_stats_json_roundtrip() {
            let s = AlgoStats {
                esub_edges: 123,
                iterations: 45,
                fast_phase_matches: 6,
                cpu_time: Duration::from_micros(987_654),
                io: IoStats {
                    hits: 9,
                    faults: 2,
                    writes: 1,
                },
                ..Default::default()
            };
            let json = serde::json::to_string(&s);
            let back: AlgoStats = serde::json::from_str(&json).unwrap();
            assert_eq!(back.esub_edges, s.esub_edges);
            assert_eq!(back.iterations, s.iterations);
            assert_eq!(back.fast_phase_matches, s.fast_phase_matches);
            assert_eq!(back.cpu_time, s.cpu_time);
            assert_eq!(back.io, s.io);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_combines_cpu_and_charged_io() {
        let s = AlgoStats {
            cpu_time: Duration::from_millis(1500),
            io: IoStats {
                hits: 0,
                faults: 200,
                writes: 0,
            },
            ..Default::default()
        };
        assert!((s.io_time_s() - 2.0).abs() < 1e-12);
        assert!((s.total_time_s() - 3.5).abs() < 1e-12);
    }
}
