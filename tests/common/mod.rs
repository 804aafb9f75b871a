//! The batch helper the façade's integration tests share: a batch of solves
//! submitted straight to a [`ServingInstance`].

use std::sync::Arc;

use cca::serve::Request;
use cca::storage::IoStats;
use cca::{
    QueryContext, QueryResult, ServingInstance, SolverConfig, SolverConfigError, SolverRegistry,
    SpatialAssignment, Ticket,
};

/// Builds every query's solver first, so a bad config fails the batch before
/// anything runs. Then it submits one solve per config to `instance`, each
/// under a fresh context from `ctx`, and waits for all of them. Returns the
/// results in submission order and the store-wide I/O delta across the batch.
///
/// # Panics
///
/// If `instance` sheds a submission: size its queue to the batch.
pub fn run_batch(
    instance: &ServingInstance<QueryResult>,
    data: &Arc<SpatialAssignment>,
    configs: &[SolverConfig],
    ctx: impl Fn() -> QueryContext,
) -> Result<(Vec<QueryResult>, IoStats), SolverConfigError> {
    let registry = SolverRegistry::with_defaults();
    let solvers: Vec<_> = configs
        .iter()
        .map(|c| registry.build(c).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let before = data.tree().store().io_stats();
    let tickets: Vec<Ticket<QueryResult>> = (configs.iter().zip(solvers).enumerate())
        .map(|(index, (config, solver))| {
            let (data, config) = (Arc::clone(data), config.clone());
            let work = move |ctx: &QueryContext| {
                let outcome = solver.run(&data.problem().with_context(ctx));
                let aborted = outcome.abort_reason();
                let (matching, stats) = outcome.into_parts();
                let label = solver.label();
                QueryResult {
                    index,
                    label,
                    config,
                    matching,
                    stats,
                    aborted,
                }
            };
            instance
                .submit(Request::new(work).context(ctx()))
                .expect("admitted")
        })
        .collect();
    let results = tickets.into_iter().map(Ticket::wait).collect();
    Ok((results, data.tree().store().io_stats().since(&before)))
}
