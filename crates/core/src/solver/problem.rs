//! [`Problem`] — one CCA query: providers plus access to the customer set,
//! an R-tree or an in-memory slice. Every exact solve reads either through
//! one [`RtreeSource`]; a slice becomes an in-memory tree first.

use cca_geo::Point;
use cca_rtree::RTree;
use cca_storage::{QueryContext, TenantId};

use crate::exact::{memory_tree, RtreeSource};

/// A capacity-constrained assignment query, built builder-style:
///
/// ```
/// # use cca_core::solver::Problem;
/// # use cca_geo::Point;
/// let providers = vec![(Point::new(0.0, 0.0), 2)];
/// let customers = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let problem = Problem::new(&providers).with_customers(&customers);
/// assert_eq!(problem.gamma(), 2);
/// ```
///
/// Customers are attached as a disk-resident R-tree ([`Problem::with_tree`],
/// the paper's setting of §3) or as a plain in-memory slice
/// ([`Problem::with_customers`]). The exact solvers read either through one
/// [`RtreeSource`] ([`Problem::with_source`]): a slice is bulk-loaded into
/// an in-memory tree when a solve first needs it.
#[derive(Clone, Copy)]
pub struct Problem<'a> {
    providers: &'a [(Point, u32)],
    tree: Option<&'a RTree>,
    customers: Option<&'a [Point]>,
    context: Option<&'a QueryContext>,
}

impl<'a> Problem<'a> {
    /// Starts a problem over `providers` (position, capacity).
    pub fn new(providers: &'a [(Point, u32)]) -> Self {
        Problem {
            providers,
            tree: None,
            customers: None,
            context: None,
        }
    }

    /// Attaches the disk-resident, R-tree-indexed customer set.
    pub fn with_tree(mut self, tree: &'a RTree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Attaches an in-memory customer set (ids are slice indices).
    pub fn with_customers(mut self, customers: &'a [Point]) -> Self {
        self.customers = Some(customers);
        self
    }

    /// Attaches a per-query [`QueryContext`]: every page the query touches
    /// (via its sources or direct tree descents) is charged there,
    /// [`crate::solver::Solver::run`] copies the context's traffic into the
    /// returned [`crate::stats::AlgoStats::io`], and the context's limits
    /// (deadline / I/O budget / cancellation) govern the run — an aborted
    /// context makes `run` return [`crate::solver::Outcome::Aborted`] with
    /// the partial result.
    pub fn with_context(mut self, context: &'a QueryContext) -> Self {
        self.context = Some(context);
        self
    }

    /// The attached query context, if any.
    pub fn context(&self) -> Option<&'a QueryContext> {
        self.context
    }

    /// The tenant this query runs on behalf of ([`TenantId::DEFAULT`] when
    /// no context is attached — context-less runs are unmetered).
    pub fn tenant(&self) -> TenantId {
        self.context.map(|c| c.tenant()).unwrap_or_default()
    }

    /// Providers (position, capacity).
    pub fn providers(&self) -> &'a [(Point, u32)] {
        self.providers
    }

    /// Provider positions in index order.
    pub fn provider_positions(&self) -> Vec<Point> {
        self.providers.iter().map(|&(p, _)| p).collect()
    }

    /// The R-tree, when the problem is disk-resident.
    pub fn tree(&self) -> Option<&'a RTree> {
        self.tree
    }

    /// The in-memory customer slice, when attached.
    pub fn customers(&self) -> Option<&'a [Point]> {
        self.customers
    }

    /// Number of customers behind whichever access path is attached.
    pub fn num_customers(&self) -> usize {
        match (self.tree, self.customers) {
            (Some(tree), _) => tree.len(),
            (None, Some(customers)) => customers.len(),
            (None, None) => 0,
        }
    }

    /// `γ = min(|P|, Σ q.k)` — the size every maximal matching must reach.
    pub fn gamma(&self) -> u64 {
        let cap: u64 = self.providers.iter().map(|&(_, k)| u64::from(k)).sum();
        cap.min(self.num_customers() as u64)
    }

    /// Runs `f` over a fresh per-provider NN/range source of the attached
    /// customer set, with providers cut into grouped-ANN groups of
    /// `group_size` (§3.4.2; 1 browses each provider alone).
    ///
    /// A tree-backed problem reads its R-tree and charges every page to the
    /// query context. A slice-backed one is bulk-loaded into a
    /// [`memory_tree`] first, whose reads charge nothing; the context still
    /// rides the source, so the drivers and the flow engine poll its
    /// deadline and cancellation.
    ///
    /// # Panics
    ///
    /// If neither a tree nor a customer slice is attached.
    pub fn with_source<R>(
        &self,
        group_size: usize,
        f: impl FnOnce(&mut RtreeSource<'_>) -> R,
    ) -> R {
        let providers = self.provider_positions();
        match (self.tree, self.customers) {
            (Some(tree), _) => f(&mut RtreeSource::with_ann_groups(
                tree,
                providers,
                group_size,
                self.context,
            )),
            (None, Some(customers)) => {
                let tree = memory_tree(customers.iter().copied());
                f(&mut RtreeSource::in_memory(
                    &tree,
                    providers,
                    group_size,
                    Vec::new(),
                    self.context,
                ))
            }
            (None, None) => panic!("Problem has no customer access: attach a tree or a slice"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_problem_builds_unit_source() {
        let providers = vec![(Point::new(0.0, 0.0), 3)];
        let customers = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let problem = Problem::new(&providers).with_customers(&customers);
        assert_eq!(problem.num_customers(), 2);
        assert_eq!(problem.gamma(), 2);
        let first = problem.with_source(1, |src| src.next_nn(0)).unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(first.weight, 1);
        assert!((first.dist - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no customer access")]
    fn sourceless_problem_panics() {
        let providers = vec![(Point::new(0.0, 0.0), 1)];
        Problem::new(&providers).with_source(1, |_| ());
    }
}
