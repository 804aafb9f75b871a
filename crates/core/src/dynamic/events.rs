//! Event vocabulary and reporting types of the continuous engine.

use cca_geo::Point;
use cca_storage::AbortReason;

/// One change to the dynamic world, applied via
/// [`crate::dynamic::ContinuousAssignment::apply`].
///
/// `cca-datagen`'s `StreamEvent` mirrors this enum one-to-one (datagen sits
/// below core in the crate layering, so the conversion lives with callers).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorldEvent {
    /// A new customer appears. `id` must be fresh — ids are never reused.
    CustomerArrive { id: u64, pos: Point },
    /// The live customer `id` leaves.
    CustomerDepart { id: u64 },
    /// Provider `index` gains or loses capacity (clamped at zero; a cut
    /// below the provider's current load evicts its farthest customers).
    ProviderCapacityDelta { index: usize, delta: i32 },
    /// Provider `index` relocates.
    ProviderMove { index: usize, to: Point },
}

/// How an event's re-optimization was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// The matching was already maximal (and the event needed no
    /// re-optimization), so no solve ran.
    None,
    /// A bounded-neighbourhood repair around the event's epicenter.
    Local,
    /// A full re-solve (dirty-fraction threshold crossed, or the local
    /// neighbourhood could not absorb the deficit).
    Full,
}

/// What [`crate::dynamic::ContinuousAssignment::apply`] did for one event.
#[derive(Clone, Copy, Debug)]
pub struct EventReport {
    /// The repair tier that ran (the world change itself always commits).
    pub repair: RepairKind,
    /// Set when the repair phase was cut short by the event's
    /// [`cca_storage::QueryContext`]. The engine then still holds the last
    /// committed feasible matching; call
    /// [`crate::dynamic::ContinuousAssignment::repair`] to finish the work.
    pub aborted: Option<AbortReason>,
    /// Units still missing versus `γ = min(|P|, Σk)` after this event
    /// (non-zero only after an aborted or exhausted repair).
    pub deficit: u64,
}

/// Running counters of a [`crate::dynamic::ContinuousAssignment`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicStats {
    /// Events applied, by kind.
    pub arrivals: u64,
    pub departures: u64,
    pub capacity_events: u64,
    pub moves: u64,
    /// Customers evicted by capacity cuts (they re-enter via repair).
    pub evicted: u64,
    /// Bounded-neighbourhood repairs that ran (including expansions).
    pub local_repairs: u64,
    /// Neighbourhood expansions beyond the first round.
    pub expansions: u64,
    /// Full re-solves: the initial IDA solve, then every global
    /// re-optimisation of the standing matching, aborted ones included.
    pub full_resolves: u64,
    /// Repairs cut short by a context abort.
    pub aborted_repairs: u64,
}

/// Tuning of the continuous engine.
#[derive(Clone, Copy, Debug)]
pub struct ContinuousConfig {
    /// Providers forming the first repair neighbourhood (doubled per
    /// expansion round).
    pub neighborhood_providers: usize,
    /// Customer-candidate radius as a multiple of the epicenter's distance
    /// to its farthest neighbourhood provider.
    pub radius_factor: f64,
    /// Cap on customers pulled from the R-tree per repair round (doubled
    /// per expansion round).
    pub candidate_scan_cap: usize,
    /// Expansion rounds before a local repair gives up and the engine falls
    /// back to a full re-solve.
    pub max_expansions: u32,
    /// Dirty fraction (events since the last full solve / live customers)
    /// above which the engine re-optimises the whole matching instead of
    /// patching.
    pub dirty_threshold: f64,
    /// Page size of the engine-owned customer R-tree.
    pub page_size: usize,
    /// Buffer-pool pages of the engine-owned customer R-tree.
    pub buffer_pages: usize,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            neighborhood_providers: 8,
            radius_factor: 1.6,
            candidate_scan_cap: 64,
            max_expansions: 3,
            dirty_threshold: 0.25,
            page_size: 1024,
            buffer_pages: 4096,
        }
    }
}
