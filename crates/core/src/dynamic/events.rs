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

/// How an event's re-optimisation was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// The world change could not have made an arc negative and left the
    /// matching at γ (an unmatched customer's departure, say), so no
    /// re-optimisation ran.
    None,
    /// The matching was re-optimised on the provider graph, from the arcs
    /// the event made negative, to a minimum-cost matching of size γ.
    Local,
    /// No event reports this: every event is re-optimised exactly and in
    /// place. The name stays for callers that match on it.
    Full,
}

/// What [`crate::dynamic::ContinuousAssignment::apply`] did for one event.
#[derive(Clone, Copy, Debug)]
pub struct EventReport {
    /// The repair tier that ran (the world change itself always commits).
    pub repair: RepairKind,
    /// Set when the re-optimisation was cut short by the event's
    /// [`cca_storage::QueryContext`]. The engine then still holds the
    /// phase-1 matching; call
    /// [`crate::dynamic::ContinuousAssignment::repair`] to finish the work.
    pub aborted: Option<AbortReason>,
    /// Units still missing versus `γ = min(|P|, Σk)` after this event
    /// (non-zero only after an aborted re-optimisation).
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
    /// Customers evicted by capacity cuts (the re-optimisation re-homes
    /// them).
    pub evicted: u64,
    /// Re-optimisations that ran ([`RepairKind::Local`]), aborted ones
    /// included.
    pub local_repairs: u64,
    /// Always 0: the engine has no neighbourhood to expand. The name stays
    /// for callers that read it.
    pub expansions: u64,
    /// Solves from scratch: the initial IDA solve, and nothing after it.
    pub full_resolves: u64,
    /// Re-optimisations cut short by a context abort.
    pub aborted_repairs: u64,
}

/// Storage of the engine-owned customer R-tree. The matching itself needs
/// no tuning: every event is re-optimised exactly.
#[derive(Clone, Copy, Debug)]
pub struct ContinuousConfig {
    /// Page size of the engine-owned customer R-tree.
    pub page_size: usize,
    /// Buffer-pool pages of the engine-owned customer R-tree.
    pub buffer_pages: usize,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            page_size: 1024,
            buffer_pages: 4096,
        }
    }
}
