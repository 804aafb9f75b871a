//! A paged R-tree with the search operations the CCA algorithms need.
//!
//! This crate implements the spatial access method the paper assumes for the
//! disk-resident customer set `P` (§2.3, §3):
//!
//! * STR bulk loading ([`RTree::bulk_load`]) and dynamic maintenance with
//!   Guttman quadratic splits and condense-tree deletion ([`RTree::insert`],
//!   [`RTree::delete`]; [`RTree::insert_ctx`] and [`RTree::delete_ctx`]
//!   charge a `QueryContext`),
//! * range and annular-range search ([`RTree::range_search`],
//!   [`RTree::annular_range_search`]) driving RIA,
//! * grouped incremental all-NN search ([`RTree::group_ann`], Algorithm 6),
//!   the crate's one best-first traversal, driving NIA/IDA and the
//!   approximate and dynamic tiers,
//! * incremental NN cursors and kNN ([`RTree::inc_nn`], [`RTree::knn`],
//!   [`RTree::knn_within`]): a query point is a group of one, so each is a
//!   one-member grouped search,
//! * diagonal-bounded partitioning ([`RTree::partition_by_diagonal`]) for the
//!   CA approximation (§4.2).
//!
//! Every search takes `ctx: Option<&QueryContext>` as its last parameter:
//! the search's I/O is charged to the context, which is checked before each
//! page access, so a cancelled, late or over-budget query stops with the
//! typed `Aborted` error (cursors: `abort_reason`) instead of reading on.
//!
//! All page accesses go through `cca-storage`'s clock (second-chance) buffer pool so that page
//! faults — and hence the paper's charged I/O time — are accounted exactly.

#![forbid(unsafe_code)]

pub mod ann;
pub mod bulk;
pub mod delete;
pub mod entry;
pub mod insert;
pub mod knn;
pub mod node;
pub mod partition;
pub mod query;
pub mod tree;

pub use ann::GroupAnn;
pub use entry::{InnerEntry, ItemId, LeafEntry};
pub use knn::IncNn;
pub use node::Node;
pub use partition::CustomerGroup;
pub use tree::RTree;
