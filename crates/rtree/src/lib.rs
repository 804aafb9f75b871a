//! A paged R-tree with the search operations the CCA algorithms need.
//!
//! This crate implements the spatial access method the paper assumes for the
//! disk-resident customer set `P` (§2.3, §3):
//!
//! * STR bulk loading ([`RTree::bulk_load`]) and dynamic maintenance with
//!   Guttman quadratic splits and condense-tree deletion ([`RTree::insert`],
//!   [`RTree::delete`]; `_ctx` variants charge a `QueryContext`),
//! * range and annular-range search ([`RTree::range_search`],
//!   [`RTree::annular_range_search`]) driving RIA,
//! * best-first kNN and *incremental* NN cursors ([`RTree::knn`],
//!   [`RTree::inc_nn`]) driving NIA/IDA,
//! * grouped incremental all-NN search ([`RTree::group_ann`], Algorithm 6),
//! * diagonal-bounded partitioning ([`RTree::partition_by_diagonal`]) for the
//!   CA approximation (§4.2).
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
