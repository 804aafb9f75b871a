//! Fixed-layout node (de)serialisation.
//!
//! Page layout (little-endian):
//!
//! ```text
//! byte 0      : node kind (0 = leaf, 1 = inner)
//! byte 1      : reserved (0)
//! bytes 2..4  : entry count (u16)
//! bytes 4..   : entries
//!               leaf : x f64 | y f64 | id u64            (24 bytes)
//!               inner: lox f64 | loy f64 | hix f64 | hiy f64 | child u32 (36 bytes)
//! ```
//!
//! With the paper's 1 KB pages this yields a fanout of 42 points per leaf and
//! 28 children per inner node.

use cca_geo::{Point, Rect};
use cca_storage::PageId;

use crate::entry::{InnerEntry, ItemId, LeafEntry, INNER_ENTRY_SIZE, LEAF_ENTRY_SIZE};

/// Byte offset of the first entry within a page.
pub const HEADER_SIZE: usize = 4;

const KIND_LEAF: u8 = 0;
const KIND_INNER: u8 = 1;

/// Maximum number of leaf entries per page of `page_size` bytes.
#[inline]
pub fn leaf_capacity(page_size: usize) -> usize {
    (page_size - HEADER_SIZE) / LEAF_ENTRY_SIZE
}

/// Maximum number of inner entries per page of `page_size` bytes.
#[inline]
pub fn inner_capacity(page_size: usize) -> usize {
    (page_size - HEADER_SIZE) / INNER_ENTRY_SIZE
}

/// A fully materialised node, used on the insert/split path and by tree
/// inspection. Hot read paths use the streaming [`for_each_leaf_entry`] /
/// [`for_each_inner_entry`] decoders instead, which avoid this allocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    Leaf(Vec<LeafEntry>),
    Inner(Vec<InnerEntry>),
}

impl Node {
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Inner(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// MBR of all entries in the node.
    pub fn mbr(&self) -> Rect {
        match self {
            Node::Leaf(v) => v.iter().map(|e| e.point).collect(),
            Node::Inner(v) => v.iter().fold(Rect::empty(), |acc, e| acc.union(&e.mbr)),
        }
    }
}

#[inline]
fn read_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

#[inline]
fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

#[inline]
fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4-byte slice"))
}

/// Entry count stored in the page header.
#[inline]
pub fn entry_count(page: &[u8]) -> usize {
    u16::from_le_bytes([page[2], page[3]]) as usize
}

/// True if the page holds a leaf node.
#[inline]
pub fn is_leaf_page(page: &[u8]) -> bool {
    page[0] == KIND_LEAF
}

/// Streams the leaf entries of a serialised leaf page into `f`.
///
/// # Panics
/// Debug-asserts the page kind; feeding an inner page is a caller bug.
pub fn for_each_leaf_entry(page: &[u8], mut f: impl FnMut(Point, ItemId)) {
    debug_assert!(is_leaf_page(page), "expected leaf page");
    let n = entry_count(page);
    let mut off = HEADER_SIZE;
    for _ in 0..n {
        let x = read_f64(page, off);
        let y = read_f64(page, off + 8);
        let id = read_u64(page, off + 16);
        f(Point::new(x, y), id);
        off += LEAF_ENTRY_SIZE;
    }
}

/// Streams the inner entries of a serialised inner page into `f`.
pub fn for_each_inner_entry(page: &[u8], mut f: impl FnMut(Rect, PageId)) {
    debug_assert!(!is_leaf_page(page), "expected inner page");
    let n = entry_count(page);
    let mut off = HEADER_SIZE;
    for _ in 0..n {
        let lox = read_f64(page, off);
        let loy = read_f64(page, off + 8);
        let hix = read_f64(page, off + 16);
        let hiy = read_f64(page, off + 24);
        let child = read_u32(page, off + 32);
        f(
            Rect::new(Point::new(lox, loy), Point::new(hix, hiy)),
            PageId(child),
        );
        off += INNER_ENTRY_SIZE;
    }
}

/// Decodes a full [`Node`] from page bytes.
pub fn decode(page: &[u8]) -> Node {
    if is_leaf_page(page) {
        let mut v = Vec::with_capacity(entry_count(page));
        for_each_leaf_entry(page, |point, id| v.push(LeafEntry { point, id }));
        Node::Leaf(v)
    } else {
        let mut v = Vec::with_capacity(entry_count(page));
        for_each_inner_entry(page, |mbr, child| v.push(InnerEntry { mbr, child }));
        Node::Inner(v)
    }
}

/// Serialises a node into a `page_size`-byte buffer.
///
/// # Panics
/// Panics if the node exceeds the page capacity — splits must happen before
/// encoding.
pub fn encode(node: &Node, page_size: usize) -> Vec<u8> {
    let mut buf = vec![0u8; page_size];
    match node {
        Node::Leaf(entries) => {
            assert!(
                entries.len() <= leaf_capacity(page_size),
                "leaf overflow: {} > {}",
                entries.len(),
                leaf_capacity(page_size)
            );
            buf[0] = KIND_LEAF;
            buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            let mut off = HEADER_SIZE;
            for e in entries {
                buf[off..off + 8].copy_from_slice(&e.point.x.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&e.point.y.to_le_bytes());
                buf[off + 16..off + 24].copy_from_slice(&e.id.to_le_bytes());
                off += LEAF_ENTRY_SIZE;
            }
        }
        Node::Inner(entries) => {
            assert!(
                entries.len() <= inner_capacity(page_size),
                "inner overflow: {} > {}",
                entries.len(),
                inner_capacity(page_size)
            );
            buf[0] = KIND_INNER;
            buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            let mut off = HEADER_SIZE;
            for e in entries {
                buf[off..off + 8].copy_from_slice(&e.mbr.lo.x.to_le_bytes());
                buf[off + 8..off + 16].copy_from_slice(&e.mbr.lo.y.to_le_bytes());
                buf[off + 16..off + 24].copy_from_slice(&e.mbr.hi.x.to_le_bytes());
                buf[off + 24..off + 32].copy_from_slice(&e.mbr.hi.y.to_le_bytes());
                buf[off + 32..off + 36].copy_from_slice(&e.child.0.to_le_bytes());
                off += INNER_ENTRY_SIZE;
            }
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_page_size_fanout() {
        assert_eq!(leaf_capacity(1024), 42);
        assert_eq!(inner_capacity(1024), 28);
    }

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf(vec![
            LeafEntry::new(Point::new(1.5, -2.5), 42),
            LeafEntry::new(Point::new(0.0, 0.0), 0),
            LeafEntry::new(Point::new(999.9, 1000.0), u64::MAX),
        ]);
        let bytes = encode(&node, 1024);
        assert_eq!(decode(&bytes), node);
        assert!(is_leaf_page(&bytes));
        assert_eq!(entry_count(&bytes), 3);
    }

    #[test]
    fn inner_roundtrip() {
        let node = Node::Inner(vec![
            InnerEntry::new(
                Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
                PageId(9),
            ),
            InnerEntry::new(
                Rect::new(Point::new(-5.0, 2.0), Point::new(3.0, 8.0)),
                PageId(u32::MAX - 1),
            ),
        ]);
        let bytes = encode(&node, 1024);
        assert_eq!(decode(&bytes), node);
        assert!(!is_leaf_page(&bytes));
    }

    #[test]
    fn empty_nodes_roundtrip() {
        for node in [Node::Leaf(vec![]), Node::Inner(vec![])] {
            let bytes = encode(&node, 256);
            assert_eq!(decode(&bytes), node);
            assert!(decode(&bytes).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "leaf overflow")]
    fn overfull_leaf_panics() {
        let entries = (0..100)
            .map(|i| LeafEntry::new(Point::new(i as f64, 0.0), i))
            .collect();
        encode(&Node::Leaf(entries), 1024);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let node = Node::Leaf(vec![
            LeafEntry::new(Point::new(1.0, 5.0), 1),
            LeafEntry::new(Point::new(-2.0, 3.0), 2),
        ]);
        let mbr = node.mbr();
        assert_eq!(mbr, Rect::new(Point::new(-2.0, 3.0), Point::new(1.0, 5.0)));
    }

    fn leaf_entry() -> impl Strategy<Value = LeafEntry> {
        (-1e6..1e6f64, -1e6..1e6f64, any::<u64>())
            .prop_map(|(x, y, id)| LeafEntry::new(Point::new(x, y), id))
    }

    proptest! {
        #[test]
        fn prop_leaf_roundtrip(entries in proptest::collection::vec(leaf_entry(), 0..42)) {
            let node = Node::Leaf(entries);
            prop_assert_eq!(decode(&encode(&node, 1024)), node);
        }

        #[test]
        fn prop_streaming_matches_decode(entries in proptest::collection::vec(leaf_entry(), 0..42)) {
            let node = Node::Leaf(entries.clone());
            let bytes = encode(&node, 1024);
            let mut streamed = Vec::new();
            for_each_leaf_entry(&bytes, |p, id| streamed.push(LeafEntry::new(p, id)));
            prop_assert_eq!(streamed, entries);
        }
    }
}
