//! The simulated disk: fixed-size pages.

use std::fmt;

/// Identifier of a disk page. Dense (allocation order), so page tables can be
/// plain vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// An in-memory simulated disk.
///
/// Pages are owned boxed slices of exactly `page_size` bytes. Every
/// `read_page` / `write_page` is a *physical* access; the buffer pool above
/// decides which logical accesses reach the disk and counts them.
pub struct DiskManager {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl DiskManager {
    /// Creates an empty disk with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        DiskManager {
            page_size,
            pages: Vec::new(),
        }
    }

    /// The configured page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of allocated pages.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Allocates a zeroed page and returns its id. Allocation itself is not
    /// charged as an I/O: the writer will issue a physical write when it
    /// flushes content.
    pub fn alloc_page(&mut self) -> PageId {
        let id = PageId(u32::try_from(self.pages.len()).expect("page id overflow"));
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        id
    }

    /// Reads a page into `buf` (must be exactly `page_size` long).
    ///
    /// # Panics
    /// Panics on an unallocated or released page id or wrong buffer length
    /// — all storage-layer bugs, not recoverable conditions.
    pub fn read_page(&mut self, id: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
        let page = &self.pages[id.index()];
        assert!(!page.is_empty(), "read of released {id}");
        buf.copy_from_slice(page);
    }

    /// Drops a page's bytes. Its id is never handed out again, so ids stay
    /// dense in allocation order; reading it afterwards panics.
    pub fn release_page(&mut self, id: PageId) {
        self.pages[id.index()] = Box::default();
    }

    /// Writes `data` (exactly `page_size` long) to the page.
    pub fn write_page(&mut self, id: PageId, data: &[u8]) {
        assert_eq!(data.len(), self.page_size, "buffer/page size mismatch");
        let page = &mut self.pages[id.index()];
        assert!(!page.is_empty(), "write of released {id}");
        page.copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_dense_ids() {
        let mut d = DiskManager::new(64);
        assert_eq!(d.alloc_page(), PageId(0));
        assert_eq!(d.alloc_page(), PageId(1));
        assert_eq!(d.alloc_page(), PageId(2));
        assert_eq!(d.num_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "read of released page#1")]
    fn a_released_page_cannot_be_read() {
        let mut d = DiskManager::new(64);
        d.alloc_page();
        let id = d.alloc_page();
        d.release_page(id);
        assert_eq!(d.alloc_page(), PageId(2), "ids are not reused");
        d.read_page(id, &mut [0u8; 64]);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let mut d = DiskManager::new(16);
        let id = d.alloc_page();
        let mut buf = vec![0xFFu8; 16];
        d.read_page(id, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut d = DiskManager::new(8);
        let id = d.alloc_page();
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        d.write_page(id, &data);
        let mut buf = [0u8; 8];
        d.read_page(id, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    #[should_panic(expected = "buffer/page size mismatch")]
    fn wrong_buffer_size_panics() {
        let mut d = DiskManager::new(8);
        let id = d.alloc_page();
        let mut small = [0u8; 4];
        d.read_page(id, &mut small);
    }

    #[test]
    #[should_panic]
    fn unallocated_page_read_panics() {
        let mut d = DiskManager::new(8);
        let mut buf = [0u8; 8];
        d.read_page(PageId(3), &mut buf);
    }
}
