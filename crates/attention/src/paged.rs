//! Fixed-size refcounted KV pages and the shared [`PageArena`] that owns
//! their allocation lifecycle.
//!
//! The flat structure-of-arrays layout [`KvStore`](crate::KvStore) used
//! historically keeps one private `capacity × dim` arena per store, so N
//! sessions decoding against the same system prompt hold N physical copies
//! of identical prefix rows. This module restructures the storage into
//! **pages**: fixed-size blocks of [`PAGE_ROWS`] KV rows (key plane,
//! value plane, and the quantized key shadow in lockstep) handed out as
//! refcounted [`PageHandle`]s. A store's "arena" becomes a logical page
//! table mapping slot `s` to `(page s / PAGE_ROWS, row s % PAGE_ROWS)`,
//! and two stores that share a prefix simply hold clones of the same
//! handles.
//!
//! # Refcount / copy-on-write invariants
//!
//! * A page's refcount is its [`PageHandle`] strong count. A page with
//!   refcount 1 is **exclusively owned** and may be mutated in place.
//! * A write or eviction that touches a page with refcount > 1 must first
//!   **copy on write**: the mutating store replaces its handle with a
//!   fresh copy of the page (allocated through the arena, which counts
//!   the copy), leaving every other holder's view bit-identical. No
//!   mutation is ever visible through someone else's handle.
//! * When the last handle to a page drops, the page is returned to its
//!   arena's **free list** ([`PageArena::recycle`]) zeroed, ready for
//!   reuse — the arena never leaks pages and never hands out a dirty one.
//!
//! # Eviction story
//!
//! The arena itself never evicts: it is an allocator with reuse
//! accounting. Capacity pressure is handled one level up — the
//! `PrefixRegistry` in `unicaim-kvcache` drops its cached page runs in
//! LRU order when the number of pages it pins exceeds its budget, which
//! releases refcounts and (once sessions also retire) lets
//! [`PageArena::recycle`] reclaim the memory.

use std::sync::{Arc, Mutex};

/// Rows per page: small enough that a partially filled tail page wastes
/// little, large enough that the slot → page indirection stays off the
/// profile. A power of two, so that indirection is a shift and a mask.
pub const PAGE_ROWS: usize = 16;

/// One fixed-size block of KV rows: `PAGE_ROWS × dim` keys and values
/// plus the quantized key shadow (`i8` levels and one scale per row), all
/// zeroed until written. Pages are immutable while shared — mutation goes
/// through a [`PageHandle`] with refcount 1 (see the module docs).
#[derive(Debug, Clone)]
pub struct Page {
    dim: usize,
    pub(crate) keys: Vec<f32>,
    pub(crate) values: Vec<f32>,
    pub(crate) qkeys: Vec<i8>,
    pub(crate) qscales: Vec<f32>,
}

impl Page {
    fn zeroed(dim: usize) -> Self {
        Self {
            dim,
            keys: vec![0.0; PAGE_ROWS * dim],
            values: vec![0.0; PAGE_ROWS * dim],
            qkeys: vec![0; PAGE_ROWS * dim],
            qscales: vec![0.0; PAGE_ROWS],
        }
    }

    fn zero(&mut self) {
        self.keys.fill(0.0);
        self.values.fill(0.0);
        self.qkeys.fill(0);
        self.qscales.fill(0.0);
    }

    fn copy_from(&mut self, src: &Page) {
        debug_assert_eq!(self.dim, src.dim);
        self.keys.copy_from_slice(&src.keys);
        self.values.copy_from_slice(&src.values);
        self.qkeys.copy_from_slice(&src.qkeys);
        self.qscales.copy_from_slice(&src.qscales);
    }

    /// Row width of this page's KV vectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// A refcounted handle to a [`Page`]. The strong count *is* the page's
/// refcount: 1 means exclusively owned (mutable in place), more means
/// shared (mutation requires copy-on-write).
pub type PageHandle = Arc<Page>;

/// Allocation / reuse counters of a [`PageArena`] (monotonic over the
/// arena's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pages created fresh (heap allocations).
    pub allocated: u64,
    /// Allocations served from the free list instead of the heap.
    pub reused: u64,
    /// Pages whose last handle was returned and that went back to the
    /// free list.
    pub recycled: u64,
    /// Copy-on-write copies made because a write touched a shared page.
    pub cow_copies: u64,
}

/// The shared page allocator: hands out zeroed [`PageHandle`]s, reclaims
/// pages whose refcount reached zero into a free list, and accounts
/// copy-on-write traffic. Cloning a `PageArena` clones the *handle* —
/// all clones share one free list and one set of counters, which is what
/// lets many stores (and a prefix registry) draw from one pool.
///
/// See the module docs for the refcount/CoW invariants and the eviction
/// story.
#[derive(Debug, Clone)]
pub struct PageArena {
    inner: Arc<Mutex<ArenaInner>>,
    dim: usize,
}

#[derive(Debug, Default)]
struct ArenaInner {
    free: Vec<Page>,
    stats: ArenaStats,
}

impl PageArena {
    /// Creates an arena for pages whose rows are `dim` wide.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` (degenerate pages would alias every row, same
    /// contract as [`KvStore::new`](crate::KvStore::new)).
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PageArena requires dim > 0");
        Self {
            inner: Arc::new(Mutex::new(ArenaInner::default())),
            dim,
        }
    }

    /// Row width of every page this arena hands out.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, ArenaInner> {
        // The free list stays valid even if a holder panicked mid-call
        // (every mutation is a single push/pop), so recover from
        // poisoning instead of cascading the panic across sessions.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn take_or_create(&self) -> Page {
        let mut inner = self.locked();
        match inner.free.pop() {
            Some(page) => {
                // Free-list pages were zeroed when recycled.
                inner.stats.reused += 1;
                page
            }
            None => {
                inner.stats.allocated += 1;
                Page::zeroed(self.dim)
            }
        }
    }

    /// Allocates a zeroed page (from the free list when possible).
    #[must_use]
    pub fn alloc(&self) -> PageHandle {
        Arc::new(self.take_or_create())
    }

    /// Allocates a page holding a copy of `src`'s contents — the
    /// copy-on-write step, counted in [`ArenaStats::cow_copies`].
    ///
    /// # Panics
    ///
    /// Panics if `src` came from an arena with a different row width.
    #[must_use]
    pub fn cow_copy(&self, src: &PageHandle) -> PageHandle {
        assert_eq!(src.dim(), self.dim, "page dim mismatch");
        let mut page = self.take_or_create();
        page.copy_from(src);
        self.locked().stats.cow_copies += 1;
        Arc::new(page)
    }

    /// Returns a handle to the arena. If it was the **last** handle
    /// (refcount 1, i.e. the page's refcount reaches zero once this
    /// handle is consumed), the page is zeroed and pushed onto the free
    /// list for reuse; otherwise the handle is simply dropped and the
    /// remaining holders keep the page alive.
    pub fn recycle(&self, page: PageHandle) {
        if let Ok(mut page) = Arc::try_unwrap(page) {
            if page.dim() == self.dim {
                page.zero();
                let mut inner = self.locked();
                inner.stats.recycled += 1;
                inner.free.push(page);
            }
        }
    }

    /// Number of pages currently waiting on the free list.
    #[must_use]
    pub fn free_pages(&self) -> usize {
        self.locked().free.len()
    }

    /// A snapshot of the allocation / reuse counters.
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        self.locked().stats
    }
}

/// Which KV plane a [`PagedRows`] view reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Keys,
    Values,
}

/// A non-allocating, row-addressable view over the `f32` key or value
/// plane of a page table — the paged twin of
/// [`RowView`](crate::kernels::RowView). Logical row `r` resolves to row
/// `r % PAGE_ROWS` of page `r / PAGE_ROWS`; rows never span pages, so
/// each row is still one contiguous slice and the flat kernels walk the
/// non-contiguous pages through the [`Rows`](crate::kernels::Rows) trait
/// without copying.
#[derive(Debug, Clone, Copy)]
pub struct PagedRows<'a> {
    pages: &'a [PageHandle],
    plane: Plane,
    dim: usize,
}

impl<'a> PagedRows<'a> {
    fn new(pages: &'a [PageHandle], plane: Plane, dim: usize) -> Self {
        assert!(dim > 0, "PagedRows requires dim > 0");
        Self { pages, plane, dim }
    }

    /// A view of the key plane.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub(crate) fn keys(pages: &'a [PageHandle], dim: usize) -> Self {
        Self::new(pages, Plane::Keys, dim)
    }

    /// A view of the value plane.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub(crate) fn values(pages: &'a [PageHandle], dim: usize) -> Self {
        Self::new(pages, Plane::Values, dim)
    }

    /// Logical row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow logical row `r` (one contiguous slice inside its page).
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the page table.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [f32] {
        let page: &'a Page = &self.pages[r / PAGE_ROWS];
        let row = r % PAGE_ROWS;
        match self.plane {
            Plane::Keys => &page.keys[row * self.dim..(row + 1) * self.dim],
            Plane::Values => &page.values[row * self.dim..(row + 1) * self.dim],
        }
    }
}

impl crate::kernels::Rows for PagedRows<'_> {
    fn dim(&self) -> usize {
        PagedRows::dim(self)
    }

    fn row(&self, r: usize) -> &[f32] {
        PagedRows::row(self, r)
    }
}

/// The quantized twin of [`PagedRows`]: row-addressable `i8` key levels
/// plus one scale per row, read from a page table. Implements
/// [`QuantRows`](crate::kernels::QuantRows) so the integer kernels walk
/// pages exactly like the flat [`QuantRowView`](crate::kernels::QuantRowView).
#[derive(Debug, Clone, Copy)]
pub struct PagedQuantRows<'a> {
    pages: &'a [PageHandle],
    dim: usize,
}

impl<'a> PagedQuantRows<'a> {
    /// A view of the quantized key plane.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub(crate) fn new(pages: &'a [PageHandle], dim: usize) -> Self {
        assert!(dim > 0, "PagedQuantRows requires dim > 0");
        Self { pages, dim }
    }

    /// Logical row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the integer levels of logical row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the page table.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [i8] {
        let page: &'a Page = &self.pages[r / PAGE_ROWS];
        let row = r % PAGE_ROWS;
        &page.qkeys[row * self.dim..(row + 1) * self.dim]
    }

    /// The dequantization scale of logical row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the page table.
    #[inline]
    #[must_use]
    pub fn scale(&self, r: usize) -> f32 {
        self.pages[r / PAGE_ROWS].qscales[r % PAGE_ROWS]
    }
}

impl crate::kernels::QuantRows for PagedQuantRows<'_> {
    fn dim(&self) -> usize {
        PagedQuantRows::dim(self)
    }

    fn row(&self, r: usize) -> &[i8] {
        PagedQuantRows::row(self, r)
    }

    fn scale(&self, r: usize) -> f32 {
        PagedQuantRows::scale(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_recycle_reuse_cycle() {
        let arena = PageArena::new(4);
        let page = arena.alloc();
        assert_eq!(arena.stats().allocated, 1);
        assert_eq!(arena.free_pages(), 0);
        // Last handle returned: the page's refcount reaches zero and it
        // goes back to the free list.
        arena.recycle(page);
        assert_eq!(arena.free_pages(), 1);
        assert_eq!(arena.stats().recycled, 1);
        // Next allocation reuses it (no fresh heap page).
        let again = arena.alloc();
        assert_eq!(arena.free_pages(), 0);
        assert_eq!(arena.stats().reused, 1);
        assert_eq!(arena.stats().allocated, 1);
        assert!(again.keys.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn recycle_of_shared_page_is_a_noop() {
        let arena = PageArena::new(4);
        let page = arena.alloc();
        let shared = Arc::clone(&page);
        arena.recycle(page);
        // `shared` still holds the page: nothing was reclaimed.
        assert_eq!(arena.free_pages(), 0);
        assert_eq!(arena.stats().recycled, 0);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn cow_copy_is_counted_and_content_equal() {
        let arena = PageArena::new(2);
        let page = arena.alloc();
        let copy = arena.cow_copy(&page);
        assert_eq!(arena.stats().cow_copies, 1);
        assert_eq!(copy.keys, page.keys);
        assert!(!Arc::ptr_eq(&page, &copy));
    }

    #[test]
    fn recycled_pages_come_back_zeroed() {
        let arena = PageArena::new(2);
        let mut page = arena.alloc();
        Arc::get_mut(&mut page).unwrap().keys[0] = 9.0;
        arena.recycle(page);
        let fresh = arena.alloc();
        assert_eq!(fresh.keys, vec![0.0; 2 * PAGE_ROWS]);
    }

    #[test]
    fn paged_views_resolve_rows_across_pages() {
        // Logical row r holds keys [r, -r], values [10r, 0], level r and
        // scale 1/(r + 1), on two pages.
        let arena = PageArena::new(2);
        let mut pages = [arena.alloc(), arena.alloc()];
        for (p, page) in pages.iter_mut().enumerate() {
            let page = Arc::get_mut(page).unwrap();
            for row in 0..PAGE_ROWS {
                let r = (p * PAGE_ROWS + row) as f32;
                page.keys[2 * row..2 * row + 2].copy_from_slice(&[r, -r]);
                page.values[2 * row] = 10.0 * r;
                page.qkeys[2 * row] = r as i8;
                page.qscales[row] = 1.0 / (r + 1.0);
            }
        }
        let keys = PagedRows::keys(&pages, 2);
        let values = PagedRows::values(&pages, 2);
        let quant = PagedQuantRows::new(&pages, 2);
        for r in [0, PAGE_ROWS - 1, PAGE_ROWS, 2 * PAGE_ROWS - 1] {
            let x = r as f32;
            assert_eq!(keys.row(r), &[x, -x]);
            assert_eq!(values.row(r), &[10.0 * x, 0.0]);
            assert_eq!(quant.row(r), &[r as i8, 0]);
            assert_eq!(quant.scale(r), 1.0 / (x + 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn zero_dim_arena_rejected() {
        let _ = PageArena::new(0);
    }
}
