//! Fixed-capacity KV storage with in-slot overwrite, laid out as a
//! logical page table over refcounted fixed-size pages.
//!
//! UniCAIM keeps the KV cache at a fixed physical size (`H + M` rows): a
//! statically evicted token's row is directly overwritten by the newly
//! generated token (paper Fig. 3b, "directly fill with newly-generated KV in
//! the statically evicted position"). [`KvStore`] models exactly that slot
//! discipline and is shared by the software policies and the hardware
//! engine.
//!
//! # Layout
//!
//! Keys, values, and the quantized key shadow live in fixed-size
//! [`Page`]s drawn from a shared [`PageArena`]; the store holds a logical
//! page table mapping slot `s` to row `s % page_rows` of page
//! `s / page_rows`. Rows never span pages, so slot `s` is still one
//! contiguous `dim`-wide slice and the decode hot path (score every
//! resident, fused attention over a selection) runs over the paged views
//! ([`PagedRows`], [`PagedQuantRows`]) with one extra indirection per
//! row. Pages are refcounted ([`PageHandle`]): cloning a store — or
//! splicing a cached prefix into a fresh one via
//! [`KvStore::from_shared_prefix`] — shares the physical pages, and any
//! write or eviction that touches a shared page copies it first
//! (copy-on-write, see the [`paged`](crate::paged) module docs). Freed
//! slots are zeroed so structural equality sees only logical content.
//!
//! Token ids must be unique across occupied slots (the token → slot index
//! requires it); writing a token that is already resident in a *different*
//! slot is rejected with [`AttentionError::DuplicateToken`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::kernels;
use crate::paged::{Page, PageArena, PageHandle, PagedQuantRows, PagedRows, DEFAULT_PAGE_ROWS};
use crate::AttentionError;

/// Key-arena storage precision: how [`KvStore`] stores (and the decode
/// path scores against) its keys.
///
/// The UniCAIM array stores keys in reduced-precision FeFET cells — the
/// 3-bit multilevel cell holds the five signed weights
/// {−1, −0.5, 0, +0.5, +1} per dimension — while the software harness
/// historically computed everything in `f32`. This enum closes that gap:
/// quantized stores keep a shadow `i8` key arena with one scale per row
/// (1 byte/element, a ~4× traffic reduction), and the decode hot path
/// scores queries against it with the integer kernels
/// ([`dot_gather_q`](crate::kernels::KernelBackend::dot_gather_q),
/// [`attend_gather_q`](crate::kernels::KernelBackend::attend_gather_q)).
/// Values stay `f32` in every mode, mirroring the array (only the CAM/CIM
/// key storage is reduced-precision). Queries are quantized per step to
/// symmetric `i8`, so the ablation isolates *key-storage* precision — the
/// paper's separate query-precision axis lives in `unicaim_core`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision `f32` keys (the historical software path).
    #[default]
    F32,
    /// Symmetric per-row-scaled `i8` keys (±127 levels).
    Int8,
    /// Keys snapped to the 3-bit multilevel cell's five signed levels
    /// {−1, −0.5, 0, +0.5, +1} × row scale (stored as `i8` levels −2…+2).
    Cell3Bit,
}

impl Precision {
    /// Every precision, in ablation order.
    pub const ALL: [Precision; 3] = [Precision::F32, Precision::Int8, Precision::Cell3Bit];

    /// Short display label (`f32` / `int8` / `cell3`), the column key the
    /// figure pipeline emits.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
            Precision::Cell3Bit => "cell3",
        }
    }

    /// Whether keys are stored quantized (an `i8` arena exists).
    #[must_use]
    pub fn is_quantized(self) -> bool {
        self != Precision::F32
    }

    /// Quantizes one key row at this precision into `out`, returning the
    /// per-row scale (`key[i] ≈ scale · out[i]`).
    ///
    /// # Panics
    ///
    /// Panics if called on [`Precision::F32`] (no quantized arena exists)
    /// or if `src.len() != out.len()`.
    pub fn quantize_row(self, src: &[f32], out: &mut [i8]) -> f32 {
        match self {
            // lint:allow(no-panic-in-lib): documented contract — callers gate on needs_quant(), and F32 stores allocate no shadow arena to quantize into
            Precision::F32 => unreachable!("f32 stores keep no quantized arena"),
            Precision::Int8 => kernels::active_backend().quantize_row_i8(src, out),
            Precision::Cell3Bit => kernels::active_backend().quantize_row_cell3(src, out),
        }
    }
}

/// One stored token: key and value vectors plus the logical token id.
///
/// This is the *exchange* type at the store boundary; internally the store
/// keeps keys and values in paged arenas, not per-entry allocations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvEntry {
    /// Logical token position in the original sequence (0-based).
    pub token_id: usize,
    /// Key vector.
    pub key: Vec<f32>,
    /// Value vector.
    pub value: Vec<f32>,
}

/// A fixed-capacity KV cache addressed by physical slot, stored as a
/// logical page table over refcounted pages (see the `kv` module docs).
///
/// Cloning a `KvStore` is cheap: the clone shares every page with the
/// original (refcounts bump, no row is copied), and copy-on-write keeps
/// the two logically independent from the first mutation onward.
/// Equality is *logical*: two stores compare equal when their per-slot
/// contents match, regardless of how the rows are distributed over pages
/// or which arena owns them.
#[derive(Debug, Clone)]
pub struct KvStore {
    dim: usize,
    capacity: usize,
    /// Key-arena storage precision.
    precision: Precision,
    /// Rows per page (fixed per arena).
    page_rows: usize,
    /// The arena pages are drawn from and recycled into.
    arena: PageArena,
    /// The page table: slot `s` lives in `pages[s / page_rows]` at row
    /// `s % page_rows`. Always `ceil(capacity / page_rows)` entries.
    pages: Vec<PageHandle>,
    /// Logical token held by each slot.
    tokens: Vec<Option<usize>>,
    /// Token → slot index: one `(token, slot)` pair per occupied slot
    /// (so its length is the occupancy), sorted by token. Ascending-token
    /// iteration walks the slice and a lookup is a binary search. A
    /// decoded token has the largest id yet, so indexing it is a push.
    by_token: Vec<(usize, usize)>,
}

impl KvStore {
    /// Creates an empty store with `capacity` physical slots for vectors of
    /// dimension `dim`, storing keys at full [`Precision::F32`]. The store
    /// draws its pages from a private [`PageArena`]; use
    /// [`KvStore::with_arena`] to share one arena across stores.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`: a zero-dimension store would hand out
    /// degenerate row views in which every slot aliases the same empty
    /// row.
    #[must_use]
    pub fn new(capacity: usize, dim: usize) -> Self {
        Self::with_precision(capacity, dim, Precision::F32)
    }

    /// Creates an empty store whose key arena is kept at the given
    /// [`Precision`]. Quantized stores additionally maintain an `i8`
    /// shadow key plane (1 byte/element) with one scale per slot; values
    /// stay `f32` in every mode.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` (same contract as [`KvStore::new`]).
    #[must_use]
    pub fn with_precision(capacity: usize, dim: usize, precision: Precision) -> Self {
        assert!(dim > 0, "KvStore requires dim > 0");
        let arena = PageArena::new(dim, DEFAULT_PAGE_ROWS);
        Self::with_arena(&arena, capacity, precision)
    }

    /// Creates an empty store drawing its pages from `arena` (the shape —
    /// `dim`, rows per page — comes from the arena, and [`PageArena::new`]
    /// already rejects degenerate shapes). Stores sharing one arena reuse
    /// each other's recycled pages and share one set of
    /// [`ArenaStats`](crate::paged::ArenaStats).
    #[must_use]
    pub fn with_arena(arena: &PageArena, capacity: usize, precision: Precision) -> Self {
        let dim = arena.dim();
        let page_rows = arena.page_rows();
        let n_pages = capacity.div_ceil(page_rows);
        let pages = (0..n_pages).map(|_| arena.alloc()).collect();
        Self {
            dim,
            capacity,
            precision,
            page_rows,
            arena: arena.clone(),
            pages,
            tokens: vec![None; capacity],
            by_token: Vec::new(),
        }
    }

    /// Creates a store whose first `shared.len()` page-table entries are
    /// clones of `shared` (refcount bumps, **no row is copied**) holding
    /// the prefix tokens `prefix_tokens` in slots `0..prefix_tokens.len()`;
    /// the remaining pages are fresh allocations. This is the
    /// prefix-splice fast path: the first write that lands on a shared
    /// page (typically the first decoded token, which shares the
    /// partially filled tail page) copies it on write.
    ///
    /// # Panics
    ///
    /// Panics if the shared pages don't match the arena's page shape, if
    /// they exceed the store's page table, if `prefix_tokens` addresses
    /// rows past the shared pages (or `capacity`), or if a prefix token
    /// id repeats.
    #[must_use]
    pub fn from_shared_prefix(
        arena: &PageArena,
        capacity: usize,
        precision: Precision,
        shared: &[PageHandle],
        prefix_tokens: &[usize],
    ) -> Self {
        let dim = arena.dim();
        let page_rows = arena.page_rows();
        let n_pages = capacity.div_ceil(page_rows);
        assert!(
            shared.len() <= n_pages,
            "shared prefix of {} pages exceeds the {n_pages}-page table",
            shared.len()
        );
        assert!(
            prefix_tokens.len() <= shared.len() * page_rows && prefix_tokens.len() <= capacity,
            "{} prefix tokens do not fit the shared pages / capacity {capacity}",
            prefix_tokens.len()
        );
        let mut pages: Vec<PageHandle> = Vec::with_capacity(n_pages);
        for page in shared {
            assert!(
                page.dim() == dim && page.rows() == page_rows,
                "shared page shape does not match the arena"
            );
            pages.push(Arc::clone(page));
        }
        pages.extend((shared.len()..n_pages).map(|_| arena.alloc()));
        let mut tokens = vec![None; capacity];
        let mut by_token = Vec::with_capacity(prefix_tokens.len());
        for (slot, &token) in prefix_tokens.iter().enumerate() {
            tokens[slot] = Some(token);
            by_token.push((token, slot));
        }
        by_token.sort_unstable();
        for pair in by_token.windows(2) {
            assert!(pair[0].0 != pair[1].0, "prefix token {} repeats", pair[0].0);
        }
        Self {
            dim,
            capacity,
            precision,
            page_rows,
            arena: arena.clone(),
            pages,
            tokens,
            by_token,
        }
    }

    /// The key-arena storage precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switches the key-arena precision in place, rebuilding the quantized
    /// shadow plane page by page from the retained exact `f32` keys.
    /// Shared pages are copied first (the usual copy-on-write), so other
    /// holders never observe the change; free rows stay all-zero with
    /// scale 0 (a zero row quantizes to zeros with scale 0). A no-op when
    /// the precision already matches.
    ///
    /// The [`Precision::Int8`] path runs the bulk
    /// [`KernelBackend::quantize_arena_i8_into`](kernels::KernelBackend::quantize_arena_i8_into)
    /// over each page's contiguous key plane, reusing one scratch pair
    /// across all pages — no per-page (or per-row) allocation.
    pub fn requantize(&mut self, precision: Precision) {
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        let dim = self.dim;
        let backend = kernels::active_backend();
        let mut q_scratch: Vec<i8> = Vec::new();
        let mut s_scratch: Vec<f32> = Vec::new();
        for idx in 0..self.pages.len() {
            let page = self.page_mut(idx);
            match precision {
                Precision::F32 => {
                    page.qkeys.fill(0);
                    page.qscales.fill(0.0);
                }
                Precision::Int8 => {
                    backend.quantize_arena_i8_into(&page.keys, dim, &mut q_scratch, &mut s_scratch);
                    page.qkeys.copy_from_slice(&q_scratch);
                    page.qscales.copy_from_slice(&s_scratch);
                }
                Precision::Cell3Bit => {
                    for row in 0..page.qscales.len() {
                        let base = row * dim;
                        page.qscales[row] = backend.quantize_row_cell3(
                            &page.keys[base..base + dim],
                            &mut page.qkeys[base..base + dim],
                        );
                    }
                }
            }
        }
    }

    /// Vector dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of physical slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// True when no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }

    /// Rows per page in this store's page table.
    #[must_use]
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// The page table (one handle per `page_rows` slots).
    #[must_use]
    pub fn pages(&self) -> &[PageHandle] {
        &self.pages
    }

    /// The refcount of page-table entry `idx` (1 = exclusively owned).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the page table.
    #[must_use]
    pub fn page_refcount(&self, idx: usize) -> usize {
        Arc::strong_count(&self.pages[idx])
    }

    /// The arena this store draws pages from.
    #[must_use]
    pub fn arena(&self) -> &PageArena {
        &self.arena
    }

    /// The first free slot index, if any.
    #[must_use]
    pub fn first_free_slot(&self) -> Option<usize> {
        self.tokens.iter().position(Option::is_none)
    }

    /// The key plane as a [`PagedRows`] view (slot `s` = logical row `s`;
    /// free slots are zero rows).
    #[must_use]
    pub fn keys_view(&self) -> PagedRows<'_> {
        PagedRows::keys(&self.pages, self.dim, self.page_rows)
    }

    /// The value plane as a [`PagedRows`] view.
    #[must_use]
    pub fn values_view(&self) -> PagedRows<'_> {
        PagedRows::values(&self.pages, self.dim, self.page_rows)
    }

    /// The quantized key plane as a [`PagedQuantRows`] view, or `None` for
    /// an [`Precision::F32`] store. Free slots are zero rows with scale 0.
    #[must_use]
    pub fn quant_keys_view(&self) -> Option<PagedQuantRows<'_>> {
        self.precision
            .is_quantized()
            .then(|| PagedQuantRows::new(&self.pages, self.dim, self.page_rows))
    }

    /// Key bytes a full scan reads at this store's precision: `f32`
    /// stores read 4 bytes/element; quantized stores read 1 byte/element
    /// plus one `f32` scale per slot (the ~4× scan-traffic reduction the
    /// quantized decode path exists for).
    ///
    /// This is not the store's size: every page holds `f32` keys, `f32`
    /// values, the `i8` shadow and its scales at every precision, so a
    /// slot occupies `9·dim + 4` bytes whatever the precision.
    #[must_use]
    pub fn key_arena_bytes(&self) -> usize {
        if self.precision.is_quantized() {
            self.capacity * self.dim * std::mem::size_of::<i8>()
                + self.capacity * std::mem::size_of::<f32>()
        } else {
            self.capacity * self.dim * std::mem::size_of::<f32>()
        }
    }

    /// Slot `s`'s page-table coordinates plus a shared page reference.
    fn page_of(&self, slot: usize) -> (&Page, usize) {
        (&self.pages[slot / self.page_rows], slot % self.page_rows)
    }

    fn key_row(&self, slot: usize) -> &[f32] {
        let (page, row) = self.page_of(slot);
        page.key_row(row)
    }

    fn value_row(&self, slot: usize) -> &[f32] {
        let (page, row) = self.page_of(slot);
        page.value_row(row)
    }

    /// Exclusive access to page-table entry `idx`, copying the page first
    /// when it is shared (refcount > 1) so no other holder observes the
    /// mutation. The displaced shared handle is offered back to the arena
    /// (a no-op unless the other holders vanished in the meantime).
    fn page_mut(&mut self, idx: usize) -> &mut Page {
        if Arc::strong_count(&self.pages[idx]) > 1 {
            let fresh = self.arena.cow_copy(&self.pages[idx]);
            let displaced = std::mem::replace(&mut self.pages[idx], fresh);
            self.arena.recycle(displaced);
        }
        // lint:allow(no-panic-in-lib): the branch above replaced any shared handle with a strong_count == 1 CoW copy, so get_mut cannot fail
        Arc::get_mut(&mut self.pages[idx]).expect("page is exclusively owned after CoW")
    }

    /// The key of `slot` as the *scoring path* sees it: the quantize →
    /// dequantize round-trip of the stored key for quantized stores, or
    /// the exact `f32` row for [`Precision::F32`]. `None` for an empty
    /// slot.
    #[must_use]
    pub fn dequantized_key(&self, slot: usize) -> Option<Vec<f32>> {
        self.token_at(slot)?;
        if self.precision.is_quantized() {
            let (page, row) = self.page_of(slot);
            let mut out = vec![0.0f32; self.dim];
            kernels::dequantize_row(page.quant_row(row), page.quant_scale(row), &mut out);
            Some(out)
        } else {
            Some(self.key_row(slot).to_vec())
        }
    }

    /// Writes `token`'s key/value into `slot` directly from slices
    /// (single-write-cycle in-place update, no per-entry allocation).
    /// Returns the token that previously occupied the slot. Writing to a
    /// slot on a shared page copies the page first.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::IndexOutOfRange`] for a bad slot,
    /// [`AttentionError::ShapeMismatch`] for wrong vector dimensions, and
    /// [`AttentionError::DuplicateToken`] when `token` is already resident
    /// in a different slot.
    pub fn write_slot_parts(
        &mut self,
        slot: usize,
        token: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<Option<usize>, AttentionError> {
        if slot >= self.capacity {
            return Err(AttentionError::IndexOutOfRange {
                index: slot,
                len: self.capacity,
            });
        }
        if key.len() != self.dim || value.len() != self.dim {
            return Err(AttentionError::ShapeMismatch {
                context: format!(
                    "kv entry dims ({}, {}) do not match store dim {}",
                    key.len(),
                    value.len(),
                    self.dim
                ),
            });
        }
        if let Some(other) = self.slot_of_token(token) {
            if other != slot {
                return Err(AttentionError::DuplicateToken { token, slot: other });
            }
        }
        let prev = self.tokens[slot];
        if let Some(p) = prev {
            self.unindex(p);
        }
        let dim = self.dim;
        let precision = self.precision;
        let row = slot % self.page_rows;
        let page = self.page_mut(slot / self.page_rows);
        let base = row * dim;
        page.keys[base..base + dim].copy_from_slice(key);
        page.values[base..base + dim].copy_from_slice(value);
        if precision.is_quantized() {
            page.qscales[row] = precision.quantize_row(key, &mut page.qkeys[base..base + dim]);
        }
        self.tokens[slot] = Some(token);
        let at = self.by_token.partition_point(|&(t, _)| t < token);
        self.by_token.insert(at, (token, slot));
        Ok(prev)
    }

    /// Position of `token` in the sorted index.
    fn index_of(&self, token: usize) -> Result<usize, usize> {
        self.by_token.binary_search_by_key(&token, |&(t, _)| t)
    }

    /// Drops `token` from the sorted index.
    fn unindex(&mut self, token: usize) {
        if let Ok(i) = self.index_of(token) {
            self.by_token.remove(i);
        }
    }

    /// Writes an entry into `slot`, overwriting whatever was there
    /// (single-write-cycle in-place update). Returns the previous occupant.
    ///
    /// # Errors
    ///
    /// Same contract as [`KvStore::write_slot_parts`].
    pub fn write_slot(
        &mut self,
        slot: usize,
        entry: KvEntry,
    ) -> Result<Option<KvEntry>, AttentionError> {
        let prev = self.entry(slot);
        self.write_slot_parts(slot, entry.token_id, &entry.key, &entry.value)?;
        Ok(prev)
    }

    /// Appends `token`'s key/value into the first free slot, returning its
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::IndexOutOfRange`] when the store is full
    /// (index = capacity); otherwise the [`KvStore::write_slot_parts`]
    /// contract.
    pub fn append_parts(
        &mut self,
        token: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<usize, AttentionError> {
        let slot = self
            .first_free_slot()
            .ok_or(AttentionError::IndexOutOfRange {
                index: self.capacity,
                len: self.capacity,
            })?;
        self.write_slot_parts(slot, token, key, value)?;
        Ok(slot)
    }

    /// Appends into the first free slot, returning its index.
    ///
    /// # Errors
    ///
    /// Same contract as [`KvStore::append_parts`].
    pub fn append(&mut self, entry: KvEntry) -> Result<usize, AttentionError> {
        self.append_parts(entry.token_id, &entry.key, &entry.value)
    }

    /// Clears a slot, returning its occupant. The freed rows are zeroed;
    /// evicting a slot on a shared page copies the page *before* zeroing,
    /// so other holders keep the token.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::IndexOutOfRange`] for a bad slot.
    pub fn evict_slot(&mut self, slot: usize) -> Result<Option<KvEntry>, AttentionError> {
        if slot >= self.capacity {
            return Err(AttentionError::IndexOutOfRange {
                index: slot,
                len: self.capacity,
            });
        }
        let prev = self.entry(slot);
        if let Some(token) = self.tokens[slot].take() {
            self.unindex(token);
            let dim = self.dim;
            let row = slot % self.page_rows;
            let page = self.page_mut(slot / self.page_rows);
            let base = row * dim;
            page.keys[base..base + dim].fill(0.0);
            page.values[base..base + dim].fill(0.0);
            page.qkeys[base..base + dim].fill(0);
            page.qscales[row] = 0.0;
        }
        Ok(prev)
    }

    /// The token in `slot`, if occupied.
    #[must_use]
    pub fn token_at(&self, slot: usize) -> Option<usize> {
        self.tokens.get(slot).copied().flatten()
    }

    /// The key row of `slot`, if occupied.
    #[must_use]
    pub fn key_at(&self, slot: usize) -> Option<&[f32]> {
        self.token_at(slot).map(|_| self.key_row(slot))
    }

    /// The value row of `slot`, if occupied.
    #[must_use]
    pub fn value_at(&self, slot: usize) -> Option<&[f32]> {
        self.token_at(slot).map(|_| self.value_row(slot))
    }

    /// The entry in `slot`, if occupied, materialized out of the pages.
    #[must_use]
    pub fn entry(&self, slot: usize) -> Option<KvEntry> {
        self.token_at(slot).map(|token_id| KvEntry {
            token_id,
            key: self.key_row(slot).to_vec(),
            value: self.value_row(slot).to_vec(),
        })
    }

    /// Iterator over `(token, slot)` for occupied slots, in **ascending
    /// token order** (the order the harness↔policy contract requires): a
    /// walk over the sorted token index, no lookup per item.
    pub fn iter_tokens(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.by_token.iter().copied()
    }

    /// The physical slot currently holding the given logical token, if any
    /// (a binary search of the sorted token index, O(log n)).
    #[must_use]
    pub fn slot_of_token(&self, token_id: usize) -> Option<usize> {
        self.index_of(token_id).ok().map(|i| self.by_token[i].1)
    }

    /// All occupied slots' token ids, in slot order.
    #[must_use]
    pub fn token_ids(&self) -> Vec<usize> {
        self.tokens.iter().filter_map(|&t| t).collect()
    }

    /// All occupied slots' token ids, ascending.
    #[must_use]
    pub fn tokens_ascending(&self) -> Vec<usize> {
        self.by_token.iter().map(|&(t, _)| t).collect()
    }
}

impl PartialEq for KvStore {
    /// Logical equality: same shape, precision, occupancy, and per-slot
    /// contents. Page-table layout (rows per page, which pages are
    /// shared, which arena owns them) is invisible — a spliced store and
    /// a cold-built one with the same rows compare equal.
    fn eq(&self, other: &Self) -> bool {
        if self.dim != other.dim
            || self.capacity != other.capacity
            || self.precision != other.precision
            || self.tokens != other.tokens
        {
            return false;
        }
        for slot in 0..self.capacity {
            if self.key_row(slot) != other.key_row(slot)
                || self.value_row(slot) != other.value_row(slot)
            {
                return false;
            }
            if self.precision.is_quantized() {
                let (sp, sr) = self.page_of(slot);
                let (op, or) = other.page_of(slot);
                if sp.quant_row(sr) != op.quant_row(or) || sp.quant_scale(sr) != op.quant_scale(or)
                {
                    return false;
                }
            }
        }
        true
    }
}

impl Drop for KvStore {
    /// Returns every page-table entry to the arena; pages whose refcount
    /// reaches zero go back to the free list for reuse.
    fn drop(&mut self) {
        for page in self.pages.drain(..) {
            self.arena.recycle(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(token_id: usize, dim: usize, fill: f32) -> KvEntry {
        KvEntry {
            token_id,
            key: vec![fill; dim],
            value: vec![fill + 0.5; dim],
        }
    }

    #[test]
    fn append_fills_slots_in_order() {
        let mut store = KvStore::new(3, 4);
        assert_eq!(store.append(entry(10, 4, 0.1)).unwrap(), 0);
        assert_eq!(store.append(entry(11, 4, 0.2)).unwrap(), 1);
        assert_eq!(store.append(entry(12, 4, 0.3)).unwrap(), 2);
        assert_eq!(store.len(), 3);
        assert!(
            store.append(entry(13, 4, 0.4)).is_err(),
            "full store must reject appends"
        );
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut store = KvStore::new(2, 4);
        store.append(entry(1, 4, 0.1)).unwrap();
        let prev = store.write_slot(0, entry(2, 4, 0.2)).unwrap();
        assert_eq!(prev.unwrap().token_id, 1);
        assert_eq!(store.token_at(0), Some(2));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn evict_then_reuse_slot() {
        let mut store = KvStore::new(2, 4);
        store.append(entry(1, 4, 0.1)).unwrap();
        store.append(entry(2, 4, 0.2)).unwrap();
        let evicted = store.evict_slot(0).unwrap().unwrap();
        assert_eq!(evicted.token_id, 1);
        assert_eq!(store.first_free_slot(), Some(0));
        assert_eq!(store.append(entry(3, 4, 0.3)).unwrap(), 0);
        let mut ids = store.token_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn requantize_matches_store_built_at_target_precision() {
        let dim = 7;
        let build = |precision| {
            let mut store = KvStore::with_precision(5, dim, precision);
            for t in 0..4usize {
                let key: Vec<f32> = (0..dim)
                    .map(|i| ((t * dim + i) as f32) * 0.3 - 2.0)
                    .collect();
                let value: Vec<f32> = (0..dim).map(|i| (i as f32) - t as f32).collect();
                store
                    .append(KvEntry {
                        token_id: t,
                        key,
                        value,
                    })
                    .unwrap();
            }
            store
        };
        for source in Precision::ALL {
            for target in Precision::ALL {
                let mut store = build(source);
                store.requantize(target);
                assert_eq!(store.precision(), target);
                assert_eq!(
                    store,
                    build(target),
                    "{} -> {}",
                    source.label(),
                    target.label()
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut store = KvStore::new(2, 4);
        assert!(store.append(entry(1, 3, 0.1)).is_err());
    }

    #[test]
    fn slot_of_token_finds_physical_position() {
        let mut store = KvStore::new(3, 2);
        store.append(entry(100, 2, 0.0)).unwrap();
        store.append(entry(200, 2, 0.0)).unwrap();
        assert_eq!(store.slot_of_token(200), Some(1));
        assert_eq!(store.slot_of_token(300), None);
    }

    #[test]
    fn out_of_range_slot_rejected() {
        let mut store = KvStore::new(2, 2);
        assert!(store.write_slot(2, entry(1, 2, 0.0)).is_err());
        assert!(store.evict_slot(5).is_err());
        assert!(store.entry(9).is_none());
    }

    #[test]
    fn duplicate_token_in_other_slot_rejected() {
        let mut store = KvStore::new(3, 2);
        store.append(entry(7, 2, 0.1)).unwrap();
        let err = store.write_slot(1, entry(7, 2, 0.2)).unwrap_err();
        assert!(matches!(
            err,
            AttentionError::DuplicateToken { token: 7, slot: 0 }
        ));
        // Rewriting the token in its own slot is fine (in-place update).
        assert!(store.write_slot(0, entry(7, 2, 0.3)).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn iter_tokens_is_ascending_and_arena_rows_match() {
        let mut store = KvStore::new(4, 2);
        store.append(entry(30, 2, 0.3)).unwrap();
        store.append(entry(10, 2, 0.1)).unwrap();
        store.append(entry(20, 2, 0.2)).unwrap();
        let order: Vec<usize> = store.iter_tokens().map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
        for (t, s) in store.iter_tokens() {
            let e = store.entry(s).unwrap();
            assert_eq!(e.token_id, t);
            assert_eq!(store.key_at(s).unwrap(), e.key.as_slice());
            assert_eq!(store.value_at(s).unwrap(), e.value.as_slice());
            assert_eq!(store.keys_view().row(s), e.key.as_slice());
            assert_eq!(store.values_view().row(s), e.value.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn zero_dim_store_rejected() {
        // Audit (satellite): a dim-0 store would hand out row views in
        // which every slot aliases the same empty row.
        let _ = KvStore::new(4, 0);
    }

    #[test]
    fn quantized_store_maintains_shadow_arena() {
        let mut store = KvStore::with_precision(3, 4, Precision::Int8);
        assert_eq!(store.precision(), Precision::Int8);
        // 1 byte/element + one f32 scale per slot vs 4 bytes/element.
        assert_eq!(store.key_arena_bytes(), 3 * 4 + 3 * 4);
        assert_eq!(KvStore::new(3, 4).key_arena_bytes(), 3 * 4 * 4);

        store
            .write_slot_parts(1, 7, &[1.0, -0.5, 0.25, 0.0], &[0.0; 4])
            .unwrap();
        let q = store.quant_keys_view().unwrap();
        assert_eq!(q.row(1), &[127, -64, 32, 0]);
        assert!((q.scale(1) - 1.0 / 127.0).abs() < 1e-9);
        // Untouched slots are zero rows with zero scale.
        assert_eq!(q.row(0), &[0, 0, 0, 0]);
        assert_eq!(q.scale(0), 0.0);
        // F32 stores have no shadow arena.
        assert!(KvStore::new(3, 4).quant_keys_view().is_none());
    }

    #[test]
    fn quantize_dequantize_roundtrip_is_bounded() {
        let mut store = KvStore::with_precision(2, 3, Precision::Int8);
        let key = [0.9f32, -0.33, 0.141];
        store.write_slot_parts(0, 1, &key, &[0.0; 3]).unwrap();
        let back = store.dequantized_key(0).unwrap();
        let scale = store.quant_keys_view().unwrap().scale(0);
        for (x, y) in key.iter().zip(&back) {
            assert!((x - y).abs() <= scale * 0.5 + 1e-7, "{key:?} vs {back:?}");
        }
        // Empty slots have no key at all.
        assert!(store.dequantized_key(1).is_none());
        // F32 stores round-trip exactly.
        let mut f = KvStore::new(2, 3);
        f.write_slot_parts(0, 1, &key, &[0.0; 3]).unwrap();
        assert_eq!(f.dequantized_key(0).unwrap(), key.to_vec());
    }

    #[test]
    fn cell3_store_snaps_keys_to_five_levels() {
        let mut store = KvStore::with_precision(2, 5, Precision::Cell3Bit);
        store
            .write_slot_parts(0, 3, &[1.0, -1.0, 0.1, 0.6, -0.4], &[0.0; 5])
            .unwrap();
        let q = store.quant_keys_view().unwrap();
        assert_eq!(q.row(0), &[2, -2, 0, 1, -1]);
        assert!((q.scale(0) - 0.5).abs() < 1e-9);
        // Snapped keys re-snap to themselves (idempotence).
        let snapped = store.dequantized_key(0).unwrap();
        store.write_slot_parts(1, 4, &snapped, &[0.0; 5]).unwrap();
        let q = store.quant_keys_view().unwrap();
        assert_eq!(q.row(1), q.row(0));
        assert_eq!(q.scale(1), q.scale(0));
    }

    #[test]
    fn quantized_eviction_zeroes_shadow_rows_too() {
        let mut a = KvStore::with_precision(2, 2, Precision::Int8);
        a.append(entry(1, 2, 0.9)).unwrap();
        a.evict_slot(0).unwrap();
        a.append(entry(2, 2, 0.4)).unwrap();
        let mut b = KvStore::with_precision(2, 2, Precision::Int8);
        b.append(entry(2, 2, 0.4)).unwrap();
        assert_eq!(a, b, "eviction history must not leak into equality");
    }

    #[test]
    fn eviction_zeroes_arena_rows_for_structural_equality() {
        let mut a = KvStore::new(2, 2);
        a.append(entry(1, 2, 0.9)).unwrap();
        a.evict_slot(0).unwrap();
        a.append(entry(2, 2, 0.4)).unwrap();
        // A store that never held token 1 but has the same logical content.
        let mut b = KvStore::new(2, 2);
        b.append(entry(2, 2, 0.4)).unwrap();
        assert_eq!(a, b, "eviction history must not leak into equality");
    }

    #[test]
    fn clone_shares_pages_and_writes_copy_on_write() {
        let mut a = KvStore::new(4, 2);
        a.append(entry(1, 2, 0.1)).unwrap();
        a.append(entry(2, 2, 0.2)).unwrap();
        let b = a.clone();
        assert_eq!(a.page_refcount(0), 2, "clone must share pages");
        let before_cow = a.arena().stats().cow_copies;
        a.write_slot(0, entry(9, 2, 0.9)).unwrap();
        // The write copied the shared page; the clone is untouched.
        assert_eq!(a.arena().stats().cow_copies, before_cow + 1);
        assert_eq!(a.token_at(0), Some(9));
        assert_eq!(b.token_at(0), Some(1));
        assert_eq!(b.key_at(0).unwrap(), &[0.1, 0.1]);
        assert_eq!(a.page_refcount(0), 1);
        assert_eq!(b.page_refcount(0), 1);
    }

    #[test]
    fn evicting_on_shared_page_copies_before_zeroing() {
        // CoW edge case (satellite): eviction is a mutation like any
        // other — a shared holder must keep the token.
        let mut a = KvStore::with_precision(4, 2, Precision::Int8);
        a.append(entry(1, 2, 0.5)).unwrap();
        let b = a.clone();
        a.evict_slot(0).unwrap();
        assert_eq!(a.token_at(0), None);
        assert_eq!(b.token_at(0), Some(1), "shared holder must keep the row");
        assert_eq!(b.key_at(0).unwrap(), &[0.5, 0.5]);
        assert_ne!(b.quant_keys_view().unwrap().scale(0), 0.0);
        assert!(a.arena().stats().cow_copies >= 1);
    }

    #[test]
    fn dropping_last_holder_returns_pages_to_free_list() {
        // CoW edge case (satellite): refcount reaching zero recycles.
        let arena = PageArena::new(2, 2);
        let pages_for = |cap: usize| cap.div_ceil(2);
        {
            let mut store = KvStore::with_arena(&arena, 4, Precision::F32);
            store.append(entry(1, 2, 0.3)).unwrap();
            assert_eq!(arena.free_pages(), 0);
        }
        assert_eq!(arena.free_pages(), pages_for(4));
        assert_eq!(arena.stats().recycled as usize, pages_for(4));
        // A clone pair only recycles once both are gone.
        let store = KvStore::with_arena(&arena, 2, Precision::F32);
        let twin = store.clone();
        drop(store);
        assert_eq!(arena.free_pages(), pages_for(4) - pages_for(2));
        drop(twin);
        assert_eq!(arena.free_pages(), pages_for(4));
    }

    #[test]
    fn from_shared_prefix_splices_pages_bit_identically() {
        // The prefix is not in token order, so the token index is sorted
        // on splice rather than taken from slot order.
        let prefix = [9usize, 4, 7];
        let arena = PageArena::new(3, 2);
        let mut cold = KvStore::with_arena(&arena, 6, Precision::Cell3Bit);
        for (i, t) in prefix.iter().enumerate() {
            cold.write_slot_parts(i, *t, &[0.1 * (i as f32 + 1.0); 3], &[0.2; 3])
                .unwrap();
        }
        // Cache the pages covering the three prefix rows (2 of 3 pages).
        let shared: Vec<PageHandle> = cold.pages()[..2].to_vec();
        let spliced = KvStore::from_shared_prefix(&arena, 6, Precision::Cell3Bit, &shared, &prefix);
        assert_eq!(spliced, cold, "splice must reproduce the prefix exactly");
        assert_eq!(spliced.len(), 3);
        assert_eq!(
            spliced.iter_tokens().collect::<Vec<_>>(),
            vec![(4, 1), (7, 2), (9, 0)]
        );
        assert_eq!(spliced.slot_of_token(9), Some(0));
        assert_eq!(spliced.slot_of_token(4), Some(1));
        assert_eq!(spliced.slot_of_token(5), None);
        // Shared pages: cold + registry handle + spliced = refcount 3.
        assert_eq!(spliced.page_refcount(0), 3);
        // The tail page was freshly allocated, not shared.
        assert_eq!(spliced.page_refcount(2), 1);
    }

    #[test]
    #[should_panic(expected = "prefix token 4 repeats")]
    fn from_shared_prefix_rejects_a_repeated_token() {
        let arena = PageArena::new(2, 4);
        let shared = vec![arena.alloc()];
        let _ = KvStore::from_shared_prefix(&arena, 4, Precision::F32, &shared, &[4, 9, 4]);
    }

    #[test]
    fn equality_is_logical_across_page_geometries() {
        let coarse = PageArena::new(2, 4);
        let fine = PageArena::new(2, 1);
        let mut a = KvStore::with_arena(&coarse, 3, Precision::Int8);
        let mut b = KvStore::with_arena(&fine, 3, Precision::Int8);
        for s in [&mut a, &mut b] {
            s.append(entry(5, 2, 0.7)).unwrap();
            s.append(entry(6, 2, 0.1)).unwrap();
        }
        assert_eq!(a, b, "page geometry must not affect equality");
        b.evict_slot(1).unwrap();
        assert_ne!(a, b);
    }
}
