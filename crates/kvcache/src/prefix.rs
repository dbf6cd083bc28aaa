//! Shared-prefix registry: content-addressed caching of prefill work so
//! that N sessions decoding against the same system prompt pay for the
//! prompt once.
//!
//! A [`PrefixRegistry`] owns one [`PageArena`] and indexes cached prefill
//! state by a fingerprint of the workload's prefix content (keys, values,
//! and prefill queries — exactly the inputs that determine the prefill
//! attention matrix and the store rows). Two things are cached per prefix:
//!
//! 1. the **prefill attention matrix** (the `O(P²·D)` ranking input every
//!    policy consumes), shared behind an `Arc` so a hit skips the
//!    quadratic recompute entirely, and
//! 2. per `(precision, keep-set)` **variants**: the refcounted page run a
//!    cold prefill wrote its kept rows into. A later session with the
//!    same policy outcome splices those pages into its own table
//!    ([`KvStore::from_shared_prefix`]) — bumping refcounts instead of
//!    re-writing (and re-quantizing) every kept row.
//!
//! # Refcount / copy-on-write invariants
//!
//! The registry holds one [`PageHandle`] per cached page, so a cached
//! page's refcount is `1 + number of sessions spliced onto it`. Sessions
//! never mutate shared pages in place: the paged
//! [`KvStore`](unicaim_attention::KvStore) copies-on-write the moment a
//! decode write or eviction touches a page whose refcount is above 1,
//! which keeps the registry's cached rows bit-stable no matter what the
//! sessions spliced onto them do afterwards.
//!
//! # Eviction story
//!
//! The registry pins at most `max_pages` pages. When registering a new
//! variant pushes it past the budget, whole prefix entries (matrix and
//! all variants) are dropped in least-recently-used order — except the
//! entry just touched — and their handles are returned to the arena.
//! Pages still spliced into live sessions survive (the recycle is a no-op
//! until the last holder drops); fully cold pages go back on the arena's
//! free list zeroed.
//!
//! The budget counts variant pages only. Each resident entry also holds
//! its `P × P` `f32` attention matrix (`4·P²` bytes) and its flattened
//! content (`2 + 3·P·D` words) outside it. For a 512-token prompt at
//! `D = 64` that is 1 MiB + 384 KiB per entry, against about 83 KB for
//! the 9 budgeted pages of one variant (16 rows of `9·D + 4 = 580` bytes
//! each). So `max_pages` bounds the arena, not what the registry holds.
//!
//! # Fingerprint and verification
//!
//! The fingerprint is a 64-bit hash that [`prefix_fingerprint`] computes
//! in place over the workload's key, value and query planes, word by word
//! through four independent multiply lanes, so a lookup costs about one
//! read of the prompt and copies nothing. Each entry stores the prefix
//! content once, flattened to bit patterns, when it is inserted (on a
//! miss). A lookup verifies a hit by comparing those stored words with
//! the planes directly, bit for bit: `+0.0` and `-0.0` differ, and a
//! prompt that contains a NaN hits its own entry.
//!
//! # Collisions
//!
//! A collision (same fingerprint, different content) is counted in
//! [`PrefixStats::collisions`] and reported as a miss that must **not**
//! cache: the caller falls back to a cold prefill and leaves the resident
//! entry untouched.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_attention::{Matrix, PageArena, PageHandle, Precision};

use crate::error::HarnessError;

/// Hit/miss counters of a [`PrefixRegistry`] (monotonic over its
/// lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixStats {
    /// Lookups that found a verified matching prefix.
    pub hits: u64,
    /// Lookups that found no entry under the fingerprint.
    pub misses: u64,
    /// Lookups that found an entry whose content did not match (hash
    /// collision) and fell back to a cold prefill.
    pub collisions: u64,
    /// Whole prefix entries dropped by LRU eviction under page pressure.
    pub evictions: u64,
}

/// The outcome of a matrix lookup, before any policy has run.
pub(crate) enum MatrixLookup {
    /// Verified content match: the cached prefill attention matrix.
    Hit(Arc<Matrix>),
    /// No entry under this fingerprint.
    Miss,
    /// An entry exists under this fingerprint but its content differs —
    /// the caller must do a cold prefill and must not cache the result.
    Collision,
}

/// One cached `(precision, keep-set)` materialization of a prefix.
#[derive(Debug)]
struct Variant {
    precision: Precision,
    kept: Vec<usize>,
    pages: Vec<PageHandle>,
}

/// One cached prefix: fingerprint, exact content for collision
/// verification, the shared attention matrix, and any page-run variants.
#[derive(Debug)]
struct Entry {
    fingerprint: u64,
    content: Vec<u32>,
    attn: Arc<Matrix>,
    variants: Vec<Variant>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Entry>,
    clock: u64,
    cached_pages: usize,
    stats: PrefixStats,
}

/// Content-addressed cache of prefill work, shared across sessions and —
/// through [`ServeCore::with_prefix_registry`](crate::ServeCore::with_prefix_registry)
/// — across tenants of a serving core. Cloning a `PrefixRegistry` clones
/// the *handle*: all clones share one index, one arena, and one set of
/// counters.
///
/// See the module docs for the refcount/CoW invariants, the LRU eviction
/// story, and collision handling.
#[derive(Debug, Clone)]
pub struct PrefixRegistry {
    inner: Arc<Mutex<Inner>>,
    arena: PageArena,
    max_pages: usize,
}

impl PrefixRegistry {
    /// A registry for prefixes of `dim`-wide rows, pinning at most
    /// `max_pages` pages ([`PAGE_ROWS`](unicaim_attention::PAGE_ROWS) rows
    /// each). The budget counts variant pages only: each entry's attention
    /// matrix and flattened content sit outside it (see "Eviction story"
    /// in the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidPrefixConfig`] when `dim == 0` or
    /// `max_pages == 0` (a registry that could never cache anything).
    pub fn new(dim: usize, max_pages: usize) -> Result<Self, HarnessError> {
        if dim == 0 {
            return Err(HarnessError::InvalidPrefixConfig {
                reason: "row dimension of 0".into(),
            });
        }
        if max_pages == 0 {
            return Err(HarnessError::InvalidPrefixConfig {
                reason: "page budget of 0".into(),
            });
        }
        Ok(Self {
            inner: Arc::new(Mutex::new(Inner::default())),
            arena: PageArena::new(dim),
            max_pages,
        })
    }

    /// Row width of every page this registry caches.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// The page arena backing this registry. Sessions prefilled through
    /// the registry draw their pages from it, so splices and cold
    /// prefills share one free list.
    #[must_use]
    pub fn arena(&self) -> &PageArena {
        &self.arena
    }

    /// Number of pages currently pinned by cached variants.
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.locked().cached_pages
    }

    /// Number of distinct prefixes currently resident.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.locked().entries.len()
    }

    /// A snapshot of the hit/miss/collision/eviction counters.
    #[must_use]
    pub fn stats(&self) -> PrefixStats {
        self.locked().stats
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Registry state is valid between every entry/LRU update, so a
        // tenant thread that panicked while holding the lock leaves a
        // usable (at worst slightly stale) registry — recover instead of
        // poisoning every other tenant.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up the cached prefill attention matrix for `workload`'s
    /// prefix under `fingerprint`, verifying the entry's stored content
    /// against the workload's planes bit for bit, in place.
    pub(crate) fn lookup_matrix(
        &self,
        fingerprint: u64,
        workload: &DecodeWorkload,
    ) -> MatrixLookup {
        let mut inner = self.locked();
        let clock = inner.clock + 1;
        inner.clock = clock;
        let Some(entry) = inner
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)
        else {
            inner.stats.misses += 1;
            return MatrixLookup::Miss;
        };
        if !content_matches(&entry.content, workload) {
            inner.stats.collisions += 1;
            return MatrixLookup::Collision;
        }
        entry.last_used = clock;
        let attn = Arc::clone(&entry.attn);
        inner.stats.hits += 1;
        MatrixLookup::Hit(attn)
    }

    /// Caches the prefill attention matrix of `workload`'s freshly
    /// computed prefix, storing its flattened content for later
    /// verification. A no-op if an entry already resides under this
    /// fingerprint (the resident entry wins; colliding content must not
    /// displace it), in which case no content is built.
    pub(crate) fn insert_matrix(
        &self,
        fingerprint: u64,
        workload: &DecodeWorkload,
        attn: Arc<Matrix>,
    ) {
        let mut inner = self.locked();
        if inner.entries.iter().any(|e| e.fingerprint == fingerprint) {
            return;
        }
        let clock = inner.clock + 1;
        inner.clock = clock;
        inner.entries.push(Entry {
            fingerprint,
            content: prefix_content(workload),
            attn,
            variants: Vec::new(),
            last_used: clock,
        });
    }

    /// Returns the cached page run for `(prefix, precision, keep-set)`,
    /// if one was registered, cloning the handles (which bumps each
    /// page's refcount — the splice).
    pub(crate) fn lookup_variant(
        &self,
        fingerprint: u64,
        precision: Precision,
        kept: &[usize],
    ) -> Option<Vec<PageHandle>> {
        let mut inner = self.locked();
        let clock = inner.clock + 1;
        inner.clock = clock;
        let entry = inner
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)?;
        let variant = entry
            .variants
            .iter()
            .find(|v| v.precision == precision && v.kept == kept)?;
        let pages = variant.pages.clone();
        entry.last_used = clock;
        Some(pages)
    }

    /// Registers the page run a cold prefill produced for
    /// `(prefix, precision, keep-set)`, then enforces the page budget by
    /// LRU-evicting other entries. A no-op when the prefix entry is gone
    /// (already evicted) or the variant is already cached.
    pub(crate) fn register_variant(
        &self,
        fingerprint: u64,
        precision: Precision,
        kept: &[usize],
        pages: &[PageHandle],
    ) {
        let mut inner = self.locked();
        let clock = inner.clock + 1;
        inner.clock = clock;
        let Some(entry) = inner
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)
        else {
            return;
        };
        if entry
            .variants
            .iter()
            .any(|v| v.precision == precision && v.kept == kept)
        {
            return;
        }
        entry.last_used = clock;
        entry.variants.push(Variant {
            precision,
            kept: kept.to_vec(),
            pages: pages.to_vec(),
        });
        inner.cached_pages += pages.len();
        self.enforce_budget(&mut inner, fingerprint);
    }

    /// Drops least-recently-used entries (except `protected`) until the
    /// pinned page count fits the budget, returning their handles to the
    /// arena.
    fn enforce_budget(&self, inner: &mut Inner, protected: u64) {
        while inner.cached_pages > self.max_pages {
            let Some(victim) = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.fingerprint != protected)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                // Only the just-touched entry remains: an oversized
                // single prefix stays resident rather than thrashing.
                return;
            };
            let entry = inner.entries.swap_remove(victim);
            for variant in entry.variants {
                inner.cached_pages -= variant.pages.len();
                for page in variant.pages {
                    self.arena.recycle(page);
                }
            }
            inner.stats.evictions += 1;
        }
    }
}

/// The planes a prefix's content covers, in content order.
fn prefix_planes(workload: &DecodeWorkload) -> [&[Vec<f32>]; 3] {
    [
        &workload.prefill_keys,
        &workload.prefill_values,
        &workload.prefill_queries,
    ]
}

/// The two header words that lead a prefix's content: dimension and
/// prefill length.
fn prefix_header(workload: &DecodeWorkload) -> [u32; 2] {
    [
        u32::try_from(workload.dim).unwrap_or(u32::MAX),
        u32::try_from(workload.prefill_keys.len()).unwrap_or(u32::MAX),
    ]
}

/// Number of words in a prefix's content: the two header words plus
/// every element of the key, value and query planes.
#[must_use]
pub(crate) fn prefix_words(workload: &DecodeWorkload) -> usize {
    2 + prefix_planes(workload)
        .into_iter()
        .flatten()
        .map(Vec::len)
        .sum::<usize>()
}

/// A prefix's content flattened to bit patterns: the header, then every
/// row of the key, value and query planes. Built once per entry, on
/// insert.
fn prefix_content(workload: &DecodeWorkload) -> Vec<u32> {
    let mut content = Vec::with_capacity(prefix_words(workload));
    content.extend(prefix_header(workload));
    for row in prefix_planes(workload).into_iter().flatten() {
        content.extend(row.iter().map(|x| x.to_bits()));
    }
    content
}

/// Whether stored `content` is exactly `workload`'s prefix content: same
/// header, same word count, and the same bit pattern in every element.
/// Compares bits, never `f32` values, so `+0.0 != -0.0` and a NaN equals
/// itself. Each row is an OR-fold of XORs with no branch inside it.
fn content_matches(content: &[u32], workload: &DecodeWorkload) -> bool {
    if content.len() != prefix_words(workload) {
        return false;
    }
    let Some((header, mut rest)) = content.split_first_chunk::<2>() else {
        return false;
    };
    if *header != prefix_header(workload) {
        return false;
    }
    for row in prefix_planes(workload).into_iter().flatten() {
        let Some((stored, tail)) = rest.split_at_checked(row.len()) else {
            return false;
        };
        let diff = stored
            .iter()
            .zip(row)
            .fold(0, |acc, (&word, x)| acc | (word ^ x.to_bits()));
        if diff != 0 {
            return false;
        }
        rest = tail;
    }
    true
}

/// Independent hash lanes of [`prefix_fingerprint`]. Each lane's chain of
/// multiplies runs alongside the others', so the hash is bound by
/// multiply throughput rather than latency.
const LANES: usize = 4;

/// The two odd multipliers of a lane step (xxHash64's first two primes).
const LANE_MUL: u64 = 0x9E37_79B1_85EB_CA87;
const INPUT_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One lane step: multiply the input, xor it in, rotate, multiply. Each
/// step is a bijection of the lane state for a fixed input and of the
/// input for a fixed state, so changing any one input word always changes
/// its lane. Multiplying the input before the xor matters: with a bare
/// `lane ^ x`, a flip of an input's top bit leaves the state differing in
/// a single bit that a later input (or the fold of another lane) can
/// cancel exactly.
fn lane_step(lane: u64, x: u64) -> u64 {
    (lane ^ x.wrapping_mul(INPUT_MUL))
        .rotate_left(31)
        .wrapping_mul(LANE_MUL)
}

/// A chunk of one or two row elements as one `u64` lane input, the first
/// element in the low half.
fn pair_word(chunk: &[f32]) -> u64 {
    chunk
        .iter()
        .rev()
        .fold(0, |word, x| (word << 32) | u64::from(x.to_bits()))
}

/// The content fingerprint of a workload's prefix: a 64-bit hash over
/// the dimension, the prefill length and the exact bit patterns of the
/// prefill keys, values and queries, read in place.
///
/// Each plane mixes a tag and its row count into every lane; each row is
/// fed as word pairs (`u64`) to [`LANES`] lanes in turn, and the lanes are
/// folded together with the same step. Nothing persists a fingerprint and
/// every hit is verified against the stored content, so the hash only has
/// to keep distinct prefixes apart: a collision caches nothing.
#[must_use]
pub(crate) fn prefix_fingerprint(workload: &DecodeWorkload) -> u64 {
    let [dim, prefill_len] = prefix_header(workload);
    let header = u64::from(dim) | (u64::from(prefill_len) << 32);
    let mut lanes: [u64; LANES] =
        std::array::from_fn(|i| lane_step(LANE_MUL.wrapping_mul(i as u64 + 1), header));
    for (tag, plane) in (1u64..).zip(prefix_planes(workload)) {
        let plane_tag = (tag << 32) | plane.len() as u64;
        for lane in &mut lanes {
            *lane = lane_step(*lane, plane_tag);
        }
        for row in plane {
            let mut blocks = row.chunks_exact(2 * LANES);
            for block in &mut blocks {
                for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
                    *lane = lane_step(*lane, pair_word(pair));
                }
            }
            // Fewer than 2·LANES words remain: chunk `i` of them (a pair,
            // or an odd last word) goes to lane `i`.
            for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
                *lane = lane_step(*lane, pair_word(chunk));
            }
        }
    }
    lanes[1..]
        .iter()
        .fold(lanes[0], |hash, &lane| lane_step(hash, lane))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use unicaim_attention::workloads::needle_task;
    use unicaim_attention::PAGE_ROWS;

    fn matrix() -> Arc<Matrix> {
        Arc::new(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]))
    }

    /// A prefix of `tokens` rows, `dim` wide, whose elements are all
    /// distinct and depend on `seed`. No decode steps: these tests only
    /// look at the prefix, and stay small enough for Miri.
    fn sized_prefix(seed: u16, dim: u16, tokens: u16) -> DecodeWorkload {
        let plane = |p: u16| -> Vec<Vec<f32>> {
            (0..tokens)
                .map(|t| {
                    (0..dim)
                        .map(|i| f32::from(((seed * 3 + p) * tokens + t) * dim + i))
                        .collect()
                })
                .collect()
        };
        DecodeWorkload {
            name: "tiny".into(),
            dim: dim.into(),
            prefill_keys: plane(0),
            prefill_values: plane(1),
            prefill_queries: plane(2),
            decode_queries: Vec::new(),
            decode_keys: Vec::new(),
            decode_values: Vec::new(),
            salient_at: Vec::new(),
            answer_steps: Vec::new(),
        }
    }

    /// A 2-token, 2-wide prefix.
    fn prefix(seed: u16) -> DecodeWorkload {
        sized_prefix(seed, 2, 2)
    }

    fn plane_mut(w: &mut DecodeWorkload, plane: usize) -> &mut Vec<Vec<f32>> {
        match plane {
            0 => &mut w.prefill_keys,
            1 => &mut w.prefill_values,
            _ => &mut w.prefill_queries,
        }
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(matches!(
            PrefixRegistry::new(0, 4),
            Err(HarnessError::InvalidPrefixConfig { .. })
        ));
        assert!(matches!(
            PrefixRegistry::new(8, 0),
            Err(HarnessError::InvalidPrefixConfig { .. })
        ));
    }

    #[test]
    fn matrix_hits_after_insert_and_counts() {
        let reg = PrefixRegistry::new(2, 4).unwrap();
        let w = prefix(1);
        assert!(matches!(reg.lookup_matrix(7, &w), MatrixLookup::Miss));
        reg.insert_matrix(7, &w, matrix());
        let MatrixLookup::Hit(attn) = reg.lookup_matrix(7, &w) else {
            panic!("expected a hit");
        };
        assert_eq!(attn.row(1), &[0.5, 0.5]);
        let stats = reg.stats();
        assert_eq!((stats.misses, stats.hits, stats.collisions), (1, 1, 0));
    }

    #[test]
    fn same_hash_different_content_is_a_collision() {
        let reg = PrefixRegistry::new(2, 4).unwrap();
        reg.insert_matrix(7, &prefix(1), matrix());
        // Same fingerprint, different exact content: must not hit, and
        // must not displace the resident entry.
        assert!(matches!(
            reg.lookup_matrix(7, &prefix(2)),
            MatrixLookup::Collision
        ));
        assert_eq!(reg.stats().collisions, 1);
        assert!(matches!(
            reg.lookup_matrix(7, &prefix(1)),
            MatrixLookup::Hit(_)
        ));
    }

    #[test]
    fn verification_compares_bit_patterns() {
        const NAN_A: u32 = 0x7fc0_0001;
        const NAN_B: u32 = 0x7fc0_0002;
        // Element 0 of each plane's first row is +0.0, element 1 a NaN.
        let mut base = prefix(1);
        for plane in 0..3 {
            let row = &mut plane_mut(&mut base, plane)[0];
            row[0] = 0.0;
            row[1] = f32::from_bits(NAN_A);
        }
        let reg = PrefixRegistry::new(2, 4).unwrap();
        reg.insert_matrix(7, &base, matrix());
        // A prompt that contains a NaN hits its own entry.
        assert!(matches!(reg.lookup_matrix(7, &base), MatrixLookup::Hit(_)));
        // One element of one plane changed to a value `==` cannot tell
        // apart (+0.0 → −0.0) or to another NaN payload: never a hit.
        for plane in 0..3 {
            for (col, bits) in [(0, (-0.0f32).to_bits()), (1, NAN_B)] {
                let mut probe = base.clone();
                plane_mut(&mut probe, plane)[0][col] = f32::from_bits(bits);
                assert!(
                    matches!(reg.lookup_matrix(7, &probe), MatrixLookup::Collision),
                    "plane {plane}, element {col}"
                );
            }
        }
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.collisions), (1, 6));
    }

    #[test]
    fn same_words_in_another_shape_do_not_hit() {
        let base = prefix(1);
        let rows: Vec<Vec<f32>> = prefix_planes(&base).concat();
        // Same rows under another declared dimension.
        let mut relabelled = base.clone();
        relabelled.dim = 3;
        // Same 2-wide rows, re-split so the prefill length differs.
        let mut resplit = base.clone();
        resplit.prefill_keys = rows[..1].to_vec();
        resplit.prefill_values = rows[1..3].to_vec();
        resplit.prefill_queries = rows[3..].to_vec();
        // Same words as one 4-wide row per plane.
        let mut widened = base.clone();
        widened.dim = 4;
        for plane in 0..3 {
            let row = plane_mut(&mut widened, plane).concat();
            *plane_mut(&mut widened, plane) = vec![row];
        }
        let reg = PrefixRegistry::new(2, 4).unwrap();
        reg.insert_matrix(7, &base, matrix());
        for probe in [&relabelled, &resplit, &widened] {
            assert_eq!(prefix_content(probe)[2..], prefix_content(&base)[2..]);
            assert!(matches!(
                reg.lookup_matrix(7, probe),
                MatrixLookup::Collision
            ));
        }
        assert!(matches!(reg.lookup_matrix(7, &base), MatrixLookup::Hit(_)));
    }

    /// A prompt four rows longer than one page, and the keep set and two
    /// fresh pages of its full-prompt variant.
    fn two_page_variant(
        reg: &PrefixRegistry,
        seed: u16,
    ) -> (DecodeWorkload, Vec<usize>, Vec<PageHandle>) {
        let w = sized_prefix(seed, 2, PAGE_ROWS as u16 + 4);
        let kept: Vec<usize> = (0..w.prefill_keys.len()).collect();
        let pages = vec![reg.arena().alloc(), reg.arena().alloc()];
        (w, kept, pages)
    }

    #[test]
    fn variant_lookup_bumps_refcounts() {
        let reg = PrefixRegistry::new(2, 8).unwrap();
        let (w, kept, pages) = two_page_variant(&reg, 1);
        reg.insert_matrix(1, &w, matrix());
        reg.register_variant(1, Precision::F32, &kept, &pages);
        assert_eq!(reg.cached_pages(), 2);
        let spliced = reg
            .lookup_variant(1, Precision::F32, &kept)
            .expect("variant was registered");
        // caller's handle + registry's + the fresh clone
        assert_eq!(std::sync::Arc::strong_count(&pages[0]), 3);
        assert_eq!(spliced.len(), 2);
        // A different keep set or precision is a distinct variant.
        assert!(reg.lookup_variant(1, Precision::F32, &kept[1..]).is_none());
        assert!(reg.lookup_variant(1, Precision::Int8, &kept).is_none());
    }

    #[test]
    fn lru_eviction_recycles_cold_pages() {
        // Room for two of the three two-page variants.
        let reg = PrefixRegistry::new(2, 4).unwrap();
        let register = |seed: u16| {
            let (w, kept, pages) = two_page_variant(&reg, seed);
            let fingerprint = u64::from(seed);
            reg.insert_matrix(fingerprint, &w, matrix());
            reg.register_variant(fingerprint, Precision::F32, &kept, &pages);
            w
        };
        let first = register(1);
        let second = register(2);
        assert_eq!(reg.cached_pages(), 4);
        // Touch prefix 1 so prefix 2 is the LRU victim.
        assert!(matches!(reg.lookup_matrix(1, &first), MatrixLookup::Hit(_)));
        register(3);
        assert_eq!(reg.cached_pages(), 4);
        assert_eq!(reg.entries(), 2);
        assert_eq!(reg.stats().evictions, 1);
        // Prefix 2's pages had no other holders: they went back zeroed.
        assert_eq!(reg.arena().free_pages(), 2);
        assert!(matches!(reg.lookup_matrix(2, &second), MatrixLookup::Miss));
        assert!(matches!(reg.lookup_matrix(1, &first), MatrixLookup::Hit(_)));
    }

    #[test]
    fn oversized_protected_entry_is_not_evicted() {
        let reg = PrefixRegistry::new(2, 1).unwrap();
        let (w, kept, pages) = two_page_variant(&reg, 1);
        reg.insert_matrix(1, &w, matrix());
        reg.register_variant(1, Precision::F32, &kept, &pages);
        // Two pages pinned against a budget of one, but the entry that
        // was just touched is protected: it stays rather than thrashing.
        assert_eq!(reg.cached_pages(), 2);
        assert_eq!(reg.entries(), 1);
        assert_eq!(reg.stats().evictions, 0);
    }

    #[test]
    fn fingerprint_separates_prefix_content() {
        let a = needle_task(24, 6, 11);
        let b = needle_task(24, 6, 12);
        let (fp_a, content_a) = (prefix_fingerprint(&a), prefix_content(&a));
        let (fp_a2, content_a2) = (prefix_fingerprint(&a), prefix_content(&a));
        let (fp_b, content_b) = (prefix_fingerprint(&b), prefix_content(&b));
        assert_eq!(fp_a, fp_a2);
        assert_eq!(content_a, content_a2);
        assert_ne!(fp_a, fp_b);
        assert_ne!(content_a, content_b);
        assert_eq!(content_a.len(), prefix_words(&a));
        assert!(content_matches(&content_a, &a));
        assert!(!content_matches(&content_a, &b));
        // Decode-side content is deliberately excluded: only the prefix
        // determines the fingerprint.
        let mut c = a.clone();
        c.decode_queries[0][0] += 1.0;
        assert_eq!(prefix_fingerprint(&c), fp_a);
    }

    #[test]
    fn every_single_word_flip_moves_the_fingerprint() {
        // 11-wide rows cross every path of the lane feed: one full block
        // of four pairs, one leftover pair and one odd word.
        let base = sized_prefix(1, 11, 2);
        let mut seen = BTreeSet::from([prefix_fingerprint(&base)]);
        let mut probes = 1;
        for plane in 0..3 {
            for row in 0..2 {
                for col in 0..11 {
                    for mask in [1, 1 << 31] {
                        let mut probe = base.clone();
                        let x = &mut plane_mut(&mut probe, plane)[row][col];
                        *x = f32::from_bits(x.to_bits() ^ mask);
                        seen.insert(prefix_fingerprint(&probe));
                        probes += 1;
                    }
                }
            }
        }
        assert_eq!(seen.len(), probes);
    }
}
