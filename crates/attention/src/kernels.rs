//! Flat-layout compute kernels for the decode hot path.
//!
//! Every hot loop in the decode pipeline — prefill attention, per-step
//! scoring, exact attention over a selection, and top-k selection — runs
//! over contiguous row-major arenas through this module instead of
//! pointer-chasing `Vec<Vec<f32>>` layouts. The kernels are deliberately
//! allocation-free: callers pass output slices and reusable scratch
//! buffers, so the kernels add no heap traffic to a decode step.
//!
//! Layout convention: a [`RowView`] describes `n` logical rows of `dim`
//! contiguous `f32`s inside a flat buffer, with consecutive rows `stride`
//! elements apart (`stride >= dim`). A plain matrix is `stride == dim`; a
//! per-head slice of a multi-head projection is `stride == d_model`,
//! `dim == d_head`, with the head offset folded into the buffer slice.
//!
//! The kernels themselves are generic over the [`Rows`] / [`QuantRows`]
//! access traits: every row is one contiguous slice, but consecutive rows
//! need not be — the paged views
//! ([`PagedRows`](crate::paged::PagedRows),
//! [`PagedQuantRows`](crate::paged::PagedQuantRows)) resolve each logical
//! row into its page, so the same gather/attend kernels walk flat arenas
//! and non-contiguous page tables alike (scalar parity between the two is
//! property-tested).
//!
//! Ordering convention: all top-k selection in this module uses
//! [`f32::total_cmp`] with an explicit ascending-index tie-break, so
//! rankings are total and deterministic even in the presence of NaN
//! (NaN sorts as the largest value, per IEEE 754 `totalOrder`).
//!
//! # Backend dispatch and the determinism contract
//!
//! Every kernel in the menu is a method on [`KernelBackend`], so the tier
//! a call runs on is always named: `backend.dot_gather(…)`. Library
//! callers call the methods on [`active_backend`], the tier detected once
//! per process (`is_x86_feature_detected!`, overridable with
//! `UNICAIM_KERNEL_BACKEND=scalar|avx2`); the parity tests call them on
//! every tier to pin each against scalar. Five free functions
//! ([`dot_gather`], [`dot_gather_q`], [`attend_gather`],
//! [`attend_gather_q`], [`quantize_row_i8`]) are one-line calls of their
//! method on [`active_backend`]. The contract:
//!
//! * **Integer paths are bit-exact across every tier.**
//!   [`KernelBackend::dot_i8`] widens `i8 → i16 → i32` with no rounding,
//!   so the quantized scoring kernels' integer accumulation produces
//!   identical bits on scalar and AVX2.
//! * **The quantizers are shared scalar code.**
//!   [`KernelBackend::quantize_row_i8`] and
//!   [`KernelBackend::quantize_row_cell3`] run the same code on every
//!   tier, so their levels and scales are bit-exact across tiers for every
//!   input, NaN and ±∞ included.
//! * **f32 paths are bounded-ulp and stable for a fixed tier.** The
//!   AVX2+FMA tier fuses multiply-add, skipping the per-product rounding:
//!   for a length-`n` dot,
//!   `|dot_avx2 − dot_scalar| ≤ 2·n·ε·Σ|aᵢ·bᵢ|` with `ε = 2⁻²⁴` (each
//!   path's forward error versus the exact sum is at most `n·ε·Σ|aᵢ·bᵢ|`
//!   to first order — standard recursive-summation analysis — and FMA
//!   only removes rounding steps). Softmax is shared scalar code on every
//!   tier. For a fixed tier, every kernel is deterministic: same inputs,
//!   same bits, run to run.
//! * **Row blocking does not change bits.** The f32 score and
//!   weighted-sum kernels walk their rows eight at a time through a
//!   per-tier block primitive and finish the last `n % 8` rows one at a
//!   time. Every block primitive keeps each row's floating-point
//!   operations in the per-row kernel's order, so a score or output
//!   element is the same whichever block its row falls in, and a fixed
//!   tier gives the same bits as it did with one call per row (pinned
//!   against an exact per-row model in `tests/simd_parity.rs`).
//! * **Query grouping does not change bits.** Both prefill products are
//!   staircases: within a run of consecutive queries, query `j` attends
//!   rows `0..first + j`. [`KernelBackend::probs_staircase`] gives the
//!   causal prompt matrix (`first = 1`) and
//!   [`KernelBackend::attend_staircase`] the exact attention of every
//!   decode step (`first` = prompt length). Both walk their queries in
//!   groups of `BLOCK`, so each row the whole group attends is read once
//!   per group instead of once per query. Scores run the block dot with
//!   the roles swapped: the key row is the fixed operand and the group's
//!   eight queries are the block's rows. `dot(k, q)` has the bits of
//!   `dot(q, k)` on both tiers, because every product commutes bit for bit
//!   (fused or not) and the lane partition, the lane reduction order and
//!   the unfused tail depend only on the element index. The weighted sum
//!   runs through the tier's staircase primitive, which applies each
//!   query's rows in order, as the per-query path does. A final partial
//!   group, and each query's rows beyond its group's shared prefix, take
//!   the per-query path. Every output therefore has the bits of one
//!   `dot_prefix` plus `softmax_in_place`, or one `attend_prefix`, per
//!   query (pinned in `tests/simd_parity.rs` and the workspace's
//!   `tests/prefill_staircase.rs`).

use std::sync::OnceLock;

use crate::matrix::softmax_in_place;

/// Environment variable forcing a kernel tier
/// (`scalar` or `avx2`); empty or unset means "detect".
/// Unknown or unsupported values warn on stderr and fall back to the
/// detected tier. Read once per process — changing it after the first
/// kernel call has no effect.
pub const BACKEND_ENV: &str = "UNICAIM_KERNEL_BACKEND";

/// A SIMD tier the kernel layer can dispatch to: the scalar reference or
/// AVX2 + FMA. There is no SSE2 tier: the compiler already vectorizes the
/// scalar kernels for the x86-64 baseline.
///
/// The kernels are its methods. Tiers are strictly host-gated:
/// [`KernelBackend::detect`] picks the best tier the CPU supports, and a
/// kernel method called on an unsupported tier runs the scalar kernels,
/// so an unsupported instruction can never be reached. A [`BACKEND_ENV`]
/// request for an unsupported tier does not clamp to scalar:
/// [`active_backend`] warns and falls back to the detected tier. On
/// non-x86_64 hosts (e.g. aarch64, where a NEON tier is a future
/// extension) every tier except scalar reports unsupported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar kernels — the reference semantics for every tier.
    Scalar,
    /// AVX2 + FMA: fused f32 paths, bounded-ulp versus scalar.
    Avx2,
}

impl KernelBackend {
    /// Every tier, scalar first.
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

    /// The best tier this CPU supports, detected via
    /// `is_x86_feature_detected!` (AVX2 requires FMA too; non-x86_64
    /// hosts always detect scalar).
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return KernelBackend::Avx2;
            }
        }
        KernelBackend::Scalar
    }

    /// Stable lowercase name (also the [`BACKEND_ENV`] spelling).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a [`BACKEND_ENV`] value (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "avx2" => Some(KernelBackend::Avx2),
            _ => None,
        }
    }

    /// Whether this CPU can run the tier.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tiers this CPU supports, scalar first — what the parity tests
    /// iterate.
    #[must_use]
    pub fn supported() -> Vec<Self> {
        Self::ALL.into_iter().filter(|b| b.is_supported()).collect()
    }

    /// Clamps an unsupported tier to scalar so dispatch can never select
    /// an instruction set the CPU lacks.
    fn clamp(self) -> Self {
        if self.is_supported() {
            self
        } else {
            KernelBackend::Scalar
        }
    }
}

/// The process-wide kernel tier: [`BACKEND_ENV`] if set and valid,
/// otherwise [`KernelBackend::detect`]. Resolved once and cached — the
/// tier library code calls the kernel methods on.
#[must_use]
pub fn active_backend() -> KernelBackend {
    static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var(BACKEND_ENV) {
        Ok(raw) if !raw.trim().is_empty() => {
            let name = raw.trim();
            let detected = KernelBackend::detect();
            match KernelBackend::from_name(name) {
                Some(requested) if requested.is_supported() => requested,
                Some(requested) => {
                    eprintln!(
                        "warning: {BACKEND_ENV}={name} requests the {} tier, which this CPU \
                         does not support; using detected tier {}",
                        requested.label(),
                        detected.label()
                    );
                    detected
                }
                None => {
                    eprintln!(
                        "warning: {BACKEND_ENV}={name} is not one of scalar|avx2; \
                         using detected tier {}",
                        detected.label()
                    );
                    detected
                }
            }
        }
        _ => KernelBackend::detect(),
    })
}

// ---------------------------------------------------------------------
// Primitive dispatch: each tier supplies six primitives (f32 dot, i8 dot,
// axpy, the eight-row f32 dot and axpy blocks, and the eight-query axpy of
// a staircase group); everything else in the menu is composed from them
// plus shared scalar code, so the parity argument stays small.
// ---------------------------------------------------------------------

type DotF32Fn = fn(&[f32], &[f32]) -> f32;
type DotF32BlockFn = fn(&[f32], [&[f32]; BLOCK]) -> [f32; BLOCK];
type DotI8Fn = fn(&[i8], &[i8]) -> i32;
type AxpyFn = fn(f32, &[f32], &mut [f32]);
type AxpyBlockFn = fn(&[f32; BLOCK], &[&[f32]; BLOCK], &mut [f32]);
type AxpyQueriesFn = fn(&[[f32; BLOCK]], &[&[f32]], &mut [f32]);

fn dot_f32_fn(backend: KernelBackend) -> DotF32Fn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::dot_f32_avx2,
        _ => dot_scalar,
    }
}

fn dot_f32_block_fn(backend: KernelBackend) -> DotF32BlockFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::dot_f32_block_avx2,
        _ => |a, rows| rows.map(|b| dot_scalar(a, b)),
    }
}

fn dot_i8_fn(backend: KernelBackend) -> DotI8Fn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::dot_i8_avx2,
        _ => dot_i8_scalar,
    }
}

fn axpy_fn(backend: KernelBackend) -> AxpyFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => |w, x, out| crate::simd::axpy_rows_avx2(&[w], &[x], out),
        _ => axpy_scalar,
    }
}

fn axpy_block_fn(backend: KernelBackend) -> AxpyBlockFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::axpy_rows_avx2,
        _ => |ws, xs, out| {
            for (&w, x) in ws.iter().zip(xs) {
                axpy_scalar(w, x, out);
            }
        },
    }
}

fn axpy_queries_fn(backend: KernelBackend) -> AxpyQueriesFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::axpy_queries_avx2,
        _ => axpy_queries_scalar,
    }
}

/// A borrowed view of row-major `f32` rows inside a flat buffer.
///
/// Row `r` is `data[r * stride .. r * stride + dim]`. The view itself does
/// not fix a row count; accessors bound-check through the underlying slice.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    data: &'a [f32],
    stride: usize,
    dim: usize,
}

impl<'a> RowView<'a> {
    /// Creates a view with the given row stride and logical row width.
    ///
    /// # Panics
    ///
    /// Panics if `dim > stride`, or if `stride == 0` while `dim != 0`.
    #[must_use]
    pub fn new(data: &'a [f32], stride: usize, dim: usize) -> Self {
        assert!(
            dim <= stride || dim == 0,
            "row dim {dim} exceeds stride {stride}"
        );
        assert!(stride > 0 || dim == 0, "zero stride with nonzero dim");
        Self { data, stride, dim }
    }

    /// A contiguous view (`stride == dim`).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`: a zero-dim contiguous view would give every
    /// row the same empty slice, silently aliasing all rows instead of
    /// surfacing the degenerate shape at the call site.
    #[must_use]
    pub fn contiguous(data: &'a [f32], dim: usize) -> Self {
        assert!(dim > 0, "contiguous RowView requires dim > 0");
        Self::new(data, dim, dim)
    }

    /// Logical row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Elements between consecutive row starts.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the underlying buffer.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.stride..r * self.stride + self.dim]
    }
}

/// Row-addressable `f32` rows: the access contract the gather/attend
/// kernels read keys and values through. Each row is one contiguous
/// slice of length [`Rows::dim`], but consecutive rows need not be
/// adjacent in memory — the flat [`RowView`] strides through one buffer
/// while the paged [`PagedRows`](crate::paged::PagedRows) resolves each
/// row into its page. Implementations are cheap `Copy` views, so kernels
/// take them by value.
pub trait Rows: Copy {
    /// Logical row width.
    fn dim(&self) -> usize;
    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the underlying storage.
    fn row(&self, r: usize) -> &[f32];
}

impl Rows for RowView<'_> {
    fn dim(&self) -> usize {
        RowView::dim(self)
    }
    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        RowView::row(self, r)
    }
}

/// The quantized twin of [`Rows`]: row-addressable `i8` levels with one
/// `f32` dequantization scale per row. Implemented by the flat
/// [`QuantRowView`] and the paged
/// [`PagedQuantRows`](crate::paged::PagedQuantRows).
pub trait QuantRows: Copy {
    /// Logical row width.
    fn dim(&self) -> usize;
    /// Borrow the integer levels of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the underlying storage.
    fn row(&self, r: usize) -> &[i8];
    /// The dequantization scale of row `r` (`value = scale · level`).
    ///
    /// # Panics
    ///
    /// Panics if `r` addresses past the underlying storage.
    fn scale(&self, r: usize) -> f32;
}

impl QuantRows for QuantRowView<'_> {
    fn dim(&self) -> usize {
        QuantRowView::dim(self)
    }
    #[inline]
    fn row(&self, r: usize) -> &[i8] {
        QuantRowView::row(self, r)
    }
    #[inline]
    fn scale(&self, r: usize) -> f32 {
        QuantRowView::scale(self, r)
    }
}

/// Number of independent accumulators in [`KernelBackend::dot`]. Wide enough for the
/// compiler to keep the loop in vector registers; the AVX2 tier keeps the
/// same 8-lane accumulator partition so its reduction lines up with
/// scalar (see the module docs).
pub(crate) const LANES: usize = 8;

/// `i8` elements per step of [`KernelBackend::dot_i8`]: the scalar
/// kernel's `i32` lane count and the AVX2 kernel's load width. Sixteen
/// lanes let the compiler turn the scalar loop into one 16-byte
/// `pmaddwd` step, as a hand-written SSE2 kernel would.
pub(crate) const I8_STRIDE: usize = 16;

/// Rows per call of a tier's block primitives: the f32 row kernels walk
/// their rows in blocks of `BLOCK` and finish the last `n % BLOCK` one at
/// a time.
pub(crate) const BLOCK: usize = 8;

/// Value rows per call of a tier's staircase weighted-sum primitive: a
/// staircase group walks its shared rows in tiles of `ROW_TILE`, so the
/// group's accumulators stay in registers across a whole tile.
pub(crate) const ROW_TILE: usize = 64;

/// Scalar f32 dot with `LANES` independent accumulators — the reference
/// semantics every tier's f32 dot is measured against. Walking exact
/// chunks lets the compiler drop the per-chunk bounds checks and keep the
/// accumulators in two SSE2 registers; `#[inline]` lets the scalar block
/// primitive inline its eight calls.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (a[..n].chunks_exact(LANES), b[..n].chunks_exact(LANES));
    let (a_tail, b_tail) = (a.remainder(), b.remainder());
    let mut acc = [0.0f32; LANES];
    for (ax, bx) in a.zip(b) {
        for (acc, (x, y)) in acc.iter_mut().zip(ax.iter().zip(bx)) {
            *acc += x * y;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    acc.iter().sum::<f32>() + tail
}

/// Scalar `out[i] += w · x[i]` — the reference semantics for every tier's
/// weighted-sum accumulation.
fn axpy_scalar(w: f32, x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += w * v;
    }
}

/// The scalar tier's staircase weighted sum: its per-row axpy, once per
/// query of the group. `outs` holds the `BLOCK` outputs back to back and
/// `ws[r][q]` is query `q`'s weight on row `xs[r]`.
fn axpy_queries_scalar(ws: &[[f32; BLOCK]], xs: &[&[f32]], outs: &mut [f32]) {
    let dim = outs.len() / BLOCK;
    if dim == 0 {
        return;
    }
    for (q, out) in outs.chunks_exact_mut(dim).enumerate() {
        for (w, x) in ws.iter().zip(xs) {
            axpy_scalar(w[q], x, out);
        }
    }
}

/// Scalar max-abs fold — the quantizers' range pass on every tier.
/// `f32::max` returns its non-NaN operand, so a NaN element is skipped.
fn maxabs_scalar(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// The f32 kernel menu. Every method runs on the tier it is called on:
/// library code calls it on [`active_backend`], the parity tests on each
/// tier they iterate.
impl KernelBackend {
    /// Dot product with `LANES` independent accumulators (reassociated
    /// summation — results can differ from a strictly sequential sum in the
    /// last bits, which every consumer tolerates at ≤1e-5 relative error).
    /// AVX2 is within `2·n·ε·Σ|aᵢ·bᵢ|` of scalar (`ε = 2⁻²⁴`; module docs
    /// derive the bound).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if lengths differ; release builds truncate to
    /// the shorter slice.
    #[inline]
    #[must_use]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        dot_f32_fn(self)(a, b)
    }

    /// Scaled dots of `query` against rows `0..out.len()` of `keys`:
    /// `out[r] = scale · (query · keys[r])`.
    ///
    /// # Panics
    ///
    /// Panics if a row extends past the key buffer.
    pub fn dot_prefix<K: Rows>(self, query: &[f32], keys: K, scale: f32, out: &mut [f32]) {
        self.dot_rows(query, |r| keys.row(r), scale, out);
    }

    /// Scaled dots of `query` against the gathered `rows` of `keys`:
    /// `out[i] = scale · (query · keys[rows[i]])`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len()` or a row is out of range.
    pub fn dot_gather<K: Rows>(
        self,
        query: &[f32],
        keys: K,
        rows: &[usize],
        scale: f32,
        out: &mut [f32],
    ) {
        assert_eq!(rows.len(), out.len(), "gather output length mismatch");
        self.dot_rows(query, |i| keys.row(rows[i]), scale, out);
    }

    /// `out[i] = scale · (query · row(i))`: full blocks of `BLOCK` rows
    /// through the tier's block dot, then the rest one row at a time. The
    /// block dot keeps each row's operations in the per-row order, so
    /// every score is the same wherever the block boundaries fall.
    fn dot_rows<'r>(
        self,
        query: &[f32],
        row: impl Fn(usize) -> &'r [f32],
        scale: f32,
        out: &mut [f32],
    ) {
        let (dot, dot_block) = (dot_f32_fn(self), dot_f32_block_fn(self));
        let done = out.len() - out.len() % BLOCK;
        let (blocks, tail) = out.split_at_mut(done);
        for (b, block) in blocks.chunks_exact_mut(BLOCK).enumerate() {
            let dots = dot_block(query, std::array::from_fn(|i| row(b * BLOCK + i)));
            for (o, d) in block.iter_mut().zip(dots) {
                *o = d * scale;
            }
        }
        for (i, o) in tail.iter_mut().enumerate() {
            *o = dot(query, row(done + i)) * scale;
        }
    }

    /// Accumulates `out += Σ weights[i] · values[rows[i]]` over gathered rows
    /// (callers zero `out` first; [`KernelBackend::attend_gather`] does).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.dim()` or lengths disagree.
    pub fn weighted_sum_gather<V: Rows>(
        self,
        weights: &[f32],
        values: V,
        rows: &[usize],
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), values.dim(), "output/value dimension mismatch");
        assert_eq!(weights.len(), rows.len(), "weight/row count mismatch");
        self.weighted_sum_rows(weights, |i| values.row(rows[i]), out);
    }

    /// Accumulates `out += Σ weights[r] · values[r]` over rows
    /// `0..weights.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.dim()`.
    fn weighted_sum_prefix<V: Rows>(self, weights: &[f32], values: V, out: &mut [f32]) {
        assert_eq!(out.len(), values.dim(), "output/value dimension mismatch");
        self.weighted_sum_rows(weights, |r| values.row(r), out);
    }

    /// `out += Σ weights[i] · row(i)`, in the same shape as `dot_rows`:
    /// full blocks of `BLOCK` rows through the tier's block axpy, then the
    /// rest one row at a time. Each output element takes its rows in order
    /// either way.
    fn weighted_sum_rows<'r>(
        self,
        weights: &[f32],
        row: impl Fn(usize) -> &'r [f32],
        out: &mut [f32],
    ) {
        let (axpy, axpy_block) = (axpy_fn(self), axpy_block_fn(self));
        let done = weights.len() - weights.len() % BLOCK;
        let (blocks, tail) = weights.split_at(done);
        for (b, block) in blocks.chunks_exact(BLOCK).enumerate() {
            let w = std::array::from_fn(|i| block[i]);
            axpy_block(&w, &std::array::from_fn(|i| row(b * BLOCK + i)), out);
        }
        for (i, &w) in tail.iter().enumerate() {
            axpy(w, row(done + i), out);
        }
    }

    /// Fused gather → score → softmax → weighted-sum attention over the
    /// gathered `rows`: `out = softmax(scale · q·Kᵀ) · V`, writing into `out`
    /// and reusing `weights` as scratch. An empty gather writes a zero
    /// vector. Softmax is shared scalar code on every tier.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_gather<K: Rows, V: Rows>(
        self,
        query: &[f32],
        keys: K,
        values: V,
        rows: &[usize],
        scale: f32,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(query.len(), keys.dim(), "query/key dimension mismatch");
        out.fill(0.0);
        if rows.is_empty() {
            return;
        }
        weights.clear();
        weights.resize(rows.len(), 0.0);
        self.dot_gather(query, keys, rows, scale, weights);
        softmax_in_place(weights);
        self.weighted_sum_gather(weights, values, rows, out);
    }

    /// Fused attention over the contiguous row prefix `0..n` (the causal
    /// "attend to everything so far" step): `out = softmax(scale · q·Kᵀ) · V`.
    /// `n == 0` writes a zero vector.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_prefix<K: Rows, V: Rows>(
        self,
        query: &[f32],
        keys: K,
        values: V,
        n: usize,
        scale: f32,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(query.len(), keys.dim(), "query/key dimension mismatch");
        out.fill(0.0);
        if n == 0 {
            return;
        }
        weights.clear();
        weights.resize(n, 0.0);
        self.dot_prefix(query, keys, scale, weights);
        softmax_in_place(weights);
        self.weighted_sum_prefix(weights, values, out);
    }

    /// Causal attention probabilities of a staircase of `n` queries: query
    /// `j` (`queries.row(j)`) scores key rows `0..first + j`, and row `j`
    /// of `out` (rows `out_stride` apart) receives
    /// `softmax(scale · q_j·Kᵀ)` in its first `first + j` elements; the
    /// rest of the row is left as it was. A causal prompt matrix is
    /// `first = 1`, `out_stride = n`.
    ///
    /// Every row has the bits [`KernelBackend::dot_prefix`] plus
    /// [`softmax_in_place`] give it; the queries are only grouped so that
    /// each key row is read once per group of eight (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != keys.dim()`, if a row is longer than
    /// `out_stride`, or if `out` or the views are too short.
    #[allow(clippy::too_many_arguments)]
    pub fn probs_staircase<Q: Rows, K: Rows>(
        self,
        queries: Q,
        n: usize,
        keys: K,
        first: usize,
        scale: f32,
        out: &mut [f32],
        out_stride: usize,
    ) {
        assert_eq!(queries.dim(), keys.dim(), "query/key dimension mismatch");
        assert!(
            n == 0 || first + n - 1 <= out_stride,
            "staircase row of {} exceeds the output stride {out_stride}",
            first + n - 1
        );
        let grouped = n - n % BLOCK;
        for j0 in (0..grouped).step_by(BLOCK) {
            let group = std::array::from_fn(|i| queries.row(j0 + i));
            let rows = &mut out[j0 * out_stride..];
            self.staircase_group_probs(group, keys, first + j0, scale, rows, out_stride);
        }
        for j in grouped..n {
            let row = &mut out[j * out_stride..j * out_stride + first + j];
            self.dot_prefix(queries.row(j), keys, scale, row);
            softmax_in_place(row);
        }
    }

    /// Fused causal attention of a staircase of `n` queries: query `j`
    /// (`queries.row(j)`) attends rows `0..first + j`, and
    /// `out[j·dim..(j + 1)·dim] = softmax(scale · q_j·Kᵀ) · V` with
    /// `dim = values.dim()`; a query with no rows gets a zero vector.
    /// `weights` is scratch. Decode step `s` after a `P`-token prompt is
    /// query `s` of the staircase `first = P`.
    ///
    /// Every output has the bits [`KernelBackend::attend_prefix`] gives
    /// it: groups of eight queries read each shared key and value row
    /// once, and the rest runs the per-query path (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != keys.dim()`,
    /// `out.len() != n · values.dim()`, or a view is too short.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_staircase<Q: Rows, K: Rows, V: Rows>(
        self,
        queries: Q,
        n: usize,
        keys: K,
        values: V,
        first: usize,
        scale: f32,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(queries.dim(), keys.dim(), "query/key dimension mismatch");
        let dim = values.dim();
        assert_eq!(out.len(), n * dim, "output/value dimension mismatch");
        if dim == 0 {
            return;
        }
        let grouped = n - n % BLOCK;
        let (groups, rest) = out.split_at_mut(grouped * dim);
        for (g, outs) in groups.chunks_exact_mut(BLOCK * dim).enumerate() {
            let j0 = g * BLOCK;
            let shared = first + j0;
            // Query `i` of the group holds `shared + i` weights.
            let stride = shared + BLOCK - 1;
            if weights.len() < BLOCK * stride {
                weights.resize(BLOCK * stride, 0.0);
            }
            let group = std::array::from_fn(|i| queries.row(j0 + i));
            self.staircase_group_probs(group, keys, shared, scale, weights, stride);
            outs.fill(0.0);
            self.staircase_group_sum(weights, stride, values, shared, outs);
        }
        for (i, o) in rest.chunks_exact_mut(dim).enumerate() {
            let j = grouped + i;
            self.attend_prefix(queries.row(j), keys, values, first + j, scale, weights, o);
        }
    }

    /// Row `i` of `w` (rows `stride` apart) gets
    /// `softmax(scale · group[i]·Kᵀ)` over key rows `0..shared + i`.
    ///
    /// The `shared` rows every query attends run role-swapped through the
    /// tier's block dot: each key row is the fixed operand and the group's
    /// eight queries are the block's rows, so the key row is read once for
    /// all eight. `dot(k, q)` has the bits of `dot(q, k)` on every tier
    /// (module docs). Query `i`'s `i` further rows take the per-query path.
    fn staircase_group_probs<K: Rows>(
        self,
        group: [&[f32]; BLOCK],
        keys: K,
        shared: usize,
        scale: f32,
        w: &mut [f32],
        stride: usize,
    ) {
        let dot_block = dot_f32_block_fn(self);
        for r in 0..shared {
            for (i, d) in dot_block(keys.row(r), group).into_iter().enumerate() {
                w[i * stride + r] = d * scale;
            }
        }
        for (i, query) in group.into_iter().enumerate() {
            let row = &mut w[i * stride..i * stride + shared + i];
            self.dot_rows(query, |e| keys.row(shared + e), scale, &mut row[shared..]);
            softmax_in_place(row);
        }
    }

    /// `outs` (the group's eight outputs back to back) `+=` each query's
    /// weighted sum of `values` under its weight row of `w` (rows
    /// `stride` apart, query `i` holding `shared + i` weights). The shared
    /// rows go through the tier's staircase primitive `ROW_TILE` rows at a
    /// time, with the tile's weights transposed so each row's eight sit
    /// together; then each query's further rows take the per-query path,
    /// so every output element takes its rows in order.
    fn staircase_group_sum<V: Rows>(
        self,
        w: &[f32],
        stride: usize,
        values: V,
        shared: usize,
        outs: &mut [f32],
    ) {
        let axpy_queries = axpy_queries_fn(self);
        let mut tile: [&[f32]; ROW_TILE] = [&[]; ROW_TILE];
        let mut tile_weights = [[0.0f32; BLOCK]; ROW_TILE];
        for start in (0..shared).step_by(ROW_TILE) {
            let len = ROW_TILE.min(shared - start);
            for (r, x) in tile[..len].iter_mut().enumerate() {
                *x = values.row(start + r);
            }
            for q in 0..BLOCK {
                let row = &w[q * stride + start..q * stride + start + len];
                for (tw, &v) in tile_weights.iter_mut().zip(row) {
                    tw[q] = v;
                }
            }
            axpy_queries(&tile_weights[..len], &tile[..len], outs);
        }
        for (i, out) in outs.chunks_exact_mut(values.dim()).enumerate() {
            let extra = &w[i * stride + shared..i * stride + shared + i];
            self.weighted_sum_rows(extra, |e| values.row(shared + e), out);
        }
    }
}

/// A borrowed view of row-major `i8` rows with one `f32` scale per row:
/// the quantized twin of [`RowView`].
///
/// Row `r` holds `dim` signed integer levels at
/// `data[r * stride .. r * stride + dim]`; its real value is
/// `scales[r] · data[r][i]`. This is the layout of the quantized key arena
/// ([`KvStore::quant_keys_view`](crate::KvStore::quant_keys_view)): 1 byte
/// per element plus one scale per row, a ~4× traffic reduction over the
/// `f32` arena that mirrors the UniCAIM array's reduced-precision cells.
#[derive(Debug, Clone, Copy)]
pub struct QuantRowView<'a> {
    data: &'a [i8],
    scales: &'a [f32],
    stride: usize,
    dim: usize,
}

impl<'a> QuantRowView<'a> {
    /// Creates a view with the given row stride and logical row width.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `dim > stride` (same degenerate-shape
    /// contract as [`RowView::contiguous`]).
    #[must_use]
    pub fn new(data: &'a [i8], scales: &'a [f32], stride: usize, dim: usize) -> Self {
        assert!(dim > 0, "QuantRowView requires dim > 0");
        assert!(dim <= stride, "row dim {dim} exceeds stride {stride}");
        Self {
            data,
            scales,
            stride,
            dim,
        }
    }

    /// A contiguous view (`stride == dim`).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn contiguous(data: &'a [i8], scales: &'a [f32], dim: usize) -> Self {
        Self::new(data, scales, dim, dim)
    }

    /// Logical row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Elements between consecutive row starts.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrow the integer levels of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the underlying buffer.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [i8] {
        &self.data[r * self.stride..r * self.stride + self.dim]
    }

    /// The dequantization scale of row `r` (`value = scale · level`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range of the scale vector.
    #[inline]
    #[must_use]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }
}

/// Quantization steps per side of zero for
/// [`KernelBackend::quantize_row_i8`]: the
/// symmetric `i8` range `−127 … +127` (−128 is never produced).
pub const INT8_STEPS: f32 = 127.0;

/// Quantization steps per side of zero for
/// [`KernelBackend::quantize_row_cell3`]: levels `−2 … +2` map to the 3-bit multilevel cell's five signed weights
/// {−1, −0.5, 0, +0.5, +1} (times the row scale).
pub const CELL3_STEPS: f32 = 2.0;

/// The quantizers. Every tier runs the same scalar code, so every tier
/// produces identical levels and scales for every input.
impl KernelBackend {
    /// Shared symmetric per-row quantizer: max-abs scaling to `±steps`
    /// integer levels, round-to-nearest. Returns `scale` such that
    /// `src[i] ≈ scale · out[i]`; an all-zero row quantizes to zeros with
    /// scale 0.
    ///
    /// The divide/round/cast loop stays scalar because `f32::round` is
    /// round-half-away-from-zero, which vector instructions do not
    /// implement directly.
    fn quantize_symmetric(self, src: &[f32], steps: f32, out: &mut [i8]) -> f32 {
        assert_eq!(src.len(), out.len(), "quantize output length mismatch");
        let maxabs = maxabs_scalar(src);
        if maxabs == 0.0 {
            out.fill(0);
            return 0.0;
        }
        let scale = maxabs / steps;
        for (o, &x) in out.iter_mut().zip(src) {
            // |x| ≤ maxabs so |x/scale| ≤ steps ≤ 127: the cast cannot wrap
            // (and saturates defensively on non-finite input).
            *o = (x / scale).round() as i8;
        }
        scale
    }

    /// Quantizes one row to `i8` with symmetric per-row max-abs scaling
    /// (`±127` levels). Returns the scale; round-trip error per element is
    /// at most `scale / 2 = maxabs / 254`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != out.len()`.
    pub fn quantize_row_i8(self, src: &[f32], out: &mut [i8]) -> f32 {
        self.quantize_symmetric(src, INT8_STEPS, out)
    }

    /// Snaps one row to the 3-bit multilevel cell's five signed levels
    /// {−1, −0.5, 0, +0.5, +1} scaled by the row max-abs, stored as integer
    /// levels `−2 … +2`. Returns the scale (`maxabs / 2`).
    ///
    /// The snap is idempotent: re-quantizing the dequantized row reproduces
    /// the same levels and scale (the max-abs element always lands on `±2`,
    /// so the scale is preserved exactly).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != out.len()`.
    pub fn quantize_row_cell3(self, src: &[f32], out: &mut [i8]) -> f32 {
        self.quantize_symmetric(src, CELL3_STEPS, out)
    }
}

/// Quantizes a contiguous row-major `f32` arena (`src.len() / dim` rows)
/// to `i8` with one scale per row on [`active_backend`]: each row goes
/// through [`quantize_row_i8`], producing exactly the layout
/// [`QuantRowView::contiguous`] reads.
///
/// # Panics
///
/// Panics if `dim == 0` or `src.len()` is not a multiple of `dim`.
#[must_use]
pub fn quantize_arena_i8(src: &[f32], dim: usize) -> (Vec<i8>, Vec<f32>) {
    assert!(dim > 0, "quantize_arena_i8 requires dim > 0");
    assert!(
        src.len().is_multiple_of(dim),
        "arena length {} is not a multiple of dim {dim}",
        src.len()
    );
    let mut q = vec![0i8; src.len()];
    let scales = src
        .chunks_exact(dim)
        .zip(q.chunks_exact_mut(dim))
        .map(|(row, out)| quantize_row_i8(row, out))
        .collect();
    (q, scales)
}

/// Dequantizes integer levels back to `f32`: `out[i] = scale · q[i]`.
///
/// # Panics
///
/// Panics if `q.len() != out.len()`.
pub fn dequantize_row(q: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(q.len(), out.len(), "dequantize output length mismatch");
    for (o, &v) in out.iter_mut().zip(q) {
        *o = scale * f32::from(v);
    }
}

/// Scalar integer dot with `I8_STRIDE` independent `i32` accumulators —
/// the reference semantics (and exact result) every tier reproduces. An
/// `i32` sum is exact, so the lane split does not change the value.
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let (a, b) = (
        a[..n].chunks_exact(I8_STRIDE),
        b[..n].chunks_exact(I8_STRIDE),
    );
    let (a_tail, b_tail) = (a.remainder(), b.remainder());
    let mut acc = [0i32; I8_STRIDE];
    for (ax, bx) in a.zip(b) {
        for (acc, (&x, &y)) in acc.iter_mut().zip(ax.iter().zip(bx)) {
            *acc += i32::from(x) * i32::from(y);
        }
    }
    let mut tail = 0i32;
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        tail += i32::from(x) * i32::from(y);
    }
    acc.iter().sum::<i32>() + tail
}

/// The integer (quantized-key) kernel menu. The integer dot is exact and
/// the per-row rescale is shared scalar code, so scores are bit-exact on
/// every tier.
impl KernelBackend {
    /// Integer dot product with `I8_STRIDE` independent `i32` accumulators —
    /// the quantized form of [`KernelBackend::dot`]. Exact (no rounding):
    /// `|a·b| ≤ 127²·dim` stays far inside `i32` for any realistic head
    /// dimension, so every tier returns identical bits.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if lengths differ; release builds truncate to
    /// the shorter slice.
    #[inline]
    #[must_use]
    pub fn dot_i8(self, a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
        dot_i8_fn(self)(a, b)
    }

    /// Quantized form of [`KernelBackend::dot_gather`]: scaled dots of a
    /// pre-quantized query against the gathered `rows` of the quantized key
    /// arena. The integer dot accumulates in `i32`; the combined rescale
    /// (`scale · query_scale · keys.scale(r)`) is applied **once per row**.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len()` or a row is out of range.
    pub fn dot_gather_q<Q: QuantRows>(
        self,
        query_q: &[i8],
        query_scale: f32,
        keys: Q,
        rows: &[usize],
        scale: f32,
        out: &mut [f32],
    ) {
        assert_eq!(rows.len(), out.len(), "gather output length mismatch");
        let dot = dot_i8_fn(self);
        for (&r, o) in rows.iter().zip(out.iter_mut()) {
            *o = dot(query_q, keys.row(r)) as f32 * (scale * query_scale * keys.scale(r));
        }
    }

    /// Quantized form of [`KernelBackend::attend_gather`]: fused gather →
    /// quantized score → softmax → weighted-sum attention. Keys are scored
    /// from the quantized arena (the deployed precision); values stay
    /// `f32`, mirroring the UniCAIM array where only the CAM/CIM key
    /// storage is reduced-precision. An empty gather writes a zero vector.
    ///
    /// # Panics
    ///
    /// Panics if `query_q.len() != keys.dim()` or `out.len() != values.dim()`.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_gather_q<Q: QuantRows, V: Rows>(
        self,
        query_q: &[i8],
        query_scale: f32,
        keys: Q,
        values: V,
        rows: &[usize],
        scale: f32,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(query_q.len(), keys.dim(), "query/key dimension mismatch");
        out.fill(0.0);
        if rows.is_empty() {
            return;
        }
        weights.clear();
        weights.resize(rows.len(), 0.0);
        self.dot_gather_q(query_q, query_scale, keys, rows, scale, weights);
        softmax_in_place(weights);
        self.weighted_sum_gather(weights, values, rows, out);
    }
}

// ---------------------------------------------------------------------
// Free-function forms on the active tier. The wall-clock benchmark in
// `perfbench/` calls these five by name; everything else calls the
// methods.
// ---------------------------------------------------------------------

/// [`KernelBackend::dot_gather`] on [`active_backend`].
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row is out of range.
pub fn dot_gather<K: Rows>(query: &[f32], keys: K, rows: &[usize], scale: f32, out: &mut [f32]) {
    active_backend().dot_gather(query, keys, rows, scale, out);
}

/// [`KernelBackend::dot_gather_q`] on [`active_backend`].
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row is out of range.
pub fn dot_gather_q<Q: QuantRows>(
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    rows: &[usize],
    scale: f32,
    out: &mut [f32],
) {
    active_backend().dot_gather_q(query_q, query_scale, keys, rows, scale, out);
}

/// [`KernelBackend::attend_gather`] on [`active_backend`].
///
/// # Panics
///
/// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
pub fn attend_gather<K: Rows, V: Rows>(
    query: &[f32],
    keys: K,
    values: V,
    rows: &[usize],
    scale: f32,
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    active_backend().attend_gather(query, keys, values, rows, scale, weights, out);
}

/// [`KernelBackend::attend_gather_q`] on [`active_backend`].
///
/// # Panics
///
/// Panics if `query_q.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_gather_q<Q: QuantRows, V: Rows>(
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    values: V,
    rows: &[usize],
    scale: f32,
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    active_backend().attend_gather_q(
        query_q,
        query_scale,
        keys,
        values,
        rows,
        scale,
        weights,
        out,
    );
}

/// [`KernelBackend::quantize_row_i8`] on [`active_backend`].
///
/// # Panics
///
/// Panics if `src.len() != out.len()`.
pub fn quantize_row_i8(src: &[f32], out: &mut [i8]) -> f32 {
    active_backend().quantize_row_i8(src, out)
}

/// Indices `0..n` ranked best-first under `cmp` (where `Ordering::Less`
/// means "ranks earlier"), keeping only the top `k` — selected with
/// `select_nth_unstable_by` (O(n + k log k)) instead of a full sort.
///
/// The comparator must be a total order (use [`f32::total_cmp`] plus an
/// index tie-break); the returned prefix is then exactly the first `k`
/// elements of the fully sorted order.
pub fn partial_top_k_by<F>(n: usize, k: usize, mut cmp: F) -> Vec<usize>
where
    F: FnMut(usize, usize) -> std::cmp::Ordering,
{
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    if k < n {
        idx.select_nth_unstable_by(k - 1, |&a, &b| cmp(a, b));
        idx.truncate(k);
    }
    idx.sort_unstable_by(|&a, &b| cmp(a, b));
    idx
}

/// Indices of the `k` largest values, in descending value order, ties
/// toward the lower index. Total and deterministic for every input:
/// NaN ranks above +∞ (IEEE 754 `totalOrder`), so NaN-poisoned scores
/// cannot make the ranking run-to-run unstable.
#[must_use]
pub fn partial_top_k(values: &[f32], k: usize) -> Vec<usize> {
    partial_top_k_by(values.len(), k, |a, b| {
        values[b].total_cmp(&values[a]).then(a.cmp(&b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mha::attention_output;

    #[test]
    fn dot_matches_sequential() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.5 - (i as f32) * 0.125).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((active_backend().dot(&a, &b) - naive).abs() <= 1e-4 * naive.abs().max(1.0));
    }

    #[test]
    fn backend_names_roundtrip_and_scalar_is_always_supported() {
        for backend in KernelBackend::ALL {
            assert_eq!(KernelBackend::from_name(backend.label()), Some(backend));
        }
        assert_eq!(KernelBackend::from_name("AVX2"), Some(KernelBackend::Avx2));
        assert_eq!(KernelBackend::from_name("neon"), None);
        assert!(KernelBackend::Scalar.is_supported());
        assert!(KernelBackend::supported().contains(&KernelBackend::Scalar));
        assert!(active_backend().is_supported());
        assert!(KernelBackend::detect().is_supported());
    }

    #[test]
    fn unsupported_backend_clamps_to_scalar_dispatch() {
        // Whatever the host, asking every tier for a dot must run (clamp
        // guarantees unsupported tiers degrade to scalar, never UB) and
        // stay within the bound of the scalar tier.
        let a: Vec<f32> = (0..19).map(|i| (i as f32) * 0.5 - 4.0).collect();
        let b: Vec<f32> = (0..19).map(|i| 2.0 - (i as f32) * 0.25).collect();
        let scalar = KernelBackend::Scalar.dot(&a, &b);
        for backend in KernelBackend::ALL {
            let d = backend.dot(&a, &b);
            assert!((d - scalar).abs() <= 1e-4 * scalar.abs().max(1.0));
        }
    }

    #[test]
    fn every_supported_tier_matches_scalar_i8_exactly() {
        let a: Vec<i8> = (0..133).map(|i| ((i * 37) % 255) as i8).collect();
        let b: Vec<i8> = (0..133).map(|i| ((i * 91) % 253) as i8).collect();
        let scalar = KernelBackend::Scalar.dot_i8(&a, &b);
        for backend in KernelBackend::supported() {
            assert_eq!(backend.dot_i8(&a, &b), scalar, "{}", backend.label());
        }
    }

    #[test]
    fn row_view_strided_access() {
        // 3 rows of stride 4, logical width 2, offset 1 folded into slice.
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = RowView::new(&data[1..], 4, 2);
        assert_eq!(v.row(0), &[1.0, 2.0]);
        assert_eq!(v.row(1), &[5.0, 6.0]);
        assert_eq!(v.row(2), &[9.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds stride")]
    fn row_view_rejects_wide_rows() {
        let data = [0.0f32; 8];
        let _ = RowView::new(&data, 2, 3);
    }

    #[test]
    fn attend_gather_matches_naive_attention() {
        let dim = 5;
        let n = 7;
        let keys: Vec<f32> = (0..n * dim).map(|i| ((i * 13) % 11) as f32 * 0.1).collect();
        let values: Vec<f32> = (0..n * dim).map(|i| ((i * 7) % 9) as f32 * 0.2).collect();
        let query: Vec<f32> = (0..dim).map(|i| (i as f32) * 0.3 - 0.5).collect();
        let rows = [0usize, 2, 5];
        let kr: Vec<&[f32]> = rows
            .iter()
            .map(|&r| &keys[r * dim..(r + 1) * dim])
            .collect();
        let vr: Vec<&[f32]> = rows
            .iter()
            .map(|&r| &values[r * dim..(r + 1) * dim])
            .collect();
        let naive = attention_output(&query, &kr, &vr);
        let mut out = vec![0.0f32; dim];
        let mut scratch = Vec::new();
        attend_gather(
            &query,
            RowView::contiguous(&keys, dim),
            RowView::contiguous(&values, dim),
            &rows,
            1.0 / (dim as f32).sqrt(),
            &mut scratch,
            &mut out,
        );
        for (a, b) in out.iter().zip(&naive) {
            assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "{out:?} vs {naive:?}"
            );
        }
    }

    #[test]
    fn attend_empty_selection_is_zero() {
        let keys = [1.0f32, 2.0];
        let values = [3.0f32, 4.0];
        let mut out = vec![7.0f32; 2];
        let mut scratch = Vec::new();
        attend_gather(
            &[1.0, 0.0],
            RowView::contiguous(&keys, 2),
            RowView::contiguous(&values, 2),
            &[],
            1.0,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn partial_top_k_matches_full_sort_under_ties() {
        let values = vec![0.5f32, 0.9, 0.5, 0.9, 0.1, 0.9];
        for k in 0..=values.len() + 1 {
            let mut full: Vec<usize> = (0..values.len()).collect();
            full.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
            full.truncate(k);
            assert_eq!(partial_top_k(&values, k), full, "k = {k}");
        }
    }

    #[test]
    fn partial_top_k_is_total_under_nan() {
        let values = vec![0.3f32, f32::NAN, 0.7, f32::NAN];
        let a = partial_top_k(&values, 2);
        let b = partial_top_k(&values, 2);
        assert_eq!(a, b);
        // NaN sorts above every finite value under totalOrder.
        assert_eq!(a, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn contiguous_rejects_zero_dim() {
        let data: [f32; 4] = [1.0, 2.0, 3.0, 4.0];
        let _ = RowView::contiguous(&data, 0);
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn quant_contiguous_rejects_zero_dim() {
        let data: [i8; 4] = [1, 2, 3, 4];
        let scales: [f32; 1] = [1.0];
        let _ = QuantRowView::contiguous(&data, &scales, 0);
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let src: Vec<f32> = (0..37).map(|i| (i as f32) * 0.37 - 6.0).collect();
        let mut q = vec![0i8; src.len()];
        let scale = quantize_row_i8(&src, &mut q);
        let mut back = vec![0.0f32; src.len()];
        dequantize_row(&q, scale, &mut back);
        for (x, y) in src.iter().zip(&back) {
            assert!(
                (x - y).abs() <= scale * 0.5 + 1e-6,
                "{x} vs {y} (scale {scale})"
            );
        }
    }

    #[test]
    fn quantize_zero_row_has_zero_scale() {
        let src = [0.0f32; 5];
        let mut q = [1i8; 5];
        assert_eq!(quantize_row_i8(&src, &mut q), 0.0);
        assert_eq!(q, [0i8; 5]);
    }

    #[test]
    fn quantize_is_bit_exact_on_every_tier() {
        let src: Vec<f32> = (0..67)
            .map(|i| ((i * 29) % 31) as f32 * 0.17 - 2.0)
            .collect();
        let mut expect_q = vec![0i8; src.len()];
        let expect_scale = KernelBackend::Scalar.quantize_row_i8(&src, &mut expect_q);
        for backend in KernelBackend::supported() {
            let mut q = vec![0i8; src.len()];
            let scale = backend.quantize_row_i8(&src, &mut q);
            assert_eq!(
                scale.to_bits(),
                expect_scale.to_bits(),
                "{}",
                backend.label()
            );
            assert_eq!(q, expect_q, "{}", backend.label());
        }
    }

    #[test]
    fn cell3_snap_uses_five_levels() {
        let src = [1.0f32, -1.0, 0.1, 0.6, -0.4];
        let mut q = [0i8; 5];
        let scale = active_backend().quantize_row_cell3(&src, &mut q);
        assert!((scale - 0.5).abs() < 1e-9);
        assert_eq!(q, [2, -2, 0, 1, -1]);
    }

    #[test]
    fn dot_i8_matches_integer_reference() {
        let a: Vec<i8> = (0..37).map(|i| ((i * 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..37).map(|i| ((i * 7) % 251) as i8).collect();
        let naive: i32 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(active_backend().dot_i8(&a, &b), naive);
    }

    #[test]
    fn dot_gather_q_tracks_f32_scores() {
        let dim = 12;
        let n = 6;
        let keys: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 13) % 17) as f32 * 0.2 - 1.0)
            .collect();
        let (qkeys, scales) = quantize_arena_i8(&keys, dim);
        let view = QuantRowView::contiguous(&qkeys, &scales, dim);
        let query: Vec<f32> = (0..dim).map(|i| (i as f32) * 0.1 - 0.5).collect();
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8(&query, &mut qq);
        let rows: Vec<usize> = (0..n).collect();
        let mut b = vec![0.0f32; n];
        dot_gather_q(&qq, qs, view, &rows, 2.0, &mut b);
        // The quantized scores stay close to the f32 kernel.
        let mut f = vec![0.0f32; n];
        active_backend().dot_prefix(&query, RowView::contiguous(&keys, dim), 2.0, &mut f);
        for (x, y) in b.iter().zip(&f) {
            assert!((x - y).abs() <= 0.05 * y.abs().max(1.0), "{b:?} vs {f:?}");
        }
    }

    #[test]
    fn attend_gather_q_tracks_f32_attention() {
        let dim = 8;
        let n = 10;
        let keys: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 29) % 23) as f32 * 0.1 - 1.0)
            .collect();
        let values: Vec<f32> = (0..n * dim).map(|i| ((i * 7) % 19) as f32 * 0.2).collect();
        let query: Vec<f32> = (0..dim).map(|i| 0.4 - (i as f32) * 0.09).collect();
        let (qkeys, scales) = quantize_arena_i8(&keys, dim);
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8(&query, &mut qq);
        let rows = [0usize, 3, 4, 7, 9];
        let scale = 1.0 / (dim as f32).sqrt();
        let (mut wq, mut wf) = (Vec::new(), Vec::new());
        let mut out_q = vec![0.0f32; dim];
        let mut out_f = vec![0.0f32; dim];
        attend_gather_q(
            &qq,
            qs,
            QuantRowView::contiguous(&qkeys, &scales, dim),
            RowView::contiguous(&values, dim),
            &rows,
            scale,
            &mut wq,
            &mut out_q,
        );
        attend_gather(
            &query,
            RowView::contiguous(&keys, dim),
            RowView::contiguous(&values, dim),
            &rows,
            scale,
            &mut wf,
            &mut out_f,
        );
        for (a, b) in out_q.iter().zip(&out_f) {
            assert!(
                (a - b).abs() <= 0.05 * b.abs().max(1.0),
                "{out_q:?} vs {out_f:?}"
            );
        }
        // Empty gather is a deterministic zero vector, like the f32 twin.
        attend_gather_q(
            &qq,
            qs,
            QuantRowView::contiguous(&qkeys, &scales, dim),
            RowView::contiguous(&values, dim),
            &[],
            scale,
            &mut wq,
            &mut out_q,
        );
        assert_eq!(out_q, vec![0.0; dim]);
    }

    /// Regression (satellite): extreme-magnitude logits through the fused
    /// attention kernels must produce finite, normalized outputs — a naive
    /// (non-max-subtracted) softmax overflows `exp` to inf/NaN as soon as
    /// `|scale·q·k| ≳ 90`.
    #[test]
    fn attend_survives_extreme_logits() {
        let dim = 4;
        let n = 3;
        // Huge keys/queries: raw scores are ~±1e7, far past exp overflow.
        let keys: Vec<f32> = (0..n * dim)
            .map(|i| if i % 2 == 0 { 3.0e3 } else { -3.0e3 })
            .collect();
        let values: Vec<f32> = (0..n * dim).map(|i| (i % 5) as f32).collect();
        let query = vec![2.0e3f32, 1.0e3, -2.0e3, 1.5e3];
        let mut weights = Vec::new();
        let mut out = vec![0.0f32; dim];
        active_backend().attend_prefix(
            &query,
            RowView::contiguous(&keys, dim),
            RowView::contiguous(&values, dim),
            n,
            1.0,
            &mut weights,
            &mut out,
        );
        assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        let sum: f32 = weights.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "weights not normalized: {weights:?}"
        );
        assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0));

        let rows = [0usize, 2];
        attend_gather(
            &query,
            RowView::contiguous(&keys, dim),
            RowView::contiguous(&values, dim),
            &rows,
            1.0,
            &mut weights,
            &mut out,
        );
        assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
        let sum: f32 = weights.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "weights not normalized: {weights:?}"
        );
    }

    #[test]
    fn dot_prefix_and_gather_agree() {
        let dim = 4;
        let keys: Vec<f32> = (0..6 * dim).map(|i| i as f32 * 0.01).collect();
        let view = RowView::contiguous(&keys, dim);
        let q = [0.5f32, -0.5, 1.0, 0.25];
        let mut a = vec![0.0f32; 6];
        active_backend().dot_prefix(&q, view, 2.0, &mut a);
        let rows: Vec<usize> = (0..6).collect();
        let mut b = vec![0.0f32; 6];
        dot_gather(&q, view, &rows, 2.0, &mut b);
        assert_eq!(a, b);
    }
}
