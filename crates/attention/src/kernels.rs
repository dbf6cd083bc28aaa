//! Flat-layout compute kernels for the decode hot path.
//!
//! Every hot loop in the decode pipeline — prefill attention, per-step
//! scoring, exact attention over a selection, and top-k selection — runs
//! over contiguous row-major arenas through this module instead of
//! pointer-chasing `Vec<Vec<f32>>` layouts. The kernels are deliberately
//! allocation-free: callers pass output slices and reusable scratch
//! buffers, so a steady-state decode step performs no heap traffic.
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
//! Every kernel in the menu dispatches over a [`KernelBackend`] detected
//! once per process (`is_x86_feature_detected!`, overridable with
//! `UNICAIM_KERNEL_BACKEND=scalar|sse2|avx2`). Each kernel also exposes a
//! `*_with(backend, …)` twin taking the tier explicitly, which the parity
//! tests use to pin every tier against scalar. The contract:
//!
//! * **Integer paths are bit-exact across every tier.** [`dot_i8`] widens
//!   `i8 → i16 → i32` with no rounding, so the quantized scoring kernels'
//!   integer accumulation — and the quantizers [`quantize_row_i8`] /
//!   [`quantize_row_cell3`], whose SIMD portion is only the exact max-abs
//!   reduction — produce identical bits on scalar, SSE2, and AVX2.
//! * **f32 paths are bounded-ulp and stable for a fixed tier.** The SSE2
//!   tier is bit-identical to scalar by construction (same eight-lane
//!   accumulator partition, same multiply-then-add per element, same
//!   reduction order). The AVX2+FMA tier fuses multiply-add, skipping the
//!   per-product rounding: for a length-`n` dot,
//!   `|dot_avx2 − dot_scalar| ≤ 2·n·ε·Σ|aᵢ·bᵢ|` with `ε = 2⁻²⁴` (each
//!   path's forward error versus the exact sum is at most `n·ε·Σ|aᵢ·bᵢ|`
//!   to first order — standard recursive-summation analysis — and FMA
//!   only removes rounding steps). Softmax is shared scalar code on every
//!   tier. For a fixed tier, every kernel is deterministic: same inputs,
//!   same bits, run to run.

use std::sync::OnceLock;

use crate::matrix::softmax_in_place;

/// Environment variable forcing a kernel tier
/// (`scalar`, `sse2`, or `avx2`); empty or unset means "detect".
/// Unknown or unsupported values warn on stderr and fall back to the
/// detected tier. Read once per process — changing it after the first
/// kernel call has no effect.
pub const BACKEND_ENV: &str = "UNICAIM_KERNEL_BACKEND";

/// A SIMD tier the kernel layer can dispatch to.
///
/// Tiers are strictly host-gated: [`KernelBackend::detect`] picks the best
/// tier the CPU supports, and explicit requests (via [`BACKEND_ENV`] or the
/// `*_with` kernels) for an unsupported tier clamp to [`KernelBackend::Scalar`]
/// (`KernelBackend::Scalar`), so an unsupported instruction can never be
/// reached. On non-x86_64 hosts (e.g. aarch64, where a NEON tier is a
/// future extension) every tier except scalar reports unsupported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar kernels — the reference semantics for every tier.
    Scalar,
    /// SSE2 (baseline x86_64): bit-identical to scalar on f32 paths.
    Sse2,
    /// AVX2 + FMA: fused f32 paths, bounded-ulp versus scalar.
    Avx2,
}

impl KernelBackend {
    /// Every tier, scalar first.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
    ];

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
            if std::arch::is_x86_feature_detected!("sse2") {
                return KernelBackend::Sse2;
            }
        }
        KernelBackend::Scalar
    }

    /// Stable lowercase name (also the [`BACKEND_ENV`] spelling).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a [`BACKEND_ENV`] value (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "sse2" => Some(KernelBackend::Sse2),
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
            KernelBackend::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
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
/// otherwise [`KernelBackend::detect`]. Resolved once and cached — every
/// un-suffixed kernel in this module dispatches through it.
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
                        "warning: {BACKEND_ENV}={name} is not one of scalar|sse2|avx2; \
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
// Primitive dispatch: each tier supplies four primitives (f32 dot, i8
// dot, axpy, max-abs); everything else in the menu is composed from them
// plus shared scalar code, so the parity argument stays small.
// ---------------------------------------------------------------------

type DotF32Fn = fn(&[f32], &[f32]) -> f32;
type DotI8Fn = fn(&[i8], &[i8]) -> i32;
type AxpyFn = fn(f32, &[f32], &mut [f32]);
type MaxAbsFn = fn(&[f32]) -> f32;

fn dot_f32_fn(backend: KernelBackend) -> DotF32Fn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => crate::simd::dot_f32_sse2,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::dot_f32_avx2,
        _ => dot_scalar,
    }
}

fn dot_i8_fn(backend: KernelBackend) -> DotI8Fn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => crate::simd::dot_i8_sse2,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::dot_i8_avx2,
        _ => dot_i8_scalar,
    }
}

fn axpy_fn(backend: KernelBackend) -> AxpyFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => crate::simd::axpy_sse2,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::axpy_avx2,
        _ => axpy_scalar,
    }
}

fn maxabs_fn(backend: KernelBackend) -> MaxAbsFn {
    match backend.clamp() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => crate::simd::maxabs_sse2,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => crate::simd::maxabs_avx2,
        _ => maxabs_scalar,
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

/// Number of independent accumulators in [`dot`]. Wide enough for the
/// compiler to keep the loop in vector registers; the SIMD tiers keep the
/// same 8-lane accumulator partition so their reductions line up with
/// scalar (see the module docs).
pub(crate) const LANES: usize = 8;

/// Scalar f32 dot with `LANES` independent accumulators — the reference
/// semantics every tier's f32 dot is measured against.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let ax = &a[c * LANES..(c + 1) * LANES];
        let bx = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += ax[l] * bx[l];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..n {
        tail += a[i] * b[i];
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

/// Scalar max-abs fold — the reference semantics for the quantizers'
/// range pass.
fn maxabs_scalar(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Dot product with `LANES` independent accumulators (reassociated
/// summation — results can differ from a strictly sequential sum in the
/// last bits, which every consumer tolerates at ≤1e-5 relative error).
/// Dispatches over [`active_backend`]; see [`dot_with`].
///
/// # Panics
///
/// Panics (in debug builds) if lengths differ; release builds truncate to
/// the shorter slice.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_backend(), a, b)
}

/// [`dot`] on an explicit tier. SSE2 is bit-identical to scalar; AVX2 is
/// within `2·n·ε·Σ|aᵢ·bᵢ|` of scalar (`ε = 2⁻²⁴`; module docs derive the
/// bound).
///
/// # Panics
///
/// Panics (in debug builds) if lengths differ; release builds truncate to
/// the shorter slice.
#[inline]
#[must_use]
pub fn dot_with(backend: KernelBackend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    dot_f32_fn(backend)(a, b)
}

/// Scaled dots of `query` against rows `0..out.len()` of `keys`:
/// `out[r] = scale · (query · keys[r])`.
///
/// # Panics
///
/// Panics if a row extends past the key buffer.
pub fn dot_prefix<K: Rows>(query: &[f32], keys: K, scale: f32, out: &mut [f32]) {
    dot_prefix_with(active_backend(), query, keys, scale, out);
}

/// [`dot_prefix`] on an explicit tier.
///
/// # Panics
///
/// Panics if a row extends past the key buffer.
pub fn dot_prefix_with<K: Rows>(
    backend: KernelBackend,
    query: &[f32],
    keys: K,
    scale: f32,
    out: &mut [f32],
) {
    let dot = dot_f32_fn(backend);
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(query, keys.row(r)) * scale;
    }
}

/// Scaled dots of `query` against the gathered `rows` of `keys`:
/// `out[i] = scale · (query · keys[rows[i]])`.
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row is out of range.
pub fn dot_gather<K: Rows>(query: &[f32], keys: K, rows: &[usize], scale: f32, out: &mut [f32]) {
    dot_gather_with(active_backend(), query, keys, rows, scale, out);
}

/// [`dot_gather`] on an explicit tier.
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row is out of range.
pub fn dot_gather_with<K: Rows>(
    backend: KernelBackend,
    query: &[f32],
    keys: K,
    rows: &[usize],
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(rows.len(), out.len(), "gather output length mismatch");
    let dot = dot_f32_fn(backend);
    for (&r, o) in rows.iter().zip(out.iter_mut()) {
        *o = dot(query, keys.row(r)) * scale;
    }
}

/// Accumulates `out += Σ weights[i] · values[rows[i]]` over gathered rows
/// (callers zero `out` first; [`attend_gather`] does).
///
/// # Panics
///
/// Panics if `out.len() != values.dim()` or lengths disagree.
pub fn weighted_sum_gather<V: Rows>(weights: &[f32], values: V, rows: &[usize], out: &mut [f32]) {
    weighted_sum_gather_with(active_backend(), weights, values, rows, out);
}

/// [`weighted_sum_gather`] on an explicit tier.
///
/// # Panics
///
/// Panics if `out.len() != values.dim()` or lengths disagree.
pub fn weighted_sum_gather_with<V: Rows>(
    backend: KernelBackend,
    weights: &[f32],
    values: V,
    rows: &[usize],
    out: &mut [f32],
) {
    assert_eq!(out.len(), values.dim(), "output/value dimension mismatch");
    assert_eq!(weights.len(), rows.len(), "weight/row count mismatch");
    let axpy = axpy_fn(backend);
    for (&r, &w) in rows.iter().zip(weights) {
        axpy(w, values.row(r), out);
    }
}

/// Accumulates `out += Σ weights[r] · values[r]` over rows
/// `0..weights.len()`.
///
/// # Panics
///
/// Panics if `out.len() != values.dim()`.
pub fn weighted_sum_prefix<V: Rows>(weights: &[f32], values: V, out: &mut [f32]) {
    weighted_sum_prefix_with(active_backend(), weights, values, out);
}

/// [`weighted_sum_prefix`] on an explicit tier.
///
/// # Panics
///
/// Panics if `out.len() != values.dim()`.
pub fn weighted_sum_prefix_with<V: Rows>(
    backend: KernelBackend,
    weights: &[f32],
    values: V,
    out: &mut [f32],
) {
    assert_eq!(out.len(), values.dim(), "output/value dimension mismatch");
    let axpy = axpy_fn(backend);
    for (r, &w) in weights.iter().enumerate() {
        axpy(w, values.row(r), out);
    }
}

/// Fused gather → score → softmax → weighted-sum attention over the
/// gathered `rows`: `out = softmax(scale · q·Kᵀ) · V`, writing into `out`
/// and reusing `weights` as scratch. An empty gather writes a zero vector.
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
    attend_gather_with(
        active_backend(),
        query,
        keys,
        values,
        rows,
        scale,
        weights,
        out,
    );
}

/// [`attend_gather`] on an explicit tier (softmax is shared scalar code
/// on every tier).
///
/// # Panics
///
/// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_gather_with<K: Rows, V: Rows>(
    backend: KernelBackend,
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
    dot_gather_with(backend, query, keys, rows, scale, weights);
    softmax_in_place(weights);
    weighted_sum_gather_with(backend, weights, values, rows, out);
}

/// Fused attention over the contiguous row prefix `0..n` (the causal
/// "attend to everything so far" step): `out = softmax(scale · q·Kᵀ) · V`.
/// `n == 0` writes a zero vector.
///
/// # Panics
///
/// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
pub fn attend_prefix<K: Rows, V: Rows>(
    query: &[f32],
    keys: K,
    values: V,
    n: usize,
    scale: f32,
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_prefix_with(
        active_backend(),
        query,
        keys,
        values,
        n,
        scale,
        weights,
        out,
    );
}

/// [`attend_prefix`] on an explicit tier.
///
/// # Panics
///
/// Panics if `query.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_prefix_with<K: Rows, V: Rows>(
    backend: KernelBackend,
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
    dot_prefix_with(backend, query, keys, scale, weights);
    softmax_in_place(weights);
    weighted_sum_prefix_with(backend, weights, values, out);
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

/// Quantization steps per side of zero for [`quantize_row_i8`]: the
/// symmetric `i8` range `−127 … +127` (−128 is never produced).
pub const INT8_STEPS: f32 = 127.0;

/// Quantization steps per side of zero for [`quantize_row_cell3`]: levels
/// `−2 … +2` map to the 3-bit multilevel cell's five signed weights
/// {−1, −0.5, 0, +0.5, +1} (times the row scale).
pub const CELL3_STEPS: f32 = 2.0;

/// Shared symmetric per-row quantizer: max-abs scaling to `±steps` integer
/// levels, round-to-nearest. Returns `scale` such that
/// `src[i] ≈ scale · out[i]`; an all-zero row quantizes to zeros with
/// scale 0.
///
/// Only the (exact) max-abs reduction dispatches to SIMD; the
/// divide/round/cast loop stays scalar because `f32::round` is
/// round-half-away-from-zero, which vector instructions do not implement
/// directly — keeping it scalar makes quantization bit-exact on every
/// tier for finite inputs.
fn quantize_row_with_backend(
    backend: KernelBackend,
    src: &[f32],
    steps: f32,
    out: &mut [i8],
) -> f32 {
    assert_eq!(src.len(), out.len(), "quantize output length mismatch");
    let maxabs = maxabs_fn(backend)(src);
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
/// (`±127` levels). Returns the scale; round-trip error per element is at
/// most `scale / 2 = maxabs / 254`.
///
/// # Panics
///
/// Panics if `src.len() != out.len()`.
pub fn quantize_row_i8(src: &[f32], out: &mut [i8]) -> f32 {
    quantize_row_i8_with(active_backend(), src, out)
}

/// [`quantize_row_i8`] on an explicit tier (bit-exact on every tier for
/// finite inputs).
///
/// # Panics
///
/// Panics if `src.len() != out.len()`.
pub fn quantize_row_i8_with(backend: KernelBackend, src: &[f32], out: &mut [i8]) -> f32 {
    quantize_row_with_backend(backend, src, INT8_STEPS, out)
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
pub fn quantize_row_cell3(src: &[f32], out: &mut [i8]) -> f32 {
    quantize_row_cell3_with(active_backend(), src, out)
}

/// [`quantize_row_cell3`] on an explicit tier (bit-exact on every tier
/// for finite inputs).
///
/// # Panics
///
/// Panics if `src.len() != out.len()`.
pub fn quantize_row_cell3_with(backend: KernelBackend, src: &[f32], out: &mut [i8]) -> f32 {
    quantize_row_with_backend(backend, src, CELL3_STEPS, out)
}

/// Quantizes a contiguous row-major `f32` arena (`src.len() / dim` rows)
/// to `i8` with one scale per row — the bulk form of [`quantize_row_i8`],
/// producing exactly the layout [`QuantRowView::contiguous`] reads.
///
/// Allocates fresh vectors; steady-state callers (prefill, requantize,
/// benchmarks) should prefer [`quantize_arena_i8_into`], which reuses
/// caller scratch.
///
/// # Panics
///
/// Panics if `dim == 0` or `src.len()` is not a multiple of `dim`.
#[must_use]
pub fn quantize_arena_i8(src: &[f32], dim: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = Vec::new();
    let mut scales = Vec::new();
    quantize_arena_i8_into(src, dim, &mut q, &mut scales);
    (q, scales)
}

/// Scratch-reusing form of [`quantize_arena_i8`]: clears and refills `q`
/// and `scales` in place (reusing their capacity), so a loop that
/// repeatedly quantizes arenas performs no steady-state allocation.
///
/// # Panics
///
/// Panics if `dim == 0` or `src.len()` is not a multiple of `dim`.
pub fn quantize_arena_i8_into(src: &[f32], dim: usize, q: &mut Vec<i8>, scales: &mut Vec<f32>) {
    quantize_arena_i8_into_with(active_backend(), src, dim, q, scales);
}

/// [`quantize_arena_i8_into`] on an explicit tier (the i8 quantizer is
/// bit-identical across tiers for finite inputs, so the twin exists for
/// uniformity with the rest of the kernel facade).
///
/// # Panics
///
/// Panics if `dim == 0` or `src.len()` is not a multiple of `dim`.
pub fn quantize_arena_i8_into_with(
    backend: KernelBackend,
    src: &[f32],
    dim: usize,
    q: &mut Vec<i8>,
    scales: &mut Vec<f32>,
) {
    assert!(dim > 0, "quantize_arena_i8 requires dim > 0");
    assert!(
        src.len().is_multiple_of(dim),
        "arena length {} is not a multiple of dim {dim}",
        src.len()
    );
    let rows = src.len() / dim;
    q.clear();
    q.resize(src.len(), 0);
    scales.clear();
    scales.resize(rows, 0.0);
    for r in 0..rows {
        scales[r] = quantize_row_i8_with(
            backend,
            &src[r * dim..(r + 1) * dim],
            &mut q[r * dim..(r + 1) * dim],
        );
    }
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

/// Scalar integer dot with `LANES` independent `i32` accumulators — the
/// reference semantics (and exact result) every tier reproduces.
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0i32; LANES];
    for c in 0..chunks {
        let ax = &a[c * LANES..(c + 1) * LANES];
        let bx = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += i32::from(ax[l]) * i32::from(bx[l]);
        }
    }
    let mut tail = 0i32;
    for i in chunks * LANES..n {
        tail += i32::from(a[i]) * i32::from(b[i]);
    }
    acc.iter().sum::<i32>() + tail
}

/// Integer dot product with `LANES` independent `i32` accumulators — the
/// quantized twin of [`dot`]. Exact (no rounding): `|a·b| ≤ 127²·dim`
/// stays far inside `i32` for any realistic head dimension, so every
/// backend tier returns identical bits.
///
/// # Panics
///
/// Panics (in debug builds) if lengths differ; release builds truncate to
/// the shorter slice.
#[inline]
#[must_use]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_with(active_backend(), a, b)
}

/// [`dot_i8`] on an explicit tier (bit-exact on every tier).
///
/// # Panics
///
/// Panics (in debug builds) if lengths differ; release builds truncate to
/// the shorter slice.
#[inline]
#[must_use]
pub fn dot_i8_with(backend: KernelBackend, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    dot_i8_fn(backend)(a, b)
}

/// Quantized twin of [`dot_prefix`]: scaled dots of a pre-quantized query
/// against rows `0..out.len()` of the quantized key arena. The integer
/// dot accumulates in `i32`; the combined rescale
/// (`scale · query_scale · keys.scale(r)`) is applied **once per row**.
///
/// # Panics
///
/// Panics if a row extends past the key buffer.
pub fn dot_prefix_q<Q: QuantRows>(
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    scale: f32,
    out: &mut [f32],
) {
    dot_prefix_q_with(active_backend(), query_q, query_scale, keys, scale, out);
}

/// [`dot_prefix_q`] on an explicit tier (bit-exact on every tier: the
/// integer dot is exact and the rescale is shared scalar code).
///
/// # Panics
///
/// Panics if a row extends past the key buffer.
pub fn dot_prefix_q_with<Q: QuantRows>(
    backend: KernelBackend,
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    scale: f32,
    out: &mut [f32],
) {
    let dot = dot_i8_fn(backend);
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(query_q, keys.row(r)) as f32 * (scale * query_scale * keys.scale(r));
    }
}

/// Quantized twin of [`dot_gather`]: scaled dots of a pre-quantized query
/// against the gathered `rows` of the quantized key arena, rescaled once
/// per row.
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
    dot_gather_q_with(
        active_backend(),
        query_q,
        query_scale,
        keys,
        rows,
        scale,
        out,
    );
}

/// [`dot_gather_q`] on an explicit tier (bit-exact on every tier).
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row is out of range.
pub fn dot_gather_q_with<Q: QuantRows>(
    backend: KernelBackend,
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    rows: &[usize],
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(rows.len(), out.len(), "gather output length mismatch");
    let dot = dot_i8_fn(backend);
    for (&r, o) in rows.iter().zip(out.iter_mut()) {
        *o = dot(query_q, keys.row(r)) as f32 * (scale * query_scale * keys.scale(r));
    }
}

/// Quantized twin of [`attend_gather`]: fused gather → quantized score →
/// softmax → weighted-sum attention. Keys are scored from the quantized
/// arena (the deployed precision); values stay `f32`, mirroring the
/// UniCAIM array where only the CAM/CIM key storage is reduced-precision.
/// An empty gather writes a zero vector.
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
    attend_gather_q_with(
        active_backend(),
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

/// [`attend_gather_q`] on an explicit tier.
///
/// # Panics
///
/// Panics if `query_q.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_gather_q_with<Q: QuantRows, V: Rows>(
    backend: KernelBackend,
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
    dot_gather_q_with(backend, query_q, query_scale, keys, rows, scale, weights);
    softmax_in_place(weights);
    weighted_sum_gather_with(backend, weights, values, rows, out);
}

/// Quantized twin of [`attend_prefix`]: fused attention over the
/// contiguous row prefix `0..n`, scoring from the quantized key arena with
/// `f32` values. `n == 0` writes a zero vector.
///
/// # Panics
///
/// Panics if `query_q.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_prefix_q<Q: QuantRows, V: Rows>(
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    values: V,
    n: usize,
    scale: f32,
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_prefix_q_with(
        active_backend(),
        query_q,
        query_scale,
        keys,
        values,
        n,
        scale,
        weights,
        out,
    );
}

/// [`attend_prefix_q`] on an explicit tier.
///
/// # Panics
///
/// Panics if `query_q.len() != keys.dim()` or `out.len() != values.dim()`.
#[allow(clippy::too_many_arguments)]
pub fn attend_prefix_q_with<Q: QuantRows, V: Rows>(
    backend: KernelBackend,
    query_q: &[i8],
    query_scale: f32,
    keys: Q,
    values: V,
    n: usize,
    scale: f32,
    weights: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(query_q.len(), keys.dim(), "query/key dimension mismatch");
    out.fill(0.0);
    if n == 0 {
        return;
    }
    weights.clear();
    weights.resize(n, 0.0);
    dot_prefix_q_with(backend, query_q, query_scale, keys, scale, weights);
    softmax_in_place(weights);
    weighted_sum_prefix_with(backend, weights, values, out);
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
        assert!((dot(&a, &b) - naive).abs() <= 1e-4 * naive.abs().max(1.0));
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
        // the scalar tier must equal the un-suffixed reference exactly
        // when it is the active backend's clamped target.
        let a: Vec<f32> = (0..19).map(|i| (i as f32) * 0.5 - 4.0).collect();
        let b: Vec<f32> = (0..19).map(|i| 2.0 - (i as f32) * 0.25).collect();
        let scalar = dot_with(KernelBackend::Scalar, &a, &b);
        for backend in KernelBackend::ALL {
            let d = dot_with(backend, &a, &b);
            assert!((d - scalar).abs() <= 1e-4 * scalar.abs().max(1.0));
        }
    }

    #[test]
    fn every_supported_tier_matches_scalar_i8_exactly() {
        let a: Vec<i8> = (0..133).map(|i| ((i * 37) % 255) as i8).collect();
        let b: Vec<i8> = (0..133).map(|i| ((i * 91) % 253) as i8).collect();
        let scalar = dot_i8_with(KernelBackend::Scalar, &a, &b);
        for backend in KernelBackend::supported() {
            assert_eq!(dot_i8_with(backend, &a, &b), scalar, "{}", backend.label());
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
        let expect_scale = quantize_row_i8_with(KernelBackend::Scalar, &src, &mut expect_q);
        for backend in KernelBackend::supported() {
            let mut q = vec![0i8; src.len()];
            let scale = quantize_row_i8_with(backend, &src, &mut q);
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
    fn arena_into_matches_allocating_form_and_reuses_capacity() {
        let dim = 9;
        let src: Vec<f32> = (0..6 * dim)
            .map(|i| ((i * 31) % 17) as f32 * 0.2 - 1.5)
            .collect();
        let (q0, s0) = quantize_arena_i8(&src, dim);
        let mut q = vec![7i8; 1024];
        let mut s = vec![9.0f32; 1024];
        let cap_q = q.capacity();
        let cap_s = s.capacity();
        quantize_arena_i8_into(&src, dim, &mut q, &mut s);
        assert_eq!(q, q0);
        assert_eq!(s, s0);
        assert_eq!(q.capacity(), cap_q, "scratch capacity must be reused");
        assert_eq!(s.capacity(), cap_s, "scratch capacity must be reused");
    }

    #[test]
    fn cell3_snap_uses_five_levels() {
        let src = [1.0f32, -1.0, 0.1, 0.6, -0.4];
        let mut q = [0i8; 5];
        let scale = quantize_row_cell3(&src, &mut q);
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
        assert_eq!(dot_i8(&a, &b), naive);
    }

    #[test]
    fn dot_prefix_q_and_gather_q_agree() {
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
        let mut a = vec![0.0f32; n];
        dot_prefix_q(&qq, qs, view, 2.0, &mut a);
        let rows: Vec<usize> = (0..n).collect();
        let mut b = vec![0.0f32; n];
        dot_gather_q(&qq, qs, view, &rows, 2.0, &mut b);
        assert_eq!(a, b);
        // And both stay close to the f32 kernel.
        let mut f = vec![0.0f32; n];
        dot_prefix(&query, RowView::contiguous(&keys, dim), 2.0, &mut f);
        for (x, y) in a.iter().zip(&f) {
            assert!((x - y).abs() <= 0.05 * y.abs().max(1.0), "{a:?} vs {f:?}");
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

    #[test]
    fn attend_prefix_q_matches_gather_over_full_prefix() {
        let dim = 6;
        let n = 5;
        let keys: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 3) % 11) as f32 * 0.3 - 1.2)
            .collect();
        let values: Vec<f32> = (0..n * dim).map(|i| ((i * 5) % 13) as f32 * 0.1).collect();
        let query = vec![0.5f32, -0.25, 0.75, 0.0, -1.0, 0.3];
        let mut qkeys = vec![0i8; n * dim];
        let mut scales = vec![0.0f32; n];
        for r in 0..n {
            scales[r] = quantize_row_cell3(
                &keys[r * dim..(r + 1) * dim],
                &mut qkeys[r * dim..(r + 1) * dim],
            );
        }
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8(&query, &mut qq);
        let kview = QuantRowView::contiguous(&qkeys, &scales, dim);
        let vview = RowView::contiguous(&values, dim);
        let rows: Vec<usize> = (0..n).collect();
        let mut w1 = Vec::new();
        let mut w2 = Vec::new();
        let mut a = vec![0.0f32; dim];
        let mut b = vec![0.0f32; dim];
        attend_prefix_q(&qq, qs, kview, vview, n, 0.5, &mut w1, &mut a);
        attend_gather_q(&qq, qs, kview, vview, &rows, 0.5, &mut w2, &mut b);
        assert_eq!(a, b);
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
        attend_prefix(
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
        dot_prefix(&q, view, 2.0, &mut a);
        let rows: Vec<usize> = (0..6).collect();
        let mut b = vec![0.0f32; 6];
        dot_gather(&q, view, &rows, 2.0, &mut b);
        assert_eq!(a, b);
    }
}
