//! SIMD implementations of the kernel-layer primitives, selected at
//! runtime by [`KernelBackend`](crate::kernels::KernelBackend) dispatch.
//!
//! This is the only module in the crate allowed to contain `unsafe` code
//! (the crate root is `#![deny(unsafe_code)]`; this file scopes a single
//! `allow`). The safety architecture is deliberately narrow:
//!
//! * Every intrinsic lives in a private `#[target_feature]`-gated `*_impl`
//!   function whose body is safe except for bounds-commented unaligned
//!   loads/stores.
//! * Each `*_impl` is reachable only through the safe `pub(crate)` wrapper
//!   directly below it, and the wrappers are only ever selected by
//!   `kernels::KernelBackend` dispatch, which clamps any tier that
//!   `is_x86_feature_detected!` did not confirm down to scalar. The
//!   `unsafe` call in each wrapper discharges exactly that obligation.
//!
//! There is one SIMD tier, AVX2 + FMA. The scalar reference kernels live
//! in `crate::kernels` and are written so the compiler vectorizes them
//! for the x86-64 baseline (SSE2) on its own.
//!
//! Determinism notes (the kernel-layer contract these implementations
//! uphold — see the `crate::kernels` module docs for the user-facing
//! statement):
//!
//! * `dot_f32_avx2` uses FMA, which skips the per-product rounding; it may
//!   differ from scalar by at most `2·n·ε·Σ|aᵢ·bᵢ|` with `ε = 2⁻²⁴` (each
//!   path's forward error versus the exact sum is bounded by
//!   `n·ε·Σ|aᵢ·bᵢ|` to first order, and FMA only removes rounding steps).
//! * `dot_f32_block_avx2` scores eight rows per call and is
//!   **bit-identical** to `dot_f32_avx2` on each row: every row keeps its
//!   own accumulator fed in the same chunk order, the transpose before the
//!   reduction only moves values, the vertical adds sum each row's lanes
//!   left to right, and the unfused tail is added last.
//! * The `i8` dot is exact integer arithmetic (widening `i8 → i16 → i32`;
//!   `_madd_epi16` pair-sums stay below `2·128²`), so it is bit-identical
//!   to scalar by construction.
//! * The AVX2 tier fuses `axpy` in `axpy_rows_avx2`, which takes one or
//!   eight rows per call and applies them to each element in row order,
//!   so an eight-row call gives the same bits as eight one-row calls.
//! * `axpy_queries_avx2` weights a staircase group of eight queries: each
//!   query's output element takes the same row-ordered fused
//!   multiply-adds `axpy_rows_avx2` would apply, so one call gives the
//!   bits of eight per-query weighted sums. The group's scores need no
//!   primitive of their own: `dot_f32_block_avx2(k, queries)` has the bits
//!   of `dot_f32_avx2(q, k)` for each query, because a fused product
//!   commutes exactly and the lanes, their reduction and the tail depend
//!   only on the element index.
//! * The quantizers' max-abs reduction has no SIMD form: every tier runs
//!   the scalar fold, which skips NaN, so quantization is bit-exact on
//!   every tier for every input.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::*;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi8_epi16, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_madd_epi16, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_shuffle_ps, _mm256_storeu_ps,
        _mm256_storeu_si256, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_loadu_si128,
    };

    use crate::kernels::{BLOCK, I8_STRIDE, LANES};

    /// f32 dot product over one 8-lane FMA accumulator. Lane `l`
    /// accumulates exactly the elements scalar lane `l` does and the
    /// reduction order matches, so the only divergence from scalar is the
    /// fused rounding — bounded by `2·n·ε·Σ|aᵢ·bᵢ|`, `ε = 2⁻²⁴`.
    pub(crate) fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: only reachable via `KernelBackend` dispatch, which
        // clamps to scalar unless avx2+fma were detected.
        unsafe { dot_f32_avx2_impl(a, b) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn dot_f32_avx2_impl(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * LANES;
            // SAFETY: `base + 8 <= chunks * LANES <= n`, in bounds of both.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(base));
                let bv = _mm256_loadu_ps(b.as_ptr().add(base));
                acc = _mm256_fmadd_ps(av, bv, acc);
            }
        }
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` holds exactly one 8-lane store.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        }
        let mut tail = 0.0f32;
        for i in chunks * LANES..n {
            tail += a[i] * b[i];
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// Integer i8 dot, exact (bit-identical to scalar): 16 bytes at a time
    /// sign-extend to `i16` via `_mm256_cvtepi8_epi16`, pair-sum through
    /// `_mm256_madd_epi16`, and accumulate in eight `i32` lanes.
    pub(crate) fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        // SAFETY: only reachable via `KernelBackend` dispatch, which
        // clamps to scalar unless avx2+fma were detected.
        unsafe { dot_i8_avx2_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    fn dot_i8_avx2_impl(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let chunks = n / I8_STRIDE;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            let base = c * I8_STRIDE;
            // SAFETY: `base + 16 <= chunks * I8_STRIDE <= n`, in bounds.
            unsafe {
                let av = _mm_loadu_si128(a.as_ptr().add(base).cast::<__m128i>());
                let bv = _mm_loadu_si128(b.as_ptr().add(base).cast::<__m128i>());
                let a16 = _mm256_cvtepi8_epi16(av);
                let b16 = _mm256_cvtepi8_epi16(bv);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
            }
        }
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` holds exactly one 256-bit store.
        unsafe {
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        }
        let mut total: i32 = lanes.iter().sum();
        for i in chunks * I8_STRIDE..n {
            total += i32::from(a[i]) * i32::from(b[i]);
        }
        total
    }

    /// Eight f32 dots of `a` against `rows`, each bit-identical to
    /// `dot_f32_avx2` on its row. Row `r` keeps its own 8-lane FMA
    /// accumulator, fed chunk by chunk as the per-row kernel feeds its one
    /// accumulator, while each chunk of `a` loads once for all eight rows.
    /// An in-register 8×8 transpose then puts every row's lane `l` in
    /// vector `l`, so seven vertical adds sum each row's lanes left to
    /// right, and the row's unfused scalar tail is added last. The rows
    /// share one length (the `Rows` contract); a shorter `a` truncates all
    /// of them alike.
    pub(crate) fn dot_f32_block_avx2(a: &[f32], rows: [&[f32]; BLOCK]) -> [f32; BLOCK] {
        // SAFETY: only reachable via `KernelBackend` dispatch, which
        // clamps to scalar unless avx2+fma were detected.
        unsafe { dot_f32_block_avx2_impl(a, rows) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn dot_f32_block_avx2_impl(a: &[f32], rows: [&[f32]; BLOCK]) -> [f32; BLOCK] {
        let n = rows.iter().fold(a.len(), |n, row| n.min(row.len()));
        let chunks = n / LANES;
        let mut acc = [_mm256_setzero_ps(); BLOCK];
        for c in 0..chunks {
            let base = c * LANES;
            // SAFETY: `base + 8 <= chunks * LANES <= n`, and `n` bounds
            // `a` and every row.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(base));
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    *acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.as_ptr().add(base)), *acc);
                }
            }
        }
        // 8×8 transpose, shuffles only: vector `l` of `lanes` holds lane
        // `l` of every row's accumulator, in row order. `t*` interleave row
        // pairs; within each 128-bit half, `s0..s3` then hold lanes 0-3 of
        // rows 0-3 and `s4..s7` of rows 4-7 (lanes 4-7 in the upper halves).
        let t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
        let t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
        let t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
        let t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
        let t4 = _mm256_unpacklo_ps(acc[4], acc[5]);
        let t5 = _mm256_unpackhi_ps(acc[4], acc[5]);
        let t6 = _mm256_unpacklo_ps(acc[6], acc[7]);
        let t7 = _mm256_unpackhi_ps(acc[6], acc[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let lanes = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        let mut sums = lanes[0];
        for &lane in &lanes[1..] {
            sums = _mm256_add_ps(sums, lane);
        }
        let mut out = [0.0f32; BLOCK];
        // SAFETY: `out` holds exactly one 8-lane store.
        unsafe {
            _mm256_storeu_ps(out.as_mut_ptr(), sums);
        }
        for (o, row) in out.iter_mut().zip(&rows) {
            let mut tail = 0.0f32;
            for i in chunks * LANES..n {
                tail += a[i] * row[i];
            }
            *o += tail;
        }
        out
    }

    /// `out[i] = fma(w[R-1], xs[R-1][i], … fma(w[0], xs[0][i], out[i]))`:
    /// every element takes its rows' fused multiply-adds in row order, as
    /// `R` row-by-row fused axpys would, but each 8-column chunk of `out`
    /// stays in a register across all `R` rows instead of being loaded and
    /// stored once per row. The `n % 8` tail columns use `mul_add`, which
    /// is fused too. `R = 1` is this tier's per-row axpy.
    pub(crate) fn axpy_rows_avx2<const R: usize>(w: &[f32; R], xs: &[&[f32]; R], out: &mut [f32]) {
        // SAFETY: only reachable via `KernelBackend` dispatch, which
        // clamps to scalar unless avx2+fma were detected.
        unsafe { axpy_rows_avx2_impl(w, xs, out) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn axpy_rows_avx2_impl<const R: usize>(w: &[f32; R], xs: &[&[f32]; R], out: &mut [f32]) {
        let n = xs.iter().fold(out.len(), |n, x| n.min(x.len()));
        let chunks = n / LANES;
        let mut wv = [_mm256_setzero_ps(); R];
        for (v, &w) in wv.iter_mut().zip(w) {
            *v = _mm256_set1_ps(w);
        }
        for c in 0..chunks {
            let base = c * LANES;
            // SAFETY: `base + 8 <= chunks * LANES <= n`, and `n` bounds
            // `out` and every row.
            unsafe {
                let mut acc = _mm256_loadu_ps(out.as_ptr().add(base));
                for (&wv, x) in wv.iter().zip(xs) {
                    acc = _mm256_fmadd_ps(wv, _mm256_loadu_ps(x.as_ptr().add(base)), acc);
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(base), acc);
            }
        }
        for i in chunks * LANES..n {
            for (&w, x) in w.iter().zip(xs) {
                out[i] = w.mul_add(x[i], out[i]);
            }
        }
    }

    /// Weighted sums of one staircase group: `outs` holds the `BLOCK`
    /// queries' outputs back to back, and `ws[r][q]` is query `q`'s weight
    /// on row `xs[r]`. Query `q`'s output takes
    /// `out[i] = fma(ws[r][q], xs[r][i], out[i])` for each row `r` in
    /// order — the fused multiply-adds `axpy_rows_avx2` applies, so the
    /// result has the same bits as one weighted sum per query. Each
    /// 8-column chunk keeps the eight queries' accumulators in registers
    /// while the rows stream past, so every row chunk loads once for the
    /// whole group. The `dim % 8` tail columns use `mul_add`, which is
    /// fused too.
    pub(crate) fn axpy_queries_avx2(ws: &[[f32; BLOCK]], xs: &[&[f32]], outs: &mut [f32]) {
        // SAFETY: only reachable via `KernelBackend` dispatch, which
        // clamps to scalar unless avx2+fma were detected.
        unsafe { axpy_queries_avx2_impl(ws, xs, outs) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn axpy_queries_avx2_impl(ws: &[[f32; BLOCK]], xs: &[&[f32]], outs: &mut [f32]) {
        let dim = outs.len() / BLOCK;
        if dim == 0 {
            return;
        }
        let n = xs.iter().fold(dim, |n, x| n.min(x.len()));
        let chunks = n / LANES;
        for c in 0..chunks {
            let base = c * LANES;
            let mut acc = [_mm256_setzero_ps(); BLOCK];
            for (q, acc) in acc.iter_mut().enumerate() {
                // SAFETY: `q * dim + base + 8 <= q * dim + n <= (q + 1) *
                // dim <= outs.len()`.
                *acc = unsafe { _mm256_loadu_ps(outs.as_ptr().add(q * dim + base)) };
            }
            for (x, w) in xs.iter().zip(ws) {
                // SAFETY: `base + 8 <= chunks * LANES <= n <= x.len()`.
                let xv = unsafe { _mm256_loadu_ps(x.as_ptr().add(base)) };
                for (acc, &w) in acc.iter_mut().zip(w) {
                    *acc = _mm256_fmadd_ps(_mm256_set1_ps(w), xv, *acc);
                }
            }
            for (q, acc) in acc.iter().enumerate() {
                // SAFETY: the same in-bounds range the loads above read.
                unsafe { _mm256_storeu_ps(outs.as_mut_ptr().add(q * dim + base), *acc) };
            }
        }
        for (q, out) in outs.chunks_exact_mut(dim).enumerate() {
            for i in chunks * LANES..n {
                for (x, w) in xs.iter().zip(ws) {
                    out[i] = w[q].mul_add(x[i], out[i]);
                }
            }
        }
    }
}
