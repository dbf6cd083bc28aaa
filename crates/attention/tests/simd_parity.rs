//! Parity of every dispatched kernel tier against its scalar twin, plus
//! the SIMD-tail edge shapes.
//!
//! The contract under test (see the `kernels` module docs):
//!
//! * integer kernels (`dot_i8`, the `_q` scoring kernels, the quantizers)
//!   are **bit-exact** on every tier;
//! * the SSE2 tier's f32 kernels are **bit-identical** to scalar by
//!   construction;
//! * the AVX2+FMA f32 dot is within the derived bound
//!   `2·n·ε·Σ|aᵢ·bᵢ|`, `ε = 2⁻²⁴` (FMA only removes rounding steps, and
//!   each path's forward error versus the exact sum is ≤ `n·ε·Σ|aᵢ·bᵢ|`
//!   to first order).
//!
//! Tiers are exercised through the `*_with` twins: the
//! `UNICAIM_KERNEL_BACKEND` override is resolved once per process (CI
//! runs a whole matrix leg with `=scalar` for that path), so in-process
//! tier iteration has to pass the backend explicitly.

use proptest::prelude::*;
use unicaim_attention::kernels::{
    attend_gather_with, dot_gather_q_with, dot_gather_with, dot_i8_with, dot_prefix_with, dot_with,
    quantize_arena_i8, quantize_row_cell3_with, quantize_row_i8_with, weighted_sum_gather_with,
    KernelBackend, QuantRowView, RowView,
};
use unicaim_attention::Matrix;

/// Dimensions that stress every SIMD tail: below one vector, straddling
/// the 4/8/16-lane widths, and one off either side of a full 64-element
/// block.
const EDGE_DIMS: [usize; 6] = [1, 3, 7, 9, 63, 65];

/// The derived f32 dot parity bound: `2·n·ε·Σ|aᵢ·bᵢ|` with `ε = 2⁻²⁴`,
/// evaluated in f64 so the bound arithmetic itself cannot round away.
fn dot_parity_bound(a: &[f32], b: &[f32]) -> f32 {
    let sum_abs: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) * f64::from(y)).abs())
        .sum();
    let n = a.len() as f64;
    (2.0 * n * (-24.0f64).exp2() * sum_abs) as f32 + 1e-30
}

fn deterministic_row(len: usize, seed: u64) -> Vec<f32> {
    Matrix::random_normal(1, len, 1.5, seed).row(0).to_vec()
}

#[test]
fn edge_dims_dot_parity_on_every_tier() {
    for &dim in &EDGE_DIMS {
        let a = deterministic_row(dim, 11 + dim as u64);
        let b = deterministic_row(dim, 97 + dim as u64);
        let scalar = dot_with(KernelBackend::Scalar, &a, &b);
        for backend in KernelBackend::supported() {
            let d = dot_with(backend, &a, &b);
            if backend != KernelBackend::Avx2 {
                assert_eq!(
                    d.to_bits(),
                    scalar.to_bits(),
                    "dim {dim} tier {} must be bit-identical to scalar",
                    backend.label()
                );
            }
            let bound = dot_parity_bound(&a, &b);
            assert!(
                (d - scalar).abs() <= bound,
                "dim {dim} tier {}: |{d} - {scalar}| > {bound}",
                backend.label()
            );
        }
    }
}

#[test]
fn edge_dims_integer_paths_bit_exact_on_every_tier() {
    for &dim in &EDGE_DIMS {
        let src = deterministic_row(dim, 7 + dim as u64);
        let qsrc = deterministic_row(dim, 43 + dim as u64);
        let mut expect_q = vec![0i8; dim];
        let expect_scale = quantize_row_i8_with(KernelBackend::Scalar, &src, &mut expect_q);
        let mut expect_c3 = vec![0i8; dim];
        let expect_c3_scale = quantize_row_cell3_with(KernelBackend::Scalar, &src, &mut expect_c3);
        let mut qq = vec![0i8; dim];
        quantize_row_i8_with(KernelBackend::Scalar, &qsrc, &mut qq);
        let expect_dot = dot_i8_with(KernelBackend::Scalar, &qq, &expect_q);
        for backend in KernelBackend::supported() {
            let mut q = vec![0i8; dim];
            let scale = quantize_row_i8_with(backend, &src, &mut q);
            assert_eq!(q, expect_q, "dim {dim} tier {}", backend.label());
            assert_eq!(
                scale.to_bits(),
                expect_scale.to_bits(),
                "dim {dim} tier {}",
                backend.label()
            );
            let mut c3 = vec![0i8; dim];
            let c3_scale = quantize_row_cell3_with(backend, &src, &mut c3);
            assert_eq!(c3, expect_c3, "dim {dim} tier {}", backend.label());
            assert_eq!(
                c3_scale.to_bits(),
                expect_c3_scale.to_bits(),
                "dim {dim} tier {}",
                backend.label()
            );
            assert_eq!(
                dot_i8_with(backend, &qq, &q),
                expect_dot,
                "dim {dim} tier {}",
                backend.label()
            );
        }
    }
}

#[test]
fn empty_gather_and_single_row_arena_on_every_tier() {
    for &dim in &EDGE_DIMS {
        let arena = deterministic_row(dim, 3 + dim as u64);
        let values = deterministic_row(dim, 17 + dim as u64);
        let query = deterministic_row(dim, 29 + dim as u64);
        let keys = RowView::contiguous(&arena, dim);
        let vals = RowView::contiguous(&values, dim);
        let (qarena, qscales) = quantize_arena_i8(&arena, dim);
        let qkeys = QuantRowView::contiguous(&qarena, &qscales, dim);
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8_with(KernelBackend::Scalar, &query, &mut qq);
        for backend in KernelBackend::supported() {
            // Empty gather: no output, and fused attend zeroes `out`.
            let mut empty_out: Vec<f32> = Vec::new();
            dot_gather_with(backend, &query, keys, &[], 1.0, &mut empty_out);
            assert!(empty_out.is_empty());
            let mut weights = Vec::new();
            let mut out = vec![5.0f32; dim];
            attend_gather_with(
                backend,
                &query,
                keys,
                vals,
                &[],
                1.0,
                &mut weights,
                &mut out,
            );
            assert_eq!(out, vec![0.0; dim], "tier {}", backend.label());

            // Single-row arena: one gathered dot, and the fused attend
            // collapses to that row's values (softmax of one logit = 1).
            let mut one = [0.0f32];
            dot_gather_with(backend, &query, keys, &[0], 0.5, &mut one);
            let expect = dot_with(backend, &query, &arena) * 0.5;
            assert_eq!(
                one[0].to_bits(),
                expect.to_bits(),
                "tier {}",
                backend.label()
            );
            let mut one_q = [0.0f32];
            dot_gather_q_with(backend, &qq, qs, qkeys, &[0], 0.5, &mut one_q);
            let expect_q = dot_i8_with(backend, &qq, &qarena) as f32 * (0.5 * qs * qscales[0]);
            assert_eq!(
                one_q[0].to_bits(),
                expect_q.to_bits(),
                "tier {}",
                backend.label()
            );
            attend_gather_with(
                backend,
                &query,
                keys,
                vals,
                &[0],
                1.0,
                &mut weights,
                &mut out,
            );
            for (o, v) in out.iter().zip(&values) {
                assert!(
                    (o - v).abs() <= 1e-6 * v.abs().max(1.0),
                    "tier {}: single-row attend {out:?} != values {values:?}",
                    backend.label()
                );
            }
        }
    }
}

proptest! {
    // `with_cases_env`: sanitizer jobs dial the count down via
    // `UNICAIM_PROPTEST_CASES`; Miri clamps it to 2.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// f32 dot: every supported tier stays within the derived FMA bound
    /// of scalar, and the SSE2 tier is bit-identical.
    #[test]
    fn dot_every_tier_within_derived_bound_of_scalar(
        a in proptest::collection::vec(-8.0f32..8.0, 1..200),
        seed in 0u64..1000,
    ) {
        let b = deterministic_row(a.len(), seed);
        let scalar = dot_with(KernelBackend::Scalar, &a, &b);
        let bound = dot_parity_bound(&a, &b);
        for backend in KernelBackend::supported() {
            let d = dot_with(backend, &a, &b);
            prop_assert!(
                (d - scalar).abs() <= bound,
                "tier {}: |{d} - {scalar}| = {} > {bound}",
                backend.label(),
                (d - scalar).abs()
            );
            if backend == KernelBackend::Sse2 {
                prop_assert_eq!(d.to_bits(), scalar.to_bits());
            }
        }
    }

    /// i8 dot: bit-exact integer arithmetic on every tier.
    #[test]
    fn dot_i8_every_tier_bit_exact(
        a in proptest::collection::vec(-127i8..=127, 1..200),
        b in proptest::collection::vec(-127i8..=127, 1..200),
    ) {
        let n = a.len().min(b.len());
        let scalar = dot_i8_with(KernelBackend::Scalar, &a[..n], &b[..n]);
        for backend in KernelBackend::supported() {
            prop_assert_eq!(dot_i8_with(backend, &a[..n], &b[..n]), scalar);
        }
    }

    /// Quantized gather scoring: integer dot is exact and the rescale is
    /// shared scalar code, so the whole kernel is bit-exact across tiers.
    #[test]
    fn dot_gather_q_every_tier_bit_exact(
        dim in 1usize..80,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let arena: Vec<f32> = Matrix::random_normal(n, dim, 2.0, seed).as_slice().to_vec();
        let (qarena, scales) = quantize_arena_i8(&arena, dim);
        let keys = QuantRowView::contiguous(&qarena, &scales, dim);
        let query = deterministic_row(dim, seed ^ 0xabcd);
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8_with(KernelBackend::Scalar, &query, &mut qq);
        let rows: Vec<usize> = (0..n).rev().collect();
        let mut expect = vec![0.0f32; n];
        dot_gather_q_with(KernelBackend::Scalar, &qq, qs, keys, &rows, 0.25, &mut expect);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; n];
            dot_gather_q_with(backend, &qq, qs, keys, &rows, 0.25, &mut out);
            for (x, e) in out.iter().zip(&expect) {
                prop_assert_eq!(x.to_bits(), e.to_bits());
            }
        }
    }

    /// Prefix and gather scoring agree on every tier (same per-row kernel,
    /// different row enumeration).
    #[test]
    fn dot_prefix_matches_gather_on_every_tier(
        dim in 1usize..80,
        n in 1usize..16,
        seed in 0u64..1000,
    ) {
        let arena: Vec<f32> = Matrix::random_normal(n, dim, 1.0, seed).as_slice().to_vec();
        let keys = RowView::contiguous(&arena, dim);
        let query = deterministic_row(dim, seed ^ 0x77);
        let rows: Vec<usize> = (0..n).collect();
        for backend in KernelBackend::supported() {
            let mut a = vec![0.0f32; n];
            dot_prefix_with(backend, &query, keys, 1.5, &mut a);
            let mut b = vec![0.0f32; n];
            dot_gather_with(backend, &query, keys, &rows, 1.5, &mut b);
            prop_assert_eq!(&a, &b);
        }
    }

    /// Weighted sums: SSE2 bit-identical to scalar; AVX2 within a per-
    /// element fused-rounding bound of scalar.
    #[test]
    fn weighted_sum_every_tier_tracks_scalar(
        dim in 1usize..80,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let arena: Vec<f32> = Matrix::random_normal(n, dim, 1.0, seed).as_slice().to_vec();
        let values = RowView::contiguous(&arena, dim);
        let weights = deterministic_row(n, seed ^ 0x5a5a);
        let rows: Vec<usize> = (0..n).collect();
        let mut scalar = vec![0.0f32; dim];
        weighted_sum_gather_with(KernelBackend::Scalar, &weights, values, &rows, &mut scalar);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; dim];
            weighted_sum_gather_with(backend, &weights, values, &rows, &mut out);
            for (o, s) in out.iter().zip(&scalar) {
                if backend == KernelBackend::Sse2 {
                    prop_assert_eq!(o.to_bits(), s.to_bits());
                } else {
                    // n fused accumulations, each within 1 ulp of the
                    // scalar step: generous absolute-relative envelope.
                    prop_assert!(
                        (o - s).abs() <= 1e-4 * s.abs().max(1.0),
                        "tier {}: {o} vs {s}",
                        backend.label()
                    );
                }
            }
        }
    }

    /// Fused attention stays within a softmax-amplified envelope of the
    /// scalar tier (logit perturbations are ≤ the derived dot bound).
    #[test]
    fn attend_gather_every_tier_tracks_scalar(
        dim in 1usize..64,
        n in 1usize..16,
        seed in 0u64..1000,
    ) {
        let keys_arena: Vec<f32> = Matrix::random_normal(n, dim, 1.0, seed).as_slice().to_vec();
        let vals_arena: Vec<f32> = Matrix::random_normal(n, dim, 1.0, seed ^ 1).as_slice().to_vec();
        let keys = RowView::contiguous(&keys_arena, dim);
        let vals = RowView::contiguous(&vals_arena, dim);
        let query = deterministic_row(dim, seed ^ 2);
        let rows: Vec<usize> = (0..n).collect();
        let scale = 1.0 / (dim as f32).sqrt();
        let mut w = Vec::new();
        let mut scalar = vec![0.0f32; dim];
        attend_gather_with(KernelBackend::Scalar, &query, keys, vals, &rows, scale, &mut w, &mut scalar);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; dim];
            attend_gather_with(backend, &query, keys, vals, &rows, scale, &mut w, &mut out);
            for (o, s) in out.iter().zip(&scalar) {
                prop_assert!(
                    (o - s).abs() <= 5e-3 * s.abs().max(1.0),
                    "tier {}: {o} vs {s}",
                    backend.label()
                );
            }
        }
    }
}
