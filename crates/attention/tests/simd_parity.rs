//! Parity of the AVX2 tier against the scalar tier, plus the SIMD-tail
//! edge shapes. Each test iterates the tiers the host supports; on a host
//! without AVX2 only the scalar tier runs, against the exact models and
//! the naive integer sums.
//!
//! The contract under test (see the `kernels` module docs):
//!
//! * integer kernels (`dot_i8`, the `_q` scoring kernels) are
//!   **bit-exact** on every tier, and `dot_i8` equals the naive integer
//!   sum on every tier, scalar included;
//! * the quantizers are shared scalar code: levels and scales are
//!   **bit-exact** on every tier for every input, NaN and ±∞ included,
//!   and cell levels stay in `−2..=2`;
//! * the AVX2+FMA f32 dot is within the derived bound
//!   `2·n·ε·Σ|aᵢ·bᵢ|`, `ε = 2⁻²⁴` (FMA only removes rounding steps, and
//!   each path's forward error versus the exact sum is ≤ `n·ε·Σ|aᵢ·bᵢ|`
//!   to first order);
//! * on every tier, each f32 row kernel equals an exact per-row model of
//!   that tier's operation order bit for bit, however the kernel groups
//!   rows into blocks or queries into staircase groups
//!   (`f32_kernels_equal_the_per_row_model_on_every_tier`, and at every
//!   edge dimension `f32_kernels_equal_the_per_row_model_at_edge_dims`).
//!
//! Each tier is exercised by calling the kernel methods on it
//! (`backend.dot_gather(…)`): the `UNICAIM_KERNEL_BACKEND` override is
//! resolved once per process (CI runs a whole matrix leg with `=scalar`
//! for that path), so in-process tier iteration names the tier at each
//! call.

use proptest::prelude::*;
use unicaim_attention::kernels::{quantize_arena_i8, KernelBackend, QuantRowView, RowView, Rows};
use unicaim_attention::{softmax_in_place, KvStore, Matrix, PageArena, Precision};

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

/// Most rows one model-checked kernel call covers: several 8-row blocks
/// plus every tail length.
const MODEL_MAX_ROWS: usize = 40;

/// Most queries one model-checked staircase call holds: a full group of
/// eight, then a trailing group of every size from one to eight.
const STAIRCASE_MAX_QUERIES: usize = 16;

/// Rows the model-checked views hold: the longest staircase, `first =
/// MODEL_MAX_ROWS` with `STAIRCASE_MAX_QUERIES` queries, reads rows up to
/// `MODEL_MAX_ROWS + STAIRCASE_MAX_QUERIES - 2`.
const MODEL_ROWS: usize = MODEL_MAX_ROWS + STAIRCASE_MAX_QUERIES;

/// The staircases the edge-dimension check sweeps: each `first` in
/// `0..=MODEL_MAX_ROWS` with one to eight queries (a lone group of every
/// size), plus a full group followed by a trailing group whose size
/// cycles through 1–8 as `first` grows.
fn every_staircase() -> Vec<(usize, usize)> {
    (0..=MODEL_MAX_ROWS)
        .flat_map(|first| (1..=8).chain([9 + first % 8]).map(move |n| (first, n)))
        .collect()
}

/// Exact model of one tier's f32 dot: eight lane accumulators over 8-wide
/// chunks, lanes summed left to right, then the unfused tail added last.
fn model_dot(fused: bool, a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let mut lanes = [0.0f32; 8];
    for c in 0..chunks {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let i = c * 8 + l;
            *lane = if fused {
                a[i].mul_add(b[i], *lane)
            } else {
                *lane + a[i] * b[i]
            };
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..n {
        tail += a[i] * b[i];
    }
    lanes[1..].iter().fold(lanes[0], |sum, &lane| sum + lane) + tail
}

/// Exact model of one tier's weighted sum: per output element, the rows
/// in order, each one multiply-add (fused or not).
fn model_weighted_sum(fused: bool, weights: &[f32], rows: &[&[f32]], out: &mut [f32]) {
    for (&w, row) in weights.iter().zip(rows) {
        for (o, &x) in out.iter_mut().zip(*row) {
            *o = if fused { w.mul_add(x, *o) } else { *o + w * x };
        }
    }
}

/// Fails with `what` unless `got` and `want` hold the same bits.
fn same_bits(got: &[f32], want: &[f32], what: std::fmt::Arguments) -> Result<(), String> {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert!(bits(got) == bits(want), "{what}: {got:?} != model {want:?}");
    Ok(())
}

/// Checks every f32 row kernel of every supported tier against the
/// models, for `n` in `0..=MODEL_MAX_ROWS` rows of `keys`/`values` (which
/// hold at least `MODEL_ROWS` rows), both as the prefix `0..n` and
/// gathered through `gather[..n]`; then both staircase kernels for each
/// `(first, n)` of `staircases`.
fn check_against_model<K: Rows, V: Rows>(
    keys: K,
    values: V,
    gather: &[usize],
    staircases: &[(usize, usize)],
    seed: u64,
) -> Result<(), String> {
    let dim = keys.dim();
    let query = deterministic_row(dim, seed ^ 0x51);
    let weights = deterministic_row(MODEL_MAX_ROWS, seed ^ 0x52);
    let start = deterministic_row(dim, seed ^ 0x53);
    let queries = Matrix::random_normal(STAIRCASE_MAX_QUERIES, dim, 1.5, seed ^ 0x54);
    let scale = 1.0 / (dim as f32).sqrt();
    for backend in KernelBackend::supported() {
        // AVX2+FMA fuses multiply-add; scalar rounds the product.
        let fused = backend == KernelBackend::Avx2;
        let tier = backend.label();
        // Every row's model score, checked against the single-row dot.
        let mut scores = Vec::with_capacity(MODEL_MAX_ROWS + 1);
        for r in 0..=MODEL_MAX_ROWS {
            let want = model_dot(fused, &query, keys.row(r));
            same_bits(
                &[backend.dot(&query, keys.row(r))],
                &[want],
                format_args!("{tier} dot row {r}"),
            )?;
            scores.push(want * scale);
        }
        let model_scores = |rows: &[usize]| rows.iter().map(|&r| scores[r]).collect::<Vec<_>>();
        let model_sum = |weights: &[f32], rows: &[usize], out: &mut [f32]| {
            let rows: Vec<&[f32]> = rows.iter().map(|&r| values.row(r)).collect();
            model_weighted_sum(fused, weights, &rows, out);
        };
        let model_attend = |rows: &[usize]| {
            let mut w = model_scores(rows);
            softmax_in_place(&mut w);
            let mut out = vec![0.0f32; dim];
            model_sum(&w, rows, &mut out);
            out
        };
        for n in 0..=MODEL_MAX_ROWS {
            let prefix: Vec<usize> = (0..n).collect();
            let gathered = &gather[..n];

            let mut got = vec![0.0f32; n];
            backend.dot_prefix(&query, keys, scale, &mut got);
            same_bits(
                &got,
                &model_scores(&prefix),
                format_args!("{tier} dot_prefix n {n}"),
            )?;
            backend.dot_gather(&query, keys, gathered, scale, &mut got);
            same_bits(
                &got,
                &model_scores(gathered),
                format_args!("{tier} dot_gather n {n}"),
            )?;

            let mut got = start.clone();
            backend.weighted_sum_gather(&weights[..n], values, gathered, &mut got);
            let mut want = start.clone();
            model_sum(&weights[..n], gathered, &mut want);
            same_bits(
                &got,
                &want,
                format_args!("{tier} weighted_sum_gather n {n}"),
            )?;

            let mut scratch = Vec::new();
            let mut got = start.clone();
            backend.attend_prefix(&query, keys, values, n, scale, &mut scratch, &mut got);
            same_bits(
                &got,
                &model_attend(&prefix),
                format_args!("{tier} attend_prefix n {n}"),
            )?;
            let mut got = start.clone();
            backend.attend_gather(
                &query,
                keys,
                values,
                gathered,
                scale,
                &mut scratch,
                &mut got,
            );
            same_bits(
                &got,
                &model_attend(gathered),
                format_args!("{tier} attend_gather n {n}"),
            )?;
        }

        // Staircase query `j` of `first` attends rows `0..first + j`: its
        // model is the per-row softmax and weighted sum over that prefix.
        let query_scores: Vec<Vec<f32>> = (0..STAIRCASE_MAX_QUERIES)
            .map(|j| {
                (0..MODEL_ROWS)
                    .map(|r| model_dot(fused, queries.row(j), keys.row(r)) * scale)
                    .collect()
            })
            .collect();
        let view = RowView::contiguous(queries.as_slice(), dim);
        let mut scratch = Vec::new();
        for &(first, n) in staircases {
            // Two spare columns per row must keep their sentinel.
            let stride = first + n + 1;
            let mut got = vec![7.0f32; n * stride];
            backend.probs_staircase(view, n, keys, first, scale, &mut got, stride);
            let mut got_out = start.repeat(n);
            backend.attend_staircase(
                view,
                n,
                keys,
                values,
                first,
                scale,
                &mut scratch,
                &mut got_out,
            );
            for j in 0..n {
                let len = first + j;
                let mut want = query_scores[j][..len].to_vec();
                softmax_in_place(&mut want);
                let mut want_out = vec![0.0f32; dim];
                model_sum(&want, &(0..len).collect::<Vec<_>>(), &mut want_out);
                want.resize(stride, 7.0);
                same_bits(
                    &got[j * stride..(j + 1) * stride],
                    &want,
                    format_args!("{tier} probs_staircase first {first} n {n} query {j}"),
                )?;
                same_bits(
                    &got_out[j * dim..(j + 1) * dim],
                    &want_out,
                    format_args!("{tier} attend_staircase first {first} n {n} query {j}"),
                )?;
            }
        }
    }
    Ok(())
}

/// Runs [`check_against_model`] on contiguous, strided (`pad` spare
/// columns of NaN per row) and paged (`page_rows` rows per page) copies
/// of the same `MODEL_ROWS`-row keys and values.
fn check_every_layout(
    dim: usize,
    pad: usize,
    page_rows: usize,
    gather: &[usize],
    staircases: &[(usize, usize)],
    seed: u64,
) -> Result<(), String> {
    let m = MODEL_ROWS;
    let keys = Matrix::random_normal(m, dim, 1.5, seed);
    let values = Matrix::random_normal(m, dim, 1.5, seed ^ 1);

    check_against_model(
        RowView::contiguous(keys.as_slice(), dim),
        RowView::contiguous(values.as_slice(), dim),
        gather,
        staircases,
        seed,
    )?;

    let stride = dim + pad;
    let strided = |src: &Matrix| {
        let mut flat = vec![f32::NAN; m * stride];
        for r in 0..m {
            flat[r * stride..r * stride + dim].copy_from_slice(src.row(r));
        }
        flat
    };
    let (strided_keys, strided_values) = (strided(&keys), strided(&values));
    check_against_model(
        RowView::new(&strided_keys, stride, dim),
        RowView::new(&strided_values, stride, dim),
        gather,
        staircases,
        seed,
    )?;

    let arena = PageArena::new(dim, page_rows);
    let mut store = KvStore::with_arena(&arena, m, Precision::F32);
    for t in 0..m {
        prop_assert!(store
            .write_slot_parts(t, t, keys.row(t), values.row(t))
            .is_ok());
    }
    check_against_model(
        store.keys_view(),
        store.values_view(),
        gather,
        staircases,
        seed,
    )
}

/// At every SIMD-tail edge dimension, on every layout, every f32 row
/// kernel equals the per-row model, and the staircase kernels do so for
/// every staircase of [`every_staircase`].
#[test]
fn f32_kernels_equal_the_per_row_model_at_edge_dims() {
    let gather: Vec<usize> = (0..MODEL_MAX_ROWS)
        .map(|i| (i * 17 + 5) % (MODEL_MAX_ROWS + 1))
        .collect();
    let staircases = every_staircase();
    for &dim in &EDGE_DIMS {
        let checked = check_every_layout(dim, 3, 5, &gather, &staircases, 900 + dim as u64);
        assert_eq!(checked, Ok(()), "dim {dim}");
    }
}

#[test]
fn edge_dims_dot_parity_on_every_tier() {
    for &dim in &EDGE_DIMS {
        let a = deterministic_row(dim, 11 + dim as u64);
        let b = deterministic_row(dim, 97 + dim as u64);
        let scalar = KernelBackend::Scalar.dot(&a, &b);
        for backend in KernelBackend::supported() {
            let d = backend.dot(&a, &b);
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
        let expect_scale = KernelBackend::Scalar.quantize_row_i8(&src, &mut expect_q);
        let mut expect_c3 = vec![0i8; dim];
        let expect_c3_scale = KernelBackend::Scalar.quantize_row_cell3(&src, &mut expect_c3);
        let mut qq = vec![0i8; dim];
        KernelBackend::Scalar.quantize_row_i8(&qsrc, &mut qq);
        let expect_dot = KernelBackend::Scalar.dot_i8(&qq, &expect_q);
        for backend in KernelBackend::supported() {
            let mut q = vec![0i8; dim];
            let scale = backend.quantize_row_i8(&src, &mut q);
            assert_eq!(q, expect_q, "dim {dim} tier {}", backend.label());
            assert_eq!(
                scale.to_bits(),
                expect_scale.to_bits(),
                "dim {dim} tier {}",
                backend.label()
            );
            let mut c3 = vec![0i8; dim];
            let c3_scale = backend.quantize_row_cell3(&src, &mut c3);
            assert_eq!(c3, expect_c3, "dim {dim} tier {}", backend.label());
            assert_eq!(
                c3_scale.to_bits(),
                expect_c3_scale.to_bits(),
                "dim {dim} tier {}",
                backend.label()
            );
            assert_eq!(
                backend.dot_i8(&qq, &q),
                expect_dot,
                "dim {dim} tier {}",
                backend.label()
            );
        }
    }
}

/// The quantizers give the same levels and scale on every tier for rows
/// holding NaN and ±∞, and cell levels stay in `−2..=2`. A SIMD `max` lane
/// that meets a NaN forgets every value it held, so a vectorized max-abs
/// fails here: `[5, 0, 0, −1, 0, 0, 0, 0, NaN, 0, …]` would quantize with
/// scale `1/127` instead of `5/127`, and to cell level 10 at index 0.
#[test]
fn quantizers_tier_invariant_for_non_finite_rows() {
    for dim in EDGE_DIMS.into_iter().chain([16, 64]) {
        let mut rows = Vec::new();
        let mut spiked = vec![0.0f32; dim];
        for (i, v) in [(0, 5.0), (3, -1.0), (8, f32::NAN)] {
            if i < dim {
                spiked[i] = v;
            }
        }
        rows.push(spiked);
        rows.push(vec![f32::NAN; dim]);
        let positions = [0, 3, 7, 8, 15, dim / 2, dim - 1];
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for p in positions.into_iter().filter(|&p| p < dim) {
                let mut row = deterministic_row(dim, 71 + (dim * 8 + p) as u64);
                row[p] = special;
                rows.push(row.clone());
                // The same row with a NaN further along as well.
                row[(p + 5) % dim] = f32::NAN;
                rows.push(row);
            }
        }
        for row in &rows {
            let mut expect_q = vec![0i8; dim];
            let expect_scale = KernelBackend::Scalar.quantize_row_i8(row, &mut expect_q);
            let mut expect_c3 = vec![0i8; dim];
            let expect_c3_scale = KernelBackend::Scalar.quantize_row_cell3(row, &mut expect_c3);
            for backend in KernelBackend::supported() {
                let tier = backend.label();
                let mut q = vec![0i8; dim];
                let scale = backend.quantize_row_i8(row, &mut q);
                assert_eq!(q, expect_q, "tier {tier} i8 levels of {row:?}");
                assert_eq!(
                    scale.to_bits(),
                    expect_scale.to_bits(),
                    "tier {tier} i8 scale of {row:?}"
                );
                let mut c3 = vec![0i8; dim];
                let c3_scale = backend.quantize_row_cell3(row, &mut c3);
                assert!(
                    c3.iter().all(|l| (-2..=2).contains(l)),
                    "tier {tier} cell levels {c3:?} of {row:?}"
                );
                assert_eq!(c3, expect_c3, "tier {tier} cell levels of {row:?}");
                assert_eq!(
                    c3_scale.to_bits(),
                    expect_c3_scale.to_bits(),
                    "tier {tier} cell scale of {row:?}"
                );
            }
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
        let qs = KernelBackend::Scalar.quantize_row_i8(&query, &mut qq);
        for backend in KernelBackend::supported() {
            // Empty gather: no output, and fused attend zeroes `out`.
            let mut empty_out: Vec<f32> = Vec::new();
            backend.dot_gather(&query, keys, &[], 1.0, &mut empty_out);
            assert!(empty_out.is_empty());
            let mut weights = Vec::new();
            let mut out = vec![5.0f32; dim];
            backend.attend_gather(&query, keys, vals, &[], 1.0, &mut weights, &mut out);
            assert_eq!(out, vec![0.0; dim], "tier {}", backend.label());

            // Single-row arena: one gathered dot, and the fused attend
            // collapses to that row's values (softmax of one logit = 1).
            let mut one = [0.0f32];
            backend.dot_gather(&query, keys, &[0], 0.5, &mut one);
            let expect = backend.dot(&query, &arena) * 0.5;
            assert_eq!(
                one[0].to_bits(),
                expect.to_bits(),
                "tier {}",
                backend.label()
            );
            let mut one_q = [0.0f32];
            backend.dot_gather_q(&qq, qs, qkeys, &[0], 0.5, &mut one_q);
            let expect_q = backend.dot_i8(&qq, &qarena) as f32 * (0.5 * qs * qscales[0]);
            assert_eq!(
                one_q[0].to_bits(),
                expect_q.to_bits(),
                "tier {}",
                backend.label()
            );
            backend.attend_gather(&query, keys, vals, &[0], 1.0, &mut weights, &mut out);
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
    /// of scalar.
    #[test]
    fn dot_every_tier_within_derived_bound_of_scalar(
        a in proptest::collection::vec(-8.0f32..8.0, 1..200),
        seed in 0u64..1000,
    ) {
        let b = deterministic_row(a.len(), seed);
        let scalar = KernelBackend::Scalar.dot(&a, &b);
        let bound = dot_parity_bound(&a, &b);
        for backend in KernelBackend::supported() {
            let d = backend.dot(&a, &b);
            prop_assert!(
                (d - scalar).abs() <= bound,
                "tier {}: |{d} - {scalar}| = {} > {bound}",
                backend.label(),
                (d - scalar).abs()
            );
        }
    }

    /// i8 dot: every tier, scalar included, equals the naive integer sum
    /// `Σ i32(aᵢ)·i32(bᵢ)` at every length `0..=200` (every tail length
    /// mod 16) over the full `i8` range.
    #[test]
    fn dot_i8_every_tier_bit_exact(
        a in proptest::collection::vec(i8::MIN..=i8::MAX, 200),
        b in proptest::collection::vec(i8::MIN..=i8::MAX, 200),
    ) {
        for n in 0..=200 {
            let (a, b) = (&a[..n], &b[..n]);
            let naive: i32 = a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
            for backend in KernelBackend::supported() {
                let got = backend.dot_i8(a, b);
                prop_assert!(got == naive, "tier {} n {n}: {got} != {naive}", backend.label());
            }
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
        let qs = KernelBackend::Scalar.quantize_row_i8(&query, &mut qq);
        let rows: Vec<usize> = (0..n).rev().collect();
        let mut expect = vec![0.0f32; n];
        KernelBackend::Scalar.dot_gather_q(&qq, qs, keys, &rows, 0.25, &mut expect);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; n];
            backend.dot_gather_q(&qq, qs, keys, &rows, 0.25, &mut out);
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
            backend.dot_prefix(&query, keys, 1.5, &mut a);
            let mut b = vec![0.0f32; n];
            backend.dot_gather(&query, keys, &rows, 1.5, &mut b);
            prop_assert_eq!(&a, &b);
        }
    }

    /// Weighted sums: AVX2 within a per-element fused-rounding bound of
    /// scalar.
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
        KernelBackend::Scalar.weighted_sum_gather(&weights, values, &rows, &mut scalar);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; dim];
            backend.weighted_sum_gather(&weights, values, &rows, &mut out);
            for (o, s) in out.iter().zip(&scalar) {
                // n fused accumulations, each within 1 ulp of the scalar
                // step: generous absolute-relative envelope.
                prop_assert!(
                    (o - s).abs() <= 1e-4 * s.abs().max(1.0),
                    "tier {}: {o} vs {s}",
                    backend.label()
                );
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
        KernelBackend::Scalar.attend_gather(&query, keys, vals, &rows, scale, &mut w, &mut scalar);
        for backend in KernelBackend::supported() {
            let mut out = vec![0.0f32; dim];
            backend.attend_gather(&query, keys, vals, &rows, scale, &mut w, &mut out);
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

proptest! {
    // Each case sweeps every row count `0..=MODEL_MAX_ROWS` over three row
    // layouts on every tier, so fewer cases than the properties above.
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// Every tier's f32 row kernels (`dot`, `dot_prefix`, `dot_gather`,
    /// `weighted_sum_gather`, `attend_prefix`, `attend_gather`,
    /// `probs_staircase`, `attend_staircase`) equal the per-row model bit
    /// for bit on contiguous, strided and paged rows, including permuted
    /// and repeated gathers: blocking rows or grouping queries must not
    /// regroup any row's sum. Each case checks one drawn staircase; the
    /// edge-dimension test above sweeps all of them.
    #[test]
    fn f32_kernels_equal_the_per_row_model_on_every_tier(
        dim in 1usize..=140,
        pad in 1usize..6,
        page_rows in 1usize..8,
        seed in 0u64..1000,
        first in 0usize..=MODEL_MAX_ROWS,
        queries in 1usize..=STAIRCASE_MAX_QUERIES,
    ) {
        let m = MODEL_MAX_ROWS + 1;
        // Mostly a permutation of the first 41 rows (17 is coprime with
        // 41), with every third entry repeating an earlier row.
        let gather: Vec<usize> = (0..MODEL_MAX_ROWS)
            .map(|i| if i % 3 == 2 { (i - 2) * 17 % m } else { (i * 17 + seed as usize) % m })
            .collect();
        check_every_layout(dim, pad, page_rows, &gather, &[(first, queries)], seed)?;
    }
}
