//! Property-based tests of the attention substrate invariants.

use proptest::prelude::*;
use unicaim_attention::kernels::partial_top_k;
use unicaim_attention::metrics::{cosine_similarity, relative_l2_error, set_f1};
use unicaim_attention::{
    attention_output, attention_scores, softmax_in_place, AttentionError, KvStore, Matrix,
    PAGE_ROWS,
};

proptest! {
    /// Softmax outputs are a probability distribution, invariant to shifts.
    #[test]
    fn softmax_distribution(mut xs in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
        let mut shifted: Vec<f32> = xs.iter().map(|x| x + 13.5).collect();
        softmax_in_place(&mut xs);
        softmax_in_place(&mut shifted);
        let sum: f32 = xs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        for (a, b) in xs.iter().zip(&shifted) {
            prop_assert!((a - b).abs() < 1e-4, "shift invariance violated");
        }
        prop_assert!(xs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Attention output is a convex combination of the values.
    #[test]
    fn attention_output_in_convex_hull(
        dim in 2usize..8,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let keys = Matrix::random_normal(n, dim, 1.0, seed);
        let values = Matrix::random_normal(n, dim, 1.0, seed ^ 1);
        let query = Matrix::random_normal(1, dim, 1.0, seed ^ 2);
        let kr: Vec<&[f32]> = (0..n).map(|i| keys.row(i)).collect();
        let vr: Vec<&[f32]> = (0..n).map(|i| values.row(i)).collect();
        let out = attention_output(query.row(0), &kr, &vr);
        for (d, out_d) in out.iter().enumerate().take(dim) {
            let lo = (0..n).map(|i| values.get(i, d)).fold(f32::INFINITY, f32::min);
            let hi = (0..n).map(|i| values.get(i, d)).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(*out_d >= lo - 1e-4 && *out_d <= hi + 1e-4,
                "output {} outside hull [{lo}, {hi}]", out_d);
        }
    }

    /// Scores scale linearly with the query.
    #[test]
    fn scores_linear_in_query(dim in 2usize..8, seed in 0u64..1000, scale in 0.1f32..4.0) {
        let key = Matrix::random_normal(1, dim, 1.0, seed);
        let query = Matrix::random_normal(1, dim, 1.0, seed ^ 3);
        let scaled: Vec<f32> = query.row(0).iter().map(|x| x * scale).collect();
        let s1 = attention_scores(query.row(0), &[key.row(0)])[0];
        let s2 = attention_scores(&scaled, &[key.row(0)])[0];
        prop_assert!((s2 - s1 * scale).abs() < 1e-3 * s1.abs().max(1.0));
    }

    /// partial_top_k returns k distinct indices in descending value order.
    #[test]
    fn argtopk_sound(values in proptest::collection::vec(-10.0f32..10.0, 1..64), k in 1usize..16) {
        let top = partial_top_k(&values, k);
        prop_assert_eq!(top.len(), k.min(values.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in top.windows(2) {
            prop_assert!(values[w[0]] >= values[w[1]], "not descending");
        }
        for &i in &top {
            prop_assert!(seen.insert(i), "duplicate index");
        }
        // Nothing outside the selection beats the selection minimum.
        if let Some(&last) = top.last() {
            let min_sel = values[last];
            for (i, &v) in values.iter().enumerate() {
                if !top.contains(&i) {
                    prop_assert!(v <= min_sel + 1e-6);
                }
            }
        }
    }

    /// Cosine similarity is bounded and symmetric; relative error is zero
    /// only for identical vectors.
    #[test]
    fn metric_properties(
        a in proptest::collection::vec(-5.0f32..5.0, 4..16),
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * 2.0).collect();
        let cs = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&cs));
        prop_assert!((cosine_similarity(&a, &b) - cosine_similarity(&b, &a)).abs() < 1e-12);
        prop_assert!(relative_l2_error(&a, &a) == 0.0);
    }

    /// Set F1 is symmetric in P/R exchange and bounded.
    #[test]
    fn f1_bounds(
        pred in proptest::collection::btree_set(0usize..32, 0..16),
        truth in proptest::collection::btree_set(0usize..32, 0..16),
    ) {
        let s = set_f1(&pred, &truth);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!((0.0..=1.0).contains(&s.f1));
        prop_assert!(s.f1 <= s.precision.max(s.recall) + 1e-12);
        // Swapping prediction and truth swaps precision and recall.
        let t = set_f1(&truth, &pred);
        if !pred.is_empty() && !truth.is_empty() {
            prop_assert!((s.precision - t.recall).abs() < 1e-12);
            prop_assert!((s.f1 - t.f1).abs() < 1e-12);
        }
    }

    /// KvStore: writes and evictions keep len consistent with occupancy.
    #[test]
    fn kvstore_len_consistency(
        ops in proptest::collection::vec((0usize..6, proptest::bool::ANY), 1..50),
    ) {
        let mut store = KvStore::new(6, 2);
        let mut expect = 0usize;
        for (i, (slot, write)) in ops.iter().enumerate() {
            if *write {
                let was = store.token_at(*slot).is_some();
                store.write_slot_parts(*slot, i, &[0.0; 2], &[0.0; 2]).unwrap();
                if !was { expect += 1; }
            } else if store.evict_slot(*slot).unwrap().is_some() {
                expect -= 1;
            }
            prop_assert_eq!(store.len(), expect);
        }
    }

    /// The structure-of-arrays KvStore tracks a naive slot model exactly:
    /// same append/write/evict outcomes (including the displaced token),
    /// same occupancy, same `slot_of_token` answers, same per-slot tokens
    /// and rows (evicted and never-written slots read as zero rows). Token
    /// ids come from a small range, so they repeat and arrive out of
    /// order: the sorted token index must insert mid-list, and a token
    /// resident in another slot must be refused.
    #[test]
    fn kvstore_matches_naive_slot_model(
        ops in proptest::collection::vec((0usize..5, 0usize..3, -4i32..4, 0usize..8), 1..60),
    ) {
        const CAP: usize = 5;
        const DIM: usize = 3;
        const TOKENS: usize = 8;
        let mut store = KvStore::new(CAP, DIM);
        // One (token, key fill, value fill) per occupied slot.
        let mut model: Vec<Option<(usize, f32, f32)>> = vec![None; CAP];
        let holder = |model: &[Option<(usize, f32, f32)>], token: usize| {
            model.iter().position(|m| m.is_some_and(|(t, _, _)| t == token))
        };
        for &(slot, op, seed, token) in &ops {
            let entry = (token, seed as f32 * 0.5, seed as f32 * 0.25 + 1.0);
            let (key, value) = ([entry.1; DIM], [entry.2; DIM]);
            match op {
                // Direct in-slot overwrite.
                0 => {
                    let result = store.write_slot_parts(slot, token, &key, &value);
                    match holder(&model, token).filter(|&h| h != slot) {
                        Some(other) => prop_assert!(
                            matches!(result, Err(AttentionError::DuplicateToken { token: t, slot: s })
                                if t == token && s == other),
                            "token {token} held in slot {other}: {result:?}"
                        ),
                        None => prop_assert_eq!(
                            result.unwrap(),
                            model[slot].replace(entry).map(|(t, _, _)| t)
                        ),
                    }
                }
                // Append into the first free slot.
                1 => {
                    let model_free = model.iter().position(Option::is_none);
                    prop_assert_eq!(store.first_free_slot(), model_free);
                    let result = store.append_parts(token, &key, &value);
                    match (model_free, holder(&model, token)) {
                        (None, _) => prop_assert!(
                            matches!(result, Err(AttentionError::IndexOutOfRange { .. })),
                            "full store: {result:?}"
                        ),
                        (Some(_), Some(other)) => prop_assert!(
                            matches!(result, Err(AttentionError::DuplicateToken { token: t, slot: s })
                                if t == token && s == other),
                            "token {token} held in slot {other}: {result:?}"
                        ),
                        (Some(free), None) => {
                            prop_assert_eq!(result.unwrap(), free);
                            model[free] = Some(entry);
                        }
                    }
                }
                // Evict.
                _ => {
                    let evicted = store.evict_slot(slot).unwrap();
                    prop_assert_eq!(evicted, model[slot].take().map(|(t, _, _)| t));
                }
            }
            // Full observable-state agreement after every operation.
            prop_assert_eq!(store.len(), model.iter().filter(|s| s.is_some()).count());
            for (s, expected) in model.iter().enumerate() {
                let (token, key_fill, value_fill) = match *expected {
                    Some((t, k, v)) => (Some(t), k, v),
                    None => (None, 0.0, 0.0),
                };
                prop_assert_eq!(store.token_at(s), token);
                prop_assert_eq!(store.keys_view().row(s), &[key_fill; DIM]);
                prop_assert_eq!(store.values_view().row(s), &[value_fill; DIM]);
            }
            for t in 0..TOKENS {
                prop_assert_eq!(store.slot_of_token(t), holder(&model, t));
            }
            let mut model_index: Vec<(usize, usize)> = model
                .iter()
                .enumerate()
                .filter_map(|(s, m)| m.map(|(t, _, _)| (t, s)))
                .collect();
            model_index.sort_unstable();
            prop_assert_eq!(store.iter_tokens().collect::<Vec<_>>(), model_index);
        }
    }

    /// The fused gather→score→softmax→weighted-sum kernel matches the naive
    /// per-slice attention path within 1e-5 relative error.
    #[test]
    fn fused_attend_matches_naive(
        dim in 2usize..10,
        n in 1usize..16,
        seed in 0u64..500,
    ) {
        use unicaim_attention::kernels::{attend_gather, RowView};
        let keys = Matrix::random_normal(n, dim, 1.0, seed);
        let values = Matrix::random_normal(n, dim, 1.0, seed ^ 11);
        let query = Matrix::random_normal(1, dim, 1.0, seed ^ 22);
        // Gather a strided subset of rows, not just a prefix.
        let rows: Vec<usize> = (0..n).step_by(2).collect();
        let kr: Vec<&[f32]> = rows.iter().map(|&r| keys.row(r)).collect();
        let vr: Vec<&[f32]> = rows.iter().map(|&r| values.row(r)).collect();
        let naive = attention_output(query.row(0), &kr, &vr);
        let mut out = vec![0.0f32; dim];
        let mut scratch = Vec::new();
        attend_gather(
            query.row(0),
            RowView::contiguous(keys.as_slice(), dim),
            RowView::contiguous(values.as_slice(), dim),
            &rows,
            1.0 / (dim as f32).sqrt(),
            &mut scratch,
            &mut out,
        );
        for (a, b) in out.iter().zip(&naive) {
            prop_assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "fused {a} vs naive {b}"
            );
        }
    }

    /// Quantized parity (satellite): the `i8` integer dot stays within the
    /// *derived* round-trip error bound of the f32 kernel. With symmetric
    /// per-row max-abs scaling, each element's quantization error is at
    /// most `scale/2`, so
    /// `|a·b − â·b̂| ≤ (s_a/2)·Σ|b_i| + (s_b/2)·Σ|â_i|`.
    #[test]
    fn int8_dot_within_derived_error_bound(
        a in proptest::collection::vec(-8.0f32..8.0, 1..96),
        seed in 0u64..500,
    ) {
        let backend = unicaim_attention::active_backend();
        let b: Vec<f32> = Matrix::random_normal(1, a.len(), 2.0, seed).row(0).to_vec();
        let mut qa = vec![0i8; a.len()];
        let mut qb = vec![0i8; b.len()];
        let sa = backend.quantize_row_i8(&a, &mut qa);
        let sb = backend.quantize_row_i8(&b, &mut qb);
        let exact = backend.dot(&a, &b);
        let quantized = sa * sb * backend.dot_i8(&qa, &qb) as f32;
        let sum_b: f32 = b.iter().map(|x| x.abs()).sum();
        let sum_qa: f32 = qa.iter().map(|&q| sa * f32::from(q).abs()).sum();
        let bound = 0.5 * sa * sum_b + 0.5 * sb * sum_qa;
        // Small slack for f32 rounding in the bound arithmetic itself.
        prop_assert!(
            (exact - quantized).abs() <= bound * (1.0 + 1e-4) + 1e-5,
            "|{exact} - {quantized}| = {} exceeds derived bound {bound}",
            (exact - quantized).abs()
        );
    }

    /// Quantized parity (satellite): snapping to the 3-bit cell's five
    /// signed levels is idempotent — re-quantizing the dequantized row
    /// reproduces the identical levels and scale.
    #[test]
    fn cell3_snap_is_idempotent(
        src in proptest::collection::vec(-4.0f32..4.0, 1..64),
    ) {
        use unicaim_attention::kernels::dequantize_row;
        let backend = unicaim_attention::active_backend();
        let mut q1 = vec![0i8; src.len()];
        let s1 = backend.quantize_row_cell3(&src, &mut q1);
        let mut snapped = vec![0.0f32; src.len()];
        dequantize_row(&q1, s1, &mut snapped);
        let mut q2 = vec![0i8; src.len()];
        let s2 = backend.quantize_row_cell3(&snapped, &mut q2);
        prop_assert_eq!(&q1, &q2);
        prop_assert_eq!(s1, s2);
        // And every level is one of the five signed cell levels.
        prop_assert!(q1.iter().all(|q| (-2..=2).contains(q)));
    }

    /// The fused quantized attention stays close to the f32 fused kernel:
    /// with ±127 levels the scores carry sub-percent error, and softmax +
    /// convex combination cannot amplify it unboundedly.
    #[test]
    fn attend_gather_q_tracks_f32(
        dim in 2usize..10,
        n in 1usize..12,
        seed in 0u64..300,
    ) {
        use unicaim_attention::kernels::{
            attend_gather, attend_gather_q, quantize_arena_i8, quantize_row_i8, QuantRowView,
            RowView,
        };
        let keys = Matrix::random_normal(n, dim, 1.0, seed);
        let values = Matrix::random_normal(n, dim, 1.0, seed ^ 1);
        let query = Matrix::random_normal(1, dim, 1.0, seed ^ 2);
        let (qkeys, scales) = quantize_arena_i8(keys.as_slice(), dim);
        let mut qq = vec![0i8; dim];
        let qs = quantize_row_i8(query.row(0), &mut qq);
        let rows: Vec<usize> = (0..n).step_by(2).collect();
        let scale = 1.0 / (dim as f32).sqrt();
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        let mut out_q = vec![0.0f32; dim];
        let mut out_f = vec![0.0f32; dim];
        attend_gather_q(
            &qq,
            qs,
            QuantRowView::contiguous(&qkeys, &scales, dim),
            RowView::contiguous(values.as_slice(), dim),
            &rows,
            scale,
            &mut w1,
            &mut out_q,
        );
        attend_gather(
            query.row(0),
            RowView::contiguous(keys.as_slice(), dim),
            RowView::contiguous(values.as_slice(), dim),
            &rows,
            scale,
            &mut w2,
            &mut out_f,
        );
        for (a, b) in out_q.iter().zip(&out_f) {
            prop_assert!(a.is_finite());
            prop_assert!((a - b).abs() <= 0.15 * b.abs().max(1.0), "{out_q:?} vs {out_f:?}");
        }
    }

    /// Paged parity (tentpole): every gather/attend kernel — f32 and the
    /// quantized forms — produces **bit-identical** output whether it
    /// walks a flat contiguous arena or a non-contiguous page table
    /// holding the same logical rows, with up to five pages of rows.
    #[test]
    fn paged_kernels_match_flat_bit_for_bit(
        dim in 2usize..10,
        n in 1usize..5 * PAGE_ROWS,
        seed in 0u64..300,
    ) {
        use unicaim_attention::kernels::{QuantRowView, RowView};
        use unicaim_attention::{active_backend, PageArena, Precision};
        let backend = active_backend();
        let keys = Matrix::random_normal(n, dim, 1.0, seed);
        let values = Matrix::random_normal(n, dim, 1.0, seed ^ 1);
        let query = Matrix::random_normal(1, dim, 1.0, seed ^ 2);
        let arena = PageArena::new(dim);
        let mut store = KvStore::with_arena(&arena, n, Precision::Int8);
        for t in 0..n {
            store.append_parts(t, keys.row(t), values.row(t)).unwrap();
        }
        // Flat copies of the exact planes the paged store holds.
        let flat_keys: Vec<f32> =
            (0..n).flat_map(|s| store.keys_view().row(s).to_vec()).collect();
        let flat_values: Vec<f32> =
            (0..n).flat_map(|s| store.values_view().row(s).to_vec()).collect();
        let paged_q = store.quant_keys_view().unwrap();
        let flat_q: Vec<i8> = (0..n).flat_map(|s| paged_q.row(s).to_vec()).collect();
        let flat_scales: Vec<f32> = (0..n).map(|s| paged_q.scale(s)).collect();
        let flat_k = RowView::contiguous(&flat_keys, dim);
        let flat_v = RowView::contiguous(&flat_values, dim);
        let flat_qk = QuantRowView::contiguous(&flat_q, &flat_scales, dim);
        let rows: Vec<usize> = (0..n).step_by(2).collect();
        let scale = 1.0 / (dim as f32).sqrt();
        let mut qq = vec![0i8; dim];
        let qs = backend.quantize_row_i8(query.row(0), &mut qq);

        let (mut a, mut b) = (vec![0.0f32; n], vec![0.0f32; n]);
        backend.dot_prefix(query.row(0), store.keys_view(), scale, &mut a[..n]);
        backend.dot_prefix(query.row(0), flat_k, scale, &mut b[..n]);
        prop_assert_eq!(&a, &b);
        let (mut a, mut b) = (vec![0.0f32; rows.len()], vec![0.0f32; rows.len()]);
        backend.dot_gather(query.row(0), store.keys_view(), &rows, scale, &mut a);
        backend.dot_gather(query.row(0), flat_k, &rows, scale, &mut b);
        prop_assert_eq!(&a, &b);
        let (mut a, mut b) = (vec![0.0f32; rows.len()], vec![0.0f32; rows.len()]);
        backend.dot_gather_q(&qq, qs, paged_q, &rows, scale, &mut a);
        backend.dot_gather_q(&qq, qs, flat_qk, &rows, scale, &mut b);
        prop_assert_eq!(&a, &b);

        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        let (mut a, mut b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        backend.attend_gather(
            query.row(0), store.keys_view(), store.values_view(),
            &rows, scale, &mut w1, &mut a,
        );
        backend.attend_gather(query.row(0), flat_k, flat_v, &rows, scale, &mut w2, &mut b);
        prop_assert_eq!(&a, &b);
        let (mut a, mut b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        backend.attend_prefix(
            query.row(0), store.keys_view(), store.values_view(),
            n, scale, &mut w1, &mut a,
        );
        backend.attend_prefix(query.row(0), flat_k, flat_v, n, scale, &mut w2, &mut b);
        prop_assert_eq!(&a, &b);
        let (mut a, mut b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        backend.attend_gather_q(
            &qq, qs, paged_q, store.values_view(), &rows, scale, &mut w1, &mut a,
        );
        backend.attend_gather_q(&qq, qs, flat_qk, flat_v, &rows, scale, &mut w2, &mut b);
        prop_assert_eq!(&a, &b);
    }

    /// Partial top-k selects exactly the same index set (and order) as a
    /// full total-ordered sort, including under heavy score ties.
    #[test]
    fn partial_topk_matches_full_sort(
        raw in proptest::collection::vec(0u8..5, 1..48),
        k in 0usize..52,
    ) {
        // Few distinct levels => many exact ties.
        let values: Vec<f32> = raw.iter().map(|&v| f32::from(v) * 0.25).collect();
        let mut full: Vec<usize> = (0..values.len()).collect();
        full.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
        full.truncate(k);
        prop_assert_eq!(partial_top_k(&values, k), full);
    }
}

/// The KV store (and the types that cross the serving API with it) must be
/// `Send + Sync`: the kvcache worker-pool scheduler moves per-sequence
/// sessions — each owning a `KvStore` — across threads, and workloads are
/// shared by reference. The store's refcounted pages use `Arc` and the
/// arena a `Mutex`, so this is a compile-time audit, not a runtime cost.
#[test]
fn kv_store_and_workloads_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<unicaim_attention::KvStore>();
    assert_send_sync::<unicaim_attention::AttentionError>();
    assert_send_sync::<unicaim_attention::workloads::DecodeWorkload>();
}
