//! The prefill products equal their per-query definitions bit for bit.
//!
//! `prefill_attention_matrix` (the causal prompt matrix static pruning
//! ranks with), `DecodeWorkload::full_attention_reference` (the exact
//! attention every decode step is scored against) and
//! `MultiHeadAttention::attention_matrix` group their queries into
//! staircase tiles of eight. Grouping must not change a bit: each prompt
//! row must still be one `dot_prefix` plus `softmax_in_place`, and each
//! decode step one `attend_prefix` over the prompt and the tokens
//! generated before it. The shapes put every prompt and decode length on
//! both sides of a group boundary, and the dimensions on both sides of a
//! SIMD chunk.

use unicaim_repro::attention::kernels::RowView;
use unicaim_repro::attention::workloads::DecodeWorkload;
use unicaim_repro::attention::{
    active_backend, softmax_in_place, AttentionConfig, Matrix, MultiHeadAttention,
};
use unicaim_repro::kvcache::prefill_attention_matrix;

const PROMPT_LENS: [usize; 6] = [0, 1, 7, 8, 9, 23];
const DECODE_LENS: [usize; 6] = [0, 1, 7, 8, 9, 17];
const DIMS: [usize; 5] = [1, 7, 8, 12, 64];

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let m = Matrix::random_normal(n, dim, 1.5, seed);
    (0..n).map(|r| m.row(r).to_vec()).collect()
}

/// A workload of `prompt` prompt tokens and `decode` decode steps with
/// random queries, keys and values; nothing is scored.
fn workload(prompt: usize, decode: usize, dim: usize) -> DecodeWorkload {
    let seed = (prompt * 1000 + decode * 10 + dim) as u64;
    DecodeWorkload {
        name: format!("staircase-{prompt}-{decode}-{dim}"),
        dim,
        prefill_keys: random_rows(prompt, dim, seed),
        prefill_values: random_rows(prompt, dim, seed + 1),
        prefill_queries: random_rows(prompt, dim, seed + 2),
        decode_queries: random_rows(decode, dim, seed + 3),
        decode_keys: random_rows(decode, dim, seed + 4),
        decode_values: random_rows(decode, dim, seed + 5),
        salient_at: vec![Default::default(); decode],
        answer_steps: Vec::new(),
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Prompt row `t`: one `dot_prefix` over keys `0..=t`, then the softmax.
fn matrix_per_row(w: &DecodeWorkload) -> Vec<f32> {
    let seq = w.prefill_keys.len();
    let keys = w.prefill_keys.concat();
    let scale = 1.0 / (w.dim as f32).sqrt();
    let mut probs = vec![0.0f32; seq * seq];
    for t in 0..seq {
        let row = &mut probs[t * seq..t * seq + t + 1];
        active_backend().dot_prefix(
            &w.prefill_queries[t],
            RowView::contiguous(&keys, w.dim),
            scale,
            row,
        );
        softmax_in_place(row);
    }
    probs
}

/// Decode step `s`: one `attend_prefix` over the first `prompt + s` rows.
fn reference_per_step(w: &DecodeWorkload) -> Vec<Vec<f32>> {
    let keys = [w.prefill_keys.concat(), w.decode_keys.concat()].concat();
    let values = [w.prefill_values.concat(), w.decode_values.concat()].concat();
    let scale = 1.0 / (w.dim as f32).sqrt();
    let mut weights = Vec::new();
    (0..w.decode_queries.len())
        .map(|s| {
            let mut out = vec![0.0f32; w.dim];
            active_backend().attend_prefix(
                &w.decode_queries[s],
                RowView::contiguous(&keys, w.dim),
                RowView::contiguous(&values, w.dim),
                w.prefill_keys.len() + s,
                scale,
                &mut weights,
                &mut out,
            );
            out
        })
        .collect()
}

#[test]
fn prefill_matrix_equals_the_per_row_loop() {
    for prompt in PROMPT_LENS {
        for dim in DIMS {
            let w = workload(prompt, 1, dim);
            let got = prefill_attention_matrix(&w);
            assert_eq!(
                bits(got.as_slice()),
                bits(&matrix_per_row(&w)),
                "prompt {prompt} dim {dim}"
            );
        }
    }
}

#[test]
fn attention_reference_equals_one_attend_per_step() {
    for prompt in PROMPT_LENS {
        for decode in DECODE_LENS {
            for dim in DIMS {
                let w = workload(prompt, decode, dim);
                let got = w.full_attention_reference();
                let want = reference_per_step(&w);
                assert_eq!(got.len(), decode);
                for (s, (g, r)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(r),
                        "prompt {prompt} decode {decode} dim {dim} step {s}"
                    );
                }
            }
        }
    }
}

#[test]
fn head_attention_matrix_equals_the_per_row_loop() {
    for (d_model, n_heads) in [(24, 3), (36, 4)] {
        let mha = MultiHeadAttention::new(AttentionConfig { d_model, n_heads }, 5).unwrap();
        let dh = d_model / n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        for seq in [1, 7, 8, 9, 20] {
            let hidden = Matrix::random_normal(seq, d_model, 1.0, seq as u64);
            let q = mha.project_q(&hidden).unwrap();
            let k = mha.project_k(&hidden).unwrap();
            for head in 0..n_heads {
                let lo = head * dh;
                let keys = RowView::new(&k.as_slice()[lo..], d_model, dh);
                let mut want = vec![0.0f32; seq * seq];
                for t in 0..seq {
                    let row = &mut want[t * seq..t * seq + t + 1];
                    active_backend().dot_prefix(&q.row(t)[lo..lo + dh], keys, scale, row);
                    softmax_in_place(row);
                }
                let got = mha.attention_matrix(&hidden, head).unwrap();
                assert_eq!(
                    bits(got.as_slice()),
                    bits(&want),
                    "d_model {d_model} heads {n_heads} seq {seq} head {head}"
                );
            }
        }
    }
}
