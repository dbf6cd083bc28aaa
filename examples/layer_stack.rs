//! Multi-layer decode tour: a [`LayerStackSession`] driving a K-layer
//! decode stack under **one global KV budget**, with an `AllocatorSpec`
//! deciding how that budget splits across layers —
//! the software analog of giving attention-heavy transformer layers a
//! larger share of a fixed CAM/CIM array.
//!
//! Three stops:
//!
//! 1. the K=1 contract: a single-layer stack under the uniform allocator
//!    is bit-identical to a plain `DecodeSession` — the stack adds layer
//!    orchestration, never per-layer behavior;
//! 2. equal total memory, different splits: at a budget where the uniform
//!    split starves the fact-heavy front layers, the depth-decayed
//!    allocator front-loads slots and wins retrieval accuracy and F1;
//! 3. entropy-driven reallocation live: stepping a stack by hand while
//!    `entropy_dynamic` moves slots toward high-entropy layers, with the
//!    global budget exactly conserved at every step.
//!
//! Run with: `cargo run --release --example layer_stack`

use unicaim_repro::attention::workloads::layer_stack_tasks;
use unicaim_repro::kvcache::{
    simulate_stack, AllocatorSpec, DecodeSession, LayerStackSession, PolicySpec, SimConfig,
    StackConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 1-layer stack is a decode session. The uniform allocator hands
    //    the whole budget to the only layer, so the stack's per-layer
    //    result must equal a solo session's, bit for bit — the contract
    //    that makes stacking safe to adopt incrementally.
    println!("-- K=1 stacks are plain decode sessions ------------------------");
    let solo_task = layer_stack_tasks(1, 96, 16, 7);
    let spec = PolicySpec::hybrid_for_share(48, 8, 8);
    let stack = simulate_stack(
        &solo_task,
        &spec,
        AllocatorSpec::Uniform,
        &StackConfig::new(48, 8).with_reserved_decode_slots(8),
    )?;
    let mut solo = DecodeSession::prefill_spec(
        &solo_task[0],
        &spec,
        &SimConfig::reserved_decode_slots(48, 8, 8),
    )?;
    solo.run_to_completion()?;
    assert_eq!(stack.per_layer[0], solo.finish());
    println!("  1-layer uniform stack matched the solo session bit for bit\n");

    // 2. Same global memory, different splits. The depth-profiled stack
    //    workloads put many diffuse facts in the front layers and few,
    //    concentrated ones deep down; 24 slots per layer starves the
    //    front under a uniform split, and prefill evictions are
    //    unrecoverable. Front-loading the same 96 slots fixes it.
    println!("-- equal total memory, different splits ------------------------");
    let workloads = layer_stack_tasks(4, 96, 16, 0x1A7E);
    let spec = PolicySpec::hybrid_for_share(24, 8, 8);
    let config = StackConfig::new(96, 8).with_reserved_decode_slots(8);
    let uniform = simulate_stack(&workloads, &spec, AllocatorSpec::Uniform, &config)?;
    let decayed = simulate_stack(&workloads, &spec, AllocatorSpec::DepthDecayed, &config)?;
    for r in [&uniform, &decayed] {
        println!(
            "  {:<14} budgets {:?}  retrieval {:.3}  f1 {:.3}",
            r.allocator, r.budgets, r.mean_retrieval_accuracy, r.mean_salient_f1,
        );
    }
    assert!(decayed.mean_retrieval_accuracy > uniform.mean_retrieval_accuracy);
    assert!(decayed.mean_salient_f1 > uniform.mean_salient_f1);
    println!("  front-loading wins on retrieval AND F1 at identical total memory\n");

    // 3. Dynamic reallocation, step by step. The entropy allocator reads
    //    each layer's attention-weight entropy and periodically moves
    //    slots from concentrated layers to diffuse ones; the sum of the
    //    per-layer budgets never leaves the global envelope.
    println!("-- entropy-driven reallocation live ----------------------------");
    let mut session =
        LayerStackSession::prefill(&workloads, &spec, AllocatorSpec::EntropyDynamic, &config)?;
    println!("  initial split {:?}", session.budgets());
    let mut last = session.budgets().to_vec();
    while !session.is_done() {
        session.step()?;
        assert_eq!(session.budgets().iter().sum::<usize>(), 96);
        if session.budgets() != last.as_slice() {
            println!(
                "  after {:>2} reallocation(s): {:?}",
                session.reallocations(),
                session.budgets()
            );
            last = session.budgets().to_vec();
        }
    }
    let moves = session.reallocations();
    let dynamic = session.finish();
    println!(
        "  {} budget moves; retrieval {:.3}  f1 {:.3}  (uniform: {:.3} / {:.3})",
        moves,
        dynamic.mean_retrieval_accuracy,
        dynamic.mean_salient_f1,
        uniform.mean_retrieval_accuracy,
        uniform.mean_salient_f1,
    );
    println!(
        "  per-layer mean occupancy {:?}, evictions {:?}",
        dynamic
            .layer_mean_occupancy
            .iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        dynamic.layer_evictions,
    );
    assert!(moves > 0, "the gate scenario must trigger reallocation");
    assert!(dynamic.mean_retrieval_accuracy > uniform.mean_retrieval_accuracy);
    Ok(())
}
