//! The three workloads: their fixed shapes and the seeded generation of
//! their inputs. Only the generated inputs reach the library.

use unicaim_attention::workloads::{
    mixed_batch, shared_prefix_batch, ArrivalEvent, DecodeWorkload,
};
use unicaim_kvcache::{EngineConfig, PolicySpec, Precision, SchedulerSpec, ServeConfig, SimConfig};

use crate::stats::SplitMix;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["serve_mixed", "serve_shared_prefix", "engine_long_decode"];

/// Concurrent sessions of both serving workloads.
const SERVE_SESSIONS: usize = 8;
/// Slot share of one serving session.
pub const SERVE_SHARE: usize = 160;
const SERVE_K: usize = 32;
/// Decode slots each serving session reserves (the hybrid policy's `M`).
/// The 136 kept prompt rows end mid-page (pages hold 16 rows), so a
/// spliced session's first decode write copies a shared page.
const SERVE_RESERVED: usize = 24;
/// Large enough that no submission bounces: every request is served.
const SERVE_QUEUE_LIMIT: usize = 1024;

const MIXED_REQUESTS: usize = 240;
const MIXED_BASE_PROMPT: usize = 256;
const MIXED_BASE_DECODE: usize = 64;
/// Mean arrival gap in ticks: just under saturation for 8 sessions.
const MIXED_MEAN_GAP: f64 = 12.0;

const SHARED_REQUESTS: usize = 240;
const SHARED_PROMPTS: usize = 4;
const SHARED_PROMPT_LEN: usize = 512;
const SHARED_DECODE: usize = 48;
const SHARED_MEAN_GAP: f64 = 7.0;
/// Registry budget: room for the 4 prompts' 136 kept rows, 9 pages each.
const SHARED_REGISTRY_PAGES: usize = 48;
const SHARED_TENANTS: usize = 3;

const ENGINE_SEQUENCES: usize = 16;
const ENGINE_BASE_PROMPT: usize = 768;
const ENGINE_BASE_DECODE: usize = 768;
const ENGINE_SHARE: usize = 256;
const ENGINE_K: usize = 64;
const ENGINE_RESERVED: usize = 32;

/// Worker threads of the pooled workloads.
pub const POOL_WORKERS: usize = 2;

/// Inputs of a serving workload: the arrival trace plus the core shape.
pub struct ServeInputs {
    pub events: Vec<ArrivalEvent>,
    pub config: ServeConfig,
    pub spec: PolicySpec,
    /// Page budget of the shared prefix registry, when the workload has one.
    pub registry_pages: Option<usize>,
}

/// Inputs of the closed-batch engine workload.
pub struct EngineInputs {
    pub workloads: Vec<DecodeWorkload>,
    pub config: EngineConfig,
    pub spec: PolicySpec,
}

pub enum Inputs {
    Serve(ServeInputs),
    Engine(EngineInputs),
}

impl Inputs {
    /// Key/query width of the workload.
    pub fn dim(&self) -> usize {
        match self {
            Inputs::Serve(s) => s.events[0].workload.dim,
            Inputs::Engine(e) => e.workloads[0].dim,
        }
    }
}

/// Generates the named workload's inputs from `seed`.
pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    Some(match workload {
        "serve_mixed" => Inputs::Serve(serve_mixed(seed)),
        "serve_shared_prefix" => Inputs::Serve(serve_shared_prefix(seed)),
        "engine_long_decode" => Inputs::Engine(engine_long_decode(seed)),
        _ => return None,
    })
}

fn serve_config(precision: Precision, scheduler: SchedulerSpec) -> ServeConfig {
    ServeConfig::new(SERVE_SESSIONS * SERVE_SHARE, SERVE_SHARE, SERVE_K)
        .with_reserved_decode_slots(SERVE_RESERVED)
        .with_queue_limit(SERVE_QUEUE_LIMIT)
        .with_precision(precision)
        .with_scheduler(scheduler)
}

fn serve_spec() -> PolicySpec {
    PolicySpec::hybrid_for_share(SERVE_SHARE, SERVE_RESERVED, SERVE_K)
}

/// Seed of the arrival schedules. The schedule (arrival ticks, tenants,
/// priorities, which prompt each request carries) is part of a workload's
/// definition, so every `--seed` offers the same load; `--seed` draws the
/// prompt content. Near saturation, queueing makes tail latency vary
/// several-fold between Poisson draws, which would swamp any code change.
const SCHEDULE_SEED: u64 = 0x5C4E_D01E;

/// One arrival of a schedule.
struct Arrival {
    at_tick: u64,
    tenant: usize,
    high_priority: bool,
}

/// `n` Poisson arrivals: exponential gaps of mean `mean_gap` floored to
/// whole ticks (as `poisson_arrivals` draws them), tenants uniform over
/// `tenants`, every `high_every`-th request High (0: none).
fn schedule(
    rng: &mut SplitMix,
    n: usize,
    mean_gap: f64,
    tenants: usize,
    high_every: usize,
) -> Vec<Arrival> {
    let mut tick = 0u64;
    (0..n)
        .map(|i| {
            if i > 0 {
                let u = rng.unit().max(f64::EPSILON);
                tick += (-u.ln() * mean_gap).floor() as u64;
            }
            Arrival {
                at_tick: tick,
                tenant: rng.below(tenants),
                high_priority: high_every != 0 && (i + 1) % high_every == 0,
            }
        })
        .collect()
}

fn events(
    arrivals: Vec<Arrival>,
    workloads: impl IntoIterator<Item = DecodeWorkload>,
) -> Vec<ArrivalEvent> {
    arrivals
        .into_iter()
        .zip(workloads)
        .map(|(a, workload)| ArrivalEvent {
            at_tick: a.at_tick,
            tenant: a.tenant,
            high_priority: a.high_priority,
            workload,
        })
        .collect()
}

/// Needle, multi-hop and summary prompts of 256–512 tokens with 64–96
/// decode tokens, Poisson arrivals over 3 tenants, every 5th request High.
fn serve_mixed(seed: u64) -> ServeInputs {
    let arrivals = schedule(
        &mut SplitMix::new(SCHEDULE_SEED),
        MIXED_REQUESTS,
        MIXED_MEAN_GAP,
        3,
        5,
    );
    let workloads = mixed_batch(MIXED_REQUESTS, MIXED_BASE_PROMPT, MIXED_BASE_DECODE, seed);
    ServeInputs {
        events: events(arrivals, workloads),
        config: serve_config(Precision::F32, SchedulerSpec::Sequential),
        spec: serve_spec(),
        registry_pages: None,
    }
}

/// Seed of `serve_shared_prefix`'s system prompts. Whether a prompt's
/// needle survives pruning depends on its content, so with 4 prompts drawn
/// from `--seed`, retrieval accuracy moved in steps of a quarter between
/// seeds. Like the arrival schedule, the prompts are part of the workload's
/// definition; `--seed` shuffles which turn of its prompt's conversation
/// (the decode step that asks for the needle) each request carries.
const SYSTEM_PROMPT_SEED: u64 = 0x5157_E3A0;

/// Multi-turn requests against 4 fixed 512-token system prompts, 48 decode
/// tokens each, Poisson arrivals over 3 tenants, all Normal.
fn serve_shared_prefix(seed: u64) -> ServeInputs {
    let mut rng = SplitMix::new(SCHEDULE_SEED ^ 0x5A4E);
    let arrivals = schedule(
        &mut rng,
        SHARED_REQUESTS,
        SHARED_MEAN_GAP,
        SHARED_TENANTS,
        0,
    );
    let prompt_of: Vec<usize> = (0..SHARED_REQUESTS)
        .map(|_| rng.below(SHARED_PROMPTS))
        .collect();
    let mut turn_order = SplitMix::new(seed);
    let mut turns: Vec<std::vec::IntoIter<DecodeWorkload>> = (0..SHARED_PROMPTS)
        .map(|p| {
            let n = prompt_of.iter().filter(|&&q| q == p).count().max(1);
            let prompt_seed = SYSTEM_PROMPT_SEED + p as u64;
            let mut turns = shared_prefix_batch(n, SHARED_PROMPT_LEN, SHARED_DECODE, prompt_seed);
            turn_order.shuffle(&mut turns);
            turns.into_iter()
        })
        .collect();
    let workloads = prompt_of
        .iter()
        .map(|&p| turns[p].next().expect("one turn generated per request"));
    ServeInputs {
        events: events(arrivals, workloads),
        config: serve_config(
            Precision::Int8,
            SchedulerSpec::WorkerPool {
                workers: POOL_WORKERS,
            },
        ),
        spec: serve_spec(),
        registry_pages: Some(SHARED_REGISTRY_PAGES),
    }
}

/// 16 mixed sequences, prompts of 768–1536 tokens, 768–1152 decode tokens,
/// 3-bit cell keys in 256-slot shares, run to completion on 2 workers.
fn engine_long_decode(seed: u64) -> EngineInputs {
    EngineInputs {
        workloads: mixed_batch(
            ENGINE_SEQUENCES,
            ENGINE_BASE_PROMPT,
            ENGINE_BASE_DECODE,
            seed,
        ),
        config: EngineConfig::new(ENGINE_SEQUENCES * ENGINE_SHARE, ENGINE_K)
            .with_prefill_budget(ENGINE_SHARE - ENGINE_RESERVED)
            .with_precision(Precision::Cell3Bit)
            .with_scheduler(SchedulerSpec::WorkerPool {
                workers: POOL_WORKERS,
            }),
        spec: PolicySpec::hybrid_for_share(ENGINE_SHARE, ENGINE_RESERVED, ENGINE_K),
    }
}

/// Threads a scheduler steps sessions on.
pub fn workers(scheduler: SchedulerSpec) -> usize {
    match scheduler {
        SchedulerSpec::Sequential => 1,
        SchedulerSpec::WorkerPool { workers } => workers.max(1),
    }
}

/// The session config sequence `i` of the engine batch runs under.
pub fn engine_sequence_config(inputs: &EngineInputs, i: usize) -> SimConfig {
    inputs
        .config
        .batch
        .sequence_config(inputs.workloads.len(), i)
}
