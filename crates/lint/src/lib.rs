//! `unicaim-lint` — project-invariant static analysis for the UniCAIM
//! workspace.
//!
//! `clippy` enforces generic Rust hygiene; this crate enforces the
//! *project* contracts that the serving stack's correctness and CI gates
//! rest on, with a comment- and string-aware hand-rolled scanner (no
//! `syn` — the build environment vendors every dependency and a parser
//! stack is far more than the rules need). The rules:
//!
//! | rule | contract |
//! |------|----------|
//! | `unsafe-needs-safety` | every `unsafe` outside `vendor/` carries an adjacent `// SAFETY:` comment; `allow(unsafe_code)` only in `attention/src/simd.rs` |
//! | `no-panic-in-lib` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test `kvcache`/`attention` library code (typed [`HarnessError`] contract from PR 4) |
//! | `target-feature-confinement` | `#[target_feature]` functions are private `*_impl`s in `simd.rs`, each behind its safe wrapper |
//! | `registry-baseline-sync` | `SUITE_REGISTRY` ↔ `results/baselines/*.json` ↔ `.gitignore` whitelist stay in lockstep |
//! | `no-nondeterminism` | no `SystemTime`/`Instant`/entropy reads in the deterministic sim/serve/stack paths |
//! | `allow-needs-reason` | every `// lint:allow(rule): reason` escape names a known rule and justifies itself |
//!
//! # Escapes
//!
//! A violation that encodes a *true internal invariant* is silenced in
//! place — same line or the line above — with
//!
//! ```text
//! // lint:allow(no-panic-in-lib): selection is validated resident two lines up
//! ```
//!
//! The reason is mandatory: a reason-less escape is itself a violation,
//! so the workspace can be audited by grepping `lint:allow`.
//!
//! # Running
//!
//! ```text
//! cargo run -p unicaim-lint                     # lint the workspace, exit 1 on findings
//! cargo run -p unicaim-lint -- --json results/lint.json
//! cargo run -p unicaim-lint -- --file f.rs --as crates/kvcache/src/f.rs
//! ```
//!
//! [`HarnessError`]: https://docs.rs/unicaim-kvcache

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{lint_source, lint_workspace, Allow, Report};
pub use rules::{Diagnostic, ALL_RULES};
