//! Every rule is pinned by a pass/fail fixture pair under
//! `tests/fixtures/<rule>/` (the engine's workspace walk skips that
//! directory — the negative fixtures are violations on purpose), and the
//! CI-gating binary itself is exercised over each negative fixture.

use std::path::{Path, PathBuf};
use std::process::Command;

use unicaim_lint::rules::{check_registry_sync, SIMD_MODULE};
use unicaim_lint::{lint_source, Diagnostic};

fn fixture(rule: &str, which: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(format!("{which}.rs"));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    (path, src)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

/// (rule, workspace-relative path the fixture is linted *as*).
const FILE_RULE_FIXTURES: [(&str, &str); 4] = [
    ("unsafe-needs-safety", "crates/attention/src/kv.rs"),
    ("no-panic-in-lib", "crates/kvcache/src/session.rs"),
    ("target-feature-confinement", SIMD_MODULE),
    ("no-nondeterminism", "crates/kvcache/src/serve.rs"),
];

#[test]
fn every_file_rule_accepts_its_pass_fixture() {
    for (rule, rel) in FILE_RULE_FIXTURES {
        let (_, src) = fixture(rule, "pass");
        let (diags, _) = lint_source(rel, &src);
        assert!(diags.is_empty(), "{rule}/pass.rs flagged: {diags:?}");
    }
}

#[test]
fn every_file_rule_rejects_its_fail_fixture() {
    for (rule, rel) in FILE_RULE_FIXTURES {
        let (_, src) = fixture(rule, "fail");
        let (diags, _) = lint_source(rel, &src);
        assert!(
            rules_of(&diags).contains(&rule),
            "{rule}/fail.rs produced {diags:?}, expected a `{rule}` violation"
        );
    }
}

#[test]
fn unsafe_fail_fixture_flags_both_the_allow_and_the_missing_safety() {
    let (_, src) = fixture("unsafe-needs-safety", "fail");
    let (diags, _) = lint_source("crates/attention/src/kv.rs", &src);
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn target_feature_is_confined_even_when_the_fixture_is_well_formed() {
    // The *pass* fixture is only a pass inside simd.rs; anywhere else the
    // attribute itself violates confinement.
    let (_, src) = fixture("target-feature-confinement", "pass");
    let (diags, _) = lint_source("crates/attention/src/kernels.rs", &src);
    assert!(
        rules_of(&diags).contains(&"target-feature-confinement"),
        "{diags:?}"
    );
}

#[test]
fn registry_sync_accepts_the_pass_tree_and_rejects_the_fail_tree() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry-baseline-sync");
    let pass = check_registry_sync(&base.join("pass"));
    assert!(pass.is_empty(), "pass tree flagged: {pass:?}");

    let fail = check_registry_sync(&base.join("fail"));
    let msgs: Vec<&str> = fail.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`policies` has no saved baseline")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`stale` has no `SUITE_REGISTRY` entry")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`results/ghost.json` does not exist")),
        "{msgs:?}"
    );
}

/// The CI gate is the *binary*: every negative fixture must drive a
/// non-zero exit, every positive fixture a zero exit.
#[test]
fn binary_exits_nonzero_on_each_negative_fixture() {
    let bin = env!("CARGO_BIN_EXE_unicaim-lint");
    for (rule, rel) in FILE_RULE_FIXTURES {
        let (path, _) = fixture(rule, "fail");
        let status = Command::new(bin)
            .args(["--file", &path.to_string_lossy(), "--as", rel])
            .status()
            .expect("spawn unicaim-lint");
        assert!(!status.success(), "{rule}/fail.rs exited zero");

        let (path, _) = fixture(rule, "pass");
        let status = Command::new(bin)
            .args(["--file", &path.to_string_lossy(), "--as", rel])
            .status()
            .expect("spawn unicaim-lint");
        assert!(status.success(), "{rule}/pass.rs exited nonzero");
    }
    // The registry rule gates through `--root` over the fixture trees.
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry-baseline-sync");
    let status = Command::new(bin)
        .args(["--root", &base.join("fail").to_string_lossy()])
        .status()
        .expect("spawn unicaim-lint");
    assert!(!status.success(), "registry fail tree exited zero");
    let status = Command::new(bin)
        .args(["--root", &base.join("pass").to_string_lossy()])
        .status()
        .expect("spawn unicaim-lint");
    assert!(status.success(), "registry pass tree exited nonzero");
}
