//! The workspace must satisfy its own invariants: a full engine run over
//! the repository root finds zero violations, and every `lint:allow`
//! escape carries a reason (so the escape surface stays auditable).

use std::path::Path;

use unicaim_lint::lint_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(workspace_root());
    assert!(
        report.files_scanned > 50,
        "walk looks broken: only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|d| format!("  {}:{} [{}] {}", d.path, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_allow_escape_carries_a_reason() {
    let report = lint_workspace(workspace_root());
    let reasonless: Vec<_> = report
        .allows
        .iter()
        .filter(|a| a.reason.is_empty())
        .collect();
    assert!(reasonless.is_empty(), "reason-less allows: {reasonless:?}");
    // The escape hatch must stay an exception, not a habit: revisit this
    // bound consciously if legitimate new escapes push past it.
    assert!(
        report.allows.len() <= 8,
        "allow escapes multiplied to {} — audit before raising the bound",
        report.allows.len()
    );
}

#[test]
fn fixture_directories_are_excluded_from_the_workspace_walk() {
    let report = lint_workspace(workspace_root());
    assert!(
        !report
            .violations
            .iter()
            .chain(std::iter::empty())
            .any(|d| d.path.contains("fixtures")),
        "negative fixtures leaked into the workspace walk"
    );
    assert!(
        !report.allows.iter().any(|a| a.path.contains("fixtures")),
        "fixture allows leaked into the workspace walk"
    );
}
