//! The project-invariant rules.
//!
//! Each rule encodes a contract the workspace already relies on but that
//! `clippy` cannot express (see the crate docs for the full catalogue).
//! File rules operate on the [`lexer`](crate::lexer) channels of a single
//! source file; the registry rule ([`check_registry_sync`]) cross-checks
//! the bench suite registry against `results/baselines/` and the
//! `.gitignore` whitelist on disk.

use std::collections::BTreeSet;
use std::path::Path;

use serde::Serialize;

use crate::lexer::{contains_word, Line};

/// `unsafe` requires an adjacent `// SAFETY:` comment; `allow(unsafe_code)`
/// is confined to the SIMD module.
pub const RULE_UNSAFE: &str = "unsafe-needs-safety";
/// No `unwrap`/`expect`/`panic!`/`unreachable!` in library code paths.
pub const RULE_NO_PANIC: &str = "no-panic-in-lib";
/// `#[target_feature]` intrinsics stay private to `simd.rs` behind safe
/// wrappers.
pub const RULE_TARGET_FEATURE: &str = "target-feature-confinement";
/// Bench suite registry ↔ saved baselines ↔ `.gitignore` whitelist stay in
/// lockstep.
pub const RULE_REGISTRY: &str = "registry-baseline-sync";
/// No wall-clock reads in the deterministic sim/serve/stack paths.
pub const RULE_NONDET: &str = "no-nondeterminism";
/// Every `lint:allow` escape must name a known rule and give a reason.
pub const RULE_ALLOW_REASON: &str = "allow-needs-reason";

/// Every rule name, in reporting order.
pub const ALL_RULES: [&str; 6] = [
    RULE_UNSAFE,
    RULE_NO_PANIC,
    RULE_TARGET_FEATURE,
    RULE_REGISTRY,
    RULE_NONDET,
    RULE_ALLOW_REASON,
];

/// The one module allowed to contain `unsafe` / `#[target_feature]` code.
pub const SIMD_MODULE: &str = "crates/attention/src/simd.rs";

/// The bench suite registry source.
pub const SUITE_MODULE: &str = "crates/bench/src/suite.rs";

/// One rule violation (or reason-less allow), pointing at `path:line`.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule (one of [`ALL_RULES`]).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (`1` for whole-file findings).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    fn new(rule: &str, path: &str, line: usize, message: String) -> Self {
        Self {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message,
        }
    }
}

/// Marks the lines covered by `#[cfg(test)]`-gated items (the attribute
/// line, the item header, and everything to the matching close brace).
///
/// A `#[cfg(test)]` followed by a brace-less item (e.g. a gated `use`)
/// is released at the terminating `;`, so it cannot swallow a later
/// unrelated block.
#[must_use]
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut in_region = false;
    let mut pending = false;
    let mut depth: u32 = 0;
    for (idx, line) in lines.iter().enumerate() {
        if in_region {
            flags[idx] = true;
        }
        if !in_region && line.code.contains("#[cfg(test)]") {
            pending = true;
        }
        if pending {
            flags[idx] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        pending = false;
                        in_region = true;
                        depth = 1;
                        flags[idx] = true;
                    } else if in_region {
                        depth += 1;
                    }
                }
                '}' if in_region => {
                    depth -= 1;
                    if depth == 0 {
                        in_region = false;
                    }
                }
                // `#[cfg(test)] use …;` — attribute spent on a
                // brace-less item.
                ';' if pending && !in_region => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    flags
}

/// How many lines above an `unsafe` the `// SAFETY:` comment may sit
/// (allows one attribute line plus the comment block's last line).
const SAFETY_LOOKBACK: usize = 3;

/// Rule 1: every `unsafe` keyword outside the vendored crates needs an
/// adjacent `// SAFETY:` comment, and `allow(unsafe_code)` is permitted
/// only in [`SIMD_MODULE`].
#[must_use]
pub fn check_unsafe(rel: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.code.contains("allow(unsafe_code)") && rel != SIMD_MODULE {
            out.push(Diagnostic::new(
                RULE_UNSAFE,
                rel,
                idx + 1,
                format!("`allow(unsafe_code)` is permitted only in {SIMD_MODULE}"),
            ));
        }
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        // `unsafe` inside a deny/forbid attribute is the *enforcement*,
        // not a use.
        if line.code.contains("deny(unsafe") || line.code.contains("forbid(unsafe") {
            continue;
        }
        let has_safety = (idx.saturating_sub(SAFETY_LOOKBACK)..=idx)
            .any(|j| lines[j].comment.contains("SAFETY:"));
        if !has_safety {
            out.push(Diagnostic::new(
                RULE_UNSAFE,
                rel,
                idx + 1,
                "`unsafe` without an adjacent `// SAFETY:` comment naming the \
                 discharged obligation"
                    .to_string(),
            ));
        }
    }
    out
}

/// The panicking constructs forbidden in library paths.
const PANIC_PATTERNS: [(&str, &str); 6] = [
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!", "panic!"),
    ("unreachable!", "unreachable!"),
    ("todo!", "todo!"),
    ("unimplemented!", "unimplemented!"),
];

/// Whether `rel` is a library path covered by [`RULE_NO_PANIC`] /
/// [`RULE_NONDET`] (the `kvcache`/`attention` crates' `src/` trees).
#[must_use]
pub fn is_lib_path(rel: &str) -> bool {
    rel.starts_with("crates/kvcache/src/") || rel.starts_with("crates/attention/src/")
}

/// Rule 2: no panicking constructs in non-test `kvcache`/`attention`
/// library code — contract violations surface as typed `HarnessError`s
/// (PR 4), so a panic in these paths is a serving-stack crash.
#[must_use]
pub fn check_no_panic(rel: &str, lines: &[Line], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !is_lib_path(rel) {
        return out;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for (pattern, name) in PANIC_PATTERNS {
            if line.code.contains(pattern) {
                out.push(Diagnostic::new(
                    RULE_NO_PANIC,
                    rel,
                    idx + 1,
                    format!(
                        "`{name}` in library path: return a typed `HarnessError` \
                         (or justify with `lint:allow({RULE_NO_PANIC}): <invariant>`)"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 3: `#[target_feature]` functions are confined to [`SIMD_MODULE`],
/// stay private (no `pub` visibility), use the `*_impl` naming convention,
/// and have their safe wrapper in the same file.
#[must_use]
pub fn check_target_feature(rel: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let marker = "#[target_feature";
    for (idx, line) in lines.iter().enumerate() {
        if !line.code.contains(marker) {
            continue;
        }
        if rel != SIMD_MODULE {
            out.push(Diagnostic::new(
                RULE_TARGET_FEATURE,
                rel,
                idx + 1,
                format!("`#[target_feature]` is confined to {SIMD_MODULE}"),
            ));
            continue;
        }
        // The annotated fn is on one of the next few lines (attributes
        // stack); find it and check visibility + naming.
        let Some((fn_idx, name)) = (idx + 1..lines.len().min(idx + 4))
            .find_map(|j| fn_name(&lines[j].code).map(|n| (j, n)))
        else {
            continue;
        };
        if contains_word(&lines[fn_idx].code, "pub") {
            out.push(Diagnostic::new(
                RULE_TARGET_FEATURE,
                rel,
                fn_idx + 1,
                format!(
                    "`{name}` is `#[target_feature]`-gated and must stay private \
                     (reachable only via its safe wrapper)"
                ),
            ));
        }
        match name.strip_suffix("_impl") {
            None => out.push(Diagnostic::new(
                RULE_TARGET_FEATURE,
                rel,
                fn_idx + 1,
                format!("`{name}`: `#[target_feature]` functions use the `*_impl` naming"),
            )),
            Some(wrapper) => {
                let has_wrapper = lines
                    .iter()
                    .any(|l| fn_name(&l.code).is_some_and(|n| n == wrapper));
                if !has_wrapper {
                    out.push(Diagnostic::new(
                        RULE_TARGET_FEATURE,
                        rel,
                        fn_idx + 1,
                        format!("`{name}` has no safe wrapper `{wrapper}` in {SIMD_MODULE}"),
                    ));
                }
            }
        }
    }
    out
}

/// Extracts the function name from a `fn` declaration line, if any.
fn fn_name(code: &str) -> Option<String> {
    let at = crate::lexer::find_word(code, "fn", 0)?;
    let rest = code[at + 2..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Nondeterminism sources forbidden in the deterministic library paths.
/// (Bench binaries measure wall-clock on purpose and are out of scope.)
const NONDET_WORDS: [&str; 4] = ["SystemTime", "Instant", "thread_rng", "from_entropy"];

/// Rule 5: the sim/serve/stack paths are tick-domain deterministic —
/// their outputs are drift-gated byte-for-byte in CI, so a wall-clock or
/// entropy read anywhere in them is a reproducibility bug.
#[must_use]
pub fn check_nondeterminism(rel: &str, lines: &[Line], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !is_lib_path(rel) {
        return out;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for word in NONDET_WORDS {
            if contains_word(&line.code, word) {
                out.push(Diagnostic::new(
                    RULE_NONDET,
                    rel,
                    idx + 1,
                    format!(
                        "`{word}` in a deterministic library path (outputs are \
                         drift-gated; wall-clock/entropy belong in bench binaries)"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 4: the bench suite registry, the saved baselines, and the
/// `.gitignore` results whitelist must stay in lockstep — a suite without
/// a baseline silently skips its drift gate, and a tracked result outside
/// the whitelist silently stops being regenerated-and-diffed in CI.
#[must_use]
pub fn check_registry_sync(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let suite_path = root.join(SUITE_MODULE);
    let Ok(suite_src) = std::fs::read_to_string(&suite_path) else {
        out.push(Diagnostic::new(
            RULE_REGISTRY,
            SUITE_MODULE,
            1,
            "suite registry source not found".to_string(),
        ));
        return out;
    };
    let (suites, registry_line) = parse_suite_registry(&suite_src);
    if suites.is_empty() {
        out.push(Diagnostic::new(
            RULE_REGISTRY,
            SUITE_MODULE,
            registry_line.max(1),
            "no `SUITE_REGISTRY` entries found".to_string(),
        ));
        return out;
    }

    // Suites ↔ baselines.
    let baselines_dir = root.join("results/baselines");
    let mut baselines: BTreeSet<String> = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(&baselines_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".json") {
                baselines.insert(stem.to_string());
            }
        }
    }
    for suite in &suites {
        if !baselines.contains(suite) {
            out.push(Diagnostic::new(
                RULE_REGISTRY,
                SUITE_MODULE,
                registry_line,
                format!(
                    "suite `{suite}` has no saved baseline \
                     results/baselines/{suite}.json (its drift gate is dead)"
                ),
            ));
        }
    }
    for baseline in &baselines {
        if !suites.iter().any(|s| s == baseline) {
            out.push(Diagnostic::new(
                RULE_REGISTRY,
                &format!("results/baselines/{baseline}.json"),
                1,
                format!("baseline `{baseline}` has no `SUITE_REGISTRY` entry (stale recording?)"),
            ));
        }
    }

    // `.gitignore` whitelist: every whitelisted JSON must exist…
    let gitignore = std::fs::read_to_string(root.join(".gitignore")).unwrap_or_default();
    let whitelist: Vec<String> = gitignore
        .lines()
        .filter_map(|l| l.trim().strip_prefix('!').map(str::to_string))
        .filter(|p| p.starts_with("results/") && p.ends_with(".json"))
        .collect();
    for pattern in &whitelist {
        if !pattern.contains('*') && !root.join(pattern).is_file() {
            out.push(Diagnostic::new(
                RULE_REGISTRY,
                ".gitignore",
                1,
                format!("whitelisted `{pattern}` does not exist on disk"),
            ));
        }
    }
    // …and every git-tracked results JSON must be whitelisted (skipped
    // when `git` is unavailable, e.g. on an exported tarball).
    if let Some(tracked) = git_tracked_results(root) {
        for path in tracked {
            if path.ends_with(".json") && !whitelist.iter().any(|p| glob_match(p, &path)) {
                out.push(Diagnostic::new(
                    RULE_REGISTRY,
                    &path,
                    1,
                    format!("tracked `{path}` is missing from the .gitignore whitelist"),
                ));
            }
        }
    }
    out
}

/// Extracts the suite names (and the registry's 1-based line) from the
/// `SUITE_REGISTRY` slice in `suite.rs` source text.
fn parse_suite_registry(src: &str) -> (Vec<String>, usize) {
    let mut suites = Vec::new();
    let mut registry_line = 0;
    let mut inside = false;
    for (idx, raw) in src.lines().enumerate() {
        if !inside {
            if raw.contains("SUITE_REGISTRY") && raw.contains('[') {
                inside = true;
                registry_line = idx + 1;
            }
            continue;
        }
        if raw.contains("];") {
            break;
        }
        // Entries look like `("name", builder),` — take the first string.
        if let Some(open) = raw.find("(\"") {
            if let Some(close) = raw[open + 2..].find('"') {
                suites.push(raw[open + 2..open + 2 + close].to_string());
            }
        }
    }
    (suites, registry_line)
}

/// `git ls-files -- results` relative to `root`, or `None` when git is
/// unavailable or `root` is not inside a work tree.
fn git_tracked_results(root: &Path) -> Option<Vec<String>> {
    let output = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["ls-files", "--", "results"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().map(str::to_string).collect())
}

/// Matches a gitignore-style pattern with at most one `*` (which does not
/// cross `/`) against a path.
fn glob_match(pattern: &str, path: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == path,
        Some((prefix, suffix)) => path
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .is_some_and(|mid| !mid.contains('/')),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn test_region_tracking_handles_braceless_items() {
        let src = "#[cfg(test)]\nuse foo;\nfn live() {\n  x();\n}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\n";
        let lines = scan(src);
        let flags = test_regions(&lines);
        assert!(!flags[2], "fn live() must not be swallowed");
        assert!(!flags[3]);
        assert!(flags[6] && flags[7] && flags[8], "mod tests is a region");
    }

    #[test]
    fn glob_match_single_star() {
        assert!(glob_match(
            "results/baselines/*.json",
            "results/baselines/kernels.json"
        ));
        assert!(!glob_match(
            "results/baselines/*.json",
            "results/baselines/sub/kernels.json"
        ));
        assert!(glob_match("results/x.json", "results/x.json"));
        assert!(!glob_match("results/x.json", "results/y.json"));
    }

    #[test]
    fn suite_registry_parsing() {
        let src = "pub const SUITE_REGISTRY: [(&str, SuiteBuilder); 2] = [\n    (\"kernels\", kernels_suite),\n    (\"policies\", policies_suite),\n];\n";
        let (suites, line) = parse_suite_registry(src);
        assert_eq!(suites, vec!["kernels", "policies"]);
        assert_eq!(line, 1);
    }

    #[test]
    fn fn_name_extraction() {
        assert_eq!(
            fn_name("pub fn dot_f32_avx2(a: &[f32]) {").as_deref(),
            Some("dot_f32_avx2")
        );
        assert_eq!(fn_name("    fn helper() {").as_deref(), Some("helper"));
        assert_eq!(fn_name("let x = 1;"), None);
        // `fn` inside an identifier must not match.
        assert_eq!(fn_name("self.fnord();"), None);
    }
}
