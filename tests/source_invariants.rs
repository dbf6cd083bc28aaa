//! Source-level invariants that clippy cannot express.
//!
//! Clippy carries the rest. `kvcache` and `attention` deny in their
//! `lib.rs` panics in library code, wall-clock types (listed in each
//! crate's `clippy.toml`), `unsafe` blocks without a `// SAFETY:` comment,
//! unsafe functions without a `# Safety` doc, and lint escapes without a
//! reason. These tests keep those denials in place, bound the escapes from
//! them, and confine `unsafe` code to the AVX2 kernels and the worker
//! pool's helper threads.

use std::fs;
use std::path::Path;

/// The one module that may hold target-feature functions, and one of the
/// two that may hold `unsafe` code.
const SIMD_MODULE: &str = "crates/attention/src/simd.rs";

/// The worker pool's helper threads: the other module that may hold
/// `unsafe` code, and then only one block, which erases a borrowed job's
/// lifetime.
const POOL_MODULE: &str = "crates/kvcache/src/pool.rs";

/// The library crates held to [`RULE_LINTS`].
const RULE_CRATES: [&str; 2] = ["crates/kvcache", "crates/attention"];

/// The clippy lints that carry the project rules in [`RULE_CRATES`].
const RULE_LINTS: [&str; 10] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::undocumented_unsafe_blocks",
    "clippy::missing_safety_doc",
    "clippy::disallowed_types",
    "clippy::allow_attributes_without_reason",
];

/// The most escapes from [`RULE_LINTS`] that [`RULE_CRATES`] may hold
/// together. An escape must stay an exception: audit before raising this.
const MAX_ESCAPES: usize = 8;

/// A source file: its path from the repository root, and its text with the
/// `//` comments (doc comments included) cut from every line.
struct Source {
    rel: String,
    code: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The text of the file at `path` with the `//` comments cut.
fn code_of(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect();
    lines.join("\n")
}

/// Every `.rs` file under `dir` except this one, which names the patterns
/// it looks for.
fn sources(dir: &str) -> Vec<Source> {
    let mut stack = vec![root().join(dir)];
    let mut out = Vec::new();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap().to_string_lossy();
            let rel = rel.replace('\\', "/");
            if rel != file!() {
                let code = code_of(&path);
                out.push(Source { rel, code });
            }
        }
    }
    out
}

/// Every source of the repository's own code (the vendored crates excluded).
fn workspace_sources() -> Vec<Source> {
    let all: Vec<Source> = ["src", "tests", "examples", "crates"]
        .into_iter()
        .flat_map(sources)
        .collect();
    assert!(all.len() > 50, "walk looks broken: {} files", all.len());
    all
}

/// The lints named by each `level(…)` in `code`: the names up to the
/// closing parenthesis or the `reason = …`.
fn lint_lists<'a>(code: &'a str, level: &str) -> Vec<Vec<&'a str>> {
    code.match_indices(&format!("{level}("))
        .map(|(at, m)| {
            let rest = &code[at + m.len()..];
            let list = &rest[..rest.find([')', '=']).unwrap_or(rest.len())];
            list.split(',').map(str::trim).collect()
        })
        .collect()
}

/// The name of the function a line declares, if it declares one.
fn fn_name(line: &str) -> Option<&str> {
    line.split("fn ").nth(1)?.split(['(', '<']).next()
}

#[test]
fn unsafe_code_is_allowed_only_in_the_simd_and_pool_modules() {
    let mut escapes = [0; 2];
    let modules = [SIMD_MODULE, POOL_MODULE];
    for src in workspace_sources() {
        for level in ["allow", "expect", "warn"] {
            for list in lint_lists(&src.code, level) {
                if list.contains(&"unsafe_code") {
                    let module = modules.iter().position(|m| *m == src.rel);
                    let module = module.unwrap_or_else(|| {
                        panic!("{}: `{level}(unsafe_code)` outside {modules:?}", src.rel)
                    });
                    escapes[module] += 1;
                }
            }
        }
    }
    assert_eq!(
        escapes,
        [1, 1],
        "{modules:?} each scope exactly one `unsafe_code` escape"
    );

    // The pool's escape covers one block and nothing else: no unsafe
    // function, trait or impl.
    let pool = code_of(&root().join(POOL_MODULE));
    let uses: Vec<&str> = pool
        .match_indices("unsafe")
        .map(|(at, _)| &pool[at..])
        .filter(|rest| !rest.starts_with("unsafe_code"))
        .collect();
    assert!(
        uses.len() == 1 && uses[0].starts_with("unsafe {"),
        "{POOL_MODULE} must hold exactly one `unsafe` block and no other unsafe item"
    );

    // Every other module is held by a manifest: the workspace forbids
    // unsafe code, and each member inherits that or denies it itself.
    let read = |dir: &Path| fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    assert!(read(root()).contains("unsafe_code = \"forbid\""));
    let crates = fs::read_dir(root().join("crates")).unwrap();
    for dir in std::iter::once(root().to_path_buf()).chain(crates.map(|e| e.unwrap().path())) {
        let manifest = read(&dir);
        assert!(
            manifest.contains("[lints]\nworkspace = true")
                || manifest.contains("unsafe_code = \"deny\""),
            "{} neither inherits the workspace lints nor denies unsafe code",
            dir.display()
        );
    }
}

#[test]
fn target_feature_functions_are_private_impls_behind_safe_wrappers() {
    let mut gated = 0;
    for src in workspace_sources() {
        let lines: Vec<&str> = src.code.lines().collect();
        for (i, _) in lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains("#[target_feature"))
        {
            let at = format!("{}:{}", src.rel, i + 1);
            assert_eq!(
                src.rel, SIMD_MODULE,
                "{at}: target-feature function outside the SIMD module"
            );
            let (decl, name) = lines[i + 1..]
                .iter()
                .find_map(|l| Some((l, fn_name(l)?)))
                .unwrap();
            assert!(
                !decl.trim_start().starts_with("pub"),
                "{at}: `{name}` must stay private"
            );
            let stem = name.strip_suffix("_impl");
            let stem = stem.unwrap_or_else(|| panic!("{at}: `{name}` is not named `*_impl`"));
            assert!(
                lines
                    .iter()
                    .any(|l| fn_name(l) == Some(stem) && !l.contains("unsafe")),
                "{at}: `{name}` has no safe wrapper `{stem}`"
            );
            gated += 1;
        }
    }
    assert!(
        gated > 0,
        "no target-feature function found in {SIMD_MODULE}"
    );
}

#[test]
fn rule_lints_stay_denied_and_escapes_stay_few() {
    let mut escapes = Vec::new();
    for krate in RULE_CRATES {
        let lib = code_of(&root().join(krate).join("src/lib.rs"));
        let denied = lint_lists(&lib, "deny").concat();
        for lint in RULE_LINTS {
            assert!(
                denied.contains(&lint),
                "{krate}/src/lib.rs no longer denies {lint}"
            );
        }
        let config = fs::read_to_string(root().join(krate).join("clippy.toml")).unwrap();
        for setting in [
            "\"std::time::Instant\"",
            "\"std::time::SystemTime\"",
            "check-private-items = true",
        ] {
            assert!(
                config.contains(setting),
                "{krate}/clippy.toml lost {setting}"
            );
        }

        for src in sources(&format!("{krate}/src")) {
            for level in ["allow", "expect"] {
                for list in lint_lists(&src.code, level) {
                    for lint in RULE_LINTS.iter().filter(|l| list.contains(l)) {
                        // An `expect` fails once its site stops tripping the
                        // lint; an `allow` would outlive it silently.
                        assert_eq!(
                            level, "expect",
                            "{}: `allow({lint})`, use `expect`",
                            src.rel
                        );
                        escapes.push(format!("{}: {lint}", src.rel));
                    }
                }
            }
        }
    }
    assert!(
        escapes.len() <= MAX_ESCAPES,
        "{} escapes from the rule lints, at most {MAX_ESCAPES}: {escapes:#?}",
        escapes.len()
    );
}
