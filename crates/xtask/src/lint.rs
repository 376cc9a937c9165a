//! ccdn-lint: project-specific rules that clippy cannot express.
//!
//! Rules (see DESIGN.md "Invariants & lint rules" for the paper-facing
//! rationale):
//!
//! - **no-panic** — no `.unwrap()` / `.expect(..)` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test library
//!   code. Schedulers are long-running services; fallible paths must
//!   return typed errors.
//! - **hash-iter** — no `HashMap` / `HashSet` in planning or simulation
//!   code (`ccdn-core`, `ccdn-flow`, `ccdn-sim`, `ccdn-cluster`):
//!   iteration order depends on the per-process `RandomState` seed and
//!   silently leaks into seeded results. Use `BTreeMap` / `BTreeSet` /
//!   sorted vectors.
//! - **float-eq** — no `==` / `!=` against floating-point operands;
//!   compare with an epsilon or restructure around integers.
//! - **lossy-cast** — no truncating `as` casts to integer types inside
//!   `ccdn-flow` arithmetic; use `try_from` or checked helpers.
//! - **partial-cmp-unwrap** — no `partial_cmp(..).unwrap()`; use
//!   `f64::total_cmp`, which is total and panic-free.
//! - **thread-spawn** — no direct `thread::spawn` / `thread::scope`
//!   outside `ccdn-par`: ad-hoc threading reintroduces scheduling
//!   nondeterminism. Fan out through `ccdn_par::par_map`, whose ordered
//!   join keeps seeded results bit-exact for every thread count.
//! - **instant** — no `std::time::Instant` outside `ccdn-obs`: wall
//!   clocks scattered through planning code are how nondeterminism and
//!   ad-hoc printf profiling creep in. Time through `ccdn_obs::span` /
//!   `Stopwatch` / `timed`, which keep durations out of results.
//!
//! A finding is silenced by a waiver comment naming the rule plus a
//! justification, on the same line or on a comment-only line directly
//! above: `// lint: allow(hash-iter): membership-only set, never
//! iterated`. A waiver without a justification is itself a finding, and
//! a justified waiver that no longer suppresses anything is flagged by
//! the `unused-waiver` pass of `cargo xtask analyze`.
//!
//! Two profiles exist. Library sources get the **full** rule set above.
//! The `tests/`, `benches/` and `examples/` trees get a **relaxed**
//! profile — `no-panic`, `float-eq`, `lossy-cast` and
//! `partial-cmp-unwrap` off (tests unwrap and compare exact goldens by
//! design), but `hash-iter`, `thread-spawn` and `instant` on for every
//! crate: nondeterminism in the golden-figure tests corrupts the
//! reproduction exactly as it would in `src`. `#[cfg(test)]` blocks
//! inside library files get the same relaxed treatment instead of being
//! skipped.

use crate::source::{self, Line};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose planning/simulation code must not use hash containers.
const HASH_SCOPE: [&str; 4] = ["core", "flow", "sim", "cluster"];
/// Crates whose arithmetic must not use truncating integer casts.
const CAST_SCOPE: [&str; 1] = ["flow"];
/// Crates allowed to spawn threads (the deterministic pool itself).
const SPAWN_EXEMPT: [&str; 1] = ["par"];
/// Crates allowed to touch `std::time::Instant` (the observability layer
/// that wraps it).
const INSTANT_EXEMPT: [&str; 1] = ["obs"];
/// Crate directories that are exempt from linting entirely: only the
/// analyzer itself. The bench crate's *library* is linted like any
/// other (its figure cores feed the golden tests); only its `src/bin`
/// experiment scripts stay exempt.
const EXEMPT_CRATES: [&str; 1] = ["xtask"];
/// Directory names never descended into.
const SKIP_DIRS: [&str; 1] = ["target"];

/// Rule strictness for a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Library sources: every rule.
    Full,
    /// Test / bench / example sources: determinism rules only
    /// (`hash-iter` for all crates, `thread-spawn`, `instant`).
    Relaxed,
}

const INT_TYPES: [&str; 12] =
    ["i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize"];

/// A single lint hit, printed as `file:line: rule — message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} — {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// A waiver's fate after a lint run, consumed by the `unused-waiver`
/// pass of `cargo xtask analyze`.
#[derive(Debug, Clone)]
pub struct WaiverUse {
    /// Workspace-relative file.
    pub file: PathBuf,
    /// One-based line of the waiver comment.
    pub comment_line: usize,
    /// One-based line the waiver covers.
    pub target_line: usize,
    /// The rule the waiver names.
    pub rule: String,
    /// Whether a justification was given.
    pub justified: bool,
    /// Whether the waiver suppressed at least one token-level finding.
    pub used: bool,
}

/// A full lint run: findings plus every waiver seen and whether it
/// suppressed anything.
#[derive(Debug, Default)]
pub struct LintRun {
    /// Findings sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// All parsed waivers, sorted by path and comment line.
    pub waivers: Vec<WaiverUse>,
}

/// Lints every source under `root`, returning findings sorted by path
/// and line. Convenience wrapper over [`run_full`].
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    run_full(root).map(|r| r.findings)
}

/// The file set a lint run covers: workspace-relative paths paired with
/// their profile, deterministic order.
pub fn lint_targets(root: &Path) -> io::Result<Vec<(PathBuf, Profile)>> {
    let mut files: Vec<(PathBuf, Profile)> = Vec::new();
    let mut push_tree = |dir: PathBuf, profile: Profile, skip: &[&str]| -> io::Result<()> {
        if dir.is_dir() {
            let mut found = Vec::new();
            collect_rs_files(&dir, &mut found, skip)?;
            files.extend(found.into_iter().map(|p| (p, profile)));
        }
        Ok(())
    };
    push_tree(root.join("src"), Profile::Full, &[])?;
    for tree in ["tests", "benches", "examples"] {
        push_tree(root.join(tree), Profile::Relaxed, &[])?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&crates)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        entries.sort();
        for dir in entries {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            if EXEMPT_CRATES.contains(&name.as_str()) {
                continue;
            }
            // The bench crate's bin/ scripts print tables and abort
            // loudly by design; everything else in its src is covered.
            let src_skip: &[&str] = if name == "bench" { &["bin"] } else { &[] };
            push_tree(dir.join("src"), Profile::Full, src_skip)?;
            for tree in ["tests", "benches", "examples"] {
                push_tree(dir.join(tree), Profile::Relaxed, &[])?;
            }
        }
    }
    let mut rel: Vec<(PathBuf, Profile)> = files
        .into_iter()
        .map(|(p, profile)| (p.strip_prefix(root).unwrap_or(&p).to_path_buf(), profile))
        .collect();
    rel.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(rel)
}

/// Lints every source under `root` — library trees with the full
/// profile, `tests/` / `benches/` / `examples/` trees with the relaxed
/// one — and reports waiver usage alongside the findings.
pub fn run_full(root: &Path) -> io::Result<LintRun> {
    let mut run = LintRun::default();
    for (rel, profile) in lint_targets(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        let crate_name = crate_of(&rel);
        let (findings, waivers) = lint_file(&rel, crate_name.as_deref(), &text, profile);
        run.findings.extend(findings);
        run.waivers.extend(waivers);
    }
    run.findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    run.waivers.sort_by_key(|a| (a.file.clone(), a.comment_line));
    Ok(run)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>, skip: &[&str]) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !skip.contains(&name) {
                collect_rs_files(&path, out, skip)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the crate directory name from a workspace-relative path
/// (`crates/flow/src/mcmf.rs` → `flow`); `None` for the root crate.
fn crate_of(rel: &Path) -> Option<String> {
    let mut parts = rel.components();
    match parts.next() {
        Some(c) if c.as_os_str() == "crates" => {
            parts.next().map(|c| c.as_os_str().to_string_lossy().into_owned())
        }
        _ => None,
    }
}

/// Lints one file under `profile`. `crate_name` is `None` for the root
/// crate. Returns the findings plus every waiver with its usage bit.
pub fn lint_file(
    rel: &Path,
    crate_name: Option<&str>,
    text: &str,
    profile: Profile,
) -> (Vec<Finding>, Vec<WaiverUse>) {
    let lines = source::preprocess(text);
    let waivers = collect_waivers(&lines);
    let hash_scope = crate_name.is_some_and(|c| HASH_SCOPE.contains(&c));
    let cast_scope = crate_name.is_some_and(|c| CAST_SCOPE.contains(&c));
    let spawn_scope = !crate_name.is_some_and(|c| SPAWN_EXEMPT.contains(&c));
    let instant_scope = !crate_name.is_some_and(|c| INSTANT_EXEMPT.contains(&c));

    // Raw findings carry the zero-based line a waiver would target.
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Test code (in-file `#[cfg(test)]` blocks under the full
        // profile, everything under the relaxed one) keeps only the
        // determinism rules: tests unwrap and compare exact values by
        // design, but hash iteration, ad-hoc threads and wall clocks
        // corrupt seeded results no matter where they live.
        let relaxed = profile == Profile::Relaxed || line.in_test;
        let code = line.code.as_str();
        let mut push = |rule: &'static str, message: String| {
            raw.push((idx, rule, message));
        };

        if !relaxed {
            let pcu = code.contains("partial_cmp") && code.contains(".unwrap()");
            if pcu {
                push(
                    "partial-cmp-unwrap",
                    "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp`".into(),
                );
            }
            for token in panic_tokens(code) {
                if token == ".unwrap()" && pcu {
                    continue; // already reported as partial-cmp-unwrap
                }
                push(
                    "no-panic",
                    format!(
                        "`{token}` in library code; return a typed error or waive with a reason"
                    ),
                );
            }
            if let Some(op) = float_eq(code) {
                push(
                    "float-eq",
                    format!("floating-point `{op}` comparison; compare with a tolerance"),
                );
            }
            if cast_scope {
                for ty in lossy_casts(code) {
                    push(
                        "lossy-cast",
                        format!(
                            "`as {ty}` may truncate silently; use `try_from` or a checked helper"
                        ),
                    );
                }
            }
        }
        // Determinism rules run in both profiles. Hash containers are
        // scoped to the planning crates in library code but banned
        // everywhere in test code — test assertions feed the golden
        // fixtures regardless of crate.
        if hash_scope || relaxed {
            for container in ["HashMap", "HashSet"] {
                if has_word(code, container) {
                    push(
                        "hash-iter",
                        format!(
                            "`{container}` in {}; iteration order leaks into seeded results — \
                             use an ordered container",
                            if relaxed { "test/bench code" } else { "planning/simulation code" }
                        ),
                    );
                }
            }
        }
        if spawn_scope {
            for token in ["thread::spawn", "thread::scope"] {
                if code.contains(token) {
                    push(
                        "thread-spawn",
                        format!(
                            "direct `{token}` outside ccdn-par; use `ccdn_par::par_map` so \
                             results join deterministically"
                        ),
                    );
                }
            }
        }
        if instant_scope && has_word(code, "Instant") {
            push(
                "instant",
                "`Instant` outside ccdn-obs; time through `ccdn_obs::span` / `Stopwatch` / \
                 `timed` so durations stay out of results"
                    .into(),
            );
        }
    }

    // Apply waivers, marking the ones that suppress something.
    let mut used = vec![false; waivers.len()];
    let mut findings = Vec::new();
    for (idx, rule, message) in raw {
        let mut suppressed = false;
        for (w_idx, waiver) in waivers.iter().enumerate() {
            if waiver.line == idx && waiver.rule == rule {
                used[w_idx] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(Finding { path: rel.to_path_buf(), line: idx + 1, rule, message });
        }
    }
    for waiver in &waivers {
        if !waiver.justified {
            findings.push(Finding {
                path: rel.to_path_buf(),
                line: waiver.comment_line + 1,
                rule: "waiver",
                message: format!("waiver for `{}` lacks a justification", waiver.rule),
            });
        }
    }
    let uses = waivers
        .into_iter()
        .zip(used)
        .map(|(w, used)| WaiverUse {
            file: rel.to_path_buf(),
            comment_line: w.comment_line + 1,
            target_line: w.line + 1,
            rule: w.rule,
            justified: w.justified,
            used,
        })
        .collect();
    (findings, uses)
}

#[derive(Debug)]
struct Waiver {
    /// Zero-based line the waiver applies to.
    line: usize,
    /// Zero-based line the waiver comment sits on.
    comment_line: usize,
    rule: String,
    justified: bool,
}

/// Parses `lint: allow(rule, ...)` waiver comments. A waiver on a
/// comment-only line covers the next line with code; otherwise it covers
/// its own line.
fn collect_waivers(lines: &[Line]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(at) = line.comment.find("lint: allow(") else {
            continue;
        };
        let rest = &line.comment[at + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules = &rest[..close];
        let justification = rest[close + 1..].trim_start_matches([' ', ':', '-', '—', '–']).trim();
        let target = if line.code.trim().is_empty() {
            lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(j, _)| j)
                .unwrap_or(idx)
        } else {
            idx
        };
        for rule in rules.split(',') {
            waivers.push(Waiver {
                line: target,
                comment_line: idx,
                rule: rule.trim().to_string(),
                justified: !justification.is_empty(),
            });
        }
    }
    waivers
}

/// Panic-family tokens present in a code-view line.
fn panic_tokens(code: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    if code.contains(".unwrap()") {
        hits.push(".unwrap()");
    }
    if code.contains(".expect(") {
        hits.push(".expect(..)");
    }
    for (needle, label) in [
        ("panic!", "panic!"),
        ("unreachable!", "unreachable!"),
        ("todo!", "todo!"),
        ("unimplemented!", "unimplemented!"),
    ] {
        if has_word_prefix(code, needle) {
            hits.push(label);
        }
    }
    hits
}

/// True when `word` occurs in `code` with identifier boundaries on both
/// sides.
fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word, true).is_some()
}

/// True when `word` occurs with an identifier boundary before it (the
/// token may continue after, e.g. `panic!(`).
fn has_word_prefix(code: &str, word: &str) -> bool {
    find_word(code, word, false).is_some()
}

fn find_word(code: &str, word: &str, bound_after: bool) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = !bound_after || end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + word.len();
    }
    None
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Detects `==` / `!=` with a floating-point operand (float literal,
/// `f64::` / `f32::` path, or an `as f64` / `as f32` cast) on either
/// side. Token-level: it cannot see through variable types, so `x == y`
/// on two `f64` bindings is not caught — the rule documents the ones it
/// can prove.
fn float_eq(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let op = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => continue,
        };
        // Exclude `<=`, `>=`, `=>`, `+=`-style compounds and `===`.
        if i > 0
            && matches!(
                bytes[i - 1],
                b'<' | b'>' | b'=' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^'
            )
        {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let left = code[..i].trim_end();
        let right = code[i + 2..].trim_start();
        if operand_is_float(last_token(left), true, left)
            || operand_is_float(first_token(right), false, right)
        {
            return Some(op);
        }
    }
    None
}

fn last_token(s: &str) -> &str {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')))
        .map(|p| p + 1)
        .unwrap_or(0);
    &s[start..end]
}

fn first_token(s: &str) -> &str {
    let trimmed = s.trim_start_matches(['(', '-', ' ']);
    let end = trimmed
        .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')))
        .unwrap_or(trimmed.len());
    &trimmed[..end]
}

/// `side` is the full text on that side of the operator; used to catch
/// trailing `as f64` casts whose last token is just `f64`.
fn operand_is_float(token: &str, is_left: bool, side: &str) -> bool {
    if token.contains("f64::") || token.contains("f32::") {
        return true;
    }
    if is_left && (side.ends_with("as f64") || side.ends_with("as f32")) {
        return true;
    }
    float_literal(token)
}

fn float_literal(token: &str) -> bool {
    let tok: String = token.chars().filter(|&c| c != '_').collect();
    let tok = tok.strip_suffix("f64").or_else(|| tok.strip_suffix("f32")).unwrap_or(&tok);
    let mut chars = tok.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    let mut saw_dot_or_exp = false;
    for c in tok.chars().skip(1) {
        match c {
            '0'..='9' => {}
            '.' => saw_dot_or_exp = true,
            'e' | 'E' => saw_dot_or_exp = true,
            '+' | '-' => {}
            _ => return false,
        }
    }
    // Bare integers like `3` only count as float when they carried an
    // f32/f64 suffix (already stripped above).
    saw_dot_or_exp || token.ends_with("f64") || token.ends_with("f32")
}

/// Integer target types of `as` casts on the line.
fn lossy_casts(code: &str) -> Vec<&'static str> {
    let mut hits = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(" as ") {
        let at = start + pos + 4;
        let rest = &code[at..];
        let ty_end =
            rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
        let ty = &rest[..ty_end];
        if let Some(&known) = INT_TYPES.iter().find(|&&t| t == ty) {
            hits.push(known);
        }
        start = at;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_core(src: &str) -> Vec<Finding> {
        lint_file(Path::new("crates/core/src/x.rs"), Some("core"), src, Profile::Full).0
    }

    fn lint_in(path: &str, crate_name: Option<&str>, src: &str, profile: Profile) -> Vec<Finding> {
        lint_file(Path::new(path), crate_name, src, profile).0
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_panics_in_library_code() {
        let f = lint_core(
            "fn a() { x.unwrap(); }\nfn b() { y.expect(\"m\"); }\nfn c() { panic!(\"x\"); }\n",
        );
        assert_eq!(rules(&f), ["no-panic", "no-panic", "no-panic"]);
    }

    #[test]
    fn ignores_test_code_and_comments() {
        let src = "// x.unwrap() in a comment\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_core(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        assert!(lint_core(
            "fn a() { x.unwrap_or(0); y.unwrap_or_else(f); z.unwrap_or_default(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn flags_hash_containers_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&lint_core(src)), ["hash-iter"]);
        let out = lint_in("crates/stats/src/x.rs", Some("stats"), src, Profile::Full);
        assert!(out.is_empty());
    }

    #[test]
    fn waiver_with_justification_silences() {
        let src = "use std::collections::HashSet; // lint: allow(hash-iter): membership only\n";
        assert!(lint_core(src).is_empty());
        let above = "// lint: allow(hash-iter): membership only\nuse std::collections::HashSet;\n";
        assert!(lint_core(above).is_empty());
    }

    #[test]
    fn waiver_without_justification_is_a_finding() {
        let src = "use std::collections::HashSet; // lint: allow(hash-iter)\n";
        assert_eq!(rules(&lint_core(src)), ["waiver"]);
    }

    #[test]
    fn flags_float_eq() {
        assert_eq!(rules(&lint_core("fn a(x: f64) -> bool { x == 0.5 }\n")), ["float-eq"]);
        assert_eq!(rules(&lint_core("fn a(x: f64) -> bool { x != f64::NAN }\n")), ["float-eq"]);
        assert_eq!(
            rules(&lint_core("fn a(x: i64, n: i64) -> bool { x as f64 == n as f64 }\n")),
            ["float-eq"]
        );
        assert!(lint_core("fn a(x: u64) -> bool { x == 5 }\n").is_empty());
        assert!(lint_core("fn a(x: f64) -> bool { x <= 0.5 }\n").is_empty());
        assert!(lint_core("fn a(x: u64) { match x { 1 => {} _ => {} } }\n").is_empty());
    }

    #[test]
    fn flags_lossy_casts_in_flow_only() {
        let src = "fn a(x: f64) -> i64 { x as i64 }\n";
        let f = lint_in("crates/flow/src/x.rs", Some("flow"), src, Profile::Full);
        assert_eq!(rules(&f), ["lossy-cast"]);
        assert!(lint_core(src).is_empty());
        let widen = "fn a(x: i64) -> f64 { x as f64 }\n";
        assert!(lint_in("crates/flow/src/x.rs", Some("flow"), widen, Profile::Full).is_empty());
    }

    #[test]
    fn flags_thread_spawn_outside_par() {
        let src = "fn a() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules(&lint_core(src)), ["thread-spawn"]);
        let scoped = "fn a() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert_eq!(rules(&lint_core(scoped)), ["thread-spawn"]);
        // The pool crate itself is the one place allowed to spawn.
        let in_par = lint_in("crates/par/src/lib.rs", Some("par"), src, Profile::Full);
        assert!(in_par.is_empty());
    }

    #[test]
    fn flags_instant_outside_obs() {
        let src = "use std::time::Instant;\nfn a() { let t = Instant::now(); }\n";
        assert_eq!(rules(&lint_core(src)), ["instant", "instant"]);
        // The observability crate itself is the one place allowed to
        // touch the wall clock.
        let in_obs = lint_in("crates/obs/src/lib.rs", Some("obs"), src, Profile::Full);
        assert!(in_obs.is_empty());
        // Prose like "Instantiates" must not trip the word match.
        assert!(lint_core("fn a() {} // Instantiates the per-run state\n").is_empty());
    }

    #[test]
    fn relaxed_profile_keeps_determinism_rules_only() {
        let src = "use std::collections::HashMap;\nfn t(x: Option<u32>) { x.unwrap(); let _ = Instant::now(); }\n";
        let f = lint_in("tests/golden.rs", None, src, Profile::Relaxed);
        assert_eq!(rules(&f), ["hash-iter", "instant"]);
        // Relaxed hash-iter applies to every crate, not just planning.
        let f = lint_in("crates/stats/tests/t.rs", Some("stats"), src, Profile::Relaxed);
        assert!(rules(&f).contains(&"hash-iter"));
    }

    #[test]
    fn cfg_test_blocks_keep_determinism_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let f = lint_in("crates/stats/src/x.rs", Some("stats"), src, Profile::Full);
        assert_eq!(rules(&f), ["hash-iter"]);
    }

    #[test]
    fn waiver_usage_is_tracked() {
        let src = "use std::collections::HashSet; // lint: allow(hash-iter): membership only\nfn a() {} // lint: allow(no-panic): nothing here panics\n";
        let (f, w) = lint_file(Path::new("crates/core/src/x.rs"), Some("core"), src, Profile::Full);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
        assert_eq!(w.len(), 2);
        assert!(w[0].used, "suppressing waiver must be marked used");
        assert!(!w[1].used, "idle waiver must be marked unused");
    }

    #[test]
    fn flags_partial_cmp_unwrap_once() {
        let f =
            lint_core("fn a(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n");
        assert_eq!(rules(&f), ["partial-cmp-unwrap"]);
    }
}
