//! Workspace automation tasks (`cargo xtask` pattern, offline, std-only).
//!
//! Two subcommands:
//!
//! - `lint` — the ccdn-lint token-level checker
//!   (`cargo run -p xtask -- lint`); see [`xtask::lint`].
//! - `analyze` — the ccdn-analyze call-graph passes
//!   (`cargo run -p xtask -- analyze [--json] [--write-baseline]`); see
//!   [`xtask::analyze`].
//!
//! Exit codes: 0 clean, 1 findings (lint) or baseline mismatch
//! (analyze), 2 usage or runtime error.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::{analyze, lint};

fn usage() {
    eprintln!("usage: cargo run -p xtask -- <subcommand> [options] [ROOT]");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!("  lint                     run ccdn-lint over the workspace sources");
    eprintln!("  analyze                  run the ccdn-analyze call-graph passes");
    eprintln!("                           (nondet-taint, panic-reach, hot-loop-alloc,");
    eprintln!("                           unchecked-arith-reach, clone-in-loop,");
    eprintln!("                           unused-waiver, pub-api-error, proven-safe");
    eprintln!("                           discharge, overflow-risk) and diff against");
    eprintln!("                           the multi-pass lint-baseline.json; hot-loop-");
    eprintln!("                           alloc reads hot-paths.toml and fails on stale");
    eprintln!("                           entries");
    eprintln!("    --json                 print the full findings report as JSON");
    eprintln!("    --write-baseline       regenerate lint-baseline.json (all passes)");
    eprintln!("                           from the current findings");
    eprintln!("    --explain KEY          print the interval derivation chain behind a");
    eprintln!("                           panic-reach / unchecked-arith-reach /");
    eprintln!("                           overflow-risk / proven-safe key");
}

/// Why the workspace root could not be determined.
#[derive(Debug)]
enum XtaskError {
    /// `CARGO_MANIFEST_DIR` is unset and no root was given.
    NoManifestDir,
    /// The candidate directory does not hold a workspace `Cargo.toml`.
    NotAWorkspace(PathBuf),
}

impl fmt::Display for XtaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XtaskError::NoManifestDir => write!(
                f,
                "cannot locate the workspace root: CARGO_MANIFEST_DIR is unset \
                 (run via `cargo xtask` / `cargo run -p xtask`, or pass ROOT explicitly)"
            ),
            XtaskError::NotAWorkspace(path) => write!(
                f,
                "{} is not a workspace root: no Cargo.toml with a [workspace] section",
                path.display()
            ),
        }
    }
}

impl std::error::Error for XtaskError {}

/// Accepts `dir` as a workspace root iff it holds a `Cargo.toml` with a
/// `[workspace]` section.
fn check_workspace(dir: PathBuf) -> Result<PathBuf, XtaskError> {
    let manifest = dir.join("Cargo.toml");
    match std::fs::read_to_string(&manifest) {
        Ok(text) if text.lines().any(|l| l.trim() == "[workspace]") => Ok(dir),
        _ => Err(XtaskError::NotAWorkspace(dir)),
    }
}

/// Locates the workspace root: an explicit `ROOT` argument, else the
/// parent of the directory holding this crate's manifest. Either way the
/// chosen directory must hold the workspace `Cargo.toml` — there is no
/// silent fallback to `.`, which used to lint whatever the current
/// directory happened to be.
fn workspace_root(explicit: Option<PathBuf>) -> Result<PathBuf, XtaskError> {
    if let Some(root) = explicit {
        return check_workspace(root);
    }
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR").ok_or(XtaskError::NoManifestDir)?;
    let manifest = PathBuf::from(manifest_dir);
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| XtaskError::NotAWorkspace(manifest.clone()))?;
    check_workspace(root.to_path_buf())
}

fn run_lint(root: &Path) -> ExitCode {
    match lint::run(root) {
        Ok(findings) if findings.is_empty() => {
            println!("ccdn-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            println!("ccdn-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("ccdn-lint: error: {err}");
            ExitCode::from(2)
        }
    }
}

fn run_analyze(root: &Path, json: bool, write_baseline: bool) -> ExitCode {
    let analysis = match analyze::run(root) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("ccdn-analyze: error: {err}");
            return ExitCode::from(2);
        }
    };
    if write_baseline {
        let path = root.join("lint-baseline.json");
        if let Err(err) = std::fs::write(&path, analyze::baseline_json(&analysis)) {
            eprintln!("ccdn-analyze: error: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "ccdn-analyze: wrote {} ({} finding(s) baselined)",
            path.display(),
            analysis.findings.len()
        );
        return ExitCode::SUCCESS;
    }
    if json {
        print!("{}", analysis.to_json());
        return if analysis.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    for finding in &analysis.findings {
        println!("{finding}");
    }
    let counts = analysis.counts();
    let summary: Vec<String> = counts.iter().map(|(pass, n)| format!("{pass} {n}")).collect();
    println!("ccdn-analyze: {} finding(s) ({})", analysis.findings.len(), summary.join(", "));
    if analysis.is_clean() {
        println!("ccdn-analyze: baseline clean");
        return ExitCode::SUCCESS;
    }
    for key in &analysis.new {
        println!("ccdn-analyze: NEW (not in baseline): {key}");
    }
    for key in &analysis.stale {
        println!(
            "ccdn-analyze: STALE (baseline entry no longer fires — shrink the baseline): {key}"
        );
    }
    println!(
        "ccdn-analyze: baseline mismatch ({} new, {} stale); fix the findings or run \
         `cargo xtask analyze --write-baseline` and review the diff",
        analysis.new.len(),
        analysis.stale.len()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = match workspace_root(args.get(1).map(PathBuf::from)) {
                Ok(root) => root,
                Err(err) => {
                    eprintln!("ccdn-lint: error: {err}");
                    return ExitCode::from(2);
                }
            };
            run_lint(&root)
        }
        Some("analyze") => {
            let mut json = false;
            let mut write_baseline = false;
            let mut explain: Option<String> = None;
            let mut explicit_root = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--write-baseline" => write_baseline = true,
                    "--explain" => match rest.next() {
                        Some(key) => explain = Some(key.clone()),
                        None => {
                            eprintln!("ccdn-analyze: error: --explain needs a ratchet KEY");
                            usage();
                            return ExitCode::from(2);
                        }
                    },
                    other if !other.starts_with('-') && explicit_root.is_none() => {
                        explicit_root = Some(PathBuf::from(other));
                    }
                    other => {
                        eprintln!("ccdn-analyze: error: unknown option `{other}`");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            let root = match workspace_root(explicit_root) {
                Ok(root) => root,
                Err(err) => {
                    eprintln!("ccdn-analyze: error: {err}");
                    return ExitCode::from(2);
                }
            };
            if let Some(key) = explain {
                return match analyze::explain(&root, &key) {
                    Ok(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(err) => {
                        eprintln!("ccdn-analyze: error: {err}");
                        ExitCode::from(2)
                    }
                };
            }
            run_analyze(&root, json, write_baseline)
        }
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}
