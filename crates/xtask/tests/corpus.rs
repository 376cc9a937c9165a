//! Corpus tests: every ccdn-analyze pass must fire on its fixture —
//! with the expected stable key and call chain — and stay silent on the
//! clean and waived fixtures.
//!
//! Each fixture under `tests/corpus/<case>/` is a miniature workspace
//! tree (`src/`, `crates/*/src/`) next to an `expected.json` manifest
//! listing the findings the analyzer must produce, exactly.

use ccdn_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use xtask::analyze;

fn corpus_case(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus").join(name)
}

/// One expected finding from a manifest.
struct Expected {
    pass: String,
    key: String,
    chain_contains: Vec<String>,
}

fn read_manifest(dir: &Path) -> Vec<Expected> {
    let path = dir.join("expected.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let value = json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    value
        .get("findings")
        .and_then(Value::as_array)
        .expect("manifest has a findings array")
        .iter()
        .map(|f| Expected {
            pass: f.get("pass").and_then(Value::as_str).expect("finding.pass").to_string(),
            key: f.get("key").and_then(Value::as_str).expect("finding.key").to_string(),
            chain_contains: f
                .get("chain_contains")
                .and_then(Value::as_array)
                .map(|hops| {
                    hops.iter()
                        .map(|h| h.as_str().expect("chain_contains entry").to_string())
                        .collect()
                })
                .unwrap_or_default(),
        })
        .collect()
}

/// Runs the analyzer on a fixture and checks the exact finding set.
fn check_case(name: &str) {
    let dir = corpus_case(name);
    let expected = read_manifest(&dir);
    let analysis = analyze::run(&dir).unwrap_or_else(|e| panic!("analyze {name}: {e}"));

    let mut got: Vec<&str> = analysis.findings.iter().map(|f| f.key.as_str()).collect();
    let mut want: Vec<&str> = expected.iter().map(|e| e.key.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "{name}: finding keys diverge from the manifest\nfull findings: {:#?}",
        analysis.findings
    );

    for exp in &expected {
        let finding = analysis
            .findings
            .iter()
            .find(|f| f.key == exp.key)
            .unwrap_or_else(|| panic!("{name}: missing finding {}", exp.key));
        assert_eq!(finding.pass, exp.pass, "{name}: wrong pass for {}", exp.key);
        for needle in &exp.chain_contains {
            assert!(
                finding.chain.iter().any(|hop| hop.contains(needle.as_str())),
                "{name}: chain of {} lacks hop `{needle}`; chain: {:#?}",
                exp.key,
                finding.chain
            );
        }
    }
}

#[test]
fn taint_chain_through_laundering_helper_is_flagged() {
    check_case("taint_launder");
}

#[test]
fn panic_chain_with_slice_indexing_is_flagged() {
    check_case("panic_chain");
}

#[test]
fn restricted_pub_fn_is_not_an_entry() {
    check_case("restricted_pub");
}

#[test]
fn idle_and_unknown_waivers_are_flagged() {
    check_case("unused_waiver");
}

#[test]
fn stringly_and_boxed_pub_errors_are_flagged() {
    check_case("pub_api");
}

#[test]
fn clean_tree_produces_no_findings() {
    check_case("clean");
}

#[test]
fn fn_level_waivers_suppress_chains_and_count_as_used() {
    check_case("waived");
}

#[test]
fn hot_loop_allocations_and_clones_are_flagged() {
    check_case("hot_loop_alloc");
}

#[test]
fn helper_allocation_in_hot_loop_is_charged_via_inlining() {
    check_case("loop_helper_launder");
}

#[test]
fn unchecked_arith_reach_reports_nearest_root() {
    check_case("unchecked_arith");
}

#[test]
fn stale_hot_entry_fails_the_run() {
    let err = analyze::run(&corpus_case("hot_stale")).expect_err("stale entry must error");
    let msg = err.to_string();
    assert!(msg.contains("stale hot entries"), "unexpected error: {msg}");
    assert!(msg.contains("flow::missing"), "error must name the pattern: {msg}");
}

#[test]
fn corpus_runs_are_byte_identical() {
    // The loop-aware passes must stay deterministic: two runs over the
    // same fixture serialize to the same bytes.
    let dir = corpus_case("hot_loop_alloc");
    let first = analyze::run(&dir).expect("first run").to_json();
    let second = analyze::run(&dir).expect("second run").to_json();
    assert_eq!(first, second);
}

#[test]
fn taint_chain_reports_full_call_path() {
    let analysis = analyze::run(&corpus_case("taint_launder")).expect("analyze");
    let finding = &analysis.findings[0];
    // The chain must walk entry → launderer in order, with file:line
    // anchors on every hop.
    assert_eq!(finding.chain.len(), 2, "chain: {:#?}", finding.chain);
    assert!(finding.chain[0].starts_with("core::plan ("));
    assert!(finding.chain[1].starts_with("geo::now_ms ("));
    assert!(finding.chain.iter().all(|hop| hop.contains(".rs:")), "chain: {:#?}", finding.chain);
}

#[test]
fn bounded_sites_are_discharged_not_reported() {
    check_case("interval_safe");
    // The silence must come from interval discharge, not from the sites
    // being invisible: both fns appear in the proven-safe report.
    let analysis = analyze::run(&corpus_case("interval_safe")).expect("analyze");
    assert!(
        analysis.discharged.iter().any(|d| d.contains("core::fold_slots")),
        "fold_slots not discharged: {:#?}",
        analysis.discharged
    );
    assert!(
        analysis.discharged.iter().any(|d| d.starts_with("proven-safe|panic|core::weight_of")),
        "weight_of indexing not discharged via value-bounds.toml: {:#?}",
        analysis.discharged
    );
}

#[test]
fn metro_scale_product_is_flagged_as_overflow_risk() {
    check_case("interval_overflow");
}

#[test]
fn widened_loop_accumulator_stays_open_without_overflow_claim() {
    check_case("widening_loop");
}

#[test]
fn stale_value_bounds_entry_fails_the_run() {
    let err = analyze::run(&corpus_case("bounds_toml_stale")).expect_err("stale bound must error");
    let msg = err.to_string();
    assert!(msg.contains("stale bound declarations"), "unexpected error: {msg}");
    assert!(msg.contains("core::missing"), "error must name the pattern: {msg}");
}
