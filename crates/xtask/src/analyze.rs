//! ccdn-analyze: call-graph semantic passes over the workspace.
//!
//! Where ccdn-lint matches single lines, these passes run reachability
//! over an over-approximate call graph (see [`crate::index`] and
//! [`crate::graph`]), so a nondeterministic source laundered through a
//! helper in another crate is still caught. Seven passes:
//!
//! - **nondet-taint** — transitive reachability from nondeterminism
//!   roots (`Instant` / `SystemTime`, `HashMap` / `HashSet`,
//!   `thread::spawn` / `scope`, `env::*`) into the seeded planning and
//!   simulation entry points: every `pub` fn of `ccdn-core`,
//!   `ccdn-flow`, `ccdn-sim`, `ccdn-cluster` and `ccdn-trace`. The
//!   `ccdn-par` and `ccdn-obs` crates are trusted sinks — their
//!   sanctioned clock/thread/env use does not taint callers, which is
//!   exactly the `par`/`obs` lint exemption lifted to the graph.
//! - **panic-reach** — extends no-panic beyond direct `unwrap`: slice
//!   indexing, integer div/rem, panic-family macros, and *transitive
//!   calls* into panicking or panic-waived functions, reported with the
//!   full call chain from every `pub` fn that can reach one.
//! - **hot-loop-alloc** — loop-aware dataflow over the committed
//!   hot-entry list (`hot-paths.toml`): inside the call cone of a hot
//!   entry, any allocation or `.clone()` event lexically inside a
//!   `for` / `while` / `loop` body is flagged, and a call made inside
//!   a loop charges the callee's allocations to that loop
//!   (interprocedural one-level inlining). Unlike the other passes
//!   this one does *not* skip `#[cfg(test)]` code: a clone-per-probe
//!   loop in a hot path's test burns the same CI minutes the pass
//!   exists to protect.
//! - **unchecked-arith-reach** — unguarded integer `+` / `-` / `*`
//!   (counter overflow/underflow surface) reachable from the seeded
//!   entry crates' `pub` fns, complementing panic-reach's div/rem and
//!   indexing coverage. One finding per entry: the nearest root.
//! - **clone-in-loop** — the `.clone()`-inside-a-loop subset reported
//!   with full `qname (file:line)` call chains from every `pub` fn
//!   that can reach one, like panic-reach.
//! - **unused-waiver** — a `// lint: allow(..)` that no longer
//!   suppresses any finding (token-level or semantic) is itself a
//!   finding, so waivers cannot rot; unknown rule names are caught too.
//! - **pub-api-error** — `pub` fns returning `Result` must use the
//!   workspace's typed errors: `Box<dyn Error>`, `String` and `&str`
//!   error positions are rejected.
//!
//! Findings are keyed by stable identifiers (qualified names, not line
//! numbers) and diffed against the committed `lint-baseline.json`
//! ratchet — since version 2 a *multi-pass* document with one key
//! namespace per pass: a finding not in its pass's baseline fails the
//! run, and a baseline entry that no longer fires fails it too, so
//! every pass's baseline can only shrink. Waive a fn-level finding
//! with the same comment syntax as the lint, placed directly above the
//! `fn` line:
//! `// lint: allow(panic-reach): bench harness aborts loudly by design`.

use crate::bounds;
use crate::graph::{self, Graph, NondetKind};
use crate::hotpaths::{self, HotPaths};
use crate::index::{self, CostKind, FileIndex, FnItem, Index};
use crate::interval::{self, IntervalAnalysis};
use crate::lint::{self, WaiverUse};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `pub` fns are the seeded entry points nondeterminism
/// must not reach.
const NONDET_ENTRY_CRATES: [&str; 5] = ["cluster", "core", "flow", "sim", "trace"];
/// Crates whose internal clock/thread/env use is sanctioned; they are
/// neither taint roots nor taint carriers.
const TRUSTED_CRATES: [&str; 2] = ["obs", "par"];

/// Rules the semantic passes accept in waivers.
const ANALYZE_RULES: [&str; 7] = [
    "nondet-taint",
    "panic-reach",
    "pub-api-error",
    "hot-loop-alloc",
    "unchecked-arith-reach",
    "clone-in-loop",
    "overflow-risk",
];

/// Every pass name, in report order.
const ALL_PASSES: [&str; 8] = [
    "clone-in-loop",
    "hot-loop-alloc",
    "nondet-taint",
    "overflow-risk",
    "panic-reach",
    "pub-api-error",
    "unchecked-arith-reach",
    "unused-waiver",
];
/// Rules the token lint accepts in waivers.
const LINT_RULES: [&str; 8] = [
    "no-panic",
    "hash-iter",
    "float-eq",
    "lossy-cast",
    "partial-cmp-unwrap",
    "thread-spawn",
    "instant",
    "waiver",
];

/// One semantic finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemFinding {
    /// Which pass produced it.
    pub pass: &'static str,
    /// Workspace-relative file of the anchor (entry fn or waiver).
    pub file: PathBuf,
    /// One-based anchor line.
    pub line: usize,
    /// Stable ratchet key (no line numbers).
    pub key: String,
    /// Human-readable description.
    pub message: String,
    /// Call chain from entry to root, one `qname (file:line)` hop per
    /// element; empty for passes without chains.
    pub chain: Vec<String>,
}

impl fmt::Display for SemFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} — {}", self.file.display(), self.line, self.pass, self.message)?;
        for hop in &self.chain {
            write!(f, "\n    via {hop}")?;
        }
        Ok(())
    }
}

/// The full analysis of a tree: findings plus the baseline diff.
#[derive(Debug)]
pub struct Analysis {
    /// All semantic findings, sorted by (pass, file, line, key).
    pub findings: Vec<SemFinding>,
    /// Keys firing now but absent from the baseline (CI failure).
    pub new: Vec<String>,
    /// Baseline keys that no longer fire (CI failure: shrink the file).
    pub stale: Vec<String>,
    /// Proven-safe discharges: former panic/arith roots whose every
    /// site the interval engine proved cannot trap. Informational (not
    /// ratcheted) — each discharge only *removes* reach keys.
    pub discharged: Vec<String>,
}

impl Analysis {
    /// True when the tree matches the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// Finding counts per pass, for the report summary.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for pass in ALL_PASSES {
            counts.insert(pass, 0);
        }
        for finding in &self.findings {
            *counts.entry(finding.pass).or_insert(0) += 1;
        }
        counts.insert("proven-safe", self.discharged.len());
        counts
    }

    /// The analysis as one deterministic JSON document (trailing
    /// newline included). Two runs over the same tree produce
    /// byte-identical output: every collection is sorted and nothing
    /// time- or environment-dependent is recorded.
    pub fn to_json(&self) -> String {
        use ccdn_obs::json_string as js;
        let mut out = String::from("{\"tool\":\"ccdn-analyze\",\"version\":3,\"passes\":{");
        let counts = self.counts();
        for (i, (pass, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{n}", js(pass)));
        }
        out.push_str("},\"findings\":[");
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let chain: Vec<String> = finding.chain.iter().map(|h| js(h)).collect();
            out.push_str(&format!(
                "{{\"pass\":{},\"file\":{},\"line\":{},\"key\":{},\"message\":{},\"chain\":[{}]}}",
                js(finding.pass),
                js(&finding.file.display().to_string()),
                finding.line,
                js(&finding.key),
                js(&finding.message),
                chain.join(",")
            ));
        }
        out.push_str("],\"discharged\":[");
        push_keys(&mut out, &self.discharged);
        out.push_str("],\"baseline\":{\"new\":[");
        push_keys(&mut out, &self.new);
        out.push_str("],\"stale\":[");
        push_keys(&mut out, &self.stale);
        out.push_str("]}}\n");
        out
    }
}

fn push_keys(out: &mut String, keys: &[String]) {
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ccdn_obs::json_string(key));
    }
}

/// Why an analysis could not run.
#[derive(Debug)]
pub enum AnalyzeError {
    /// A source file could not be indexed.
    Index(index::IndexError),
    /// The token lint (needed for waiver usage) failed on I/O.
    Lint(std::io::Error),
    /// `lint-baseline.json` exists but cannot be read or parsed.
    Baseline(String),
    /// `hot-paths.toml` is malformed or names qnames the index no
    /// longer contains (stale hot entries).
    HotPaths(String),
    /// `value-bounds.toml` is malformed or declares bounds for fns or
    /// fields the index no longer contains (stale declarations).
    Bounds(String),
    /// `--explain` was given a key no pass currently produces.
    Explain(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Index(e) => write!(f, "{e}"),
            AnalyzeError::Lint(e) => write!(f, "lint pre-pass: {e}"),
            AnalyzeError::Baseline(e) => write!(f, "lint-baseline.json: {e}"),
            AnalyzeError::HotPaths(e) => write!(f, "{}: {e}", hotpaths::FILE),
            AnalyzeError::Bounds(e) => write!(f, "{}: {e}", bounds::FILE),
            AnalyzeError::Explain(e) => write!(f, "--explain: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs every pass over the tree at `root` and diffs against the
/// baseline at `root/lint-baseline.json` (an absent baseline means an
/// empty one). An absent `hot-paths.toml` skips only hot-loop-alloc;
/// a *stale* entry in it (matching nothing in the index) is an error.
///
/// # Errors
///
/// [`AnalyzeError`] on I/O failure, an unreadable baseline, or a
/// malformed / stale hot-entry list; findings are never errors.
pub fn run(root: &Path) -> Result<Analysis, AnalyzeError> {
    let index = index::build(root).map_err(AnalyzeError::Index)?;
    let graph = graph::build(&index);
    let lint_run = lint::run_full(root).map_err(AnalyzeError::Lint)?;
    let waivers = lint_run.waivers;
    let hot = hotpaths::load(root).map_err(AnalyzeError::HotPaths)?;
    if let Some(hot) = &hot {
        let stale = hot.stale_patterns(&index);
        if !stale.is_empty() {
            return Err(AnalyzeError::HotPaths(format!(
                "stale hot entries (no indexed fn matches): {}",
                stale.join(", ")
            )));
        }
    }
    let value_bounds = bounds::load(root).map_err(AnalyzeError::Bounds)?;
    if let Some(b) = &value_bounds {
        let stale = b.stale_entries(&index);
        if !stale.is_empty() {
            return Err(AnalyzeError::Bounds(format!(
                "stale bound declarations (no indexed match): {}",
                stale.join(", ")
            )));
        }
    }
    let intervals = interval::analyze(&index, &graph, value_bounds.as_ref());

    let mut findings = Vec::new();
    let mut sem_used: Vec<bool> = vec![false; waivers.len()];
    {
        let mut waive = |file: &Path, line: usize, rule: &str| -> bool {
            let mut hit = false;
            for (i, w) in waivers.iter().enumerate() {
                if w.rule == rule && w.target_line == line && w.file == file {
                    sem_used[i] = true;
                    hit = true;
                }
            }
            hit
        };
        nondet_taint_pass(&index, &graph, &mut waive, &mut findings);
        panic_reach_pass(&index, &graph, &intervals, &mut waive, &mut findings);
        if let Some(hot) = &hot {
            hot_loop_alloc_pass(&index, &graph, hot, &mut waive, &mut findings);
            overflow_risk_pass(&index, &graph, hot, &intervals, &mut waive, &mut findings);
        }
        unchecked_arith_pass(&index, &graph, &intervals, &mut waive, &mut findings);
        clone_in_loop_pass(&index, &graph, &mut waive, &mut findings);
        pub_api_error_pass(&index, &mut waive, &mut findings);
    }
    unused_waiver_pass(&waivers, &sem_used, &mut findings);

    findings
        .sort_by(|a, b| (a.pass, &a.file, a.line, &a.key).cmp(&(b.pass, &b.file, b.line, &b.key)));

    let baseline = read_baseline(root)?;
    let current: BTreeSet<&str> = findings.iter().map(|f| f.key.as_str()).collect();
    let new = findings
        .iter()
        .filter(|f| !baseline.contains(&f.key))
        .map(|f| f.key.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let stale = baseline.iter().filter(|k| !current.contains(k.as_str())).cloned().collect();
    let discharged = discharge_report(&index, &graph, &intervals);
    Ok(Analysis { findings, new, stale, discharged })
}

/// The proven-safe discharge summary: one line per former root whose
/// every panic/arith site carries a `Proven` interval proof.
fn discharge_report(index: &Index, graph: &Graph, intervals: &IntervalAnalysis) -> Vec<String> {
    let mut out = Vec::new();
    for (id, item) in index.fns.iter().enumerate() {
        if !graph.facts[id].panics.is_empty() && intervals.panic_root_discharged(id) {
            out.push(format!(
                "proven-safe|panic|{}|{} sites",
                item.qname,
                graph.facts[id].panics.len()
            ));
        }
        if !item.in_test && !graph.facts[id].arith.is_empty() && intervals.arith_root_discharged(id)
        {
            out.push(format!(
                "proven-safe|arith|{}|{} sites",
                item.qname,
                graph.facts[id].arith.len()
            ));
        }
    }
    out.sort();
    out
}

/// Pass 1: nondeterminism taint into the seeded entry points.
fn nondet_taint_pass(
    index: &Index,
    graph: &Graph,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    // Roots: fns outside the trusted crates with intrinsic
    // nondeterminism, minus waived ones.
    let mut roots: BTreeMap<usize, Vec<NondetKind>> = BTreeMap::new();
    for (id, item) in index.fns.iter().enumerate() {
        if TRUSTED_CRATES.contains(&item.crate_name.as_str()) {
            continue;
        }
        let kinds: Vec<NondetKind> = graph.facts[id].nondet.keys().copied().collect();
        if kinds.is_empty() {
            continue;
        }
        if waive(&item.file, item.line, "nondet-taint") {
            continue;
        }
        roots.insert(id, kinds);
    }
    for (entry_id, entry) in index.fns.iter().enumerate() {
        if !entry.is_pub
            || entry.in_bin
            || !NONDET_ENTRY_CRATES.contains(&entry.crate_name.as_str())
        {
            continue;
        }
        if waive(&entry.file, entry.line, "nondet-taint") {
            continue;
        }
        let parents = bfs(graph, entry_id, &|id| !trusted(index, id));
        // Nearest root per kind (BFS order makes "nearest" exact).
        let mut reported: BTreeSet<NondetKind> = BTreeSet::new();
        for (&root_id, kinds) in &roots {
            if !parents.contains_key(&root_id) {
                continue;
            }
            for &kind in kinds {
                if !reported.insert(kind) {
                    continue;
                }
                let site = &graph.facts[root_id].nondet[&kind];
                let chain = render_chain(index, &parents, entry_id, root_id);
                let root = &index.fns[root_id];
                findings.push(SemFinding {
                    pass: "nondet-taint",
                    file: entry.file.clone(),
                    line: entry.line,
                    key: format!("nondet-taint|{}|{}|{}", entry.qname, kind.label(), root.qname),
                    message: format!(
                        "seeded entry point `{}` reaches {} nondeterminism: `{}` uses {} ({}:{})",
                        entry.qname,
                        kind.label(),
                        root.qname,
                        site.what,
                        root.file.display(),
                        site.line
                    ),
                    chain,
                });
            }
        }
    }
}

fn trusted(index: &Index, id: usize) -> bool {
    TRUSTED_CRATES.contains(&index.fns[id].crate_name.as_str())
}

/// Pass 2: panic reachability from the `pub` surface.
fn panic_reach_pass(
    index: &Index,
    graph: &Graph,
    intervals: &IntervalAnalysis,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    let mut roots: BTreeSet<usize> = BTreeSet::new();
    for (id, item) in index.fns.iter().enumerate() {
        if graph.facts[id].panics.is_empty() {
            continue;
        }
        // Proven-safe discharge: every site in this fn carries an
        // interval proof that the operation cannot trap, so the fn
        // stops being a panic root (`--explain` prints the chains).
        if intervals.panic_root_discharged(id) {
            continue;
        }
        if waive(&item.file, item.line, "panic-reach") {
            continue;
        }
        roots.insert(id);
    }
    for (entry_id, entry) in index.fns.iter().enumerate() {
        if !entry.is_pub || entry.in_bin {
            continue;
        }
        if waive(&entry.file, entry.line, "panic-reach") {
            continue;
        }
        let parents = bfs(graph, entry_id, &|_| true);
        // Nearest reachable root, ties broken by fn id for stable output.
        let mut nearest: Option<(usize, usize)> = None; // (dist, id)
        for (&id, &(_, dist)) in &parents {
            if roots.contains(&id) && nearest.is_none_or(|best| (dist, id) < best) {
                nearest = Some((dist, id));
            }
        }
        let Some((_, root_id)) = nearest else {
            continue;
        };
        let root = &index.fns[root_id];
        let site = graph.facts[root_id]
            .panics
            .first()
            .cloned()
            .unwrap_or_else(|| graph::RootSite { line: root.line, what: "panic".into(), tok: 0 });
        let chain = render_chain(index, &parents, entry_id, root_id);
        findings.push(SemFinding {
            pass: "panic-reach",
            file: entry.file.clone(),
            line: entry.line,
            key: format!("panic-reach|{}|{}", entry.qname, root.qname),
            message: format!(
                "pub fn `{}` can reach a panic: `{}` has {} ({}:{})",
                entry.qname,
                root.qname,
                site.what,
                root.file.display(),
                site.line
            ),
            chain,
        });
    }
}

/// Max nesting of any loop of `item` (in `file`) whose body contains
/// token `tok`; `None` when the token is outside every loop.
fn loop_nesting(file: &FileIndex, item: &FnItem, tok: usize) -> Option<u32> {
    file.loops
        .iter()
        .filter(|l| item.body.contains(&l.keyword) && l.body.contains(&tok))
        .map(|l| l.nesting)
        .max()
}

/// Pass 3: allocations and clones inside loops, in the call cone of
/// the committed hot-entry list. Direct events are keyed per fn and
/// event label (with an ordinal for repeats); a call made inside a
/// loop additionally charges the callee's allocations to that loop
/// (one-level inlining), keyed `hot-loop-alloc|caller|via:callee`.
/// Test code is scanned too — hot-path tests iterate the same
/// solvers, and a clone-per-probe loop there is still paid for on
/// every CI run.
fn hot_loop_alloc_pass(
    index: &Index,
    graph: &Graph,
    hot: &HotPaths,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    // The hot cone: every fn matching an entry pattern, plus everything
    // reachable from one.
    let mut cone: BTreeSet<usize> = BTreeSet::new();
    for (id, item) in index.fns.iter().enumerate() {
        if !hot.matches(&item.qname) {
            continue;
        }
        cone.extend(bfs(graph, id, &|_| true).keys());
    }
    for file in &index.files {
        for &id in &file.fns {
            if !cone.contains(&id) {
                continue;
            }
            let item = &index.fns[id];
            if waive(&item.file, item.line, "hot-loop-alloc") {
                continue;
            }
            // Direct cost events lexically inside one of this fn's loops.
            let mut ordinals: BTreeMap<&str, usize> = BTreeMap::new();
            for event in &item.costs {
                let Some(nesting) = loop_nesting(file, item, event.tok) else {
                    continue;
                };
                let n = ordinals.entry(event.what.as_str()).or_insert(0);
                let ordinal = *n;
                *n += 1;
                let verb = match event.kind {
                    CostKind::Alloc => "allocates",
                    CostKind::Clone => "deep-copies",
                };
                findings.push(SemFinding {
                    pass: "hot-loop-alloc",
                    file: item.file.clone(),
                    line: event.line,
                    key: format!("hot-loop-alloc|{}|{}#{ordinal}", item.qname, event.what),
                    message: format!(
                        "hot fn `{}` {verb} inside a depth-{nesting} loop: {} ({}:{})",
                        item.qname,
                        event.what,
                        item.file.display(),
                        event.line
                    ),
                    chain: Vec::new(),
                });
            }
            // One-level inlining: helper() called in a loop charges the
            // helper's allocations to the loop.
            for (&callee_id, sites) in &graph.facts[id].call_sites {
                if callee_id == id {
                    continue;
                }
                let callee = &index.fns[callee_id];
                if callee.in_test {
                    continue;
                }
                let Some(event) = callee.costs.iter().find(|c| !c.in_test) else {
                    continue;
                };
                let Some(nesting) = sites.iter().filter_map(|&s| loop_nesting(file, item, s)).max()
                else {
                    continue;
                };
                findings.push(SemFinding {
                    pass: "hot-loop-alloc",
                    file: item.file.clone(),
                    line: item.line,
                    key: format!("hot-loop-alloc|{}|via:{}", item.qname, callee.qname),
                    message: format!(
                        "hot fn `{}` calls `{}` inside a depth-{nesting} loop; the callee \
                         allocates: {} ({}:{})",
                        item.qname,
                        callee.qname,
                        event.what,
                        callee.file.display(),
                        event.line
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// Pass: overflow-risk — arith sites and narrowing `as` casts in the
/// hot cone whose *derived* interval can exceed the target type at the
/// magnitudes `value-bounds.toml` declares. Unlike unchecked-arith-reach
/// (which flags any unguarded op), a risk needs both operands tighter
/// than their type ranges and a result that still escapes — real
/// metro-scale hazards, not background noise. Ratcheted in its own
/// namespace like clone-in-loop.
fn overflow_risk_pass(
    index: &Index,
    graph: &Graph,
    hot: &HotPaths,
    intervals: &IntervalAnalysis,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    let mut cone: BTreeSet<usize> = BTreeSet::new();
    for (id, item) in index.fns.iter().enumerate() {
        if !hot.matches(&item.qname) {
            continue;
        }
        cone.extend(bfs(graph, id, &|_| true).keys());
    }
    for &id in &cone {
        let item = &index.fns[id];
        if item.in_test {
            continue;
        }
        if waive(&item.file, item.line, "overflow-risk") {
            continue;
        }
        let mut ordinals: BTreeMap<String, usize> = BTreeMap::new();
        for (ord, proof) in intervals.arith_risks(id) {
            let site = &graph.facts[id].arith[ord];
            let n = ordinals.entry(site.what.clone()).or_insert(0);
            let ordinal = *n;
            *n += 1;
            findings.push(SemFinding {
                pass: "overflow-risk",
                file: item.file.clone(),
                line: site.line,
                key: format!("overflow-risk|{}|{}#{ordinal}", item.qname, site.what),
                message: format!(
                    "hot-reachable fn `{}`: {} can exceed its type at declared metro-scale                      magnitudes ({}:{})",
                    item.qname,
                    site.what,
                    item.file.display(),
                    site.line
                ),
                chain: proof.chain.clone(),
            });
        }
        for cast in &intervals.reports[id].casts {
            let n = ordinals.entry(cast.what.clone()).or_insert(0);
            let ordinal = *n;
            *n += 1;
            findings.push(SemFinding {
                pass: "overflow-risk",
                file: item.file.clone(),
                line: cast.line,
                key: format!("overflow-risk|{}|{}#{ordinal}", item.qname, cast.what),
                message: format!(
                    "hot-reachable fn `{}`: {} narrows a value whose interval exceeds the                      target type ({}:{})",
                    item.qname,
                    cast.what,
                    item.file.display(),
                    cast.line
                ),
                chain: cast.chain.clone(),
            });
        }
    }
}

/// Pass 4: unguarded integer `+` / `-` / `*` reachable from the seeded
/// entry crates' `pub` surface. Like panic-reach, one finding per
/// entry — the nearest root — so the count is bounded by the entry
/// surface, not the arithmetic density.
fn unchecked_arith_pass(
    index: &Index,
    graph: &Graph,
    intervals: &IntervalAnalysis,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    let mut roots: BTreeSet<usize> = BTreeSet::new();
    for (id, item) in index.fns.iter().enumerate() {
        if item.in_test || graph.facts[id].arith.is_empty() {
            continue;
        }
        // Proven-safe discharge: every arith site's result interval is
        // contained in its type range, so nothing here can overflow.
        if intervals.arith_root_discharged(id) {
            continue;
        }
        if waive(&item.file, item.line, "unchecked-arith-reach") {
            continue;
        }
        roots.insert(id);
    }
    for (entry_id, entry) in index.fns.iter().enumerate() {
        if !entry.is_pub
            || entry.in_bin
            || entry.in_test
            || !NONDET_ENTRY_CRATES.contains(&entry.crate_name.as_str())
        {
            continue;
        }
        if waive(&entry.file, entry.line, "unchecked-arith-reach") {
            continue;
        }
        let parents = bfs(graph, entry_id, &|_| true);
        let mut nearest: Option<(usize, usize)> = None; // (dist, id)
        for (&id, &(_, dist)) in &parents {
            if roots.contains(&id) && nearest.is_none_or(|best| (dist, id) < best) {
                nearest = Some((dist, id));
            }
        }
        let Some((_, root_id)) = nearest else {
            continue;
        };
        let root = &index.fns[root_id];
        let site = graph.facts[root_id].arith.first().cloned().unwrap_or_else(|| graph::RootSite {
            line: root.line,
            what: "arith".into(),
            tok: 0,
        });
        let chain = render_chain(index, &parents, entry_id, root_id);
        findings.push(SemFinding {
            pass: "unchecked-arith-reach",
            file: entry.file.clone(),
            line: entry.line,
            key: format!("unchecked-arith-reach|{}|{}", entry.qname, root.qname),
            message: format!(
                "pub fn `{}` can reach unguarded integer arithmetic: `{}` has {} ({}:{})",
                entry.qname,
                root.qname,
                site.what,
                root.file.display(),
                site.line
            ),
            chain,
        });
    }
}

/// Pass 5: `.clone()` inside a loop, reported with full call chains
/// from every `pub` fn that can reach one (the clone subset of
/// hot-loop-alloc, but over the *whole* `pub` surface, not just the
/// hot cone).
fn clone_in_loop_pass(
    index: &Index,
    graph: &Graph,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    // Roots: fns with a non-test `.clone()` event inside a loop.
    let mut roots: BTreeMap<usize, index::CostEvent> = BTreeMap::new();
    for file in &index.files {
        for &id in &file.fns {
            let item = &index.fns[id];
            if item.in_test {
                continue;
            }
            let Some(event) = item.costs.iter().find(|c| {
                c.kind == CostKind::Clone && !c.in_test && loop_nesting(file, item, c.tok).is_some()
            }) else {
                continue;
            };
            if waive(&item.file, item.line, "clone-in-loop") {
                continue;
            }
            roots.insert(id, event.clone());
        }
    }
    for (entry_id, entry) in index.fns.iter().enumerate() {
        if !entry.is_pub || entry.in_bin || entry.in_test {
            continue;
        }
        if waive(&entry.file, entry.line, "clone-in-loop") {
            continue;
        }
        let parents = bfs(graph, entry_id, &|_| true);
        let mut nearest: Option<(usize, usize)> = None; // (dist, id)
        for (&id, &(_, dist)) in &parents {
            if roots.contains_key(&id) && nearest.is_none_or(|best| (dist, id) < best) {
                nearest = Some((dist, id));
            }
        }
        let Some((_, root_id)) = nearest else {
            continue;
        };
        let root = &index.fns[root_id];
        let site = &roots[&root_id];
        let chain = render_chain(index, &parents, entry_id, root_id);
        findings.push(SemFinding {
            pass: "clone-in-loop",
            file: entry.file.clone(),
            line: entry.line,
            key: format!("clone-in-loop|{}|{}", entry.qname, root.qname),
            message: format!(
                "pub fn `{}` reaches a clone-in-loop: `{}` deep-copies inside a loop ({}:{})",
                entry.qname,
                root.qname,
                root.file.display(),
                site.line
            ),
            chain,
        });
    }
}

/// Pass 6: every justified waiver must still suppress something, and
/// every waiver must name a known rule.
fn unused_waiver_pass(waivers: &[WaiverUse], sem_used: &[bool], findings: &mut Vec<SemFinding>) {
    // Ordinal per (file, rule) pair keeps keys stable under line edits.
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (i, waiver) in waivers.iter().enumerate() {
        let file_key = waiver.file.display().to_string();
        let n = ordinals.entry((file_key.clone(), waiver.rule.clone())).or_insert(0);
        let ordinal = *n;
        *n += 1;
        let known = LINT_RULES.contains(&waiver.rule.as_str())
            || ANALYZE_RULES.contains(&waiver.rule.as_str());
        if !known {
            findings.push(SemFinding {
                pass: "unused-waiver",
                file: waiver.file.clone(),
                line: waiver.comment_line,
                key: format!("unused-waiver|{file_key}|{}|unknown#{ordinal}", waiver.rule),
                message: format!(
                    "waiver names unknown rule `{}`; known rules: {} / {}",
                    waiver.rule,
                    LINT_RULES.join(", "),
                    ANALYZE_RULES.join(", ")
                ),
                chain: Vec::new(),
            });
            continue;
        }
        if !waiver.used && !sem_used[i] && waiver.justified {
            findings.push(SemFinding {
                pass: "unused-waiver",
                file: waiver.file.clone(),
                line: waiver.comment_line,
                key: format!("unused-waiver|{file_key}|{}|#{ordinal}", waiver.rule),
                message: format!(
                    "waiver for `{}` suppresses nothing; remove it (waivers must not rot)",
                    waiver.rule
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Pass 7: `pub` fns returning `Result` must use typed errors.
fn pub_api_error_pass(
    index: &Index,
    waive: &mut dyn FnMut(&Path, usize, &str) -> bool,
    findings: &mut Vec<SemFinding>,
) {
    for item in &index.fns {
        if !item.is_pub || item.in_bin {
            continue;
        }
        let Some(err) = result_error_type(&item.ret) else {
            continue;
        };
        let bad =
            err.contains("Box<dyn") || err == "String" || err == "&str" || err == "&'static str";
        if !bad {
            continue;
        }
        if waive(&item.file, item.line, "pub-api-error") {
            continue;
        }
        findings.push(SemFinding {
            pass: "pub-api-error",
            file: item.file.clone(),
            line: item.line,
            key: format!("pub-api-error|{}|{}", item.qname, err),
            message: format!(
                "pub fn `{}` returns `Result<_, {err}>`; use one of the workspace's typed \
                 errors (ConfigError, FlowError, LpError, ...)",
                item.qname
            ),
            chain: Vec::new(),
        });
    }
}

/// Extracts the error type from a rendered `Result<T, E>` return type;
/// `None` when the return is not a two-argument `Result`.
fn result_error_type(ret: &str) -> Option<String> {
    let at = ret.find("Result<")?;
    let args = &ret[at + "Result<".len()..];
    // Split at the top-level comma.
    let mut depth = 0i32;
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => {
                if c == '>' && depth == 0 {
                    return None; // single-argument alias like io::Result<T>
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                let rest = &args[i + 1..];
                let mut end = rest.len();
                let mut d = 0i32;
                for (j, c2) in rest.char_indices() {
                    match c2 {
                        '<' | '(' | '[' => d += 1,
                        '>' if d == 0 => {
                            end = j;
                            break;
                        }
                        '>' | ')' | ']' => d -= 1,
                        _ => {}
                    }
                }
                return Some(rest[..end].trim().to_string());
            }
            _ => {}
        }
    }
    None
}

/// Deterministic BFS from `entry`; returns child → (parent, distance).
/// `admit` filters which nodes may be traversed (used to stop taint at
/// the trusted crates).
fn bfs(
    graph: &Graph,
    entry: usize,
    admit: &dyn Fn(usize) -> bool,
) -> BTreeMap<usize, (usize, usize)> {
    let mut parents: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    parents.insert(entry, (entry, 0));
    let mut frontier = vec![entry];
    let mut dist = 0usize;
    while !frontier.is_empty() {
        dist += 1;
        let mut next = Vec::new();
        for &node in &frontier {
            for &callee in &graph.facts[node].calls {
                if parents.contains_key(&callee) || !admit(callee) {
                    continue;
                }
                parents.insert(callee, (node, dist));
                next.push(callee);
            }
        }
        frontier = next;
    }
    parents
}

/// Renders the entry → root call chain as `qname (file:line)` hops.
fn render_chain(
    index: &Index,
    parents: &BTreeMap<usize, (usize, usize)>,
    entry: usize,
    target: usize,
) -> Vec<String> {
    let mut hops = Vec::new();
    let mut at = target;
    loop {
        let item = &index.fns[at];
        hops.push(format!("{} ({}:{})", item.qname, item.file.display(), item.line));
        if at == entry {
            break;
        }
        let Some(&(parent, _)) = parents.get(&at) else {
            break;
        };
        at = parent;
    }
    hops.reverse();
    hops
}

/// Reads the baseline key set from `root/lint-baseline.json`; an absent
/// file is an empty baseline. Understands both the version-2 multi-pass
/// document (`"passes": {"<pass>": {"keys": [..]}}`) and the legacy
/// version-1 flat `"findings"` list; keys carry their pass name as a
/// `pass|` prefix in either format, so the flattened set keeps one
/// namespace per pass.
pub fn read_baseline(root: &Path) -> Result<BTreeSet<String>, AnalyzeError> {
    let path = root.join("lint-baseline.json");
    if !path.exists() {
        return Ok(BTreeSet::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| AnalyzeError::Baseline(format!("read: {e}")))?;
    let value =
        ccdn_obs::json::parse(&text).map_err(|e| AnalyzeError::Baseline(format!("parse: {e}")))?;
    let mut keys = BTreeSet::new();
    if let Some(passes) = value.get("passes").and_then(ccdn_obs::json::Value::as_object) {
        for (pass, entry) in passes {
            let pass_keys =
                entry.get("keys").and_then(ccdn_obs::json::Value::as_array).ok_or_else(|| {
                    AnalyzeError::Baseline(format!("pass `{pass}` without a `keys` array"))
                })?;
            for key in pass_keys {
                let key = key.as_str().ok_or_else(|| {
                    AnalyzeError::Baseline(format!("pass `{pass}` has a non-string key"))
                })?;
                if key.split('|').next() != Some(pass.as_str()) {
                    return Err(AnalyzeError::Baseline(format!(
                        "key `{key}` filed under pass `{pass}` but prefixed otherwise"
                    )));
                }
                keys.insert(key.to_string());
            }
        }
        return Ok(keys);
    }
    let findings =
        value.get("findings").and_then(ccdn_obs::json::Value::as_array).ok_or_else(|| {
            AnalyzeError::Baseline("missing `passes` object or `findings` array".into())
        })?;
    for entry in findings {
        let key = entry
            .get("key")
            .and_then(ccdn_obs::json::Value::as_str)
            .ok_or_else(|| AnalyzeError::Baseline("finding without a string `key`".into()))?;
        keys.insert(key.to_string());
    }
    Ok(keys)
}

/// Serialises the current findings as the version-3 multi-pass
/// baseline document: one sorted key array per pass that has findings,
/// pretty-printed one key per line so ratchet shrinks review as clean
/// per-key diffs instead of a single opaque line.
pub fn baseline_json(analysis: &Analysis) -> String {
    use ccdn_obs::json_string as js;
    let mut out = String::from("{\n  \"tool\": \"ccdn-analyze\",\n  \"version\": 3,\n");
    out.push_str(
        "  \"note\": \"multi-pass ratchet: keys may only be removed, per pass; regenerate \
         with `cargo xtask analyze --write-baseline`\",\n",
    );
    out.push_str("  \"passes\": {");
    // Every ratcheted pass appears, even with zero findings: an empty
    // namespace is the visible "nothing may regress here" contract.
    let mut by_pass: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for pass in ALL_PASSES {
        by_pass.entry(pass).or_default();
    }
    for finding in &analysis.findings {
        by_pass.entry(finding.pass).or_default().insert(finding.key.as_str());
    }
    for (i, (pass, keys)) in by_pass.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {{\n      \"keys\": [", js(pass)));
        for (j, key) in keys.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n        {}", js(key)));
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Prints the interval derivation behind a ratchet key (or behind a
/// discharge): for `panic-reach|entry|root` and
/// `unchecked-arith-reach|entry|root` keys the *root* fn's per-site
/// proofs, for `overflow-risk|fn|what#ordinal` keys the flagged site's
/// chain. Works for keys that still fire and for ones just discharged —
/// the point is to audit why the engine believes what it believes.
///
/// # Errors
///
/// [`AnalyzeError`] when the tree cannot be indexed or the key names no
/// known fn/site.
pub fn explain(root: &Path, key: &str) -> Result<String, AnalyzeError> {
    let index = index::build(root).map_err(AnalyzeError::Index)?;
    let graph = graph::build(&index);
    let value_bounds = bounds::load(root).map_err(AnalyzeError::Bounds)?;
    let intervals = interval::analyze(&index, &graph, value_bounds.as_ref());
    let parts: Vec<&str> = key.split('|').collect();
    let fn_by_qname = |qname: &str| -> Result<usize, AnalyzeError> {
        index
            .fns
            .iter()
            .position(|f| f.qname == qname)
            .ok_or_else(|| AnalyzeError::Explain(format!("no indexed fn `{qname}`")))
    };
    let mut out = String::new();
    match parts.as_slice() {
        ["panic-reach", _, root_q] | ["proven-safe", "panic", root_q, ..] => {
            let id = fn_by_qname(root_q)?;
            let item = &index.fns[id];
            out.push_str(&format!(
                "panic sites of `{}` ({}):
",
                root_q,
                item.file.display()
            ));
            for (ord, site) in graph.facts[id].panics.iter().enumerate() {
                let proof = &intervals.reports[id].panic[ord];
                out.push_str(&format!(
                    "  [{:?}] {} at line {}
",
                    proof.status, site.what, site.line
                ));
                for step in &proof.chain {
                    out.push_str(&format!(
                        "      {step}
"
                    ));
                }
            }
        }
        ["unchecked-arith-reach", _, root_q] | ["proven-safe", "arith", root_q, ..] => {
            let id = fn_by_qname(root_q)?;
            let item = &index.fns[id];
            out.push_str(&format!(
                "arith sites of `{}` ({}):
",
                root_q,
                item.file.display()
            ));
            for (ord, site) in graph.facts[id].arith.iter().enumerate() {
                let proof = &intervals.reports[id].arith[ord];
                out.push_str(&format!(
                    "  [{:?}] {} at line {}
",
                    proof.status, site.what, site.line
                ));
                for step in &proof.chain {
                    out.push_str(&format!(
                        "      {step}
"
                    ));
                }
            }
        }
        ["overflow-risk", qname, what_ord] => {
            let id = fn_by_qname(qname)?;
            let (what, ord) = what_ord
                .rsplit_once('#')
                .and_then(|(w, o)| o.parse::<usize>().ok().map(|o| (w, o)))
                .ok_or_else(|| {
                    AnalyzeError::Explain(format!("malformed overflow-risk key `{key}`"))
                })?;
            let mut seen = 0usize;
            let mut found = false;
            for (site_ord, proof) in intervals.arith_risks(id) {
                let site = &graph.facts[id].arith[site_ord];
                if site.what == what {
                    if seen == ord {
                        out.push_str(&format!(
                            "overflow risk in `{}`: {} at line {}
",
                            qname, site.what, site.line
                        ));
                        for step in &proof.chain {
                            out.push_str(&format!(
                                "    {step}
"
                            ));
                        }
                        found = true;
                        break;
                    }
                    seen += 1;
                }
            }
            if !found {
                for cast in &intervals.reports[id].casts {
                    if cast.what == what {
                        if seen == ord {
                            out.push_str(&format!(
                                "narrowing-cast risk in `{}`: {} at line {}
",
                                qname, cast.what, cast.line
                            ));
                            for step in &cast.chain {
                                out.push_str(&format!(
                                    "    {step}
"
                                ));
                            }
                            found = true;
                            break;
                        }
                        seen += 1;
                    }
                }
            }
            if !found {
                return Err(AnalyzeError::Explain(format!(
                    "`{qname}` has no current overflow-risk site `{what_ord}`"
                )));
            }
        }
        _ => {
            return Err(AnalyzeError::Explain(format!(
                "key `{key}` is not a panic-reach / unchecked-arith-reach / overflow-risk /                  proven-safe key"
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_error_extraction() {
        assert_eq!(result_error_type("Result<u32,ConfigError>").as_deref(), Some("ConfigError"));
        assert_eq!(
            result_error_type("Result<Vec<u8>,Box<dyn std::error::Error>>").as_deref(),
            Some("Box<dyn std::error::Error>")
        );
        assert_eq!(result_error_type("io::Result<()>"), None);
        assert_eq!(result_error_type("u32"), None);
        assert_eq!(
            result_error_type("Result<BTreeMap<u32,u32>,String>").as_deref(),
            Some("String")
        );
    }

    fn finding(pass: &'static str, key: &str) -> SemFinding {
        SemFinding {
            pass,
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 1,
            key: key.to_string(),
            message: String::new(),
            chain: Vec::new(),
        }
    }

    /// The pretty baseline layout must parse under the workspace's own
    /// strict JSON reader and keep one key per line so ratchet diffs
    /// stay reviewable line-by-line.
    #[test]
    fn baseline_layout_roundtrips_through_strict_parser() {
        let analysis = Analysis {
            findings: vec![
                finding("panic-reach", "panic-reach|a::entry|b::root"),
                finding("panic-reach", "panic-reach|a::other|b::root"),
                finding("overflow-risk", "overflow-risk|c::f|`*` arith#0"),
            ],
            new: Vec::new(),
            stale: Vec::new(),
            discharged: Vec::new(),
        };
        let text = baseline_json(&analysis);
        let doc = ccdn_obs::json::parse(&text).expect("strict parse of pretty layout");
        let passes = doc.get("passes").and_then(|p| p.as_object()).expect("passes object");
        // Every ratcheted pass is present, including empty namespaces.
        for pass in ALL_PASSES {
            assert!(passes.contains_key(pass), "missing namespace {pass}");
        }
        let keys = passes["panic-reach"].get("keys").and_then(|k| k.as_array()).unwrap();
        assert_eq!(keys.len(), 2);
        // One key per line: each quoted key sits alone on its own line.
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with("\"panic-reach|") || t.starts_with("\"overflow-risk|") {
                assert!(
                    t.ends_with("\"") || t.ends_with("\","),
                    "key shares a line with other content: {line}"
                );
            }
        }
        assert_eq!(text.lines().filter(|l| l.trim().starts_with("\"panic-reach|")).count(), 2);
        // Byte-stable: serializing the parsed key set again is identical.
        assert_eq!(text, baseline_json(&analysis));
    }
}
