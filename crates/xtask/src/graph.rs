//! Over-approximate call graph for ccdn-analyze.
//!
//! From the item index this module extracts call sites out of every fn
//! body and resolves them to candidate callees, deliberately erring
//! toward *more* edges (class-hierarchy-analysis style): a method call
//! `.solve(..)` links to every indexed method named `solve`, because the
//! receiver's type is unknown at the token level. Resolution order for
//! path calls:
//!
//! 1. `Type::name` where `Type` is a known impl/trait type → that
//!    type's methods only (`Self` maps to the enclosing impl type);
//! 2. `ccdn_flow::name` / `crate::name` style where the head names a
//!    workspace crate → fns of that crate named `name`;
//! 3. unqualified `name(..)` → same file, then same crate, then the
//!    whole index;
//! 4. anything else (`Vec::new`, `std::cmp::min`, ...) → external, no
//!    edge. External panics are covered by the *root* scan instead,
//!    which flags the panic-prone and nondeterministic constructs
//!    (`unwrap`, slice indexing, `Instant`, hash containers, ...)
//!    directly in the calling body.
//!
//! The same body scan also classifies **roots**: token patterns that
//! make a fn intrinsically nondeterministic or panic-capable. Both scans
//! ignore `#[cfg(test)]`-gated tokens.

use crate::index::{FileIndex, Index};
use crate::source::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Why a fn is a nondeterminism root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NondetKind {
    /// `Instant` / `SystemTime` — wall-clock reads.
    Clock,
    /// `HashMap` / `HashSet` — randomized iteration order.
    HashIter,
    /// `thread::spawn` / `thread::scope` — ad-hoc threading.
    Thread,
    /// `env::*` — process environment reads.
    Env,
}

impl NondetKind {
    /// Stable lowercase label used in finding keys and messages.
    pub fn label(self) -> &'static str {
        match self {
            NondetKind::Clock => "clock",
            NondetKind::HashIter => "hash-iter",
            NondetKind::Thread => "thread",
            NondetKind::Env => "env",
        }
    }
}

/// One root occurrence inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RootSite {
    /// One-based line of the occurrence.
    pub line: usize,
    /// What the occurrence is (`Instant`, `.unwrap()`, `a[i]`, ...).
    pub what: String,
    /// Token index of the occurrence, relative to the fn body slice —
    /// lets the interval engine relocate the exact operator to probe.
    pub tok: usize,
}

/// Per-fn facts derived from its body tokens.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Nondeterminism roots by kind (first site each).
    pub nondet: BTreeMap<NondetKind, RootSite>,
    /// Panic-capable sites: `.unwrap()` / `.expect(` / panic-family
    /// macros / slice indexing / integer div-rem. Waived `no-panic`
    /// sites are *included* — a waiver justifies the panic, it does not
    /// remove it from callers' reachability.
    pub panics: Vec<RootSite>,
    /// Unguarded integer `+` / `-` / `*` sites (counter overflow /
    /// underflow surface). Float arithmetic is excluded when visible.
    pub arith: Vec<RootSite>,
    /// Resolved callee fn ids, deduplicated and sorted.
    pub calls: Vec<usize>,
    /// Call-site line per callee (first site), for chain rendering.
    pub call_lines: BTreeMap<usize, usize>,
    /// Every call-site token index per callee, *absolute* in the file's
    /// token stream — lets the loop-aware passes test whether a call
    /// sits inside a loop body.
    pub call_sites: BTreeMap<usize, Vec<usize>>,
}

/// The call graph: per-fn facts, indexed by fn id.
#[derive(Debug, Default)]
pub struct Graph {
    /// `facts[id]` describes `index.fns[id]`.
    pub facts: Vec<FnFacts>,
}

/// Builds the graph over `index`. `crate_alias` maps underscored crate
/// names (`ccdn_flow`) to index crate names (`flow`); the root crate is
/// addressed as `crate`.
pub fn build(index: &Index) -> Graph {
    let mut facts = vec![FnFacts::default(); index.fns.len()];
    for file in &index.files {
        for &fn_id in &file.fns {
            let item = &index.fns[fn_id];
            let body = &file.tokens[item.body.clone()];
            facts[fn_id] = scan_body(index, file, body, &item.crate_name, item.body.start);
        }
    }
    Graph { facts }
}

/// Scans one fn body for roots and call sites. Two independent passes:
/// the root pass visits *every* token (so `env` inside `std::env::var`
/// is seen), while the call pass consumes whole paths. `offset` is the
/// body's start in the file's token stream, so recorded call sites are
/// absolute.
fn scan_body(
    index: &Index,
    file: &FileIndex,
    body: &[Tok],
    crate_name: &str,
    offset: usize,
) -> FnFacts {
    let mut facts = FnFacts::default();
    scan_roots(&mut facts, body);

    let mut callees: BTreeSet<usize> = BTreeSet::new();
    let toks = body;
    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.in_test {
            i += 1;
            continue;
        }
        if tok.kind == TokKind::Ident {
            if let Some((segments, after)) = path_at(toks, i) {
                if toks.get(after).is_some_and(|t| t.text == "(") {
                    let line = toks[i].line;
                    for callee in resolve(index, file, crate_name, &segments) {
                        if callees.insert(callee) {
                            facts.call_lines.insert(callee, line);
                        }
                        facts.call_sites.entry(callee).or_default().push(offset + i);
                    }
                }
                i = after;
                continue;
            }
        }
        // Method calls: `.name(` / `.name::<..>(`.
        if tok.kind == TokKind::Punct && tok.text == "." {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut j = i + 2;
                if toks.get(j).is_some_and(|t| t.text == "::") {
                    j = skip_turbofish(toks, j).unwrap_or(j);
                }
                if toks.get(j).is_some_and(|t| t.text == "(") {
                    let line = name_tok.line;
                    for callee in resolve_method(index, &name_tok.text) {
                        if callees.insert(callee) {
                            facts.call_lines.insert(callee, line);
                        }
                        facts.call_sites.entry(callee).or_default().push(offset + i + 1);
                    }
                }
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    facts.calls = callees.into_iter().collect();
    facts
}

/// Records every nondeterminism / panic root in the body.
fn scan_roots(facts: &mut FnFacts, toks: &[Tok]) {
    for i in 0..toks.len() {
        let tok = &toks[i];
        if tok.in_test {
            continue;
        }
        let line = tok.line;
        if tok.kind == TokKind::Ident {
            match tok.text.as_str() {
                "Instant" | "SystemTime" => {
                    facts.nondet.entry(NondetKind::Clock).or_insert_with(|| RootSite {
                        line,
                        what: format!("`{}`", tok.text),
                        tok: i,
                    });
                }
                "HashMap" | "HashSet" => {
                    facts.nondet.entry(NondetKind::HashIter).or_insert_with(|| RootSite {
                        line,
                        what: format!("`{}`", tok.text),
                        tok: i,
                    });
                }
                "thread"
                    if toks.get(i + 1).is_some_and(|t| t.text == "::")
                        && toks
                            .get(i + 2)
                            .is_some_and(|t| t.text == "spawn" || t.text == "scope") =>
                {
                    facts.nondet.entry(NondetKind::Thread).or_insert_with(|| RootSite {
                        line,
                        what: format!("`thread::{}`", toks[i + 2].text),
                        tok: i,
                    });
                }
                "env"
                    if toks.get(i + 1).is_some_and(|t| t.text == "::")
                        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident) =>
                {
                    facts.nondet.entry(NondetKind::Env).or_insert_with(|| RootSite {
                        line,
                        what: format!("`env::{}`", toks[i + 2].text),
                        tok: i,
                    });
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if toks.get(i + 1).is_some_and(|t| t.text == "!") =>
                {
                    facts.panics.push(RootSite { line, what: format!("`{}!`", tok.text), tok: i });
                }
                "unwrap" | "expect"
                    if i > 0
                        && toks[i - 1].text == "."
                        && toks.get(i + 1).is_some_and(|t| t.text == "(") =>
                {
                    let what = if tok.text == "unwrap" { "`.unwrap()`" } else { "`.expect(..)`" };
                    facts.panics.push(RootSite { line, what: what.into(), tok: i });
                }
                _ => {}
            }
        }
        if tok.kind == TokKind::Punct {
            // Slice / map indexing: `expr[`, where the expression ends
            // in an ident, `)` or `]`. Array literals (`= [0; 4]`),
            // attributes (`#[..]`) and type positions never match
            // because their `[` follows other punctuation.
            if tok.text == "[" && i > 0 {
                let prev = &toks[i - 1];
                let expr_end = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                    || prev.text == ")"
                    || prev.text == "]";
                if expr_end {
                    facts.panics.push(RootSite {
                        line,
                        what: format!("`{}[..]` indexing", prev.text),
                        tok: i,
                    });
                }
            }
            // Unguarded integer `+` / `-` / `*` (binary or compound
            // assignment): an overflow/underflow surface on counters.
            // Binary position requires an expression end on the left and
            // an expression start (or `=` for `+=`-style) on the right;
            // unary minus, derefs (`*x`, `*mut`), path globs (`::*`) and
            // visible float arithmetic never match.
            if matches!(tok.text.as_str(), "+" | "-" | "*") && i > 0 {
                let prev = &toks[i - 1];
                let lhs = matches!(prev.kind, TokKind::Ident | TokKind::Num)
                    && !is_keyword(&prev.text)
                    || prev.text == ")"
                    || prev.text == "]";
                let rhs = toks.get(i + 1).is_some_and(|t| {
                    matches!(t.kind, TokKind::Ident | TokKind::Num)
                        && !is_keyword(&t.text)
                        && !matches!(t.text.as_str(), "mut" | "const" | "dyn")
                        || matches!(t.text.as_str(), "(" | "=")
                });
                if lhs && rhs && !float_context(toks, i) {
                    facts.arith.push(RootSite {
                        line,
                        what: format!("`{}` arith", tok.text),
                        tok: i,
                    });
                }
            }
            // Integer division / remainder (`/`, `%`, `/=`, `%=`):
            // flagged unless float context is visible nearby or the
            // divisor is a nonzero integer literal.
            if (tok.text == "/" || tok.text == "%") && i > 0 {
                let prev = &toks[i - 1];
                let arith = matches!(prev.kind, TokKind::Ident | TokKind::Num)
                    && !is_keyword(&prev.text)
                    || prev.text == ")"
                    || prev.text == "]";
                if arith && !float_context(toks, i) && !nonzero_literal_divisor(toks, i + 1) {
                    facts.panics.push(RootSite {
                        line,
                        what: format!("`{}` div/rem", tok.text),
                        tok: i,
                    });
                }
            }
        }
    }
}

/// Keywords that end statements, not expressions, before `[` or `/`.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let" | "mut" | "return" | "in" | "if" | "else" | "match" | "as" | "ref" | "move" | "fn"
    )
}

/// True when a float literal or `f64` / `f32` token appears within a
/// few tokens of the operator at `op` (either side) — the div/rem is
/// then float arithmetic, which cannot panic.
fn float_context(toks: &[Tok], op: usize) -> bool {
    let lo = op.saturating_sub(4);
    let hi = (op + 5).min(toks.len());
    toks[lo..hi].iter().any(|t| {
        t.text == "f64"
            || t.text == "f32"
            || (t.kind == TokKind::Num
                && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")))
    })
}

/// True when the divisor starting at `at` is a nonzero integer literal
/// (possibly parenthesised), which cannot divide by zero.
fn nonzero_literal_divisor(toks: &[Tok], at: usize) -> bool {
    let mut j = at;
    while toks.get(j).is_some_and(|t| t.text == "(" || t.text == "=" || t.text == "-") {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.kind == TokKind::Num => {
            let digits: String = t.text.chars().take_while(char::is_ascii_digit).collect();
            digits.chars().any(|c| c != '0') && !digits.is_empty()
        }
        _ => false,
    }
}

/// Reads a `::`-separated path whose first segment is the ident at `i`;
/// returns the segments and the index just past the path (turbofish
/// skipped).
fn path_at(toks: &[Tok], i: usize) -> Option<(Vec<String>, usize)> {
    let first = toks.get(i).filter(|t| t.kind == TokKind::Ident)?;
    // Not a path start if preceded by `.` (method — handled elsewhere),
    // `fn` / `mod` / `trait` / `struct` / `enum` (definitions), or a
    // path we are already inside of.
    if i > 0 {
        let prev = &toks[i - 1];
        if prev.text == "." || prev.text == "::" {
            return None;
        }
        if prev.kind == TokKind::Ident
            && matches!(
                prev.text.as_str(),
                "fn" | "mod" | "trait" | "struct" | "enum" | "use" | "impl" | "dyn" | "let"
            )
        {
            return None;
        }
    }
    let mut segments = vec![first.text.clone()];
    let mut j = i + 1;
    loop {
        if toks.get(j).is_some_and(|t| t.text == "::") {
            if toks.get(j + 1).is_some_and(|t| t.text == "<") {
                // Turbofish ends the path.
                j = skip_turbofish(toks, j).unwrap_or(j + 1);
                break;
            }
            match toks.get(j + 1) {
                Some(t) if t.kind == TokKind::Ident => {
                    segments.push(t.text.clone());
                    j += 2;
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    Some((segments, j))
}

/// Skips `::<...>` starting at the `::` token; returns the index just
/// past the closing `>`.
fn skip_turbofish(toks: &[Tok], colons: usize) -> Option<usize> {
    if toks.get(colons).is_none_or(|t| t.text != "::") {
        return None;
    }
    if toks.get(colons + 1).is_none_or(|t| t.text != "<") {
        return None;
    }
    let mut depth = 0i32;
    let mut j = colons + 1;
    while let Some(tok) = toks.get(j) {
        match tok.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            ";" | "{" => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// True when `segment` looks like a type name (UpperCamelCase head).
fn is_type_segment(segment: &str) -> bool {
    segment.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Maps a path head to a workspace crate name (`ccdn_flow` → `flow`,
/// `crate` → the caller's own crate).
fn crate_for_head(index: &Index, head: &str, own: &str) -> Option<String> {
    if head == "crate" || head == "self" || head == "super" {
        return Some(own.to_string());
    }
    let stripped = head.strip_prefix("ccdn_")?;
    index.by_crate.contains_key(stripped).then(|| stripped.to_string())
}

/// Resolves a path call to candidate fn ids.
fn resolve(index: &Index, file: &FileIndex, own_crate: &str, segments: &[String]) -> Vec<usize> {
    let name = segments.last().expect("path has at least one segment").clone();
    if segments.len() == 1 {
        // Unqualified: same file, then same crate, then anywhere.
        if let Some(ids) = index.by_name.get(&name) {
            let in_file: Vec<usize> =
                ids.iter().copied().filter(|&id| index.fns[id].file == file.path).collect();
            if !in_file.is_empty() {
                return in_file;
            }
            let in_crate: Vec<usize> =
                ids.iter().copied().filter(|&id| index.fns[id].crate_name == own_crate).collect();
            if !in_crate.is_empty() {
                return in_crate;
            }
            return ids.clone();
        }
        return Vec::new();
    }
    let qualifier = &segments[segments.len() - 2];
    if qualifier == "Self" {
        // Methods of whatever impl types exist in this file; the exact
        // enclosing type is not tracked per call site, so take every
        // same-file method with the name.
        if let Some(ids) = index.by_name.get(&name) {
            let in_file: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&id| index.fns[id].file == file.path && index.fns[id].self_type.is_some())
                .collect();
            return in_file;
        }
        return Vec::new();
    }
    if is_type_segment(qualifier) {
        return index
            .by_type_method
            .get(&(qualifier.clone(), name.clone()))
            .cloned()
            .unwrap_or_default();
    }
    // Module-qualified: a known crate head resolves within that crate;
    // otherwise fall back to module-name matching inside the qname.
    if let Some(target) = crate_for_head(index, &segments[0], own_crate) {
        if let Some(ids) = index.by_name.get(&name) {
            return ids.iter().copied().filter(|&id| index.fns[id].crate_name == target).collect();
        }
        return Vec::new();
    }
    // `module::helper(..)` — match fns whose qname contains the
    // qualifier as a module segment.
    if let Some(ids) = index.by_name.get(&name) {
        let needle = format!("::{qualifier}::");
        return ids.iter().copied().filter(|&id| index.fns[id].qname.contains(&needle)).collect();
    }
    Vec::new()
}

/// Resolves a method call by name to every indexed method of that name.
fn resolve_method(index: &Index, name: &str) -> Vec<usize> {
    index
        .by_name
        .get(name)
        .map(|ids| ids.iter().copied().filter(|&id| index.fns[id].self_type.is_some()).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index;
    use std::path::PathBuf;

    fn build_one(path: &str, src: &str) -> (Index, Graph) {
        let mut idx = Index::default();
        index::index_file(&mut idx, PathBuf::from(path), src);
        let fns: Vec<_> = idx.fns.clone();
        for (id, item) in fns.iter().enumerate() {
            idx.by_name.entry(item.name.clone()).or_default().push(id);
            if let Some(ty) = &item.self_type {
                idx.by_type_method.entry((ty.clone(), item.name.clone())).or_default().push(id);
            }
            idx.by_crate.entry(item.crate_name.clone()).or_default().push(id);
        }
        let graph = build(&idx);
        (idx, graph)
    }

    fn fn_id(index: &Index, name: &str) -> usize {
        index.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn resolves_direct_and_method_calls() {
        let src = "pub fn entry() { helper(); S::make(); }\n\
                   fn helper() {}\n\
                   struct S;\n\
                   impl S {\n    fn make() {}\n    fn touch(&self) {}\n}\n\
                   fn via_method(s: &S) { s.touch(); }\n";
        let (idx, graph) = build_one("crates/core/src/lib.rs", src);
        let entry = fn_id(&idx, "entry");
        assert!(graph.facts[entry].calls.contains(&fn_id(&idx, "helper")));
        assert!(graph.facts[entry].calls.contains(&fn_id(&idx, "make")));
        let via = fn_id(&idx, "via_method");
        assert!(graph.facts[via].calls.contains(&fn_id(&idx, "touch")));
    }

    #[test]
    fn detects_nondet_roots() {
        let src = "fn clocky() { let t = Instant::now(); }\n\
                   fn hashy() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
                   fn thready() { std::thread::spawn(|| {}); }\n\
                   fn envy() { let v = std::env::var(\"X\"); }\n\
                   fn clean() { let x = 1 + 2; }\n";
        let (idx, graph) = build_one("crates/geo/src/lib.rs", src);
        for (name, kind) in [
            ("clocky", NondetKind::Clock),
            ("hashy", NondetKind::HashIter),
            ("thready", NondetKind::Thread),
            ("envy", NondetKind::Env),
        ] {
            let id = fn_id(&idx, name);
            assert!(graph.facts[id].nondet.contains_key(&kind), "{name} should have {kind:?}");
        }
        assert!(graph.facts[fn_id(&idx, "clean")].nondet.is_empty());
    }

    #[test]
    fn detects_panic_roots() {
        let src = "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn b(v: &[u32], i: usize) -> u32 { v[i] }\n\
                   fn c(n: u64, d: u64) -> u64 { n / d }\n\
                   fn d() { panic!(\"boom\") }\n\
                   fn e(n: u64) -> u64 { n / 2 }\n\
                   fn f(x: f64, y: f64) -> f64 { x / y * 1.0 }\n";
        let (idx, graph) = build_one("crates/geo/src/lib.rs", src);
        for name in ["a", "b", "c", "d"] {
            assert!(!graph.facts[fn_id(&idx, name)].panics.is_empty(), "{name} should panic");
        }
        for name in ["e", "f"] {
            assert!(
                graph.facts[fn_id(&idx, name)].panics.is_empty(),
                "{name} should not be flagged"
            );
        }
    }

    #[test]
    fn detects_unchecked_arith_roots() {
        let src = "fn counter(mut n: u64) -> u64 { n += 1; n }\n\
                   fn shrink(v: &[u32]) -> usize { v.len() - 1 }\n\
                   fn scale(a: i64, b: i64) -> i64 { a * b }\n\
                   fn floaty(x: f64, y: f64) -> f64 { x * y + 1.0 }\n\
                   fn deref(p: &u32) -> u32 { *p }\n\
                   fn neg(x: i64) -> i64 { -x }\n";
        let (idx, graph) = build_one("crates/geo/src/lib.rs", src);
        for name in ["counter", "shrink", "scale"] {
            assert!(!graph.facts[fn_id(&idx, name)].arith.is_empty(), "{name} should have arith");
        }
        for name in ["floaty", "deref", "neg"] {
            assert!(
                graph.facts[fn_id(&idx, name)].arith.is_empty(),
                "{name} should not be flagged: {:?}",
                graph.facts[fn_id(&idx, name)].arith
            );
        }
    }

    #[test]
    fn records_absolute_call_site_tokens() {
        let src = "pub fn entry() {\n    for i in 0..3 {\n        helper(i);\n    }\n    helper(9);\n}\nfn helper(_i: u32) {}\n";
        let (idx, graph) = build_one("crates/core/src/lib.rs", src);
        let entry = fn_id(&idx, "entry");
        let helper = fn_id(&idx, "helper");
        let sites = graph.facts[entry].call_sites.get(&helper).expect("sites recorded");
        assert_eq!(sites.len(), 2);
        let file = &idx.files[0];
        for &site in sites {
            assert_eq!(file.tokens[site].text, "helper");
        }
        // The first site must fall inside the file's only loop body.
        assert_eq!(file.loops.len(), 1);
        assert!(file.loops[0].body.contains(&sites[0]));
        assert!(!file.loops[0].body.contains(&sites[1]));
    }

    #[test]
    fn unqualified_resolution_prefers_same_file() {
        let src = "pub fn entry() { helper(); }\nfn helper() {}\n";
        let other = "pub fn helper() {}\n";
        let mut idx = Index::default();
        index::index_file(&mut idx, PathBuf::from("crates/core/src/a.rs"), src);
        index::index_file(&mut idx, PathBuf::from("crates/flow/src/b.rs"), other);
        let fns: Vec<_> = idx.fns.clone();
        for (id, item) in fns.iter().enumerate() {
            idx.by_name.entry(item.name.clone()).or_default().push(id);
            idx.by_crate.entry(item.crate_name.clone()).or_default().push(id);
        }
        let graph = build(&idx);
        let entry = idx.fns.iter().position(|f| f.name == "entry").expect("entry indexed");
        let local = idx
            .fns
            .iter()
            .position(|f| f.name == "helper" && f.crate_name == "core")
            .expect("local helper");
        assert_eq!(graph.facts[entry].calls, vec![local]);
    }
}
