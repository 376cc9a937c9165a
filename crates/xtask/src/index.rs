//! Per-crate item index for ccdn-analyze.
//!
//! Walks the token stream of every library source file and recovers the
//! items the semantic passes need: functions (free, inherent, trait
//! default and trait impl), their qualified names, visibility, return
//! types, and body token spans. The walk tracks `mod` / `impl` / `trait`
//! scopes by brace depth, so a method indexed under `flow::mcmf` with
//! impl type `McmfSolver` gets the qualified name
//! `flow::mcmf::McmfSolver::solve`.
//!
//! The index is *over-approximate where it must choose*: nested
//! functions are indexed as their own items while their tokens also stay
//! inside the enclosing body span, and `#[cfg]`-gated duplicates all
//! land in the index. Both err on the side of more reachability, which
//! is the safe direction for the taint and panic passes.

use crate::source::{self, LoopSpan, Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// What a cost event spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// A heap allocation (`Vec::new`, `vec![]`, `.collect()`, `format!`,
    /// `Box::new`, ...).
    Alloc,
    /// A deep copy (`.clone()`). The scan cannot see receiver types, so
    /// clones of `Copy` values are over-counted — documented limitation.
    Clone,
}

/// One allocation or deep-copy site inside a function body.
#[derive(Debug, Clone)]
pub struct CostEvent {
    /// Absolute index of the triggering token in the file's stream.
    pub tok: usize,
    /// One-based source line.
    pub line: usize,
    /// Allocation or clone.
    pub kind: CostKind,
    /// Compact label (`Vec::new`, `vec!`, `.clone()`, `.collect()`, ...).
    pub what: String,
    /// True when the event sits in `#[cfg(test)]`-gated code.
    pub in_test: bool,
}

/// Container / smart-pointer types whose `::new` / `::with_capacity` /
/// `::from` constructors allocate.
const ALLOC_TYPES: [&str; 11] = [
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
    "String",
    "Box",
    "Rc",
    "Arc",
];

/// Allocating constructor names recognized after `Type::`.
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// Allocating method calls recognized after `.` (turbofish allowed on
/// `collect`).
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];

/// Scans a body token range for allocation and clone events.
pub fn cost_events(tokens: &[Tok], body: &Range<usize>) -> Vec<CostEvent> {
    let mut events = Vec::new();
    let push = |events: &mut Vec<CostEvent>, i: usize, kind: CostKind, what: String| {
        events.push(CostEvent {
            tok: i,
            line: tokens[i].line,
            kind,
            what,
            in_test: tokens[i].in_test,
        });
    };
    for i in body.clone() {
        let tok = &tokens[i];
        match (tok.kind, tok.text.as_str()) {
            (TokKind::Ident, ty) if ALLOC_TYPES.contains(&ty) => {
                // `Type::ctor(` — tolerate a `::<T>` turbofish after the
                // type (`Vec::<u8>::new()`).
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.text == "::")
                    && tokens.get(j + 1).is_some_and(|t| t.text == "<")
                {
                    match skip_angles(tokens, j + 1) {
                        Some(past) => j = past,
                        None => continue,
                    }
                }
                if tokens.get(j).is_some_and(|t| t.text == "::")
                    && tokens.get(j + 2).is_some_and(|t| t.text == "(")
                {
                    if let Some(ctor) = ident_at(tokens, j + 1) {
                        if ALLOC_CTORS.contains(&ctor.as_str()) {
                            push(&mut events, i, CostKind::Alloc, format!("{ty}::{ctor}"));
                        }
                    }
                }
            }
            (TokKind::Ident, mac @ ("vec" | "format"))
                if tokens.get(i + 1).is_some_and(|t| t.text == "!") =>
            {
                push(&mut events, i, CostKind::Alloc, format!("{mac}!"));
            }
            (TokKind::Punct, ".") => {
                let Some(method) = ident_at(tokens, i + 1) else { continue };
                // The call's `(`, allowing `::<...>` turbofish between
                // name and parens.
                let mut j = i + 2;
                if tokens.get(j).is_some_and(|t| t.text == "::")
                    && tokens.get(j + 1).is_some_and(|t| t.text == "<")
                {
                    match skip_angles(tokens, j + 1) {
                        Some(past) => j = past,
                        None => continue,
                    }
                }
                if tokens.get(j).is_none_or(|t| t.text != "(") {
                    continue;
                }
                if method == "clone" {
                    push(&mut events, i, CostKind::Clone, ".clone()".to_string());
                } else if ALLOC_METHODS.contains(&method.as_str()) {
                    push(&mut events, i, CostKind::Alloc, format!(".{method}()"));
                }
            }
            _ => {}
        }
    }
    events
}

/// One declared fn parameter the interval engine can seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnParam {
    /// The binding name (`self` for receivers; complex patterns are
    /// skipped entirely).
    pub name: String,
    /// Declared type text with references/`mut` stripped (`usize`,
    /// `[f64;24]`, `Point`, ...; empty for untyped `self`).
    pub ty: String,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Crate directory name (`flow`, `core`, ...; `root` for `src/`).
    pub crate_name: String,
    /// Workspace-relative source path.
    pub file: PathBuf,
    /// Qualified name: `crate::module::Type::fn` (module = file stem
    /// plus any inline `mod` scopes; `lib` / `mod` / `main` stems are
    /// dropped).
    pub qname: String,
    /// The bare function name.
    pub name: String,
    /// Impl or trait type the fn is a method of, if any.
    pub self_type: Option<String>,
    /// True for `pub` / `pub(...)` items.
    pub is_pub: bool,
    /// One-based line of the `fn` keyword.
    pub line: usize,
    /// Return type text (`""` when the fn returns unit).
    pub ret: String,
    /// Token range of the body in the file's token stream (braces
    /// excluded). Empty for signature-only trait methods.
    pub body: Range<usize>,
    /// True when the file lives under a `bin/` directory (experiment
    /// scripts; indexed for reachability but not part of the checked
    /// `pub` surface).
    pub in_bin: bool,
    /// True when the `fn` keyword sits inside a `#[cfg(test)]` block.
    pub in_test: bool,
    /// Allocation / clone events in the body, in token order.
    pub costs: Vec<CostEvent>,
    /// Declared parameters in order (simple `name: Type` bindings only).
    pub params: Vec<FnParam>,
}

/// One indexed file: its token stream plus the fns defined in it.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Full lexed token stream.
    pub tokens: Vec<Tok>,
    /// Indices into [`Index::fns`] for fns defined in this file.
    pub fns: Vec<usize>,
    /// Loop constructs in the file, in keyword-token order.
    pub loops: Vec<LoopSpan>,
}

/// The whole-workspace item index.
#[derive(Debug, Default)]
pub struct Index {
    /// Every indexed fn, in deterministic (path, token) order.
    pub fns: Vec<FnItem>,
    /// Indexed files, sorted by path.
    pub files: Vec<FileIndex>,
    /// fn name → fn ids (for unqualified and method resolution).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (self type, fn name) → fn ids (for `Type::method` resolution).
    pub by_type_method: BTreeMap<(String, String), Vec<usize>>,
    /// crate name → fn ids.
    pub by_crate: BTreeMap<String, Vec<usize>>,
    /// Struct / enum field types: type name → field name → type text.
    /// Tuple-struct fields are named `0`, `1`, ...; enum struct-variant
    /// fields merge into the enum's own map. A field declared with
    /// conflicting types across same-named items maps to `"?"`.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

/// An I/O failure while building the index.
#[derive(Debug)]
pub struct IndexError {
    /// The file being read.
    pub path: PathBuf,
    /// The underlying error.
    pub source: io::Error,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "indexing {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for IndexError {}

/// Crate directories never indexed: the analyzer itself.
const INDEX_EXEMPT: [&str; 1] = ["xtask"];

/// Builds the index over every library source file under `root`:
/// `src/` plus each `crates/*/src/` except the analyzer's own. Files
/// under `bin/` directories are indexed (they can launder calls) but
/// flagged [`FnItem::in_bin`].
///
/// # Errors
///
/// [`IndexError`] when a source file cannot be listed or read.
pub fn build(root: &Path) -> Result<Index, IndexError> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs_files(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|e| IndexError { path: crates.clone(), source: e })?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()
            .map_err(|e| IndexError { path: crates.clone(), source: e })?;
        entries.sort();
        for dir in entries {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if INDEX_EXEMPT.contains(&name) {
                continue;
            }
            let crate_src = dir.join("src");
            if crate_src.is_dir() {
                collect_rs_files(&crate_src, &mut files)?;
            }
        }
    }
    let mut index = Index::default();
    for file in &files {
        let text =
            fs::read_to_string(file).map_err(|e| IndexError { path: file.clone(), source: e })?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        index_file(&mut index, rel, &text);
    }
    for (id, item) in index.fns.iter().enumerate() {
        index.by_name.entry(item.name.clone()).or_default().push(id);
        if let Some(ty) = &item.self_type {
            index.by_type_method.entry((ty.clone(), item.name.clone())).or_default().push(id);
        }
        index.by_crate.entry(item.crate_name.clone()).or_default().push(id);
    }
    Ok(index)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), IndexError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| IndexError { path: dir.to_path_buf(), source: e })?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()
        .map_err(|e| IndexError { path: dir.to_path_buf(), source: e })?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crate directory name for a workspace-relative path (`root` for the
/// root crate's `src/`).
pub fn crate_of(rel: &Path) -> String {
    let mut parts = rel.components();
    match parts.next() {
        Some(c) if c.as_os_str() == "crates" => parts
            .next()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .unwrap_or_else(|| "root".to_string()),
        _ => "root".to_string(),
    }
}

/// One entry in the scope stack during the item walk.
#[derive(Debug, Clone)]
enum Scope {
    /// `mod name {`
    Mod(String),
    /// `impl [Trait for] Type {` — carries the type's last segment.
    Impl(String),
    /// `trait Name {`
    Trait(String),
}

/// Indexes one file's items into `index`.
pub fn index_file(index: &mut Index, rel: PathBuf, text: &str) {
    let lines = source::preprocess(text);
    let tokens = source::tokenize(&lines);
    let crate_name = crate_of(&rel);
    let in_bin = rel.components().any(|c| c.as_os_str() == "bin");
    let module = module_of(&rel);

    let mut fns = Vec::new();
    // Scope stack paired with the depth its `{` opened at.
    let mut scopes: Vec<(Scope, u32)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        // A `}` whose depth matches the innermost scope's opening `{`
        // closes that scope (the lexer gives an opener and its closer
        // the same depth).
        if tok.kind == TokKind::Punct && tok.text == "}" {
            if scopes.last().is_some_and(|(_, d)| tok.depth == *d) {
                scopes.pop();
            }
            i += 1;
            continue;
        }
        if tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "mod" => {
                if let Some(name) = ident_at(&tokens, i + 1) {
                    // `mod name;` declares a file module — no scope.
                    if tokens.get(i + 2).is_some_and(|t| t.text == "{") {
                        scopes.push((Scope::Mod(name), tokens[i + 2].depth));
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            "impl" => {
                if let Some((ty, open)) = impl_target(&tokens, i) {
                    scopes.push((Scope::Impl(ty), tokens[open].depth));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "trait" => {
                if let Some(name) = ident_at(&tokens, i + 1) {
                    if let Some(open) = find_open_brace(&tokens, i + 1) {
                        scopes.push((Scope::Trait(name), tokens[open].depth));
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "struct" | "enum" => {
                if let Some((name, fields, next)) = parse_type_def(&tokens, i) {
                    merge_fields(index.structs.entry(name).or_default(), fields);
                    i = next;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                if let Some(item) =
                    parse_fn(&tokens, i, &crate_name, &rel, &module, &scopes, in_bin)
                {
                    // Jump past the signature (so `-> impl Trait` is
                    // never mistaken for an `impl` block) and continue
                    // the walk *inside* the body so nested items are
                    // indexed too.
                    let next = if item.body.is_empty() { item.body.end } else { item.body.start };
                    fns.push(item);
                    i = next.max(i + 1);
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    let base = index.fns.len();
    let ids: Vec<usize> = (base..base + fns.len()).collect();
    index.fns.extend(fns);
    let loops = source::find_loops(&tokens);
    index.files.push(FileIndex { path: rel, tokens, fns: ids, loops });
}

/// Module path of a file: its stem unless it is `lib` / `mod` / `main`.
fn module_of(rel: &Path) -> Option<String> {
    let stem = rel.file_stem()?.to_str()?;
    (!matches!(stem, "lib" | "mod" | "main")).then(|| stem.to_string())
}

fn ident_at(tokens: &[Tok], at: usize) -> Option<String> {
    tokens.get(at).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
}

/// Parses the target type of an `impl` at `at`; returns (last type-path
/// segment, index of the opening `{`).
fn impl_target(tokens: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut i = at + 1;
    // Skip the generic parameter list, if any.
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(tokens, i)?;
    }
    let mut last_seg: Option<String> = None;
    while let Some(tok) = tokens.get(i) {
        match (tok.kind, tok.text.as_str()) {
            (TokKind::Punct, "{") => return last_seg.map(|s| (s, i)),
            (TokKind::Punct, ";") => return None, // `impl Trait for Type;` (never here)
            (TokKind::Ident, "for") => {
                last_seg = None; // the trait path was first; the type follows
                i += 1;
            }
            (TokKind::Ident, "where") => {
                // Bounds until the brace; the type is already captured.
                let open = find_open_brace(tokens, i)?;
                return last_seg.map(|s| (s, open));
            }
            (TokKind::Ident, _) => {
                last_seg = Some(tok.text.clone());
                i += 1;
            }
            (TokKind::Punct, "<") => {
                i = skip_angles(tokens, i)?;
            }
            _ => i += 1,
        }
    }
    None
}

/// Index just past a balanced `<...>` starting at `open` (which must be
/// `<`).
fn skip_angles(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(tok) = tokens.get(i) {
        match tok.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            ";" | "{" => return None, // malformed / not generics
            _ => {}
        }
        i += 1;
    }
    None
}

/// First `{` at or after `at`.
fn find_open_brace(tokens: &[Tok], at: usize) -> Option<usize> {
    (at..tokens.len()).find(|&i| tokens[i].text == "{" && tokens[i].kind == TokKind::Punct)
}

/// Merges newly scanned fields into a type's field map; a re-declared
/// field with a different type degrades to `"?"` (unknown).
fn merge_fields(into: &mut BTreeMap<String, String>, fields: BTreeMap<String, String>) {
    for (name, ty) in fields {
        match into.get(&name) {
            Some(prev) if *prev != ty => {
                into.insert(name, "?".to_string());
            }
            Some(_) => {}
            None => {
                into.insert(name, ty);
            }
        }
    }
}

/// Public wrapper over `type_text` for sibling analyses (the interval
/// engine normalizes declared types the same way the indexer does).
pub fn type_text_of(tokens: &[Tok], range: Range<usize>) -> String {
    type_text(tokens, range)
}

/// Builds normalized type text from `tokens[range]`: lifetimes, leading
/// `&` / `mut` and spaces-around-punct are dropped (`[f64; 24]` →
/// `[f64;24]`, `&'a mut Vec<u64>` → `Vec<u64>`).
fn type_text(tokens: &[Tok], range: Range<usize>) -> String {
    let mut out = String::new();
    let mut prev_ident = false;
    let mut i = range.start;
    while i < range.end {
        let tok = &tokens[i];
        if tok.kind == TokKind::Lifetime {
            i += 1;
            continue;
        }
        if out.is_empty() && (tok.text == "&" || tok.text == "mut") {
            i += 1;
            continue;
        }
        let is_ident = tok.kind != TokKind::Punct;
        if prev_ident && is_ident {
            out.push(' ');
        }
        out.push_str(&tok.text);
        prev_ident = is_ident;
        i += 1;
    }
    out
}

/// Parses a `struct` / `enum` definition whose keyword sits at `at`.
/// Returns the type name, its field → type map (tuple fields named by
/// ordinal; enum struct-variant fields merged together) and the index to
/// resume the item walk from (just *inside* braces, so nested items are
/// still reached — field idents never collide with item keywords).
fn parse_type_def(tokens: &[Tok], at: usize) -> Option<(String, BTreeMap<String, String>, usize)> {
    let name = ident_at(tokens, at + 1)?;
    let mut i = at + 2;
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(tokens, i)?;
    }
    let mut fields = BTreeMap::new();
    match tokens.get(i).map(|t| t.text.as_str()) {
        Some("(") => {
            let next = parse_tuple_fields(tokens, i, &mut fields)?;
            Some((name, fields, next))
        }
        Some("{") => {
            let open_depth = tokens[i].depth;
            let close = (i + 1..tokens.len())
                .find(|&k| tokens[k].text == "}" && tokens[k].depth == open_depth)
                .unwrap_or(tokens.len());
            let mut j = i + 1;
            while j < close {
                let tok = &tokens[j];
                // Skip attributes and visibility modifiers.
                if tok.text == "#" {
                    j += 1;
                    if tokens.get(j).is_some_and(|t| t.text == "[") {
                        let d = tokens[j].depth;
                        j = (j + 1..close)
                            .find(|&k| tokens[k].text == "]" && tokens[k].depth == d)
                            .map_or(close, |k| k + 1);
                    }
                    continue;
                }
                if tok.text == "pub" {
                    j += 1;
                    if tokens.get(j).is_some_and(|t| t.text == "(") {
                        let d = tokens[j].depth;
                        j = (j + 1..close)
                            .find(|&k| tokens[k].text == ")" && tokens[k].depth == d)
                            .map_or(close, |k| k + 1);
                    }
                    continue;
                }
                if tok.kind == TokKind::Ident && !matches!(tok.text.as_str(), "where") {
                    if tokens.get(j + 1).is_some_and(|t| t.text == ":") {
                        // `field: Type,` — the type runs to the comma at
                        // this depth, or to whatever closes the enclosing
                        // block (closers carry the *outer* depth, so a
                        // variant's `}` shows up as a depth drop).
                        let d = tok.depth;
                        let end = (j + 2..close)
                            .find(|&k| {
                                (tokens[k].depth == d
                                    && (tokens[k].text == "," || tokens[k].text == "}"))
                                    || tokens[k].depth < d
                            })
                            .unwrap_or(close);
                        let ty = type_text(tokens, j + 2..end);
                        merge_fields(&mut fields, BTreeMap::from([(tok.text.clone(), ty)]));
                        j = end + 1;
                        continue;
                    }
                    // Enum variant payloads: `Variant { .. }` recurses via
                    // the outer loop; `Variant(T, ..)` is scanned here.
                    if tokens.get(j + 1).is_some_and(|t| t.text == "(") {
                        let mut tup = BTreeMap::new();
                        if let Some(next) = parse_tuple_fields(tokens, j + 1, &mut tup) {
                            // Ordinal names are only meaningful for plain
                            // tuple structs; skip them for variants.
                            let _ = tup;
                            j = next;
                            continue;
                        }
                    }
                }
                j += 1;
            }
            Some((name, fields, i + 1))
        }
        _ => Some((name, fields, i)), // unit struct / `struct Name;`
    }
}

/// Parses `( T1, T2, .. )` tuple-struct fields starting at the `(`;
/// fields are named `0`, `1`, ... Returns the index past `)`.
fn parse_tuple_fields(
    tokens: &[Tok],
    open: usize,
    fields: &mut BTreeMap<String, String>,
) -> Option<usize> {
    if tokens.get(open).is_none_or(|t| t.text != "(") {
        return None;
    }
    let d = tokens[open].depth;
    let close =
        (open + 1..tokens.len()).find(|&k| tokens[k].text == ")" && tokens[k].depth == d)?;
    let mut start = open + 1;
    let mut ordinal = 0usize;
    let mut j = open + 1;
    while j <= close {
        if j == close || (tokens[j].text == "," && tokens[j].depth == d) {
            if j > start {
                let mut s = start;
                // Visibility on tuple fields.
                if tokens.get(s).is_some_and(|t| t.text == "pub") {
                    s += 1;
                    if tokens.get(s).is_some_and(|t| t.text == "(") {
                        let pd = tokens[s].depth;
                        s = (s + 1..j)
                            .find(|&k| tokens[k].text == ")" && tokens[k].depth == pd)
                            .map_or(j, |k| k + 1);
                    }
                }
                fields.insert(ordinal.to_string(), type_text(tokens, s..j));
                ordinal += 1;
            }
            start = j + 1;
        }
        j += 1;
    }
    Some(close + 1)
}

/// Parses the parameter list starting at the `(` token: simple
/// `name: Type` bindings (plus `self` receivers) in order. Patterns the
/// scan cannot name (`(a, b): ..`, `_: ..`) are skipped.
fn parse_params(tokens: &[Tok], open: usize) -> Vec<FnParam> {
    let mut params = Vec::new();
    let Some(opener) = tokens.get(open).filter(|t| t.text == "(") else {
        return params;
    };
    let d = opener.depth;
    let Some(close) =
        (open + 1..tokens.len()).find(|&k| tokens[k].text == ")" && tokens[k].depth == d)
    else {
        return params;
    };
    let mut start = open + 1;
    let mut j = open + 1;
    while j <= close {
        if j == close || (tokens[j].text == "," && tokens[j].depth == d) {
            if j > start {
                let mut s = start;
                while tokens.get(s).is_some_and(|t| {
                    t.text == "&" || t.text == "mut" || t.kind == TokKind::Lifetime
                }) {
                    s += 1;
                }
                if let Some(name) = ident_at(tokens, s) {
                    if name == "self" {
                        params.push(FnParam { name, ty: String::new() });
                    } else if tokens.get(s + 1).is_some_and(|t| t.text == ":") {
                        params.push(FnParam { name, ty: type_text(tokens, s + 2..j) });
                    }
                }
            }
            start = j + 1;
        }
        j += 1;
    }
    params
}

/// Parses the fn whose `fn` keyword sits at `at`. Returns `None` for
/// tokens that merely look like fns (e.g. `fn` inside a type such as
/// `fn(&T) -> U`, which is preceded by punctuation other than the item
/// modifiers).
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    tokens: &[Tok],
    at: usize,
    crate_name: &str,
    rel: &Path,
    module: &Option<String>,
    scopes: &[(Scope, u32)],
    in_bin: bool,
) -> Option<FnItem> {
    let name = ident_at(tokens, at + 1)?;
    // Visibility: scan the modifier run immediately before `fn`.
    let mut is_pub = false;
    let mut j = at;
    while j > 0 {
        j -= 1;
        match tokens[j].text.as_str() {
            "pub" => {
                is_pub = true;
                break;
            }
            "const" | "unsafe" | "async" | "extern" => continue,
            ")" => {
                // `pub(crate)` — skip back over the restriction.
                while j > 0 && tokens[j].text != "(" {
                    j -= 1;
                }
                continue;
            }
            _ => break,
        }
    }
    // Default trait methods and inherent methods are pub when their
    // trait is; treat trait-scope fns as part of the pub surface only
    // via their own `pub` (impl methods) — trait decls carry none, so
    // inherit from the trait scope.
    let in_trait_scope = matches!(scopes.last(), Some((Scope::Trait(_), _)));
    if in_trait_scope {
        is_pub = true;
    }

    let mut i = at + 2;
    // Generic parameters.
    if tokens.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(tokens, i)?;
    }
    // Parameter list.
    if tokens.get(i).is_none_or(|t| t.text != "(") {
        return None;
    }
    let params = parse_params(tokens, i);
    let mut paren = 0i32;
    while let Some(tok) = tokens.get(i) {
        match tok.text.as_str() {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Return type: tokens between `->` and the body / `;` / `where`.
    let mut ret = String::new();
    if tokens.get(i).is_some_and(|t| t.text == "->") {
        i += 1;
        let mut angle = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" | ";" if angle <= 0 => break,
                "where" if angle <= 0 && tok.kind == TokKind::Ident => break,
                _ => {}
            }
            if !ret.is_empty() && tok.kind != TokKind::Punct && tokens[i - 1].kind != TokKind::Punct
            {
                ret.push(' ');
            }
            ret.push_str(&tok.text);
            i += 1;
        }
    }
    // Skip a `where` clause.
    while let Some(tok) = tokens.get(i) {
        if tok.text == "{" || tok.text == ";" {
            break;
        }
        i += 1;
    }
    let body = match tokens.get(i) {
        Some(tok) if tok.text == "{" => {
            let open_depth = tok.depth;
            let close = (i + 1..tokens.len())
                .find(|&k| tokens[k].text == "}" && tokens[k].depth == open_depth)
                .unwrap_or(tokens.len());
            i + 1..close
        }
        _ => i..i, // signature-only (trait method decl)
    };

    let self_type = scopes.iter().rev().find_map(|(s, _)| match s {
        Scope::Impl(t) | Scope::Trait(t) => Some(t.clone()),
        Scope::Mod(_) => None,
    });
    let mut qname = String::from(crate_name);
    if let Some(m) = module {
        qname.push_str("::");
        qname.push_str(m);
    }
    for (scope, _) in scopes {
        if let Scope::Mod(m) = scope {
            qname.push_str("::");
            qname.push_str(m);
        }
    }
    if let Some(ty) = &self_type {
        qname.push_str("::");
        qname.push_str(ty);
    }
    qname.push_str("::");
    qname.push_str(&name);

    let costs = cost_events(tokens, &body);
    Some(FnItem {
        crate_name: crate_name.to_string(),
        file: rel.to_path_buf(),
        qname,
        name,
        self_type,
        is_pub,
        line: tokens[at].line,
        ret,
        body,
        in_bin,
        in_test: tokens[at].in_test,
        costs,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(path: &str, src: &str) -> Index {
        let mut index = Index::default();
        index_file(&mut index, PathBuf::from(path), src);
        for (id, item) in index.fns.iter().enumerate() {
            index.by_name.entry(item.name.clone()).or_default().push(id);
            if let Some(ty) = &item.self_type {
                index.by_type_method.entry((ty.clone(), item.name.clone())).or_default().push(id);
            }
            index.by_crate.entry(item.crate_name.clone()).or_default().push(id);
        }
        index
    }

    #[test]
    fn indexes_free_fns_and_methods() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   struct S;\n\
                   impl S {\n    pub fn method(&self) {}\n    fn private(&self) {}\n}\n\
                   impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n";
        let index = index_of("crates/flow/src/mcmf.rs", src);
        let names: Vec<&str> = index.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            [
                "flow::mcmf::free",
                "flow::mcmf::S::method",
                "flow::mcmf::S::private",
                "flow::mcmf::S::fmt"
            ]
        );
        assert!(index.fns[0].is_pub);
        assert!(!index.fns[2].is_pub);
        assert_eq!(index.fns[0].ret, "u32");
        assert_eq!(index.by_type_method.get(&("S".into(), "method".into())).map(Vec::len), Some(1));
    }

    #[test]
    fn indexes_trait_and_inline_mods() {
        let src =
            "pub trait T {\n    fn provided(&self) { helper() }\n    fn required(&self);\n}\n\
                   mod inner {\n    pub fn deep() {}\n}\n";
        let index = index_of("crates/core/src/lib.rs", src);
        let names: Vec<&str> = index.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, ["core::T::provided", "core::T::required", "core::inner::deep"]);
        assert!(index.fns[1].body.is_empty());
        assert!(!index.fns[0].body.is_empty());
    }

    #[test]
    fn captures_result_return_types() {
        let src = "pub fn load() -> Result<Vec<u8>, std::io::Error> { todo!() }\n\
                   pub fn bad() -> Result<u32, Box<dyn std::error::Error>> { todo!() }\n";
        let index = index_of("crates/trace/src/io.rs", src);
        assert_eq!(index.fns[0].ret, "Result<Vec<u8>,std::io::Error>");
        assert!(index.fns[1].ret.contains("Box<dyn"));
    }

    #[test]
    fn bin_files_are_marked() {
        let index = index_of("crates/bench/src/bin/fig2.rs", "pub fn main() {}\n");
        assert!(index.fns[0].in_bin);
    }

    #[test]
    fn records_cost_events_per_fn() {
        let src = "pub fn hot(xs: &[u32]) -> Vec<u32> {\n\
                   \x20   let mut out = Vec::with_capacity(xs.len());\n\
                   \x20   let copy = xs.to_vec();\n\
                   \x20   let s = format!(\"n={}\", xs.len());\n\
                   \x20   let t: Vec<u32> = xs.iter().copied().collect::<Vec<_>>();\n\
                   \x20   let c = copy.clone();\n\
                   \x20   drop((s, t, c));\n\
                   \x20   out.push(1);\n\
                   \x20   out\n}\n\
                   pub fn cold() {}\n";
        let index = index_of("crates/flow/src/mcmf.rs", src);
        let whats: Vec<&str> = index.fns[0].costs.iter().map(|c| c.what.as_str()).collect();
        assert_eq!(whats, ["Vec::with_capacity", ".to_vec()", "format!", ".collect()", ".clone()"]);
        assert_eq!(index.fns[0].costs.iter().filter(|c| c.kind == CostKind::Clone).count(), 1);
        assert!(index.fns[1].costs.is_empty());
        assert!(!index.fns[0].in_test);
    }

    #[test]
    fn test_gated_fns_are_marked_in_test() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; drop(v); }\n}\n";
        let index = index_of("crates/flow/src/network.rs", src);
        let t = index.fns.iter().find(|f| f.name == "t").expect("test fn indexed");
        assert!(t.in_test);
        assert!(t.costs.iter().all(|c| c.in_test));
        assert!(!index.fns[0].in_test);
    }

    #[test]
    fn file_index_carries_loops() {
        let src = "pub fn f() {\n    for i in 0..3 {\n        g(i);\n    }\n}\nfn g(_i: u32) {}\n";
        let index = index_of("crates/core/src/balancing.rs", src);
        assert_eq!(index.files[0].loops.len(), 1);
        assert_eq!(index.files[0].loops[0].line, 2);
    }
}
