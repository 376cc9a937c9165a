//! The committed hot-entry list for the loop-aware passes.
//!
//! `hot-paths.toml` at the workspace root names the functions whose
//! call cones the **hot-loop-alloc** pass treats as performance-
//! critical (the `ccdn-obs` span owners: MCMF/Dinic solvers, the
//! RBCAer balancing loop, clustering, the online simulator driver).
//! The file is a single `entries = [ ... ]` array of qname patterns:
//!
//! ```toml
//! entries = [
//!     "flow::mcmf::*",                  # prefix glob: whole module/crate cone
//!     "sim::online::OnlineRunner::drive", # exact qname
//! ]
//! ```
//!
//! A trailing `::*` makes the pattern a prefix match on qualified
//! names; anything else must match a qname exactly. The parser is a
//! deliberate TOML subset (one array of strings, `#` comments) — the
//! workspace has no TOML dependency and must not grow one.
//!
//! Every pattern must match at least one indexed non-test function;
//! a pattern that matches nothing is *stale* (the code moved or was
//! renamed) and fails the analysis, so the hot list cannot rot.

use crate::index::Index;
use std::path::Path;

/// File name of the hot-entry list, relative to the workspace root.
pub const FILE: &str = "hot-paths.toml";

/// The parsed hot-entry list.
#[derive(Debug, Clone)]
pub struct HotPaths {
    /// Qname patterns, in file order (exact, or `prefix::*`).
    pub patterns: Vec<String>,
}

impl HotPaths {
    /// True when `qname` matches any pattern.
    pub fn matches(&self, qname: &str) -> bool {
        self.patterns.iter().any(|p| pattern_matches(p, qname))
    }

    /// Patterns that match no indexed non-test fn — stale entries that
    /// must be fixed or removed.
    pub fn stale_patterns(&self, index: &Index) -> Vec<String> {
        self.patterns
            .iter()
            .filter(|p| !index.fns.iter().any(|f| !f.in_test && pattern_matches(p, &f.qname)))
            .cloned()
            .collect()
    }
}

fn pattern_matches(pattern: &str, qname: &str) -> bool {
    match pattern.strip_suffix("::*") {
        Some(prefix) => qname.strip_prefix(prefix).is_some_and(|rest| rest.starts_with("::")),
        None => pattern == qname,
    }
}

/// Loads `root/hot-paths.toml`; `Ok(None)` when the file is absent
/// (the loop-aware passes are then skipped — corpus fixtures and
/// fresh checkouts need no list).
///
/// # Errors
///
/// A human-readable message on I/O failure or malformed contents.
pub fn load(root: &Path) -> Result<Option<HotPaths>, String> {
    let path = root.join(FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read: {e}"))?;
    parse(&text).map(Some)
}

/// Parses the TOML subset: `entries = [ "pat", ... ]` with `#`
/// comments anywhere outside strings.
pub fn parse(text: &str) -> Result<HotPaths, String> {
    let mut stripped = String::new();
    for line in text.lines() {
        let mut in_str = false;
        for c in line.chars() {
            match c {
                '"' => {
                    in_str = !in_str;
                    stripped.push(c);
                }
                '#' if !in_str => break,
                _ => stripped.push(c),
            }
        }
        stripped.push('\n');
    }
    let at = stripped.find("entries").ok_or("missing `entries` key")?;
    let rest = stripped[at + "entries".len()..].trim_start();
    let rest = rest.strip_prefix('=').ok_or("`entries` must be assigned with `=`")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('[').ok_or("`entries` must be an array")?;
    let end = rest.find(']').ok_or("unterminated `entries` array")?;
    let body = &rest[..end];

    let mut patterns = Vec::new();
    let segments: Vec<&str> = body.split('"').collect();
    if segments.len().is_multiple_of(2) {
        return Err("unterminated string in `entries`".into());
    }
    for (i, seg) in segments.iter().enumerate() {
        if i % 2 == 1 {
            if seg.is_empty() {
                return Err("empty pattern in `entries`".into());
            }
            patterns.push((*seg).to_string());
        } else if seg.chars().any(|c| !c.is_whitespace() && c != ',') {
            return Err(format!("unexpected text in `entries` array: `{}`", seg.trim()));
        }
    }
    Ok(HotPaths { patterns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_with_comments() {
        let hot = parse(
            "# span owners\nentries = [\n    \"flow::mcmf::*\", # solvers\n    \"sim::online::OnlineRunner::drive\",\n]\n",
        )
        .expect("parses");
        assert_eq!(hot.patterns.len(), 2);
        assert!(hot.matches("flow::mcmf::McmfSolver::solve"));
        assert!(hot.matches("sim::online::OnlineRunner::drive"));
        assert!(!hot.matches("flow::mcmf")); // prefix needs a `::` boundary
        assert!(!hot.matches("flow::mcmfx::solve"));
        assert!(!hot.matches("sim::online::OnlineRunner::drive_all"));
    }

    #[test]
    fn rejects_malformed_lists() {
        assert!(parse("entries = [ \"a\", junk ]").is_err());
        assert!(parse("other = [\"a\"]").is_err());
        assert!(parse("entries = \"a\"").is_err());
        assert!(parse("entries = [ \"a\"").is_err());
        assert!(parse("entries = [ \"\" ]").is_err());
    }
}
