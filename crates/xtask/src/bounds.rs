//! The committed metro-scale magnitude declarations for the interval
//! engine.
//!
//! `value-bounds.toml` at the workspace root declares *trusted* numeric
//! ranges the token-level interval analysis cannot derive on its own:
//! validated config fields and the physical magnitudes of metro-scale
//! inputs (hotspot count ≤ 2²⁰, per-slot requests ≤ 2³⁰, ...). Each
//! entry seeds either a fn parameter or a struct field:
//!
//! ```toml
//! [[param]]
//! fn = "cluster::matrix::DistanceMatrix::get"  # exact qname or `prefix::*`
//! name = "i"
//! max = 1_048_576          # hotspot index; min defaults to 0
//!
//! [[field]]
//! type = "GridIndex"
//! name = "cols"
//! min = 1                  # constructor-validated (`.max(1)` in try_build)
//! max = 65_536
//! ```
//!
//! These bounds are the analysis's **trust boundary**: a discharge proof
//! that leans on one is only as good as the declaration, so entries must
//! name the validation or physical argument in a comment. Like
//! `hot-paths.toml`, the parser is a deliberate TOML subset (section
//! headers, `key = value`, `#` comments) and every entry must still
//! match an indexed fn parameter / struct field — stale entries fail the
//! analysis so the file cannot rot.

use crate::index::Index;
use std::path::Path;

/// File name of the bound declarations, relative to the workspace root.
pub const FILE: &str = "value-bounds.toml";

/// A trusted range for one fn parameter.
#[derive(Debug, Clone)]
pub struct ParamBound {
    /// Qname pattern (exact, or `prefix::*`).
    pub fn_pattern: String,
    /// Parameter name.
    pub name: String,
    /// Inclusive lower bound (defaults to 0).
    pub min: i128,
    /// Inclusive upper bound.
    pub max: i128,
}

/// A trusted range for one struct field.
#[derive(Debug, Clone)]
pub struct FieldBound {
    /// Nominal type name (the last path segment, as indexed).
    pub type_name: String,
    /// Field name (`0`, `1`, ... for tuple fields).
    pub name: String,
    /// Inclusive lower bound (defaults to 0).
    pub min: i128,
    /// Inclusive upper bound.
    pub max: i128,
}

/// The parsed bound declarations.
#[derive(Debug, Clone, Default)]
pub struct Bounds {
    /// Parameter bounds, in file order.
    pub params: Vec<ParamBound>,
    /// Field bounds, in file order.
    pub fields: Vec<FieldBound>,
}

impl Bounds {
    /// The declared range for parameter `name` of fn `qname`, if any.
    pub fn param(&self, qname: &str, name: &str) -> Option<(i128, i128)> {
        self.params
            .iter()
            .find(|p| p.name == name && pattern_matches(&p.fn_pattern, qname))
            .map(|p| (p.min, p.max))
    }

    /// The declared range for `type_name.field`, if any.
    pub fn field(&self, type_name: &str, field: &str) -> Option<(i128, i128)> {
        self.fields
            .iter()
            .find(|f| f.type_name == type_name && f.name == field)
            .map(|f| (f.min, f.max))
    }

    /// Entries that match nothing in the index — stale declarations that
    /// must be fixed or removed (mirrors the hot-paths stale guard).
    pub fn stale_entries(&self, index: &Index) -> Vec<String> {
        let mut stale = Vec::new();
        for p in &self.params {
            let hit = index.fns.iter().any(|f| {
                !f.in_test
                    && pattern_matches(&p.fn_pattern, &f.qname)
                    && f.params.iter().any(|fp| fp.name == p.name)
            });
            if !hit {
                stale.push(format!("param `{}` of `{}`", p.name, p.fn_pattern));
            }
        }
        for f in &self.fields {
            let hit =
                index.structs.get(&f.type_name).is_some_and(|fields| fields.contains_key(&f.name));
            if !hit {
                stale.push(format!("field `{}` of `{}`", f.name, f.type_name));
            }
        }
        stale
    }
}

fn pattern_matches(pattern: &str, qname: &str) -> bool {
    match pattern.strip_suffix("::*") {
        Some(prefix) => qname.strip_prefix(prefix).is_some_and(|rest| rest.starts_with("::")),
        None => pattern == qname,
    }
}

/// Loads `root/value-bounds.toml`; `Ok(None)` when absent (the engine
/// then runs with type ranges only).
///
/// # Errors
///
/// A human-readable message on I/O failure or malformed contents.
pub fn load(root: &Path) -> Result<Option<Bounds>, String> {
    let path = root.join(FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read: {e}"))?;
    parse(&text).map(Some)
}

/// One entry under construction during the line walk.
#[derive(Default)]
struct Entry {
    section: String,
    fn_pattern: Option<String>,
    type_name: Option<String>,
    name: Option<String>,
    min: Option<i128>,
    max: Option<i128>,
}

impl Entry {
    fn finish(self, out: &mut Bounds) -> Result<(), String> {
        match self.section.as_str() {
            "" => Ok(()),
            "param" => {
                let fn_pattern =
                    self.fn_pattern.ok_or("[[param]] entry missing `fn`".to_string())?;
                let name = self.name.ok_or("[[param]] entry missing `name`".to_string())?;
                let max = self.max.ok_or(format!("param `{name}` missing `max`"))?;
                let min = self.min.unwrap_or(0);
                if min > max {
                    return Err(format!("param `{name}`: min {min} > max {max}"));
                }
                out.params.push(ParamBound { fn_pattern, name, min, max });
                Ok(())
            }
            "field" => {
                let type_name =
                    self.type_name.ok_or("[[field]] entry missing `type`".to_string())?;
                let name = self.name.ok_or("[[field]] entry missing `name`".to_string())?;
                let max = self.max.ok_or(format!("field `{name}` missing `max`"))?;
                let min = self.min.unwrap_or(0);
                if min > max {
                    return Err(format!("field `{name}`: min {min} > max {max}"));
                }
                out.fields.push(FieldBound { type_name, name, min, max });
                Ok(())
            }
            other => Err(format!("unknown section `[[{other}]]`")),
        }
    }
}

/// Parses the TOML subset described in the module docs.
pub fn parse(text: &str) -> Result<Bounds, String> {
    let mut out = Bounds::default();
    let mut entry = Entry::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(section) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            std::mem::take(&mut entry).finish(&mut out).map_err(err)?;
            entry.section = section.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let value = value.trim();
        if entry.section.is_empty() {
            // Top-level keys: only `version` is recognized, and ignored.
            if key != "version" {
                return Err(err(format!("unknown top-level key `{key}`")));
            }
            continue;
        }
        match key {
            "fn" => entry.fn_pattern = Some(parse_str(value).map_err(err)?),
            "type" => entry.type_name = Some(parse_str(value).map_err(err)?),
            "name" => entry.name = Some(parse_str(value).map_err(err)?),
            "min" => entry.min = Some(parse_int(value).map_err(err)?),
            "max" => entry.max = Some(parse_int(value).map_err(err)?),
            other => return Err(err(format!("unknown key `{other}`"))),
        }
    }
    entry.finish(&mut out).map_err(|msg| format!("at end of file: {msg}"))?;
    Ok(out)
}

fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                out.push(c);
            }
            '#' if !in_str => break,
            _ => out.push(c),
        }
    }
    out
}

fn parse_str(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .filter(|v| !v.is_empty() && !v.contains('"'))
        .map(str::to_string)
        .ok_or(format!("expected a quoted string, got `{value}`"))
}

fn parse_int(value: &str) -> Result<i128, String> {
    let cleaned: String = value.chars().filter(|&c| c != '_').collect();
    cleaned.parse::<i128>().map_err(|e| format!("bad integer `{value}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
version = 1

[[param]]
fn = \"cluster::matrix::DistanceMatrix::get\"
name = \"i\"
max = 1_048_576   # hotspot index

[[field]]
type = \"GridIndex\"
name = \"cols\"
min = 1
max = 65_536
";

    #[test]
    fn parses_params_and_fields() {
        let b = parse(SAMPLE).expect("parses");
        assert_eq!(b.params.len(), 1);
        assert_eq!(b.fields.len(), 1);
        assert_eq!(b.param("cluster::matrix::DistanceMatrix::get", "i"), Some((0, 1_048_576)));
        assert_eq!(b.param("cluster::matrix::DistanceMatrix::get", "k"), None);
        assert_eq!(b.field("GridIndex", "cols"), Some((1, 65_536)));
        assert_eq!(b.field("GridIndex", "rows"), None);
    }

    #[test]
    fn glob_patterns_match_prefixes() {
        let b =
            parse("[[param]]\nfn = \"flow::mcmf::*\"\nname = \"n\"\nmax = 10\n").expect("parses");
        assert_eq!(b.param("flow::mcmf::FlowNetwork::solve", "n"), Some((0, 10)));
        assert_eq!(b.param("flow::dinic::FlowNetwork::solve", "n"), None);
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(parse("[[param]]\nfn = \"a::b\"\nname = \"x\"\n").is_err()); // no max
        assert!(parse("[[param]]\nname = \"x\"\nmax = 3\n").is_err()); // no fn
        assert!(parse("[[field]]\ntype = \"T\"\nname = \"f\"\nmin = 9\nmax = 3\n").is_err());
        assert!(parse("[[other]]\nname = \"x\"\n").is_err());
        assert!(parse("junk = 3\n").is_err());
        assert!(parse("[[param]]\nfn = unquoted\nname = \"x\"\nmax = 3\n").is_err());
    }
}
