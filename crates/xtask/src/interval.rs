//! Interprocedural value-range (interval) analysis over the token IR.
//!
//! The engine walks every indexed fn body as an abstract interpreter on
//! integer intervals: `let` bindings seed from declared parameter types
//! (refined by the trusted ranges in `value-bounds.toml`), branches join
//! element-wise, and loop back-edges widen by havocking every variable
//! the body assigns to its full type range before the body is walked
//! once — a sound one-step widening that needs no fixpoint iteration.
//! Call returns propagate through the call graph (memoized, cycle- and
//! depth-capped), struct field types come from the workspace field map,
//! and floats are tracked as a type so visibly-float arithmetic — which
//! cannot trap — is recognized even when the float evidence lives in a
//! field or return type the token-window heuristic of `graph::scan_roots`
//! cannot see.
//!
//! Every panic-capable and unchecked-arith root site recorded by the
//! call-graph scan is *probed* when the walker reaches its operator:
//!
//! - indexing `a[i]` is **proven** when `lo(i) ≥ 0` and `hi(i) < lo(len)`
//!   for a container of known length (fixed-size arrays, `vec![x; n]`);
//! - `/` / `%` are **proven** when the divisor interval excludes zero
//!   (and a signed `MIN / -1` overflow is excluded);
//! - `+` / `-` / `*` are **proven** when either operand is float-typed
//!   or the result interval fits the operand type, and flagged as
//!   **risk** when both operands are bounded yet the result provably can
//!   exceed the type at the declared metro-scale magnitudes;
//! - `as` narrowing casts whose bounded source interval exceeds the
//!   target type are recorded as cast risks;
//! - `unwrap` / `expect` / panic-family macros are never dischargeable.
//!
//! Sites the walker cannot reach (e.g. inside `match` arms, which are
//! treated opaquely) fall back to a type-only probe that still resolves
//! operand types through parameters, the struct-field map and a
//! field-name oracle — enough for the float discharge, which is the
//! dominant source of spurious baseline entries. Soundness notes: the
//! float rule relies on the workspace defining no arithmetic operator
//! overloads (checked by `no_operator_overloads_in_workspace` below);
//! the fallback prober uses *types only*, never values, because it does
//! not track flow; and `value-bounds.toml` is an explicit trust boundary
//! documented in [`crate::bounds`].

use crate::bounds::Bounds;
use crate::graph::Graph;
use crate::index::{FnItem, Index};
use crate::source::{Tok, TokKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

/// A primitive integer type, as much as the token IR knows of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntTy {
    /// Bit width (`usize` / `isize` are taken as 64-bit).
    pub bits: u16,
    /// Signedness.
    pub signed: bool,
}

impl IntTy {
    /// Parses `u8` ... `i128` / `usize` / `isize`.
    pub fn parse(text: &str) -> Option<IntTy> {
        let (signed, rest) = match text.as_bytes().first()? {
            b'u' => (false, &text[1..]),
            b'i' => (true, &text[1..]),
            _ => return None,
        };
        let bits = match rest {
            "8" => 8,
            "16" => 16,
            "32" => 32,
            "64" => 64,
            "128" => 128,
            "size" => 64,
            _ => return None,
        };
        Some(IntTy { bits, signed })
    }

    /// The representable interval. `u128`'s upper end and `i128`'s both
    /// ends exceed the `i128` carrier and become unbounded — sound, just
    /// imprecise.
    pub fn range(self) -> Interval {
        if self.signed {
            if self.bits >= 128 {
                return Interval::full();
            }
            let hi = (1i128 << (self.bits - 1)) - 1;
            Interval { lo: Some(-hi - 1), hi: Some(hi) }
        } else {
            if self.bits >= 128 {
                return Interval { lo: Some(0), hi: None };
            }
            Interval { lo: Some(0), hi: Some((1i128 << self.bits) - 1) }
        }
    }
}

/// The abstract type of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ty {
    /// Nothing known.
    #[default]
    Unknown,
    /// `bool`.
    Bool,
    /// `f32` / `f64` — arithmetic on these cannot trap.
    Float,
    /// A primitive integer.
    Int(IntTy),
}

/// An integer interval; `None` on either side means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: Option<i128>,
    /// Inclusive upper bound.
    pub hi: Option<i128>,
}

impl Default for Interval {
    fn default() -> Self {
        Interval::full()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Some(lo) => write!(f, "[{lo}, ")?,
            None => write!(f, "[-inf, ")?,
        }
        match self.hi {
            Some(hi) => write!(f, "{hi}]"),
            None => write!(f, "+inf]"),
        }
    }
}

impl Interval {
    /// The unbounded interval.
    pub fn full() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// The singleton `[v, v]`.
    pub fn exact(v: i128) -> Interval {
        Interval { lo: Some(v), hi: Some(v) }
    }

    /// `[lo, hi]`.
    pub fn new(lo: i128, hi: i128) -> Interval {
        Interval { lo: Some(lo), hi: Some(hi) }
    }

    /// True when both ends are known.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_some() && self.hi.is_some()
    }

    /// Lattice join (convex hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Intersection; an empty meet degrades to `other` (callers meet a
    /// derived interval with a trusted one).
    pub fn meet(&self, other: &Interval) -> Interval {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (lo, hi) {
            (Some(l), Some(h)) if l > h => *other,
            _ => Interval { lo, hi },
        }
    }

    /// True when `self` is entirely inside `other`.
    pub fn within(&self, other: &Interval) -> bool {
        let lo_ok = match (other.lo, self.lo) {
            (None, _) => true,
            (Some(b), Some(a)) => a >= b,
            (Some(_), None) => false,
        };
        let hi_ok = match (other.hi, self.hi) {
            (None, _) => true,
            (Some(b), Some(a)) => a <= b,
            (Some(_), None) => false,
        };
        lo_ok && hi_ok
    }

    /// True when `v` is inside.
    pub fn contains(&self, v: i128) -> bool {
        self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }

    /// Interval addition (checked carrier arithmetic; overflow widens to
    /// unbounded on that side).
    pub fn add(&self, other: &Interval) -> Interval {
        Interval { lo: add_opt(self.lo, other.lo), hi: add_opt(self.hi, other.hi) }
    }

    /// Interval subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval { lo: sub_opt(self.lo, other.hi), hi: sub_opt(self.hi, other.lo) }
    }

    /// Interval multiplication. Fully bounded operands take the hull of
    /// the four corner products; both-nonnegative operands with a
    /// missing upper end still keep the lower corner.
    pub fn mul(&self, other: &Interval) -> Interval {
        if let (Some(al), Some(ah), Some(bl), Some(bh)) = (self.lo, self.hi, other.lo, other.hi) {
            let corners = [mul_c(al, bl), mul_c(al, bh), mul_c(ah, bl), mul_c(ah, bh)];
            let lo = corners
                .iter()
                .copied()
                .min()
                .flatten()
                .filter(|_| corners.iter().all(Option::is_some));
            let hi = corners
                .iter()
                .copied()
                .max()
                .flatten()
                .filter(|_| corners.iter().all(Option::is_some));
            // Any corner overflowing the carrier widens the hull side it
            // would have extended; taking both unbounded is simplest.
            if corners.iter().any(Option::is_none) {
                return Interval::full();
            }
            return Interval { lo, hi };
        }
        if self.lo.is_some_and(|l| l >= 0) && other.lo.is_some_and(|l| l >= 0) {
            return Interval { lo: mul_c(self.lo.unwrap_or(0), other.lo.unwrap_or(0)), hi: None };
        }
        Interval::full()
    }

    /// Interval negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(|h| h.checked_neg()),
            hi: self.lo.and_then(|l| l.checked_neg()),
        }
    }
}

fn add_opt(a: Option<i128>, b: Option<i128>) -> Option<i128> {
    a?.checked_add(b?)
}

fn sub_opt(a: Option<i128>, b: Option<i128>) -> Option<i128> {
    a?.checked_sub(b?)
}

fn mul_c(a: i128, b: i128) -> Option<i128> {
    a.checked_mul(b)
}

/// One abstract value: type, interval, and (for containers / tuples)
/// structure.
#[derive(Debug, Clone, Default)]
pub struct AbsVal {
    /// The abstract type.
    pub ty: Ty,
    /// The value interval (meaningful for `Ty::Int`; full otherwise).
    pub iv: Interval,
    /// Container length, when known (`[T; N]`, `vec![x; n]`).
    pub len: Option<Interval>,
    /// Container element template.
    pub elem: Option<Box<AbsVal>>,
    /// Tuple elements (from `enumerate` / tuple literals).
    pub tuple: Option<Vec<AbsVal>>,
    /// Nominal struct / enum type, for field lookups.
    pub type_name: Option<String>,
    /// True when the value is a `a..b` range expression (its `iv` is the
    /// iteration hull, upper end already adjusted for exclusivity).
    pub is_range: bool,
}

impl AbsVal {
    /// An integer of type `t` spanning its whole range.
    pub fn int_full(t: IntTy) -> AbsVal {
        AbsVal { ty: Ty::Int(t), iv: t.range(), ..AbsVal::default() }
    }

    /// An integer of type `t` with interval `iv`.
    pub fn int(t: IntTy, iv: Interval) -> AbsVal {
        AbsVal { ty: Ty::Int(t), iv, ..AbsVal::default() }
    }

    /// A float value.
    pub fn float() -> AbsVal {
        AbsVal { ty: Ty::Float, ..AbsVal::default() }
    }

    /// Element-wise lattice join (types must agree to stay known).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let ty = if self.ty == other.ty { self.ty } else { Ty::Unknown };
        AbsVal {
            ty,
            iv: self.iv.join(&other.iv),
            len: match (&self.len, &other.len) {
                (Some(a), Some(b)) => Some(a.join(b)),
                _ => None,
            },
            elem: match (&self.elem, &other.elem) {
                (Some(a), Some(b)) => Some(Box::new(a.join(b))),
                _ => None,
            },
            tuple: match (&self.tuple, &other.tuple) {
                (Some(a), Some(b)) if a.len() == b.len() => {
                    Some(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
                }
                _ => None,
            },
            type_name: match (&self.type_name, &other.type_name) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            },
            is_range: false,
        }
    }

    /// Havoc to the type's full range (loop widening), keeping the type
    /// and container structure but dropping value precision.
    pub fn havoc(&mut self) {
        self.iv = match self.ty {
            Ty::Int(t) => t.range(),
            _ => Interval::full(),
        };
        self.len = None;
        if let Some(e) = &mut self.elem {
            e.havoc();
        }
        self.tuple = None;
        self.is_range = false;
    }

    /// Compact operand description for proof chains.
    pub fn describe(&self) -> String {
        match self.ty {
            Ty::Float => "float".to_string(),
            Ty::Bool => "bool".to_string(),
            Ty::Int(t) => format!(
                "{}{} {}",
                if t.signed { "i" } else { "u" },
                if t.bits == 64 { "64".to_string() } else { t.bits.to_string() },
                self.iv
            ),
            Ty::Unknown => {
                if self.iv == Interval::full() {
                    "unknown".to_string()
                } else {
                    format!("int {}", self.iv)
                }
            }
        }
    }
}

/// Which baseline namespace a probed site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// `graph::FnFacts::panics` (indexing, div/rem, unwrap, macros).
    Panic,
    /// `graph::FnFacts::arith` (`+` / `-` / `*`).
    Arith,
}

/// What the analysis concluded about one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// The operation cannot trap at this site.
    Proven,
    /// The operation can provably exceed its type at declared
    /// metro-scale magnitudes (overflow-risk material).
    Risk,
    /// Nothing proven either way.
    Open,
}

/// The proof (or non-proof) for one root site.
#[derive(Debug, Clone)]
pub struct SiteProof {
    /// Verdict.
    pub status: Status,
    /// Human-readable derivation chain, one step per line.
    pub chain: Vec<String>,
}

impl SiteProof {
    fn open(reason: impl Into<String>) -> SiteProof {
        SiteProof { status: Status::Open, chain: vec![reason.into()] }
    }

    /// Merges a second observation of the same site (loop bodies and
    /// joined branches may probe twice): the *worst* status wins, so a
    /// site is only proven when every visit proved it.
    fn merge(&mut self, other: SiteProof) {
        if other.status > self.status {
            *self = other;
        }
    }
}

/// One `as` narrowing cast whose bounded source interval exceeds the
/// target type.
#[derive(Debug, Clone)]
pub struct CastRisk {
    /// One-based source line.
    pub line: usize,
    /// Compact label (`as u32`).
    pub what: String,
    /// Derivation chain.
    pub chain: Vec<String>,
}

/// Per-fn interval findings, parallel to `graph::FnFacts`.
#[derive(Debug, Clone, Default)]
pub struct FnReport {
    /// One proof per `facts.panics` site, same order.
    pub panic: Vec<SiteProof>,
    /// One proof per `facts.arith` site, same order.
    pub arith: Vec<SiteProof>,
    /// Narrowing-cast risks found in the body.
    pub casts: Vec<CastRisk>,
}

/// The whole-workspace interval analysis result.
#[derive(Debug, Default)]
pub struct IntervalAnalysis {
    /// `reports[id]` describes `index.fns[id]`.
    pub reports: Vec<FnReport>,
}

impl IntervalAnalysis {
    /// True when fn `id` has panic sites and every one is proven safe —
    /// the fn then stops being a panic root.
    pub fn panic_root_discharged(&self, id: usize) -> bool {
        let r = &self.reports[id];
        !r.panic.is_empty() && r.panic.iter().all(|p| p.status == Status::Proven)
    }

    /// True when fn `id` has arith sites and every one is proven safe.
    pub fn arith_root_discharged(&self, id: usize) -> bool {
        let r = &self.reports[id];
        !r.arith.is_empty() && r.arith.iter().all(|p| p.status == Status::Proven)
    }

    /// Arith sites that can provably overflow (Risk status), as
    /// `(site ordinal, proof)` pairs.
    pub fn arith_risks(&self, id: usize) -> Vec<(usize, &SiteProof)> {
        self.reports[id]
            .arith
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status == Status::Risk)
            .collect()
    }
}

/// Interprocedural depth cap for return-interval propagation.
const RET_DEPTH_CAP: usize = 12;

/// Candidate-callee cap: joining more returns than this degrades to
/// Unknown (CHA resolution gets noisy past a handful).
const CALLEE_CAP: usize = 4;

/// Runs the interval analysis over every indexed fn.
pub fn analyze(index: &Index, graph: &Graph, bounds: Option<&Bounds>) -> IntervalAnalysis {
    let engine = Engine::new(index, graph, bounds);
    let mut reports = Vec::with_capacity(index.fns.len());
    for id in 0..index.fns.len() {
        reports.push(engine.analyze_fn(id));
    }
    IntervalAnalysis { reports }
}

/// Shared state for the per-fn walkers.
struct Engine<'a> {
    index: &'a Index,
    graph: &'a Graph,
    bounds: Option<&'a Bounds>,
    /// fn id → index into `index.files`.
    file_of: Vec<usize>,
    /// Per-file `const NAME: T = literal-expr;` values.
    consts: Vec<BTreeMap<String, AbsVal>>,
    /// Field name → its unique type text across every struct, `None`
    /// when two structs disagree. Names under 4 chars are excluded —
    /// too collision-prone to trust.
    oracle: BTreeMap<String, Option<String>>,
    /// Memoized return values.
    ret_memo: RefCell<BTreeMap<usize, AbsVal>>,
    /// Cycle guard for `ret_of`.
    in_progress: RefCell<BTreeSet<usize>>,
    /// Interprocedural recursion depth.
    depth: RefCell<usize>,
}

impl<'a> Engine<'a> {
    fn new(index: &'a Index, graph: &'a Graph, bounds: Option<&'a Bounds>) -> Engine<'a> {
        let mut file_of = vec![0usize; index.fns.len()];
        for (fi, file) in index.files.iter().enumerate() {
            for &id in &file.fns {
                file_of[id] = fi;
            }
        }
        let mut oracle: BTreeMap<String, Option<String>> = BTreeMap::new();
        for fields in index.structs.values() {
            for (name, ty) in fields {
                if name.len() < 4 {
                    continue;
                }
                match oracle.get(name) {
                    Some(Some(prev)) if prev != ty => {
                        oracle.insert(name.clone(), None);
                    }
                    Some(_) => {}
                    None => {
                        oracle.insert(name.clone(), Some(ty.clone()));
                    }
                }
            }
        }
        let mut engine = Engine {
            index,
            graph,
            bounds,
            file_of,
            consts: Vec::new(),
            oracle,
            ret_memo: RefCell::new(BTreeMap::new()),
            in_progress: RefCell::new(BTreeSet::new()),
            depth: RefCell::new(0),
        };
        engine.consts = engine.scan_consts();
        engine
    }

    /// Scans every file for `const NAME: T = expr;` items and evaluates
    /// the simple ones (literals and arithmetic over earlier consts) so
    /// an item like `const MASK: usize = SIZE - 1;` resolves.
    fn scan_consts(&self) -> Vec<BTreeMap<String, AbsVal>> {
        let mut all = Vec::with_capacity(self.index.files.len());
        for file in &self.index.files {
            let toks = &file.tokens;
            let mut consts: BTreeMap<String, AbsVal> = BTreeMap::new();
            let mut i = 0;
            while i < toks.len() {
                if toks[i].kind == TokKind::Ident
                    && toks[i].text == "const"
                    && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(i + 2).is_some_and(|t| t.text == ":")
                {
                    let name = toks[i + 1].text.clone();
                    // Find `=` then the `;` ending the item (nesting-aware).
                    let eq = (i + 3..toks.len().min(i + 24)).find(|&k| toks[k].text == "=");
                    if let Some(eq) = eq {
                        let end = stmt_end(toks, eq + 1, toks.len());
                        let mut w = Walker::for_consts(self, toks, &consts);
                        let (val, _) = w.expr(&mut BTreeMap::new(), eq + 1, end);
                        consts.insert(name, val);
                        i = end + 1;
                        continue;
                    }
                }
                i += 1;
            }
            all.push(consts);
        }
        all
    }

    /// Abstract value for a declared type text (as normalized by
    /// `index::type_text`).
    fn value_of_type_text(&self, text: &str) -> AbsVal {
        let mut text = text.trim();
        // References and leading lifetimes/`mut` don't change the value
        // abstraction.
        loop {
            if let Some(rest) = text.strip_prefix('&') {
                text = rest.trim_start();
            } else if let Some(rest) = text.strip_prefix("mut ") {
                text = rest.trim_start();
            } else if text.starts_with('\'') {
                match text.find(char::is_whitespace) {
                    Some(sp) => text = text[sp..].trim_start(),
                    None => return AbsVal::default(),
                }
            } else {
                break;
            }
        }
        if text.is_empty() {
            return AbsVal::default();
        }
        if let Some(t) = IntTy::parse(text) {
            return AbsVal::int_full(t);
        }
        if text == "f64" || text == "f32" {
            return AbsVal::float();
        }
        if text == "bool" {
            return AbsVal { ty: Ty::Bool, ..AbsVal::default() };
        }
        if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
            // `[T; N]` fixed array or `[T]` slice.
            if let Some((elem_ty, n)) = inner.rsplit_once(';') {
                let elem = self.value_of_type_text(elem_ty);
                let len = parse_int_literal(n).map(|(v, _)| Interval::exact(v));
                return AbsVal { len, elem: Some(Box::new(elem)), ..AbsVal::default() };
            }
            let elem = self.value_of_type_text(inner);
            return AbsVal {
                len: Some(Interval { lo: Some(0), hi: Some(i64::MAX as i128) }),
                elem: Some(Box::new(elem)),
                ..AbsVal::default()
            };
        }
        if let Some(inner) = text
            .strip_prefix("Vec<")
            .or_else(|| text.strip_prefix("VecDeque<"))
            .and_then(|t| t.strip_suffix('>'))
        {
            let elem = self.value_of_type_text(inner);
            return AbsVal {
                len: Some(Interval { lo: Some(0), hi: Some(i64::MAX as i128) }),
                elem: Some(Box::new(elem)),
                ..AbsVal::default()
            };
        }
        // A bare workspace type name supports field lookups.
        if !text.contains('<') && !text.contains("::") && self.index.structs.contains_key(text) {
            return AbsVal { type_name: Some(text.to_string()), ..AbsVal::default() };
        }
        AbsVal::default()
    }

    /// The field type of `type_name.field`, bounds-refined.
    fn field_val(&self, type_name: &str, field: &str) -> AbsVal {
        let mut val = self
            .index
            .structs
            .get(type_name)
            .and_then(|fields| fields.get(field))
            .map(|ty| self.value_of_type_text(ty))
            .unwrap_or_default();
        if let Some(b) = self.bounds {
            if let Some((lo, hi)) = b.field(type_name, field) {
                val.iv = val.iv.meet(&Interval::new(lo, hi));
            }
        }
        val
    }

    /// The memoized return value of fn `id`: the declared-type template,
    /// refined by evaluating the body when it is a single expression.
    fn ret_of(&self, id: usize) -> AbsVal {
        if let Some(v) = self.ret_memo.borrow().get(&id) {
            return v.clone();
        }
        let item = &self.index.fns[id];
        let template = self.value_of_type_text(&item.ret);
        if self.in_progress.borrow().contains(&id) || *self.depth.borrow() >= RET_DEPTH_CAP {
            return template;
        }
        let refined = self.refine_ret(id, &template).unwrap_or(template);
        self.ret_memo.borrow_mut().insert(id, refined.clone());
        refined
    }

    /// Tail-expression refinement: walks the body and takes the trailing
    /// expression's value. Bodies with an explicit `return` are skipped —
    /// the walk would miss those exit values — as are very large ones.
    fn refine_ret(&self, id: usize, template: &AbsVal) -> Option<AbsVal> {
        let item = &self.index.fns[id];
        if item.body.is_empty() {
            return None;
        }
        let file = &self.index.files[self.file_of[id]];
        let body = &file.tokens[item.body.clone()];
        let single_exit = !body.iter().any(|t| t.kind == TokKind::Ident && t.text == "return");
        if !single_exit || body.len() > 256 {
            return None;
        }
        self.in_progress.borrow_mut().insert(id);
        *self.depth.borrow_mut() += 1;
        let mut w = Walker::for_fn(self, id, BTreeMap::new());
        let mut env = w.seed_env();
        let val = w.walk_block(&mut env, item.body.clone());
        *self.depth.borrow_mut() -= 1;
        self.in_progress.borrow_mut().remove(&id);
        // Meet with the declared template: the body walk may know less
        // (Unknown) or more (literal bounds, tuple/container payloads)
        // than the type.
        let mut out = val;
        if out.ty == Ty::Unknown {
            out.ty = template.ty;
        }
        out.iv = out.iv.meet(&template.iv);
        if out.type_name.is_none() {
            out.type_name = template.type_name.clone();
        }
        Some(out)
    }

    /// Analyzes one fn: walks its body probing every root site, then
    /// falls back to type-only probes for sites the walker missed.
    fn analyze_fn(&self, id: usize) -> FnReport {
        let item = &self.index.fns[id];
        let facts = &self.graph.facts[id];
        let mut report = FnReport::default();
        if item.body.is_empty() || (facts.panics.is_empty() && facts.arith.is_empty()) {
            report.panic = facts.panics.iter().map(|_| SiteProof::open("no body walk")).collect();
            report.arith = facts.arith.iter().map(|_| SiteProof::open("no body walk")).collect();
            return report;
        }
        // Probe map: absolute token index → (kind, site ordinal).
        // Unwrap/expect/panic-macro sites are Open from the start.
        let mut probes: BTreeMap<usize, (SiteKind, usize)> = BTreeMap::new();
        for (ord, site) in facts.panics.iter().enumerate() {
            if site.what.contains("indexing") || site.what.contains("div/rem") {
                probes.insert(item.body.start + site.tok, (SiteKind::Panic, ord));
            }
        }
        for (ord, site) in facts.arith.iter().enumerate() {
            probes.insert(item.body.start + site.tok, (SiteKind::Arith, ord));
        }
        let mut walker = Walker::for_fn(self, id, probes);
        let mut env = walker.seed_env();
        walker.walk_block(&mut env, item.body.clone());
        // Collect proofs; unvisited probed sites get the type-only
        // fallback; unprobeable sites stay Open.
        for (ord, site) in facts.panics.iter().enumerate() {
            let abs = item.body.start + site.tok;
            let proof = if site.what.contains("indexing") || site.what.contains("div/rem") {
                walker
                    .proofs
                    .get(&(SiteKind::Panic, ord))
                    .cloned()
                    .unwrap_or_else(|| walker.fallback_probe(abs, SiteKind::Panic))
            } else {
                SiteProof::open(format!("{} cannot be statically discharged", site.what))
            };
            report.panic.push(proof);
        }
        for (ord, _site) in facts.arith.iter().enumerate() {
            let abs = item.body.start + facts.arith[ord].tok;
            let proof = walker
                .proofs
                .get(&(SiteKind::Arith, ord))
                .cloned()
                .unwrap_or_else(|| walker.fallback_probe(abs, SiteKind::Arith));
            report.arith.push(proof);
        }
        report.casts = walker.casts;
        report
    }
}

/// Statement end: index of the `;` terminating the statement starting at
/// `i`, tracking `()`/`[]`/`{}` nesting (array literals and blocks keep
/// their inner `;`s). Returns `end` when none is found.
fn stmt_end(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut nest = 0i64;
    let mut j = i;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => nest += 1,
            ")" | "]" | "}" => {
                if nest == 0 {
                    return j;
                }
                nest -= 1;
            }
            ";" if nest == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Parses an integer literal token text (`1_000u64`, `0xFF`, `24`);
/// returns the value and the explicit suffix type, if any. `None` for
/// floats.
fn parse_int_literal(text: &str) -> Option<(i128, Option<IntTy>)> {
    let text = text.trim();
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if cleaned.contains('.') {
        return None;
    }
    // Split off a type suffix.
    let (digits, suffix) = match cleaned.find(['u', 'i']) {
        // Hex digits can't contain u/i... except hex has no 'u'/'i'
        // digits, so the first occurrence is the suffix (0x prefix's 'x'
        // is ruled out below).
        Some(pos) if pos > 0 => (&cleaned[..pos], IntTy::parse(&cleaned[pos..])),
        _ => (cleaned.as_str(), None),
    };
    if digits.ends_with('e') || digits.ends_with('E') {
        return None; // float exponent split oddly
    }
    let value = if let Some(hex) = digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        i128::from_str_radix(hex, 16).ok()?
    } else if let Some(oct) = digits.strip_prefix("0o") {
        i128::from_str_radix(oct, 8).ok()?
    } else if let Some(bin) = digits.strip_prefix("0b") {
        i128::from_str_radix(bin, 2).ok()?
    } else {
        // Scientific notation (`1e9`) and stray alpha reject here.
        digits.parse::<i128>().ok()?
    };
    Some((value, suffix))
}

/// True when a numeric literal token is a float (`1.5`, `2e3`, `1f64`).
fn is_float_literal(text: &str) -> bool {
    if text.contains('.') || text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    // A bare exponent (`1e9`) — but `0usize` / `27u64` also contain an
    // `e` inside their *suffix*, so the exponent must directly follow a
    // digit or `_` and be followed by digits/sign only.
    text.char_indices().any(|(i, c)| {
        (c == 'e' || c == 'E')
            && text[..i].chars().next_back().is_some_and(|p| p.is_ascii_digit() || p == '_')
            && !text[..i].contains(|c: char| c.is_ascii_alphabetic() && c != 'e' && c != 'E')
            && text[i + 1..].chars().all(|n| n.is_ascii_digit() || n == '+' || n == '-' || n == '_')
            && text[i + 1..].chars().any(|n| n.is_ascii_digit())
    })
}

/// Methods std floats have and integers do not — a call to one types the
/// receiver as float.
const FLOAT_ONLY_METHODS: [&str; 31] = [
    "ln",
    "log2",
    "log10",
    "ln_1p",
    "exp",
    "exp2",
    "exp_m1",
    "sqrt",
    "cbrt",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "powf",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "recip",
    "to_degrees",
    "to_radians",
    "hypot",
    "copysign",
    "mul_add",
];

/// Container methods that mutate the receiver — length/element knowledge
/// must be dropped when one is seen.
const MUTATOR_METHODS: [&str; 14] = [
    "push",
    "pop",
    "clear",
    "truncate",
    "resize",
    "extend",
    "insert",
    "remove",
    "retain",
    "drain",
    "append",
    "split_off",
    "push_str",
    "sort",
];

/// The abstract environment: binding name → value.
type Env = BTreeMap<String, AbsVal>;

/// One fn-body abstract walk.
struct Walker<'e, 'a> {
    eng: &'e Engine<'a>,
    /// The whole file token stream (indices are absolute).
    toks: &'e [Tok],
    /// Per-file const values.
    consts: &'e BTreeMap<String, AbsVal>,
    /// fn id being walked (usize::MAX for const evaluation).
    fn_id: usize,
    /// Probe sites: absolute token index → (kind, site ordinal).
    probe_sites: BTreeMap<usize, (SiteKind, usize)>,
    /// Collected proofs, merged across multiple visits.
    proofs: BTreeMap<(SiteKind, usize), SiteProof>,
    /// Narrowing-cast risks.
    casts: Vec<CastRisk>,
    /// call-site token index → candidate callee fn ids.
    call_at: BTreeMap<usize, Vec<usize>>,
}

impl<'e, 'a> Walker<'e, 'a> {
    fn for_fn(
        eng: &'e Engine<'a>,
        fn_id: usize,
        probe_sites: BTreeMap<usize, (SiteKind, usize)>,
    ) -> Walker<'e, 'a> {
        let file = &eng.index.files[eng.file_of[fn_id]];
        let mut call_at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (&callee, sites) in &eng.graph.facts[fn_id].call_sites {
            for &site in sites {
                call_at.entry(site).or_default().push(callee);
            }
        }
        Walker {
            eng,
            toks: &file.tokens,
            consts: &eng.consts[eng.file_of[fn_id]],
            fn_id,
            probe_sites,
            proofs: BTreeMap::new(),
            casts: Vec::new(),
            call_at,
        }
    }

    /// A minimal walker for const-expression evaluation (no fn context;
    /// `consts` holds the file's earlier consts). Used before
    /// `Engine::consts` is populated, hence the explicit map.
    fn for_consts(
        eng: &'e Engine<'a>,
        toks: &'e [Tok],
        consts: &'e BTreeMap<String, AbsVal>,
    ) -> Walker<'e, 'a> {
        Walker {
            eng,
            toks,
            consts,
            fn_id: usize::MAX,
            probe_sites: BTreeMap::new(),
            proofs: BTreeMap::new(),
            casts: Vec::new(),
            call_at: BTreeMap::new(),
        }
    }

    fn item(&self) -> &FnItem {
        &self.eng.index.fns[self.fn_id]
    }

    /// Parameter-seeded environment (types + trusted bounds).
    fn seed_env(&self) -> Env {
        let mut env = Env::new();
        let item = self.item();
        for p in &item.params {
            let mut val = if p.name == "self" {
                AbsVal { type_name: item.self_type.clone(), ..AbsVal::default() }
            } else {
                self.eng.value_of_type_text(&p.ty)
            };
            if let Some(b) = self.eng.bounds {
                if let Some((lo, hi)) = b.param(&item.qname, &p.name) {
                    val.iv = val.iv.meet(&Interval::new(lo, hi));
                }
            }
            env.insert(p.name.clone(), val);
        }
        env
    }

    /// Walks statements in `range`; returns the trailing-expression
    /// value (unit/Unknown when the block ends with a `;`).
    fn walk_block(&mut self, env: &mut Env, range: Range<usize>) -> AbsVal {
        let mut last = AbsVal::default();
        let mut i = range.start;
        while i < range.end {
            let tok = &self.toks[i];
            if tok.in_test || tok.text == ";" {
                i += 1;
                last = AbsVal::default();
                continue;
            }
            if tok.kind == TokKind::Ident && tok.text == "let" {
                i = self.walk_let(env, i, range.end);
                last = AbsVal::default();
                continue;
            }
            // Assignment statement (`x = e`, `x += e`, `a.b[i] -= e`, `*p = e`)?
            if let Some(next) = self.try_assignment(env, i, range.end) {
                i = next;
                last = AbsVal::default();
                continue;
            }
            // Expression statement (incl. `if`/`match`/loops/calls).
            let (val, next) = self.expr(env, i, range.end);
            last = val;
            if next <= i {
                // The parser could not consume anything: skip to the
                // next statement boundary to guarantee progress.
                i = stmt_end(self.toks, i + 1, range.end) + 1;
                last = AbsVal::default();
            } else {
                i = next;
            }
        }
        last
    }

    /// Walks a `let` statement starting at the `let` keyword; returns
    /// the index past the terminating `;`.
    fn walk_let(&mut self, env: &mut Env, let_i: usize, end: usize) -> usize {
        let stmt_close = stmt_end(self.toks, let_i + 1, end);
        // Pattern: tokens up to the `=` (or `:` first) at nesting 0.
        let mut nest = 0i64;
        let mut eq = None;
        let mut colon = None;
        for j in let_i + 1..stmt_close {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" | "<" => nest += 1,
                ")" | "]" | "}" | ">" => nest -= 1,
                ":" if nest == 0 && colon.is_none() => colon = Some(j),
                "=" if nest == 0 => {
                    // `==`/`=>`/`<=`... can't appear at nesting 0 before
                    // the initializer; `=` is the binder.
                    eq = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let pat_end =
            eq.or(Some(stmt_close)).map(|e| colon.unwrap_or(e).min(e)).unwrap_or(stmt_close);
        // Collect pattern idents (skipping `mut`, `ref`, `_`).
        let mut idents: Vec<String> = Vec::new();
        let mut tuple_pat = false;
        for j in let_i + 1..pat_end {
            let t = &self.toks[j];
            if t.text == "(" || t.text == "," {
                tuple_pat = t.text == "(" && j == let_i + 1 || tuple_pat;
            }
            if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "_") {
                idents.push(t.text.clone());
            }
        }
        // Declared type (between `:` and `=`), if simple.
        let decl = colon.filter(|&c| eq.is_none_or(|e| c < e)).map(|c| {
            let ty_end = eq.unwrap_or(stmt_close);
            let text = crate::index::type_text_of(self.toks, c + 1..ty_end);
            self.eng.value_of_type_text(&text)
        });
        let init = eq.map(|e| self.expr(env, e + 1, stmt_close).0);
        match (idents.len(), tuple_pat, init) {
            (1, false, Some(mut val)) => {
                if let Some(d) = &decl {
                    if val.ty == Ty::Unknown && d.ty != Ty::Unknown {
                        val.ty = d.ty;
                        val.iv = val.iv.meet(&d.iv);
                    }
                    if val.type_name.is_none() {
                        val.type_name = d.type_name.clone();
                    }
                }
                env.insert(idents.remove(0), val);
            }
            (1, false, None) => {
                env.insert(idents.remove(0), decl.unwrap_or_default());
            }
            (n, true, Some(val)) if n > 0 => {
                // Tuple destructuring: element-wise when arity matches.
                match &val.tuple {
                    Some(elems) if elems.len() == n => {
                        for (name, v) in idents.into_iter().zip(elems.clone()) {
                            env.insert(name, v);
                        }
                    }
                    _ => {
                        for name in idents {
                            env.insert(name, AbsVal::default());
                        }
                    }
                }
            }
            (_, _, _) => {
                // `let Some(x) = ..` / `let Ok(..) = ..` and friends:
                // bind every pattern ident opaquely.
                for name in idents {
                    env.insert(name, AbsVal::default());
                }
            }
        }
        stmt_close + 1
    }

    /// Recognizes an assignment statement at `i`; handles it and returns
    /// the index past its `;`, or `None` when `i` is not an assignment.
    /// Shape: `*`* ident (`.` ident | `.` num)* (`[` idx `]`)? (= | op=).
    fn try_assignment(&mut self, env: &mut Env, i: usize, end: usize) -> Option<usize> {
        let mut j = i;
        while self.toks.get(j).filter(|t| t.text == "*").is_some() {
            j += 1;
        }
        let root =
            self.toks.get(j).filter(|t| t.kind == TokKind::Ident && !is_stmt_keyword(&t.text))?;
        let root_name = root.text.clone();
        j += 1;
        let mut chain: Vec<String> = Vec::new();
        loop {
            if self.toks.get(j).is_some_and(|t| t.text == ".")
                && self.toks.get(j + 1).is_some_and(|t| {
                    matches!(t.kind, TokKind::Ident | TokKind::Num)
                        // A method call is not an assignment target.
                        && self.toks.get(j + 2).is_none_or(|t2| t2.text != "(")
                })
            {
                chain.push(self.toks[j + 1].text.clone());
                j += 2;
                continue;
            }
            break;
        }
        // Optional one `[ idx ]` group.
        let mut idx_span: Option<Range<usize>> = None;
        if self.toks.get(j).is_some_and(|t| t.text == "[") {
            let close = matching_close(self.toks, j, end)?;
            idx_span = Some(j..close + 1);
            j = close + 1;
        }
        // The operator.
        let op = self.toks.get(j)?;
        let (op_tok, op_text, rhs_at) = match op.text.as_str() {
            "=" if self.toks.get(j + 1).is_none_or(|t| t.text != "=") => (None, "=", j + 1),
            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
                if self.toks.get(j + 1).is_some_and(|t| t.text == "=") =>
            {
                (Some(j), op.text.as_str(), j + 2)
            }
            "<" | ">"
                if self.toks.get(j + 1).is_some_and(|t| t.text == op.text)
                    && self.toks.get(j + 2).is_some_and(|t| t.text == "=") =>
            {
                (Some(j), "shift", j + 3)
            }
            _ => return None,
        };
        let op_text = op_text.to_string();
        // Resolve the target's current value (for compound probing).
        let mut lhs = env.get(&root_name).cloned().unwrap_or_else(|| {
            if root_name == "self" {
                AbsVal { type_name: self.item_self_type(), ..AbsVal::default() }
            } else {
                self.oracle_val(&root_name)
            }
        });
        for part in &chain {
            lhs = match &lhs.type_name {
                Some(tn) => self.eng.field_val(tn, part),
                None => self.oracle_val(part),
            };
        }
        if let Some(span) = idx_span.clone() {
            // Probe the indexing site, then descend to the element.
            let (idx_val, _) = self.expr(env, span.start + 1, span.end - 1);
            self.probe_index(span.start, &lhs, &idx_val);
            lhs = lhs.elem.as_deref().cloned().unwrap_or_default();
        }
        let stmt_close = stmt_end(self.toks, rhs_at, end);
        let (rhs, _) = self.expr(env, rhs_at, stmt_close);
        let new_val = match (op_tok, op_text.as_str()) {
            (None, _) => rhs,
            (Some(oi), "+") | (Some(oi), "-") | (Some(oi), "*") => {
                self.probe_arith(oi, &op_text, &lhs, &rhs)
            }
            (Some(oi), "/") | (Some(oi), "%") => self.probe_div(oi, &op_text, &lhs, &rhs),
            (Some(_), _) => {
                // Bit ops / shifts: result stays within the type.
                let mut v = lhs.clone();
                v.havoc();
                v
            }
        };
        // Update: plain ident gets the new value; field / indexed /
        // deref targets havoc the root binding's precision instead.
        if chain.is_empty() && idx_span.is_none() && i == j - 1 {
            env.insert(root_name, new_val);
        } else if let Some(v) = env.get_mut(&root_name) {
            match (&idx_span, &mut v.elem) {
                (Some(_), Some(e)) => {
                    let joined = e.join(&new_val);
                    **e = joined;
                }
                _ => v.havoc(),
            }
        }
        Some(stmt_close + 1)
    }

    fn item_self_type(&self) -> Option<String> {
        (self.fn_id != usize::MAX).then(|| self.item().self_type.clone()).flatten()
    }

    /// Field-oracle value for an unbound ident: when the name uniquely
    /// identifies a struct field's type across the workspace, trust that
    /// type (never its bounds). Heuristic — documented in DESIGN.md.
    fn oracle_val(&self, name: &str) -> AbsVal {
        match self.eng.oracle.get(name) {
            Some(Some(ty)) => {
                let mut v = self.eng.value_of_type_text(ty);
                // Types only: an oracle hit must not import value bounds
                // because the binding's provenance is unknown.
                if let Ty::Int(t) = v.ty {
                    v.iv = t.range();
                }
                v
            }
            _ => AbsVal::default(),
        }
    }

    /// Havocs every binding that tokens in `range` may assign or mutate:
    /// `x = ..`, `x op= ..`, `x.method(..)` for known mutators, and
    /// `&mut x`. This is the loop-widening step — applied *before* the
    /// body is walked, making one walk sound for any iteration count.
    fn havoc_assigned(&self, env: &mut Env, range: Range<usize>) {
        let mut to_havoc: BTreeSet<String> = BTreeSet::new();
        let mut j = range.start;
        while j < range.end {
            let t = &self.toks[j];
            if t.kind == TokKind::Ident && env.contains_key(&t.text) {
                let name = &t.text;
                // Direct or compound assignment right after the ident
                // (or after a field/index chain rooted at it).
                let mut k = j + 1;
                loop {
                    match self.toks.get(k).map(|t| t.text.as_str()) {
                        Some(".") => {
                            if self
                                .toks
                                .get(k + 1)
                                .is_some_and(|t| MUTATOR_METHODS.contains(&t.text.as_str()))
                                && self.toks.get(k + 2).is_some_and(|t| t.text == "(")
                            {
                                to_havoc.insert(name.clone());
                                break;
                            }
                            k += 2;
                        }
                        Some("[") => match matching_close(self.toks, k, range.end) {
                            Some(c) => k = c + 1,
                            None => break,
                        },
                        Some("=") if self.toks.get(k + 1).is_none_or(|t| t.text != "=") => {
                            to_havoc.insert(name.clone());
                            break;
                        }
                        Some("+") | Some("-") | Some("*") | Some("/") | Some("%") | Some("&")
                        | Some("|") | Some("^")
                            if self.toks.get(k + 1).is_some_and(|t| t.text == "=") =>
                        {
                            to_havoc.insert(name.clone());
                            break;
                        }
                        _ => break,
                    }
                }
                // `&mut x` anywhere.
                if j >= 2 && self.toks[j - 1].text == "mut" && self.toks[j - 2].text == "&" {
                    to_havoc.insert(name.clone());
                }
            }
            j += 1;
        }
        for name in to_havoc {
            if let Some(v) = env.get_mut(&name) {
                v.havoc();
            }
        }
    }
}

/// Keywords that cannot start an assignment target.
fn is_stmt_keyword(text: &str) -> bool {
    matches!(
        text,
        "let"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "struct"
            | "enum"
            | "impl"
            | "use"
            | "mod"
            | "const"
            | "static"
            | "unsafe"
            | "move"
            | "mut"
            | "ref"
            | "pub"
            | "trait"
            | "type"
            | "where"
            | "as"
            | "in"
    )
}

/// Index of the `)`/`]`/`}` matching the opener at `open` (nesting-aware
/// across all three bracket kinds), bounded by `end`.
fn matching_close(toks: &[Tok], open: usize, end: usize) -> Option<usize> {
    let mut nest = 0i64;
    let mut j = open;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => nest += 1,
            ")" | "]" | "}" => {
                nest -= 1;
                if nest == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Scans forward from `from` for a block-opening `{`, skipping `()` and
/// `[]` groups (the `loop_body` idiom from `source::find_loops`).
fn find_open_brace(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut group = 0i64;
    let mut j = from;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" => group += 1,
            ")" | "]" => group -= 1,
            "{" if group == 0 => return Some(j),
            ";" | "}" if group == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

impl<'e, 'a> Walker<'e, 'a> {
    /// Evaluates the expression starting at `i`, bounded by `end`.
    /// Returns the value and the index just past what was consumed.
    fn expr(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        self.expr_bp(env, i, end, 0)
    }

    /// Pratt parser over the token stream. `min_bp` is the minimum left
    /// binding power an operator needs to extend the expression.
    fn expr_bp(&mut self, env: &mut Env, i: usize, end: usize, min_bp: u8) -> (AbsVal, usize) {
        let (mut lhs, mut pos) = self.primary(env, i, end);
        if pos <= i {
            return (AbsVal::default(), i);
        }
        while pos < end {
            let Some((op, op_len, l_bp, r_bp)) = peek_op(self.toks, pos, end) else { break };
            if l_bp < min_bp {
                break;
            }
            if op == "as" {
                let (val, next) = self.apply_cast(pos, &lhs, env, end);
                lhs = val;
                pos = next;
                continue;
            }
            let op_i = pos;
            let (rhs, next) = self.expr_bp(env, pos + op_len, end, r_bp);
            let rhs_parsed = next > pos + op_len;
            pos = if rhs_parsed { next } else { pos + op_len };
            lhs = self.apply_binop(env, op_i, &op, &lhs, &rhs);
            if !rhs_parsed && !matches!(op.as_str(), ".." | "..=") {
                break; // malformed tail; stop extending
            }
        }
        (lhs, pos)
    }

    /// Applies one binary operator, probing when `op_i` is a root site.
    fn apply_binop(
        &mut self,
        _env: &mut Env,
        op_i: usize,
        op: &str,
        lhs: &AbsVal,
        rhs: &AbsVal,
    ) -> AbsVal {
        match op {
            ".." | "..=" => {
                let hi = if op == ".." { sub_opt(rhs.iv.hi, Some(1)) } else { rhs.iv.hi };
                let ty = if lhs.ty != Ty::Unknown { lhs.ty } else { rhs.ty };
                AbsVal {
                    ty,
                    iv: Interval { lo: lhs.iv.lo, hi },
                    is_range: true,
                    ..AbsVal::default()
                }
            }
            "||" | "&&" | "==" | "!=" | "<" | ">" | "<=" | ">=" => {
                AbsVal { ty: Ty::Bool, ..AbsVal::default() }
            }
            "+" | "-" | "*" => self.probe_arith(op_i, op, lhs, rhs),
            "/" | "%" => self.probe_div(op_i, op, lhs, rhs),
            "&" => {
                // Nonnegative masking: `x & MASK` is bounded by both
                // operands' upper ends.
                let nonneg = |v: &AbsVal| v.iv.lo.is_some_and(|l| l >= 0);
                if nonneg(lhs) || nonneg(rhs) {
                    let hi = match (lhs.iv.hi, rhs.iv.hi, nonneg(lhs), nonneg(rhs)) {
                        (Some(a), Some(b), true, true) => Some(a.min(b)),
                        (_, Some(b), _, true) => Some(b),
                        (Some(a), _, true, _) => Some(a),
                        _ => None,
                    };
                    AbsVal {
                        ty: merge_int_ty(lhs, rhs),
                        iv: Interval { lo: Some(0), hi },
                        ..AbsVal::default()
                    }
                } else {
                    AbsVal { ty: merge_int_ty(lhs, rhs), ..AbsVal::default() }
                }
            }
            "|" | "^" => {
                let ty = merge_int_ty(lhs, rhs);
                let iv = match ty {
                    Ty::Int(t) => t.range(),
                    _ => Interval::full(),
                };
                AbsVal { ty, iv, ..AbsVal::default() }
            }
            "<<" => {
                let ty = merge_int_ty(lhs, rhs);
                let iv = match ty {
                    Ty::Int(t) => t.range(),
                    _ => Interval::full(),
                };
                AbsVal { ty, iv, ..AbsVal::default() }
            }
            ">>" => {
                if lhs.iv.lo.is_some_and(|l| l >= 0) {
                    AbsVal {
                        ty: merge_int_ty(lhs, rhs),
                        iv: Interval { lo: Some(0), hi: lhs.iv.hi },
                        ..AbsVal::default()
                    }
                } else {
                    AbsVal { ty: merge_int_ty(lhs, rhs), ..AbsVal::default() }
                }
            }
            _ => AbsVal::default(),
        }
    }

    /// `expr as Type`: returns the cast value and the index past the
    /// target type, recording a cast risk for provable narrowing.
    fn apply_cast(
        &mut self,
        as_i: usize,
        val: &AbsVal,
        _env: &mut Env,
        end: usize,
    ) -> (AbsVal, usize) {
        let Some(target) =
            self.toks.get(as_i + 1).filter(|t| t.kind == TokKind::Ident && as_i + 1 < end)
        else {
            return (AbsVal::default(), as_i + 1);
        };
        let text = target.text.clone();
        let line = target.line;
        let next = as_i + 2;
        if text == "f64" || text == "f32" {
            return (AbsVal::float(), next);
        }
        let Some(t) = IntTy::parse(&text) else {
            return (AbsVal::default(), next);
        };
        let range = t.range();
        if val.ty == Ty::Float {
            // `as` from float saturates at the target bounds.
            return (AbsVal::int(t, range), next);
        }
        if val.iv.within(&range) {
            return (AbsVal::int(t, val.iv), next);
        }
        // `as` between integers wraps (no trap), but a bounded source
        // interval provably exceeding the target is worth flagging when
        // the source carries real knowledge, not just its type range.
        let src_tight = match val.ty {
            Ty::Int(s) => val.iv != s.range(),
            _ => true,
        };
        if val.iv.is_bounded() && src_tight && matches!(val.ty, Ty::Int(_)) {
            self.casts.push(CastRisk {
                line,
                what: format!("as {text}"),
                chain: vec![
                    format!("source ∈ {} ({})", val.iv, val.describe()),
                    format!("target {text} holds {range} — cast can wrap"),
                ],
            });
        }
        (AbsVal::int(t, range), next)
    }

    /// Primary expression at `i`: literal, ident/path/call/macro,
    /// parenthesized/tuple, array, closure, unary op, `if`/`match`/loop.
    fn primary(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        if i >= end {
            return (AbsVal::default(), i);
        }
        let tok = &self.toks[i];
        match tok.kind {
            TokKind::Num => {
                let val = num_literal_val(&tok.text);
                self.postfix(env, val, i + 1, end, None)
            }
            TokKind::Lit => self.postfix(env, AbsVal::default(), i + 1, end, None),
            TokKind::Lifetime => (AbsVal::default(), i),
            TokKind::Ident => self.primary_ident(env, i, end),
            TokKind::Punct => match tok.text.as_str() {
                "(" => {
                    let Some(close) = matching_close(self.toks, i, end) else {
                        return (AbsVal::default(), i);
                    };
                    let parts = split_commas(self.toks, i + 1, close);
                    let mut vals: Vec<AbsVal> = Vec::new();
                    for r in &parts {
                        vals.push(self.expr(env, r.start, r.end).0);
                    }
                    let val = if vals.len() == 1 {
                        vals.pop().unwrap_or_default()
                    } else {
                        AbsVal { tuple: Some(vals), ..AbsVal::default() }
                    };
                    self.postfix(env, val, close + 1, end, None)
                }
                "[" => {
                    let Some(close) = matching_close(self.toks, i, end) else {
                        return (AbsVal::default(), i);
                    };
                    let val = self.array_literal(env, i + 1, close);
                    self.postfix(env, val, close + 1, end, None)
                }
                "-" => {
                    let (v, next) = self.expr_bp(env, i + 1, end, 22);
                    let mut out = v.clone();
                    out.iv = v.iv.neg();
                    out.is_range = false;
                    (out, next)
                }
                "!" => self.expr_bp(env, i + 1, end, 22),
                "*" => self.expr_bp(env, i + 1, end, 22),
                "&" => {
                    let mut j = i + 1;
                    let mut is_mut = false;
                    if self.toks.get(j).is_some_and(|t| t.text == "mut") {
                        is_mut = true;
                        j += 1;
                    }
                    let (v, next) = self.expr_bp(env, j, end, 22);
                    if is_mut {
                        // `&mut x` hands out write access: havoc the
                        // binding it names, conservatively.
                        if let Some(name) = self
                            .toks
                            .get(j)
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone())
                        {
                            if let Some(b) = env.get_mut(&name) {
                                b.havoc();
                            }
                        }
                    }
                    (v, next)
                }
                "." => {
                    // Open range `..x` / `..=x` in index/slice position.
                    if self.toks.get(i + 1).is_some_and(|t| t.text == ".") {
                        let mut j = i + 2;
                        if self.toks.get(j).is_some_and(|t| t.text == "=") {
                            j += 1;
                        }
                        let (v, next) = self.expr_bp(env, j, end, 2);
                        let consumed = if next > j { next } else { j };
                        return (
                            AbsVal {
                                iv: Interval { lo: None, hi: v.iv.hi },
                                is_range: true,
                                ..AbsVal::default()
                            },
                            consumed,
                        );
                    }
                    (AbsVal::default(), i)
                }
                "|" => self.closure(env, i, end),
                "{" => {
                    let Some(close) = matching_close(self.toks, i, end) else {
                        return (AbsVal::default(), i);
                    };
                    let val = self.walk_block(env, i + 1..close);
                    (val, close + 1)
                }
                _ => (AbsVal::default(), i),
            },
        }
    }

    /// `[a, b, c]` or `[x; n]` between `start..close`.
    fn array_literal(&mut self, env: &mut Env, start: usize, close: usize) -> AbsVal {
        // `[x; n]`: a `;` at nesting 0 splits element and count.
        let mut nest = 0i64;
        for j in start..close {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => nest += 1,
                ")" | "]" | "}" => nest -= 1,
                ";" if nest == 0 => {
                    let elem = self.expr(env, start, j).0;
                    let (n, _) = self.expr(env, j + 1, close);
                    return AbsVal {
                        len: Some(Interval {
                            lo: n.iv.lo.filter(|&l| l >= 0).or(Some(0)),
                            hi: n.iv.hi,
                        }),
                        elem: Some(Box::new(elem)),
                        ..AbsVal::default()
                    };
                }
                _ => {}
            }
        }
        let parts = split_commas(self.toks, start, close);
        let mut elem: Option<AbsVal> = None;
        let mut count = 0i128;
        for r in &parts {
            if r.start >= r.end {
                continue;
            }
            let v = self.expr(env, r.start, r.end).0;
            elem = Some(match elem {
                Some(e) => e.join(&v),
                None => v,
            });
            count += 1;
        }
        AbsVal { len: Some(Interval::exact(count)), elem: elem.map(Box::new), ..AbsVal::default() }
    }

    /// Closure `|params| body` / `||` body: params bind opaquely, the
    /// body is walked (for probes), the closure value itself is opaque.
    fn closure(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let mut j = i + 1;
        if self.toks.get(i).is_some_and(|t| t.text == "|") {
            // Find the closing `|` of the parameter list on this nesting
            // level (params contain no `|`).
            while j < end && self.toks[j].text != "|" {
                if self.toks[j].kind == TokKind::Ident
                    && !matches!(self.toks[j].text.as_str(), "mut" | "ref" | "_")
                    && self.toks.get(j.wrapping_sub(1)).is_none_or(|t| t.text != ":")
                {
                    // Only bind pattern idents, not type annotations.
                    if self.toks.get(j + 1).is_none_or(|t| t.text != "::") {
                        env.insert(self.toks[j].text.clone(), AbsVal::default());
                    }
                }
                j += 1;
            }
            j += 1; // past closing `|`
        }
        if self.toks.get(j).is_some_and(|t| t.text == "{") {
            let Some(close) = matching_close(self.toks, j, end) else {
                return (AbsVal::default(), j);
            };
            self.walk_block(env, j + 1..close);
            (AbsVal::default(), close + 1)
        } else {
            let (_, next) = self.expr_bp(env, j, end, 2);
            (AbsVal::default(), next.max(j))
        }
    }
}

/// Joins the integer types of two operands (same-type binary ops).
fn merge_int_ty(a: &AbsVal, b: &AbsVal) -> Ty {
    match (a.ty, b.ty) {
        (Ty::Int(t), _) => Ty::Int(t),
        (_, Ty::Int(t)) => Ty::Int(t),
        _ => Ty::Unknown,
    }
}

/// The value of a numeric literal token.
fn num_literal_val(text: &str) -> AbsVal {
    if is_float_literal(text) {
        return AbsVal::float();
    }
    match parse_int_literal(text) {
        Some((v, Some(t))) => AbsVal::int(t, Interval::exact(v)),
        Some((v, None)) => AbsVal { iv: Interval::exact(v), ..AbsVal::default() },
        None => AbsVal::default(),
    }
}

/// Splits `start..close` at top-level commas.
fn split_commas(toks: &[Tok], start: usize, close: usize) -> Vec<Range<usize>> {
    let mut parts = Vec::new();
    let mut nest = 0i64;
    let mut s = start;
    for (j, tok) in toks.iter().enumerate().take(close).skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => nest += 1,
            ")" | "]" | "}" => nest -= 1,
            "," if nest == 0 => {
                parts.push(s..j);
                s = j + 1;
            }
            _ => {}
        }
    }
    if s < close || parts.is_empty() {
        parts.push(s..close);
    }
    parts
}

/// The binary operator starting at `pos`, if any: (text, token count,
/// left bp, right bp). Multi-char operators are assembled from the
/// single-char puncts the lexer emits.
fn peek_op(toks: &[Tok], pos: usize, end: usize) -> Option<(String, usize, u8, u8)> {
    let t = toks.get(pos).filter(|_| pos < end)?;
    if t.kind == TokKind::Ident {
        return (t.text == "as").then(|| ("as".to_string(), 1, 21, 22));
    }
    if t.kind != TokKind::Punct {
        return None;
    }
    let nxt = |k: usize| toks.get(pos + k).filter(|_| pos + k < end).map(|t| t.text.as_str());
    let two = |b: &str| nxt(1) == Some(b);
    Some(match t.text.as_str() {
        "." if two(".") => {
            if nxt(2) == Some("=") {
                ("..=".to_string(), 3, 1, 2)
            } else {
                ("..".to_string(), 2, 1, 2)
            }
        }
        "|" if two("|") => ("||".to_string(), 2, 3, 4),
        "&" if two("&") => ("&&".to_string(), 2, 5, 6),
        "=" if two("=") => ("==".to_string(), 2, 7, 8),
        "!" if two("=") => ("!=".to_string(), 2, 7, 8),
        "<" if two("=") => ("<=".to_string(), 2, 7, 8),
        ">" if two("=") => (">=".to_string(), 2, 7, 8),
        "<" if two("<") => ("<<".to_string(), 2, 15, 16),
        ">" if two(">") => (">>".to_string(), 2, 15, 16),
        "<" => ("<".to_string(), 1, 7, 8),
        ">" => (">".to_string(), 1, 7, 8),
        "|" => ("|".to_string(), 1, 9, 10),
        "^" => ("^".to_string(), 1, 11, 12),
        "&" => ("&".to_string(), 1, 13, 14),
        "+" => ("+".to_string(), 1, 17, 18),
        "-" => ("-".to_string(), 1, 17, 18),
        "*" => ("*".to_string(), 1, 19, 20),
        "/" => ("/".to_string(), 1, 19, 20),
        "%" => ("%".to_string(), 1, 19, 20),
        _ => return None,
    })
}

impl<'e, 'a> Walker<'e, 'a> {
    /// Primary starting with an identifier: keyword expressions, macro
    /// invocations, paths, calls, struct literals, plain bindings.
    fn primary_ident(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let text = self.toks[i].text.clone();
        match text.as_str() {
            "if" => return self.if_expr(env, i, end),
            "match" => return self.match_expr(env, i, end),
            "for" | "while" | "loop" => return self.loop_expr(env, i, end),
            "return" | "break" => {
                let j = i + 1;
                if self.toks.get(j).is_some_and(|t| !matches!(t.text.as_str(), ";" | "}" | ",")) {
                    let (_, next) = self.expr(env, j, end);
                    return (AbsVal::default(), next.max(j));
                }
                return (AbsVal::default(), j);
            }
            "continue" => return (AbsVal::default(), i + 1),
            "unsafe" => {
                if self.toks.get(i + 1).is_some_and(|t| t.text == "{") {
                    let Some(close) = matching_close(self.toks, i + 1, end) else {
                        return (AbsVal::default(), i + 1);
                    };
                    let val = self.walk_block(env, i + 2..close);
                    return self.postfix(env, val, close + 1, end, None);
                }
                return (AbsVal::default(), i + 1);
            }
            "move" => return self.closure(env, i + 1, end),
            "true" | "false" => {
                return self.postfix(
                    env,
                    AbsVal { ty: Ty::Bool, ..AbsVal::default() },
                    i + 1,
                    end,
                    None,
                )
            }
            _ => {}
        }
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`.
        if self.toks.get(i + 1).is_some_and(|t| t.text == "!")
            && self.toks.get(i + 2).is_some_and(|t| matches!(t.text.as_str(), "(" | "[" | "{"))
        {
            return self.macro_call(env, i, end);
        }
        // Path `seg::seg::..`.
        if self.toks.get(i + 1).is_some_and(|t| t.text == "::") {
            return self.path_expr(env, i, end);
        }
        // Call `name(..)`.
        if self.toks.get(i + 1).is_some_and(|t| t.text == "(") {
            let Some(close) = matching_close(self.toks, i + 1, end) else {
                return (AbsVal::default(), i + 1);
            };
            let args = self.eval_args(env, i + 1, close);
            let val = self.call_result(i, &text, &args);
            return self.postfix(env, val, close + 1, end, None);
        }
        // Struct literal `Name { field: expr, .. }`.
        if self.toks.get(i + 1).is_some_and(|t| t.text == "{")
            && text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && self.eng.index.structs.contains_key(&text)
        {
            let Some(close) = matching_close(self.toks, i + 1, end) else {
                return (AbsVal::default(), i + 1);
            };
            // Evaluate field initializers for their probes.
            for part in split_commas(self.toks, i + 2, close) {
                let colon = (part.start..part.end).find(|&k| self.toks[k].text == ":");
                let s = colon.map_or(part.start, |c| c + 1);
                if s < part.end {
                    self.expr(env, s, part.end);
                }
            }
            let val = AbsVal { type_name: Some(text), ..AbsVal::default() };
            return self.postfix(env, val, close + 1, end, None);
        }
        // Plain binding.
        let val = if let Some(v) = env.get(&text) {
            v.clone()
        } else if text == "self" {
            AbsVal { type_name: self.item_self_type(), ..AbsVal::default() }
        } else if let Some(v) = self.consts.get(&text) {
            v.clone()
        } else {
            AbsVal::default()
        };
        let root = env.contains_key(&text).then_some(text);
        self.postfix(env, val, i + 1, end, root)
    }

    /// `if [let pat =] cond { .. } [else ..]` as an expression: walks
    /// both arms on cloned environments and joins.
    fn if_expr(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let mut cond_start = i + 1;
        let mut let_idents: Vec<String> = Vec::new();
        if self.toks.get(cond_start).is_some_and(|t| t.text == "let") {
            // `if let PAT = expr` — bind pattern idents opaquely.
            let eq = (cond_start + 1..end).find(|&k| {
                self.toks[k].text == "=" && self.toks.get(k + 1).is_none_or(|t| t.text != "=")
            });
            if let Some(eq) = eq {
                for k in cond_start + 1..eq {
                    let t = &self.toks[k];
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                        && !t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    {
                        let_idents.push(t.text.clone());
                    }
                }
                cond_start = eq + 1;
            }
        }
        let Some(open) = find_open_brace(self.toks, cond_start, end) else {
            return (AbsVal::default(), i + 1);
        };
        self.expr(env, cond_start, open);
        let Some(close) = matching_close(self.toks, open, end) else {
            return (AbsVal::default(), open + 1);
        };
        let mut then_env = env.clone();
        for name in let_idents {
            then_env.insert(name, AbsVal::default());
        }
        let then_val = self.walk_block(&mut then_env, open + 1..close);
        let mut pos = close + 1;
        if self.toks.get(pos).filter(|_| pos < end).is_some_and(|t| t.text == "else") {
            let (else_val, else_env, next) =
                if self.toks.get(pos + 1).is_some_and(|t| t.text == "if") {
                    let mut e = env.clone();
                    let (v, n) = self.if_expr(&mut e, pos + 1, end);
                    (v, e, n)
                } else if self.toks.get(pos + 1).is_some_and(|t| t.text == "{") {
                    let Some(eclose) = matching_close(self.toks, pos + 1, end) else {
                        return (AbsVal::default(), pos + 1);
                    };
                    let mut e = env.clone();
                    let v = self.walk_block(&mut e, pos + 2..eclose);
                    (v, e, eclose + 1)
                } else {
                    (AbsVal::default(), env.clone(), pos + 1)
                };
            pos = next;
            join_envs(env, &then_env, &else_env);
            (then_val.join(&else_val), pos)
        } else {
            // No else: join the then-arm into the fall-through state.
            let base = env.clone();
            join_envs(env, &then_env, &base);
            (AbsVal::default(), pos)
        }
    }

    /// `match scrutinee { .. }` — the arms are opaque: idents they
    /// assign are havocked, their sites fall to the type-only prober.
    fn match_expr(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let Some(open) = find_open_brace(self.toks, i + 1, end) else {
            return (AbsVal::default(), i + 1);
        };
        self.expr(env, i + 1, open);
        let Some(close) = matching_close(self.toks, open, end) else {
            return (AbsVal::default(), open + 1);
        };
        self.havoc_assigned(env, open + 1..close);
        (AbsVal::default(), close + 1)
    }

    /// `for pat in iter { .. }` / `while cond { .. }` / `loop { .. }`:
    /// widening (pre-havoc of body-assigned bindings) then one body walk
    /// on a clone — the post-loop environment keeps only the havoc.
    fn loop_expr(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let kw = self.toks[i].text.clone();
        let header_start = i + 1;
        let Some(open) = find_open_brace(self.toks, header_start, end) else {
            return (AbsVal::default(), i + 1);
        };
        let Some(close) = matching_close(self.toks, open, end) else {
            return (AbsVal::default(), open + 1);
        };
        let body = open + 1..close;
        if kw == "for" {
            // Pattern up to `in` (nesting-aware: `for (a, b) in ..`).
            let mut nest = 0i64;
            let mut in_pos = None;
            for j in header_start..open {
                match self.toks[j].text.as_str() {
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    "in" if nest == 0 && self.toks[j].kind == TokKind::Ident => {
                        in_pos = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(in_pos) = in_pos else {
                return (AbsVal::default(), close + 1);
            };
            let idents: Vec<String> = (header_start..in_pos)
                .filter(|&j| {
                    self.toks[j].kind == TokKind::Ident
                        && !matches!(self.toks[j].text.as_str(), "mut" | "ref" | "_")
                })
                .map(|j| self.toks[j].text.clone())
                .collect();
            // The iterator is constructed once, before any body effect.
            let (iter_val, _) = self.expr(env, in_pos + 1, open);
            self.havoc_assigned(env, body.clone());
            let mut body_env = env.clone();
            let bindings: Vec<AbsVal> = if iter_val.is_range && idents.len() == 1 {
                vec![AbsVal { ty: iter_val.ty, iv: iter_val.iv, ..AbsVal::default() }]
            } else if let Some(tuple) = &iter_val.tuple {
                if tuple.len() == idents.len() {
                    tuple.clone()
                } else {
                    idents.iter().map(|_| AbsVal::default()).collect()
                }
            } else if let Some(elem) = &iter_val.elem {
                if idents.len() == 1 {
                    vec![elem.as_ref().clone()]
                } else {
                    idents.iter().map(|_| AbsVal::default()).collect()
                }
            } else {
                idents.iter().map(|_| AbsVal::default()).collect()
            };
            for (name, v) in idents.into_iter().zip(bindings) {
                body_env.insert(name, v);
            }
            self.walk_block(&mut body_env, body);
        } else {
            // `while` / `while let` / `loop`: havoc first — the
            // condition re-evaluates every iteration.
            self.havoc_assigned(env, body.clone());
            let mut body_env = env.clone();
            if kw == "while" {
                let mut cond_start = header_start;
                if self.toks.get(cond_start).is_some_and(|t| t.text == "let") {
                    let eq = (cond_start + 1..open).find(|&k| {
                        self.toks[k].text == "="
                            && self.toks.get(k + 1).is_none_or(|t| t.text != "=")
                    });
                    if let Some(eq) = eq {
                        for k in cond_start + 1..eq {
                            let t = &self.toks[k];
                            if t.kind == TokKind::Ident
                                && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                                && !t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                            {
                                body_env.insert(t.text.clone(), AbsVal::default());
                            }
                        }
                        cond_start = eq + 1;
                    }
                }
                self.expr(env, cond_start, open);
            }
            self.walk_block(&mut body_env, body);
        }
        (AbsVal::default(), close + 1)
    }

    /// Macro `name!(..)`: `vec!` builds a container; assertion and
    /// formatting macros get their arguments walked (probes inside);
    /// brace-delimited macros are skipped.
    fn macro_call(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let name = self.toks[i].text.clone();
        let open = i + 2;
        if self.toks[open].text == "{" {
            let Some(close) = matching_close(self.toks, open, end) else {
                return (AbsVal::default(), open + 1);
            };
            return (AbsVal::default(), close + 1);
        }
        let Some(close) = matching_close(self.toks, open, end) else {
            return (AbsVal::default(), open + 1);
        };
        if name == "vec" {
            let val = self.array_literal(env, open + 1, close);
            return self.postfix(env, val, close + 1, end, None);
        }
        // Walk the arguments of the usual suspects so sites inside them
        // are probed; everything else is opaque.
        if matches!(
            name.as_str(),
            "assert"
                | "assert_eq"
                | "assert_ne"
                | "debug_assert"
                | "debug_assert_eq"
                | "debug_assert_ne"
                | "format"
                | "write"
                | "writeln"
                | "println"
                | "eprintln"
                | "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
        ) {
            for part in split_commas(self.toks, open + 1, close) {
                if part.start < part.end {
                    self.expr(env, part.start, part.end);
                }
            }
        }
        self.postfix(env, AbsVal::default(), close + 1, end, None)
    }

    /// Path expression `a::b::c` (+ optional call): `usize::MAX`-style
    /// type consts resolve exactly; calls join candidate returns.
    fn path_expr(&mut self, env: &mut Env, i: usize, end: usize) -> (AbsVal, usize) {
        let head = self.toks[i].text.clone();
        // Walk the segments.
        let mut segs = vec![head.clone()];
        let mut j = i + 1;
        while self.toks.get(j).is_some_and(|t| t.text == "::") && j + 1 < end {
            if self.toks.get(j + 1).is_some_and(|t| t.text == "<") {
                // Turbofish: skip the generic args.
                let mut depth = 0i64;
                let mut k = j + 1;
                let mut closed = None;
                while k < end {
                    match self.toks[k].text.as_str() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                closed = Some(k + 1);
                                break;
                            }
                        }
                        ";" | "{" => break,
                        _ => {}
                    }
                    k += 1;
                }
                match closed {
                    Some(p) => {
                        j = p;
                        continue;
                    }
                    None => break,
                }
            }
            match self.toks.get(j + 1) {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    j += 2;
                }
                _ => break,
            }
        }
        // `u32::MAX` / `i64::MIN` / `f64::..`.
        if segs.len() == 2 {
            if let Some(t) = IntTy::parse(&segs[0]) {
                let r = t.range();
                let v = match segs[1].as_str() {
                    "MAX" => r.hi.map(|h| AbsVal::int(t, Interval::exact(h))),
                    "MIN" => r.lo.map(|l| AbsVal::int(t, Interval::exact(l))),
                    _ => None,
                };
                if let Some(v) = v {
                    return self.postfix(env, v, j, end, None);
                }
                return self.postfix(env, AbsVal::int_full(t), j, end, None);
            }
            if segs[0] == "f64" || segs[0] == "f32" {
                return self.postfix(env, AbsVal::float(), j, end, None);
            }
        }
        if self.toks.get(j).filter(|_| j < end).is_some_and(|t| t.text == "(") {
            let Some(close) = matching_close(self.toks, j, end) else {
                return (AbsVal::default(), j);
            };
            let args = self.eval_args(env, j, close);
            let val = self.call_result(i, segs.last().map_or("", |s| s.as_str()), &args);
            return self.postfix(env, val, close + 1, end, None);
        }
        self.postfix(env, AbsVal::default(), j, end, None)
    }

    /// Joined return value of the candidate callees recorded at call
    /// site `site_i` (absolute token index of the path head / method
    /// name). Unresolvable or too-ambiguous calls are opaque.
    fn call_result(&mut self, site_i: usize, name: &str, args: &[AbsVal]) -> AbsVal {
        // `min` / `max` free-fn forms (std::cmp) are element-wise.
        if args.len() == 2 && (name == "min" || name == "max") {
            return min_max(&args[0], &args[1], name == "min");
        }
        let Some(callees) = self.call_at.get(&site_i) else {
            return AbsVal::default();
        };
        if callees.is_empty() || callees.len() > CALLEE_CAP {
            return AbsVal::default();
        }
        *self.eng.depth.borrow_mut() += 1;
        let mut out: Option<AbsVal> = None;
        for &c in callees {
            let r = self.eng.ret_of(c);
            out = Some(match out {
                Some(v) => v.join(&r),
                None => r,
            });
        }
        *self.eng.depth.borrow_mut() -= 1;
        out.unwrap_or_default()
    }

    /// Evaluates call arguments between the parens at `open..close`.
    fn eval_args(&mut self, env: &mut Env, open: usize, close: usize) -> Vec<AbsVal> {
        let mut args = Vec::new();
        for part in split_commas(self.toks, open + 1, close) {
            if part.start < part.end {
                args.push(self.expr(env, part.start, part.end).0);
            }
        }
        args
    }
}

/// Joins two branch environments into `env` (key-wise; keys missing in
/// either branch fall back to the value the branch inherited).
fn join_envs(env: &mut Env, a: &Env, b: &Env) {
    let keys: Vec<String> = env.keys().cloned().collect();
    for key in keys {
        let va = a.get(&key);
        let vb = b.get(&key);
        let joined = match (va, vb) {
            (Some(x), Some(y)) => x.join(y),
            (Some(x), None) => x.clone(),
            (None, Some(y)) => y.clone(),
            (None, None) => continue,
        };
        env.insert(key, joined);
    }
}

/// Element-wise min/max for `.min(..)` / `.max(..)` / `cmp::min`.
fn min_max(a: &AbsVal, b: &AbsVal, is_min: bool) -> AbsVal {
    let ty = if a.ty == Ty::Float || b.ty == Ty::Float { Ty::Float } else { merge_int_ty(a, b) };
    let pick = |x: Option<i128>, y: Option<i128>, lo_side: bool| -> Option<i128> {
        match (x, y, is_min) {
            (Some(x), Some(y), true) => Some(x.min(y)),
            (Some(x), Some(y), false) => Some(x.max(y)),
            // min: hi bound survives from either side; lo needs both.
            (x, y, true) => {
                if lo_side {
                    None
                } else {
                    x.or(y)
                }
            }
            // max: lo bound survives from either side; hi needs both.
            (x, y, false) => {
                if lo_side {
                    x.or(y)
                } else {
                    None
                }
            }
        }
    };
    AbsVal {
        ty,
        iv: Interval { lo: pick(a.iv.lo, b.iv.lo, true), hi: pick(a.iv.hi, b.iv.hi, false) },
        ..AbsVal::default()
    }
}

impl<'e, 'a> Walker<'e, 'a> {
    /// Postfix chain: field access, tuple projection, method calls,
    /// indexing, `?`, calls. `root` names the env binding the chain
    /// started from, for mutator havoc.
    fn postfix(
        &mut self,
        env: &mut Env,
        mut val: AbsVal,
        mut pos: usize,
        end: usize,
        mut root: Option<String>,
    ) -> (AbsVal, usize) {
        while pos < end {
            let tok = &self.toks[pos];
            match tok.text.as_str() {
                "." => {
                    // `..` is the range operator, not postfix.
                    if self.toks.get(pos + 1).is_some_and(|t| t.text == ".") {
                        break;
                    }
                    let Some(next) = self.toks.get(pos + 1) else { break };
                    if next.kind == TokKind::Num {
                        // Tuple projection `.0` / `.1`.
                        let idx: usize = next.text.parse().unwrap_or(usize::MAX);
                        val = val
                            .tuple
                            .as_ref()
                            .and_then(|t| t.get(idx))
                            .cloned()
                            .unwrap_or_default();
                        pos += 2;
                        continue;
                    }
                    if next.kind != TokKind::Ident {
                        break;
                    }
                    let name = next.text.clone();
                    // Method call? (allow `::<..>` turbofish)
                    let mut call_open = pos + 2;
                    if self.toks.get(call_open).is_some_and(|t| t.text == "::")
                        && self.toks.get(call_open + 1).is_some_and(|t| t.text == "<")
                    {
                        let mut depth = 0i64;
                        let mut k = call_open + 1;
                        let mut past = None;
                        while k < end {
                            match self.toks[k].text.as_str() {
                                "<" => depth += 1,
                                ">" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        past = Some(k + 1);
                                        break;
                                    }
                                }
                                ";" | "{" => break,
                                _ => {}
                            }
                            k += 1;
                        }
                        match past {
                            Some(p) => call_open = p,
                            None => break,
                        }
                    }
                    if self
                        .toks
                        .get(call_open)
                        .filter(|_| call_open < end)
                        .is_some_and(|t| t.text == "(")
                    {
                        let Some(close) = matching_close(self.toks, call_open, end) else {
                            break;
                        };
                        if MUTATOR_METHODS.contains(&name.as_str()) {
                            if let Some(r) = &root {
                                if let Some(b) = env.get_mut(r) {
                                    b.len = None;
                                    if let Some(e) = &mut b.elem {
                                        e.havoc();
                                    }
                                }
                            }
                        }
                        let args = self.eval_args(env, call_open, close);
                        let (new_val, keep_root) = self.method_result(pos + 1, &name, &val, &args);
                        val = new_val;
                        if !keep_root {
                            root = None;
                        }
                        pos = close + 1;
                        continue;
                    }
                    // Field access.
                    val = match &val.type_name {
                        Some(tn) => self.eng.field_val(tn, &name),
                        None => AbsVal::default(),
                    };
                    pos += 2;
                    continue;
                }
                "[" => {
                    let Some(close) = matching_close(self.toks, pos, end) else { break };
                    let starts_range = self.toks.get(pos + 1).is_some_and(|t| t.text == ".");
                    let (idx, _) = self.expr(env, pos + 1, close);
                    if starts_range || idx.is_range {
                        self.record_probe(
                            pos,
                            SiteProof::open("range slice — end bound not tracked"),
                        );
                        val = val.clone(); // slicing keeps elem, drops len knowledge
                        val.len = None;
                    } else {
                        self.probe_index(pos, &val, &idx);
                        val = val.elem.as_deref().cloned().unwrap_or_default();
                    }
                    pos = close + 1;
                    continue;
                }
                "(" => {
                    // Calling a non-path value (closure, fn pointer).
                    let Some(close) = matching_close(self.toks, pos, end) else { break };
                    self.eval_args(env, pos, close);
                    val = AbsVal::default();
                    root = None;
                    pos = close + 1;
                    continue;
                }
                "?" => {
                    val = AbsVal::default();
                    pos += 1;
                    continue;
                }
                _ => break,
            }
        }
        (val, pos)
    }

    /// Result of a method call; second field says whether the receiver's
    /// env-root remains the same container (pass-through adapters).
    fn method_result(
        &mut self,
        name_i: usize,
        name: &str,
        recv: &AbsVal,
        args: &[AbsVal],
    ) -> (AbsVal, bool) {
        if FLOAT_ONLY_METHODS.contains(&name) || name == "powi" {
            return (AbsVal::float(), false);
        }
        let usize_ty = IntTy { bits: 64, signed: false };
        match name {
            "len" => {
                if let Some(iv) = recv.len {
                    return (AbsVal::int(usize_ty, iv), false);
                }
                // A typed receiver with no tracked container length may be
                // a struct with its own `len` method (`DistanceMatrix::len`
                // returns the field-bounded `self.n`): resolve it like any
                // other call, restricted to the receiver's type.
                if let Some(tn) = &recv.type_name {
                    let seg = format!("::{tn}::len");
                    let typed: Vec<usize> = self
                        .call_at
                        .get(&name_i)
                        .map(|cs| {
                            cs.iter()
                                .copied()
                                .filter(|&c| self.eng.index.fns[c].qname.ends_with(&seg))
                                .collect()
                        })
                        .unwrap_or_default();
                    if typed.len() == 1 {
                        *self.eng.depth.borrow_mut() += 1;
                        let r = self.eng.ret_of(typed[0]);
                        *self.eng.depth.borrow_mut() -= 1;
                        if r.iv.is_bounded() {
                            return (r, false);
                        }
                    }
                }
                let iv = Interval { lo: Some(0), hi: Some(i64::MAX as i128) };
                (AbsVal::int(usize_ty, iv), false)
            }
            "is_empty" => (AbsVal { ty: Ty::Bool, ..AbsVal::default() }, false),
            "min" | "max" if args.len() == 1 => (min_max(recv, &args[0], name == "min"), false),
            "clamp" if args.len() == 2 => {
                let ty = if recv.ty == Ty::Float || args[0].ty == Ty::Float {
                    Ty::Float
                } else {
                    merge_int_ty(recv, &args[0])
                };
                (
                    AbsVal {
                        ty,
                        iv: Interval { lo: args[0].iv.lo, hi: args[1].iv.hi },
                        ..AbsVal::default()
                    },
                    false,
                )
            }
            "abs" => {
                if recv.ty == Ty::Float {
                    return (AbsVal::float(), false);
                }
                let hi = match (recv.iv.lo, recv.iv.hi) {
                    (Some(l), Some(h)) => {
                        l.checked_abs().and_then(|la| h.checked_abs().map(|ha| la.max(ha)))
                    }
                    _ => None,
                };
                (
                    AbsVal { ty: recv.ty, iv: Interval { lo: Some(0), hi }, ..AbsVal::default() },
                    false,
                )
            }
            "saturating_add" | "saturating_sub" | "saturating_mul" if args.len() == 1 => {
                let raw = match name {
                    "saturating_add" => recv.iv.add(&args[0].iv),
                    "saturating_sub" => recv.iv.sub(&args[0].iv),
                    _ => recv.iv.mul(&args[0].iv),
                };
                let iv = match recv.ty {
                    Ty::Int(t) => raw.meet(&t.range()),
                    _ => raw,
                };
                (AbsVal { ty: recv.ty, iv, ..AbsVal::default() }, false)
            }
            "rem_euclid" if args.len() == 1 => {
                let k = &args[0].iv;
                let excludes_zero = k.lo.is_some_and(|l| l > 0) || k.hi.is_some_and(|h| h < 0);
                if excludes_zero {
                    let m = match (k.lo, k.hi) {
                        (Some(l), Some(h)) => {
                            l.checked_abs().and_then(|la| h.checked_abs().map(|ha| la.max(ha)))
                        }
                        _ => None,
                    };
                    (
                        AbsVal {
                            ty: recv.ty,
                            iv: Interval { lo: Some(0), hi: m.map(|m| m - 1) },
                            ..AbsVal::default()
                        },
                        false,
                    )
                } else {
                    (AbsVal { ty: recv.ty, ..AbsVal::default() }, false)
                }
            }
            "gen_range" if args.len() == 1 => {
                (AbsVal { ty: args[0].ty, iv: args[0].iv, ..AbsVal::default() }, false)
            }
            "pow" | "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "overflowing_add"
            | "overflowing_sub" | "overflowing_mul" => {
                let iv = match recv.ty {
                    Ty::Int(t) => t.range(),
                    _ => Interval::full(),
                };
                (AbsVal { ty: recv.ty, iv, ..AbsVal::default() }, false)
            }
            "iter" | "iter_mut" | "into_iter" | "copied" | "cloned" | "rev" | "as_slice"
            | "as_ref" | "as_mut" | "clone" | "to_owned" | "to_vec" => ((*recv).clone(), true),
            "enumerate" => {
                let idx_hi = recv.len.and_then(|l| l.hi).map(|h| (h - 1).max(0));
                let idx = AbsVal::int(usize_ty, Interval { lo: Some(0), hi: idx_hi });
                let elem = recv.elem.as_deref().cloned().unwrap_or_default();
                (AbsVal { tuple: Some(vec![idx, elem]), ..AbsVal::default() }, false)
            }
            "zip" if args.len() == 1 => {
                let a = recv.elem.as_deref().cloned().unwrap_or_default();
                let b = args[0].elem.as_deref().cloned().unwrap_or_default();
                let hi = match (recv.len.and_then(|l| l.hi), args[0].len.and_then(|l| l.hi)) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
                (
                    AbsVal {
                        tuple: Some(vec![a, b]),
                        len: Some(Interval { lo: Some(0), hi }),
                        ..AbsVal::default()
                    },
                    false,
                )
            }
            "count" => {
                let hi = recv.len.and_then(|l| l.hi);
                (AbsVal::int(usize_ty, Interval { lo: Some(0), hi }), false)
            }
            "map" | "filter" | "filter_map" | "flat_map" | "take" | "skip" | "chain"
            | "take_while" | "skip_while" => {
                // Adapters: `map` keeps length exactly; the others only
                // keep an upper bound, so the sound lower bound is 0.
                let len = recv.len.map(|l| {
                    if name == "map" {
                        l
                    } else {
                        Interval { lo: Some(0), hi: if name == "chain" { None } else { l.hi } }
                    }
                });
                let elem = if name == "filter"
                    || name == "take"
                    || name == "skip"
                    || name == "take_while"
                    || name == "skip_while"
                {
                    recv.elem.clone()
                } else {
                    None
                };
                (AbsVal { len, elem, ..AbsVal::default() }, false)
            }
            "collect" => ((*recv).clone(), false),
            _ => {
                // Unknown method: if every resolved callee returns a
                // known type, use the joined return.
                (self.call_result(name_i, name, args), false)
            }
        }
    }

    /// Records/merges a proof when `op_i` is a probed root site.
    fn record_probe(&mut self, op_i: usize, proof: SiteProof) {
        if let Some(&(kind, ord)) = self.probe_sites.get(&op_i) {
            self.proofs.entry((kind, ord)).and_modify(|p| p.merge(proof.clone())).or_insert(proof);
        }
    }

    /// Probes (and computes) a `+` / `-` / `*` operation.
    fn probe_arith(&mut self, op_i: usize, op: &str, lhs: &AbsVal, rhs: &AbsVal) -> AbsVal {
        if lhs.ty == Ty::Float || rhs.ty == Ty::Float {
            self.record_probe(
                op_i,
                SiteProof {
                    status: Status::Proven,
                    chain: vec![
                        format!("lhs ∈ {}, rhs ∈ {}", lhs.describe(), rhs.describe()),
                        "float operand ⇒ float arithmetic — cannot trap".to_string(),
                    ],
                },
            );
            return AbsVal::float();
        }
        let raw = match op {
            "+" => lhs.iv.add(&rhs.iv),
            "-" => lhs.iv.sub(&rhs.iv),
            _ => lhs.iv.mul(&rhs.iv),
        };
        let ty = merge_int_ty(lhs, rhs);
        let Ty::Int(t) = ty else {
            self.record_probe(
                op_i,
                SiteProof::open(format!(
                    "operand types unknown (lhs ∈ {}, rhs ∈ {})",
                    lhs.describe(),
                    rhs.describe()
                )),
            );
            return AbsVal { iv: raw, ..AbsVal::default() };
        };
        let range = t.range();
        // 128-bit ranges are not exactly representable in the i128
        // lattice (u128's hi saturates to +inf), so raw containment
        // would be vacuous there — never a proof.
        if t.bits < 128 && raw.within(&range) {
            self.record_probe(
                op_i,
                SiteProof {
                    status: Status::Proven,
                    chain: vec![
                        format!("lhs ∈ {}, rhs ∈ {}", lhs.describe(), rhs.describe()),
                        format!("`{op}` result ∈ {raw} ⊆ type range {range}"),
                    ],
                },
            );
            return AbsVal::int(t, raw);
        }
        // Overflow-risk only when both operands carry *real* knowledge
        // (strictly tighter than their type range) — a havocked counter
        // plus a literal proves nothing about reachable magnitudes.
        let tight = |v: &AbsVal| match v.ty {
            Ty::Int(s) => v.iv != s.range() && v.iv.is_bounded(),
            _ => v.iv.is_bounded(),
        };
        if tight(lhs) && tight(rhs) {
            self.record_probe(
                op_i,
                SiteProof {
                    status: Status::Risk,
                    chain: vec![
                        format!("lhs ∈ {}, rhs ∈ {}", lhs.describe(), rhs.describe()),
                        format!("`{op}` result ∈ {raw} exceeds type range {range} at declared magnitudes"),
                    ],
                },
            );
        } else {
            self.record_probe(
                op_i,
                SiteProof::open(format!(
                    "result ∈ {raw} not contained in {range} (lhs ∈ {}, rhs ∈ {})",
                    lhs.describe(),
                    rhs.describe()
                )),
            );
        }
        AbsVal::int(t, range)
    }

    /// Probes (and computes) a `/` / `%` operation.
    fn probe_div(&mut self, op_i: usize, op: &str, lhs: &AbsVal, rhs: &AbsVal) -> AbsVal {
        if lhs.ty == Ty::Float || rhs.ty == Ty::Float {
            self.record_probe(
                op_i,
                SiteProof {
                    status: Status::Proven,
                    chain: vec![
                        format!("lhs ∈ {}, rhs ∈ {}", lhs.describe(), rhs.describe()),
                        "float operand ⇒ float division — cannot trap".to_string(),
                    ],
                },
            );
            return AbsVal::float();
        }
        let pos_divisor = rhs.iv.lo.is_some_and(|l| l > 0);
        let neg_divisor = rhs.iv.hi.is_some_and(|h| h < 0);
        if pos_divisor || neg_divisor {
            // Signed MIN / -1 also traps: a positive divisor rules it
            // out; a negative one needs the dividend bounded away from
            // MIN.
            let min_safe = pos_divisor
                || match merge_int_ty(lhs, rhs) {
                    Ty::Int(t) if t.signed => {
                        t.range().lo.is_some_and(|m| lhs.iv.lo.is_some_and(|l| l > m))
                    }
                    Ty::Int(_) => true,
                    _ => false,
                };
            if min_safe {
                self.record_probe(
                    op_i,
                    SiteProof {
                        status: Status::Proven,
                        chain: vec![
                            format!("divisor ∈ {} excludes 0", rhs.describe()),
                            format!("`{op}` cannot trap (no zero divisor, no MIN/-1)"),
                        ],
                    },
                );
            } else {
                self.record_probe(
                    op_i,
                    SiteProof::open(format!(
                        "divisor ∈ {} excludes 0 but MIN/-1 overflow not excluded",
                        rhs.describe()
                    )),
                );
            }
        } else {
            self.record_probe(
                op_i,
                SiteProof::open(format!("divisor interval {} may contain 0", rhs.describe())),
            );
        }
        let ty = merge_int_ty(lhs, rhs);
        let nonneg = lhs.iv.lo.is_some_and(|l| l >= 0);
        let iv = match op {
            "%" => match (rhs.iv.lo, rhs.iv.hi) {
                (Some(l), Some(h)) => {
                    let m = l.abs().max(h.abs()).saturating_sub(1);
                    Interval { lo: if nonneg { Some(0) } else { Some(-m) }, hi: Some(m) }
                }
                _ => Interval::full(),
            },
            _ if nonneg && pos_divisor => Interval { lo: Some(0), hi: lhs.iv.hi },
            _ => match ty {
                Ty::Int(t) => t.range(),
                _ => Interval::full(),
            },
        };
        AbsVal { ty, iv, ..AbsVal::default() }
    }

    /// Probes an indexing site `container[idx]`.
    fn probe_index(&mut self, op_i: usize, cont: &AbsVal, idx: &AbsVal) {
        let nonneg = idx.iv.lo.is_some_and(|l| l >= 0) || matches!(idx.ty, Ty::Int(t) if !t.signed);
        let proof = match (cont.len, idx.iv.hi) {
            (Some(len), Some(hi)) if nonneg && len.lo.is_some_and(|l| hi < l) => SiteProof {
                status: Status::Proven,
                chain: vec![
                    format!("index ∈ {}", idx.describe()),
                    format!("container length ∈ {len}; hi(index) = {hi} < lo(len)"),
                ],
            },
            (Some(len), _) => SiteProof::open(format!(
                "index ∈ {} not provably below container length {len}",
                idx.describe()
            )),
            (None, _) => {
                SiteProof::open(format!("container length unknown (index ∈ {})", idx.describe()))
            }
        };
        self.record_probe(op_i, proof);
    }
}

/// Matching `(`/`[` scanning *backwards* from the closer at `close`.
fn matching_open(toks: &[Tok], close: usize, start: usize) -> Option<usize> {
    let (open_t, close_t) = match toks[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        "}" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut j = close;
    loop {
        let t = toks[j].text.as_str();
        if t == close_t {
            depth += 1;
        } else if t == open_t {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == start {
            return None;
        }
        j -= 1;
    }
}

impl<'e, 'a> Walker<'e, 'a> {
    /// Flow-insensitive env: parameter *types* only. Param value bounds
    /// are entry-state facts, not type invariants, so they must not leak
    /// into a probe that cannot see intervening reassignments. (Field
    /// bounds are whole-type invariants and stay active via `field_val`.)
    fn type_only_env(&self) -> Env {
        let mut env = Env::new();
        let item = self.item();
        for p in &item.params {
            let val = if p.name == "self" {
                AbsVal { type_name: item.self_type.clone(), ..AbsVal::default() }
            } else {
                self.eng.value_of_type_text(&p.ty)
            };
            env.insert(p.name.clone(), val);
        }
        self.pattern_bindings(&mut env);
        env
    }

    /// Adds struct/enum destructure bindings (`Kind::Variant { a, b } =>`
    /// / `let Type { a, .. } = ..`) to `env` with their declared field
    /// types — type ranges only, which is flow-insensitively sound. A
    /// name bound twice with conflicting types degrades to Unknown.
    fn pattern_bindings(&self, env: &mut Env) {
        let body = self.item().body.clone();
        for close in body.clone() {
            // Shape: `.. path { idents } =>` (match arm) or `= ..` (let).
            if self.toks[close].text != "}"
                || !body.contains(&(close + 1))
                || !matches!(self.toks[close + 1].text.as_str(), "=>" | "=")
            {
                continue;
            }
            let Some(open) = matching_open(self.toks, close, body.start) else {
                continue;
            };
            if open == 0 || self.toks[open - 1].kind != TokKind::Ident {
                continue;
            }
            // Walk the `A::B::C` path backwards; its first segment (or
            // `Self`) names the indexed type whose fields apply.
            let mut seg = open - 1;
            while seg >= 2 && self.toks[seg - 1].text == "::" {
                seg -= 2;
            }
            let mut type_name = self.toks[seg].text.clone();
            if type_name == "Self" {
                let Some(own) = &self.item().self_type else { continue };
                type_name = own.clone();
            }
            let Some(fields) = self.eng.index.structs.get(&type_name) else {
                continue;
            };
            for j in open + 1..close {
                let t = &self.toks[j];
                // Plain bindings only; `field: rename` and `..` are skipped.
                if t.kind != TokKind::Ident
                    || matches!(t.text.as_str(), "mut" | "ref" | "_")
                    || self.toks[j + 1].text == ":"
                    || self.toks[j - 1].text == ":"
                {
                    continue;
                }
                let Some(ty_text) = fields.get(&t.text) else { continue };
                let val = self.eng.value_of_type_text(ty_text);
                match env.get(&t.text) {
                    Some(prev) if prev.ty != val.ty => {
                        env.insert(t.text.clone(), AbsVal::default());
                    }
                    Some(_) => {}
                    None => {
                        env.insert(t.text.clone(), val);
                    }
                }
            }
        }
    }

    /// Type of the operand *ending* at token `j` (exclusive scan
    /// backwards): literals, `ident.field` chains, call results, index
    /// results, and `as` casts. Anything else is Unknown.
    fn backward_val(&mut self, j: usize, env: &Env) -> AbsVal {
        let start = self.item().body.start;
        if j < start {
            return AbsVal::default();
        }
        let tok = &self.toks[j];
        match tok.kind {
            TokKind::Num => num_literal_val(&tok.text),
            TokKind::Ident => {
                // `x as f64` / `x as u32` ends on the type ident.
                if j > start && self.toks[j - 1].text == "as" {
                    if tok.text == "f64" || tok.text == "f32" {
                        return AbsVal::float();
                    }
                    if let Some(t) = IntTy::parse(&tok.text) {
                        return AbsVal::int_full(t);
                    }
                    return AbsVal::default();
                }
                // Collect an `a.b.c` chain backwards.
                let mut segs = vec![tok.text.clone()];
                let mut k = j;
                while k >= start + 2
                    && self.toks[k - 1].text == "."
                    && self.toks[k - 2].kind == TokKind::Ident
                {
                    k -= 2;
                    segs.push(self.toks[k].text.clone());
                }
                segs.reverse();
                let mut val = match env.get(&segs[0]) {
                    Some(v) => v.clone(),
                    None => match self.consts.get(&segs[0]) {
                        Some(v) => v.clone(),
                        None => self.oracle_val(&segs[0]),
                    },
                };
                for seg in &segs[1..] {
                    val = match &val.type_name {
                        Some(tn) => self.eng.field_val(tn, seg),
                        None => self.oracle_val(seg),
                    };
                }
                val
            }
            TokKind::Punct => match tok.text.as_str() {
                ")" => {
                    let Some(open) = matching_open(self.toks, j, start) else {
                        return AbsVal::default();
                    };
                    if open > start && self.toks[open - 1].kind == TokKind::Ident {
                        let name_i = open - 1;
                        let name = self.toks[name_i].text.clone();
                        let is_method = name_i > start && self.toks[name_i - 1].text == ".";
                        if is_method
                            && (FLOAT_ONLY_METHODS.contains(&name.as_str()) || name == "powi")
                        {
                            return AbsVal::float();
                        }
                        if is_method && name == "len" {
                            return AbsVal::int(
                                IntTy { bits: 64, signed: false },
                                Interval { lo: Some(0), hi: Some(i64::MAX as i128) },
                            );
                        }
                        return self.call_result(name_i, &name, &[]);
                    }
                    // Parenthesized expression: evaluate it forwards.
                    let mut scratch = env.clone();
                    let (v, _) = self.expr(&mut scratch, open + 1, j);
                    v
                }
                "]" => {
                    let Some(open) = matching_open(self.toks, j, start) else {
                        return AbsVal::default();
                    };
                    if open == start {
                        return AbsVal::default();
                    }
                    let cont = self.backward_val(open - 1, env);
                    cont.elem.as_deref().cloned().unwrap_or_default()
                }
                _ => AbsVal::default(),
            },
            _ => AbsVal::default(),
        }
    }

    /// Type-only probe for a root site the flow walk never reached
    /// (opaque match arms, unparsed corners). Sound because the env
    /// carries type ranges only; it can prove float ops, literal-divisor
    /// div/rem, and fixed-array indexing, and nothing it concludes
    /// depends on flow-sensitive state.
    fn fallback_probe(&mut self, abs: usize, kind: SiteKind) -> SiteProof {
        let (body_start, body_end) = {
            let b = &self.item().body;
            (b.start, b.end)
        };
        if abs < body_start || abs >= body_end {
            return SiteProof::open("site outside fn body");
        }
        let mut env = self.type_only_env();
        let op = self.toks[abs].text.clone();
        match (kind, op.as_str()) {
            (SiteKind::Panic, "[") => {
                let Some(close) = matching_close(self.toks, abs, body_end) else {
                    return SiteProof::open("unmatched `[`");
                };
                if self.toks.get(abs + 1).is_some_and(|t| t.text == ".") {
                    return SiteProof::open("range slice — end bound not tracked");
                }
                let cont = if abs > body_start {
                    self.backward_val(abs - 1, &env)
                } else {
                    AbsVal::default()
                };
                let (idx, _) = self.expr(&mut env, abs + 1, close);
                if idx.is_range {
                    return SiteProof::open("range slice — end bound not tracked");
                }
                let nonneg =
                    idx.iv.lo.is_some_and(|l| l >= 0) || matches!(idx.ty, Ty::Int(t) if !t.signed);
                match (cont.len, idx.iv.hi) {
                    (Some(len), Some(hi)) if nonneg && len.lo.is_some_and(|l| hi < l) => {
                        SiteProof {
                            status: Status::Proven,
                            chain: vec![
                                format!("(type-only) index ∈ {}", idx.describe()),
                                format!("container length ∈ {len}; hi(index) = {hi} < lo(len)"),
                            ],
                        }
                    }
                    _ => SiteProof::open(format!(
                        "(type-only) index ∈ {} vs container {}",
                        idx.describe(),
                        cont.describe()
                    )),
                }
            }
            (SiteKind::Panic, "/") | (SiteKind::Panic, "%") => {
                let lhs = if abs > body_start {
                    self.backward_val(abs - 1, &env)
                } else {
                    AbsVal::default()
                };
                let mut rhs_start = abs + 1;
                if self.toks.get(rhs_start).is_some_and(|t| t.text == "=") {
                    rhs_start += 1; // compound `/=` / `%=`
                }
                let (rhs, _) = self.expr_bp(&mut env, rhs_start, body_end, 20);
                if lhs.ty == Ty::Float || rhs.ty == Ty::Float {
                    return SiteProof {
                        status: Status::Proven,
                        chain: vec![
                            format!(
                                "(type-only) lhs ∈ {}, rhs ∈ {}",
                                lhs.describe(),
                                rhs.describe()
                            ),
                            "float operand ⇒ float division — cannot trap".to_string(),
                        ],
                    };
                }
                let pos_divisor = rhs.iv.lo.is_some_and(|l| l > 0);
                let min_safe = pos_divisor
                    && match merge_int_ty(&lhs, &rhs) {
                        Ty::Int(_) => true,
                        _ => lhs.ty != Ty::Unknown || rhs.ty != Ty::Unknown,
                    };
                if min_safe {
                    SiteProof {
                        status: Status::Proven,
                        chain: vec![
                            format!("(type-only) divisor ∈ {} excludes 0", rhs.describe()),
                            format!("`{op}` cannot trap (positive divisor)"),
                        ],
                    }
                } else {
                    SiteProof::open(format!(
                        "(type-only) divisor ∈ {} not provably nonzero",
                        rhs.describe()
                    ))
                }
            }
            (SiteKind::Arith, _) => {
                let lhs = if abs > body_start {
                    self.backward_val(abs - 1, &env)
                } else {
                    AbsVal::default()
                };
                let mut rhs_start = abs + 1;
                if self.toks.get(rhs_start).is_some_and(|t| t.text == "=") {
                    rhs_start += 1; // compound `+=` / `-=` / `*=`
                }
                let min_bp = if op == "*" { 20 } else { 18 };
                let (rhs, _) = self.expr_bp(&mut env, rhs_start, body_end, min_bp);
                if lhs.ty == Ty::Float || rhs.ty == Ty::Float {
                    return SiteProof {
                        status: Status::Proven,
                        chain: vec![
                            format!(
                                "(type-only) lhs ∈ {}, rhs ∈ {}",
                                lhs.describe(),
                                rhs.describe()
                            ),
                            "float operand ⇒ float arithmetic — cannot trap".to_string(),
                        ],
                    };
                }
                let raw = match op.as_str() {
                    "+" => lhs.iv.add(&rhs.iv),
                    "-" => lhs.iv.sub(&rhs.iv),
                    _ => lhs.iv.mul(&rhs.iv),
                };
                if let Ty::Int(t) = merge_int_ty(&lhs, &rhs) {
                    let range = t.range();
                    if raw.within(&range) {
                        return SiteProof {
                            status: Status::Proven,
                            chain: vec![
                                format!(
                                    "(type-only) lhs ∈ {}, rhs ∈ {}",
                                    lhs.describe(),
                                    rhs.describe()
                                ),
                                format!("`{op}` result ∈ {raw} ⊆ type range {range}"),
                            ],
                        };
                    }
                }
                SiteProof::open(format!(
                    "(type-only) `{op}` on lhs ∈ {}, rhs ∈ {}",
                    lhs.describe(),
                    rhs.describe()
                ))
            }
            _ => SiteProof::open(format!("site `{op}` has no fallback rule")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph, index};
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
        let graph = graph::build(&idx);
        (idx, graph)
    }

    fn fn_id(index: &Index, name: &str) -> usize {
        index.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn analyzed(src: &str, bounds: Option<&crate::bounds::Bounds>) -> (Index, IntervalAnalysis) {
        let (idx, graph) = build_one("crates/core/src/lib.rs", src);
        let ia = analyze(&idx, &graph, bounds);
        (idx, ia)
    }

    #[test]
    fn interval_arithmetic_behaves() {
        let a = Interval::exact(3);
        let b = Interval::new(-2, 5);
        assert_eq!(a.add(&b), Interval::new(1, 8));
        assert_eq!(a.sub(&b), Interval::new(-2, 5));
        assert_eq!(b.mul(&b), Interval::new(-10, 25));
        assert_eq!(a.join(&b), Interval::new(-2, 5));
        assert!(a.within(&Interval::new(0, 10)));
        assert!(!b.within(&Interval::new(0, 10)));
        let half = Interval { lo: Some(0), hi: None };
        assert_eq!(half.add(&a), Interval { lo: Some(3), hi: None });
        // Carrier overflow degrades to unbounded, never wraps.
        let huge = Interval::exact(i128::MAX);
        assert_eq!(huge.add(&Interval::exact(1)), Interval::full());
    }

    #[test]
    fn float_typed_arith_is_proven() {
        let src = "pub fn blend(a: f64, b: f64) -> f64 { a * b }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "blend");
        assert!(
            ia.arith_root_discharged(id),
            "float mul should discharge: {:?}",
            ia.reports[id].arith
        );
    }

    #[test]
    fn bounds_param_discharges_and_absence_stays_open() {
        let src = "pub fn get(i: usize, j: usize) -> usize { i * 131072 + j }\n";
        let bounds = crate::bounds::parse(
            "[[param]]\nfn = \"core::*\"\nname = \"i\"\nmax = 1_048_576\n\
             [[param]]\nfn = \"core::*\"\nname = \"j\"\nmax = 1_048_576\n",
        )
        .expect("bounds parse");
        let (idx, ia) = analyzed(src, Some(&bounds));
        let id = fn_id(&idx, "get");
        assert!(
            ia.arith_root_discharged(id),
            "bounded i*131072+j fits u64: {:?}",
            ia.reports[id].arith
        );
        let (idx2, ia2) = analyzed(src, None);
        let id2 = fn_id(&idx2, "get");
        assert!(!ia2.arith_root_discharged(id2), "without bounds the mul must stay open");
        assert!(ia2.arith_risks(id2).is_empty(), "type-range operands must not flag risk");
    }

    #[test]
    fn widened_loop_counter_stays_open_not_risk() {
        let src = "pub fn tally(n: usize) -> usize {\n\
                       let mut s = 0usize;\n\
                       let mut i = 0usize;\n\
                       while i < n { s = s + i; i = i + 1; }\n\
                       s\n\
                   }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "tally");
        assert!(!ia.arith_root_discharged(id));
        assert!(ia.arith_risks(id).is_empty(), "havocked counters must not flood risk");
    }

    #[test]
    fn metro_scale_product_flags_risk() {
        // Two declared-tight magnitudes whose product exceeds u32.
        let src = "pub fn slots(h: u32, r: u32) -> u32 { h * r }\n";
        let bounds = crate::bounds::parse(
            "[[param]]\nfn = \"core::*\"\nname = \"h\"\nmax = 1_048_576\n\
             [[param]]\nfn = \"core::*\"\nname = \"r\"\nmax = 1_048_576\n",
        )
        .expect("bounds parse");
        let (idx, ia) = analyzed(src, Some(&bounds));
        let id = fn_id(&idx, "slots");
        assert_eq!(ia.arith_risks(id).len(), 1, "2^40 exceeds u32: {:?}", ia.reports[id].arith);
    }

    #[test]
    fn fixed_array_modulo_index_is_proven() {
        let src = "pub fn pick(xs: [u64; 4], k: usize) -> u64 { xs[k % 4] }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "pick");
        assert!(ia.panic_root_discharged(id), "k % 4 < len 4: {:?}", ia.reports[id].panic);
    }

    #[test]
    fn field_bound_divisor_discharges_division() {
        let src = "pub struct Grid { pub cols: usize }\n\
                   impl Grid {\n\
                       pub fn row(&self, i: usize) -> usize { i / self.cols }\n\
                   }\n";
        let bounds = crate::bounds::parse(
            "[[field]]\ntype = \"Grid\"\nname = \"cols\"\nmin = 1\nmax = 65_536\n",
        )
        .expect("bounds parse");
        let (idx, ia) = analyzed(src, Some(&bounds));
        let id = fn_id(&idx, "row");
        assert!(ia.panic_root_discharged(id), "cols ≥ 1 excludes 0: {:?}", ia.reports[id].panic);
        let (idx2, ia2) = analyzed(src, None);
        let id2 = fn_id(&idx2, "row");
        assert!(!ia2.panic_root_discharged(id2), "without the field bound cols may be 0");
    }

    #[test]
    fn match_arm_float_field_discharged_by_fallback() {
        let src = "pub struct P { pub w: f64 }\n\
                   pub fn m(p: &P, k: u32) -> f64 {\n\
                       match k { 0 => p.w * p.w, _ => p.w + p.w }\n\
                   }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "m");
        assert!(
            ia.arith_root_discharged(id),
            "type-only fallback sees f64 field: {:?}",
            ia.reports[id].arith
        );
    }

    #[test]
    fn interprocedural_return_interval_propagates() {
        let src = "fn cap() -> u32 { 24 }\n\
                   pub fn wrap(h: u32) -> u32 { h % cap() }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "wrap");
        assert!(
            ia.panic_root_discharged(id),
            "cap() returns exactly 24, nonzero: {:?}",
            ia.reports[id].panic
        );
    }

    #[test]
    fn unwrap_sites_never_discharge() {
        let src = "pub fn first(v: &Vec<u64>) -> u64 { *v.first().unwrap() }\n";
        let (idx, ia) = analyzed(src, None);
        let id = fn_id(&idx, "first");
        assert!(!ia.panic_root_discharged(id));
    }

    /// The float-operand discharge rule assumes `+ - * / %` on a
    /// float-typed operand is primitive float arithmetic. A workspace
    /// operator overload could route such an expression through
    /// arbitrary code, so every overload must be audited panic-free and
    /// listed here. `geo::Point` qualifies: all fields are `f64` and its
    /// `Add/Sub/Mul/Div` bodies are pure float arithmetic.
    #[test]
    fn no_operator_overloads_in_workspace() {
        const AUDITED: [&str; 1] = ["crates/geo/src/point.rs"];
        const OP_TRAITS: [&str; 12] = [
            "Add",
            "Sub",
            "Mul",
            "Div",
            "Rem",
            "Neg",
            "AddAssign",
            "SubAssign",
            "MulAssign",
            "DivAssign",
            "RemAssign",
            "Index",
        ];
        fn scan(dir: &std::path::Path, hits: &mut Vec<String>) {
            let Ok(entries) = std::fs::read_dir(dir) else { return };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    if path.file_name().is_some_and(|n| n == "target") {
                        continue;
                    }
                    scan(&path, hits);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let Ok(text) = std::fs::read_to_string(&path) else { continue };
                    for (no, line) in text.lines().enumerate() {
                        let Some(impl_at) = line.find("impl") else { continue };
                        let Some(for_at) = line.find(" for ") else { continue };
                        if for_at < impl_at {
                            continue;
                        }
                        let head = &line[impl_at..for_at];
                        let hit = OP_TRAITS.iter().any(|t| {
                            head.match_indices(t).any(|(i, _)| {
                                let before = head[..i]
                                    .chars()
                                    .next_back()
                                    .is_none_or(|c| !c.is_alphanumeric());
                                let after = head[i + t.len()..]
                                    .chars()
                                    .next()
                                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                                before && after
                            })
                        });
                        if hit {
                            hits.push(format!("{}:{}: {}", path.display(), no + 1, line.trim()));
                        }
                    }
                }
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut hits = Vec::new();
        scan(&root.join("crates"), &mut hits);
        hits.retain(|h| !AUDITED.iter().any(|a| h.replace('\\', "/").contains(a)));
        assert!(
            hits.is_empty(),
            "unaudited operator overloads break the float-discharge rule:\n{}",
            hits.join("\n")
        );
    }

    /// Concrete execution of small straight-line snippets must land
    /// inside the derived interval (deterministic xorshift sampling — the
    /// workspace vendors no property-testing crate).
    #[test]
    fn concrete_runs_land_inside_derived_intervals() {
        fn derived(src: &str) -> Interval {
            let (idx, graph) = build_one("crates/core/src/lib.rs", src);
            let eng = Engine::new(&idx, &graph, None);
            let id = fn_id(&idx, "probe");
            eng.ret_of(id).iv
        }
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..64 {
            let a = (next() % 1000) as i64;
            let b = (next() % 1000) as i64 - 500;
            let c = (next() % 97 + 1) as i64;
            // Mirrors `fn probe(..) -> i64 { (a + b) * 2 + a % c }` with
            // the drawn values inlined as literals.
            let concrete = (a + b) * 2 + a % c;
            let src =
                format!("pub fn probe() -> i64 {{ ({a}i64 + {b}i64) * 2i64 + {a}i64 % {c}i64 }}\n");
            let iv = derived(&src);
            assert!(
                iv.contains(concrete as i128),
                "concrete {concrete} outside derived {iv} for a={a} b={b} c={c}"
            );
        }
    }
}
