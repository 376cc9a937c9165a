//! The benchmark's own span recorder for traced passes: one span around
//! each public call the benchmark makes, kept in memory and written out
//! when the run ends.

use ccdn_obs::Stopwatch;
use std::cell::RefCell;

/// Runs `f` inside a span when a recorder is attached.
pub fn within<R>(
    rec: Option<&RefCell<Recorder>>,
    name: &'static str,
    slot: Option<u32>,
    probe: bool,
    f: impl FnOnce() -> R,
) -> R {
    let Some(rec) = rec else {
        return f();
    };
    let id = rec.borrow_mut().enter(name, slot, probe);
    let out = f();
    rec.borrow_mut().exit(id);
    out
}

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Ordinal of the scheduling call within its run, when the span
    /// belongs to one slot.
    pub slot: Option<u32>,
    /// Side measurement kept out of the pass's wall time.
    pub probe: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nested spans of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { clock: Stopwatch::start(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, slot: Option<u32>, probe: bool) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, slot, probe });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Total duration of probe spans.
    pub fn probe_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.probe).map(Span::duration_ns).sum()
    }

    /// Span `id`'s duration minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// The spans as JSON objects, one per line, tagged with `pass`.
    pub fn to_jsonl(&self, pass: usize) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_owned());
            out.push_str(&format!(
                "{{\"pass\":{pass},\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"parent\":{},\"slot\":{},\"probe\":{}}}\n",
                ccdn_obs::json_string(s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                opt(s.parent.map(|p| p.to_string())),
                opt(s.slot.map(|p| p.to_string())),
                s.probe
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new();
        let root = rec.enter("root", None, false);
        let child = rec.enter("child", Some(0), false);
        let grandchild = rec.enter("grandchild", Some(0), true);
        rec.exit(grandchild);
        rec.exit(child);
        rec.exit(root);
        let s = rec.spans();
        assert_eq!((s[child].parent, s[grandchild].parent), (Some(root), Some(child)));
        assert_eq!(rec.self_ns(root), s[root].duration_ns() - s[child].duration_ns());
        assert_eq!(rec.probe_ns(), s[grandchild].duration_ns());
        assert_eq!(rec.to_jsonl(3).lines().count(), 3);
        for line in rec.to_jsonl(3).lines() {
            ccdn_obs::json::parse(line).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_panics() {
        let mut rec = Recorder::new();
        let a = rec.enter("a", None, false);
        let _b = rec.enter("b", None, false);
        rec.exit(a);
    }
}
