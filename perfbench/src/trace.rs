//! Benchmark-side spans: name, start, end and parent of every call the
//! traced run makes into a layer, kept in memory and written out when the
//! run ends. The program's own spans and counters are read from the
//! `rlc-obs` registry instead; these spans say where the benchmark spent
//! its time around them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run (`0` is the run itself).
    pub id: u64,
    /// Identifier of the enclosing span.
    pub parent: u64,
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    next: RefCell<u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            next: RefCell::new(1),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's identifier to parent its own spans.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = {
            let mut next = self.next.borrow_mut();
            *next += 1;
            *next - 1
        };
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every recorded span, one JSON object a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Per span name: count, total time and self time (total minus the
    /// part covered by child spans), in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let children = child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e6;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += (total - children).max(0.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 0, |outer| {
            tracer.span("inner", outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = tracer.self_times();
        let (outer_n, outer_total, outer_self) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert_eq!(outer_n, 1);
        assert!(inner_total >= 5.0);
        assert!(outer_total >= inner_total);
        assert!(outer_self < outer_total);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, |id| id), 0);
        assert!(tracer.to_jsonl().is_empty());
    }
}
