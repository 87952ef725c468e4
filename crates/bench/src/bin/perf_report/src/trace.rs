//! The harness's own in-memory spans.
//!
//! The traced pass wraps every call from the harness into a layer's public
//! functions in a span: name, start, end, the span that caused it, and how
//! many operations it covered. Spans stay in memory and are written out
//! when the benchmark ends. The timed pass runs with the tracer off, which
//! reduces a span to calling the closure.
//!
//! All calls into the program are made from the driver thread, so one
//! span stack is enough; the program's own worker threads are not traced
//! here (spans inside the program are a later change).

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list, or [`ROOT`].
    pub parent: u32,
    /// Operations the span covers (e.g. 2000 pushes in one span), so that
    /// a per-call cost is duration over count.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<u32>,
}

/// Span recorder. Cheap to pass around by reference; interior mutability
/// keeps call sites free of `&mut` plumbing.
pub struct Tracer {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: on.then(|| {
                RefCell::new(Inner {
                    spans: Vec::with_capacity(1 << 16),
                    stack: Vec::new(),
                })
            }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span covering one operation.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// Run `f` inside a span covering `count` operations.
    pub fn span_n<R>(&self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        self.span_counted(name, || (f(), count))
    }

    /// Run `f` inside a span; `f` also returns how many operations it
    /// covered (for loops whose trip count is only known afterwards).
    pub fn span_counted<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let Some(cell) = &self.inner else {
            return f().0;
        };
        let idx = {
            let mut t = cell.borrow_mut();
            let idx = t.spans.len() as u32;
            let parent = t.stack.last().copied().unwrap_or(ROOT);
            let start_ns = self.now_ns();
            t.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                count: 0,
            });
            t.stack.push(idx);
            idx
        };
        let (out, count) = f();
        let mut t = cell.borrow_mut();
        t.spans[idx as usize].end_ns = self.now_ns();
        t.spans[idx as usize].count = count;
        let popped = t.stack.pop();
        debug_assert_eq!(popped, Some(idx), "span stack out of order");
        out
    }

    /// Copy of everything recorded so far (empty when off).
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().spans.clone())
    }

    /// Per-name totals of everything recorded so far (empty when off).
    pub fn totals(&self) -> Vec<(&'static str, NameTotal)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| totals(&c.borrow().spans))
    }

    /// Write the spans as JSON lines. Returns how many were written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let Some(cell) = &self.inner else {
            return Ok(0);
        };
        let spans = &cell.borrow().spans;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (the union of their intervals, so
/// overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals in first-seen order.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, NameTotal)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, NameTotal)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let slot = match out.iter().position(|(n, _)| *n == s.name) {
            Some(i) => &mut out[i].1,
            None => {
                out.push((s.name, NameTotal::default()));
                &mut out.last_mut().expect("just pushed").1
            }
        };
        slot.calls += 1;
        slot.count += s.count;
        slot.busy_ns += s.dur_ns();
        slot.self_ns += self_ns;
    }
    out
}

/// Totals of one name (all zero if it never ran).
pub fn total_of(totals: &[(&'static str, NameTotal)], name: &str) -> NameTotal {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map_or_else(NameTotal::default, |(_, t)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            sp("root", 0, 100, ROOT),
            sp("a", 10, 30, 0),  // child
            sp("b", 30, 50, 0),  // adjacent child
            sp("a1", 12, 20, 1), // grandchild: only `a` pays for it
            sp("c", 70, 90, 0),  // child after a gap
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 20 - 20 - 20);
        assert_eq!(st[1], 20 - 8);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 8);
        assert_eq!(st[4], 20);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp("root", 0, 100, ROOT),
            sp("x", 10, 60, 0),
            sp("y", 40, 80, 0), // overlaps x by 20
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn tracer_records_parents_and_counts() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span_n("inner", 7, || 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].count),
            ("inner", 0, 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let tot = totals(&spans);
        assert_eq!(total_of(&tot, "inner").count, 7);
        assert_eq!(total_of(&tot, "missing"), NameTotal::default());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 1), 1);
        assert!(t.spans().is_empty());
    }
}
