//! The harness's own tracer: spans around calls into each layer's public
//! functions, kept in a pre-sized vector and written out as JSON lines
//! when the run ends.  Nothing here reaches inside the program.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span; `None` for an op's root span.
    pub parent: Option<u32>,
    /// Shared by every span of one op.
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.  Multi-client workloads give each
/// client its own tracer and [`merge`](Tracer::merge) them afterwards.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            next_op: 0,
        }
    }

    /// An empty tracer on the same clock, for another thread's spans.
    pub fn sibling(&self, capacity: usize) -> Tracer {
        Tracer::new(self.epoch, capacity)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; a span opened with
    /// nothing open starts a new op.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p as usize].op_id,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Spans that still fit the pre-sized vector.
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, renumbering ids and ops.
    pub fn merge(&mut self, other: Tracer) {
        let (id_base, op_base) = (self.spans.len() as u32, self.next_op);
        self.next_op += other.next_op;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + id_base,
            parent: s.parent.map(|p| p + id_base),
            op_id: s.op_id + op_base,
            ..s
        }));
    }
}

/// Self time of each span: its duration minus the part of it its child
/// spans cover (children of one span never overlap here).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"op_id":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.op_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) ⊃ parse [10,40) ⊃ lex [12,20);  op ⊃ eval [50,90)
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "parse", 10, 40),
            span(2, Some(1), "lex", 12, 20),
            span(3, Some(0), "eval", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 22, 8, 40]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert_eq!(
            self_time_by_name(&spans),
            vec![("op", 30), ("parse", 22), ("lex", 8), ("eval", 40)]
        );
    }

    #[test]
    fn tracer_nests_numbers_ops_and_merges() {
        let mut t = Tracer::new(Instant::now(), 16);
        for _ in 0..2 {
            let op = t.enter("op");
            t.span("stage", || ());
            t.exit(op);
        }
        let mut other = Tracer::new(Instant::now(), 4);
        other.span("op", || ());
        t.merge(other);
        let got: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.id, s.parent, s.op_id))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, None, 0),
                (1, Some(0), 0),
                (2, None, 1),
                (3, Some(2), 1),
                (4, None, 2)
            ]
        );
        let mut buf = Vec::new();
        write_jsonl(t.spans(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.starts_with(r#"{"id":0,"parent":null,"op_id":0,"name":"op","start_ns":"#));
    }
}
