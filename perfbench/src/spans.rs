//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: name, start, end, parent and request or batch id. Every span
//! feeds a per-name aggregate (count, total, self time); the first
//! [`KEEP_PER_RECORDER`] spans of each recorder are also kept verbatim for
//! the JSON dump written at the end of the run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans kept verbatim per recorder; the aggregates count every span.
const KEEP_PER_RECORDER: usize = 5_000;

/// Recorder ids, so span ids stay unique across threads.
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

/// One closed span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub span_id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in nanoseconds (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time (duration minus child spans) in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    span_id: u64,
    name: &'static str,
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// A single-threaded span recorder. Nested [`enter`](Self::enter) /
/// [`exit`](Self::exit) pairs form parent links; [`record`](Self::record)
/// adds a span with explicit times (for interleaved client requests).
pub struct SpanRecorder {
    origin: Instant,
    recorder: u64,
    next: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl SpanRecorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> SpanRecorder {
        SpanRecorder {
            origin,
            recorder: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            next: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.recorder << 40) | self.next
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let span_id = self.fresh_id();
        self.stack.push(Open {
            span_id,
            name,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    /// Panics if no span is open (an enter/exit pairing bug).
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.span_id
        });
        self.close(
            open.span_id,
            parent,
            open.name,
            open.id,
            open.start,
            end,
            open.child_ns,
        );
        dur
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Records a span with explicit times; `child_ns` is the part of it
    /// covered by its children. Returns the new span's id, for children
    /// recorded afterwards under it.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        child_ns: u64,
    ) -> u64 {
        let span_id = self.fresh_id();
        self.close(span_id, parent, name, id, start, end, child_ns);
        span_id
    }

    #[allow(clippy::too_many_arguments)]
    fn close(
        &mut self,
        span_id: u64,
        parent: u64,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        child_ns: u64,
    ) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(child_ns);
        if self.kept.len() < KEEP_PER_RECORDER {
            self.kept.push(Span {
                span_id,
                parent,
                name,
                id,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// The aggregate for `name` (zero when none was recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Folds `other` into this recorder.
    pub fn absorb(&mut self, other: SpanRecorder) {
        for (name, a) in other.aggs {
            let agg = self.aggs.entry(name).or_default();
            agg.count += a.count;
            agg.total_ns += a.total_ns;
            agg.self_ns += a.self_ns;
        }
        self.kept.extend(other.kept);
    }

    /// Every aggregate, by name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// The kept spans as a JSON array.
    pub fn dump_json(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.span_id, s.parent, s.name, s.id, s.start_ns, s.end_ns
            ));
        }
        out.push(']');
        out
    }
}
