//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer
//! (name, start, end, parent) and written out once, at the end, as
//! Chrome trace-event JSON (load it in `chrome://tracing` or Perfetto).
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, passed to child spans as their parent.
pub type SpanId = Option<usize>;

struct Span {
    id: usize,
    parent: SpanId,
    name: String,
    tid: usize,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static TID: Cell<usize> = const { Cell::new(0) };
}

fn thread_index() -> usize {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its own children.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            tid: thread_index(),
            start_us: start,
            end_us: end,
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Writes every span as a Chrome trace-event "complete" event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{}",
                s.name.replace('"', "'"),
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                parent,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "],\"displayTimeUnit\":\"ms\"}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nested_spans_only_when_on() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, |id| id), None);
        assert_eq!(off.len(), 0);

        let on = Tracer::new(true);
        on.span("outer", None, |outer| {
            on.span("inner", outer, |_| ());
        });
        let spans = on.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }
}
