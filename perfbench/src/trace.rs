//! In-memory span recorder for the traced run.
//!
//! Spans sit around the calls the benchmark makes into each layer's
//! public functions: name, start, end, parent span, thread and (for
//! serving) request id. They stay in memory and are written once, at
//! exit, as Chrome trace-event JSON so that spans emitted inside the
//! program later can be merged into the same timeline. A disabled
//! tracer records nothing; its only cost per site is one branch.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// What was called, e.g. `conv0.fwd` or `serve.request`.
    pub name: String,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Small per-thread number.
    pub tid: u64,
    /// Request id shared by every span of one served request.
    pub req: Option<u64>,
}

impl Span {
    /// Wall time of the span.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span store shared by every thread of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_number() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            // A statistic-like counter that publishes no other data.
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span closed when the guard drops. `name` is only called
    /// when tracing is on, so disabled sites do not format names.
    pub fn span(&self, name: impl FnOnce() -> String, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard { tracer: self, open: Some((id, parent, name(), Instant::now())) }
    }

    /// Records a span whose bounds the caller measured itself, returning
    /// its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            tid: thread_number(),
            req,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }

    /// Writes the spans as Chrome trace-event JSON (`"X"` complete events,
    /// microsecond timestamps) with `metadata` (a JSON object) attached.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing `path`.
    pub fn write_chrome(&self, path: &std::path::Path, metadata: &str) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"metadata\": {metadata}, \"traceEvents\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let mut args = vec![("id", s.id.to_string())];
            if let Some(p) = s.parent {
                args.push(("parent", p.to_string()));
            }
            if let Some(r) = s.req {
                args.push(("req", r.to_string()));
            }
            write!(
                out,
                "{sep}\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {}}}",
                json::string(&s.name),
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                json::object(&args)
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(u64, Option<u64>, String, Instant)>,
}

impl SpanGuard<'_> {
    /// The span's id, to pass as a child's parent (`None` when off).
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            let t = self.tracer;
            t.push(Span {
                id,
                parent,
                name,
                start: start.saturating_duration_since(t.origin),
                end: end.saturating_duration_since(t.origin),
                tid: thread_number(),
                req: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span(|| unreachable!("names are not built when off"), None);
            assert_eq!(g.id(), None);
        }
        assert_eq!(t.record("x", None, Some(1), Instant::now(), Instant::now()), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::new(true);
        {
            let outer = t.span(|| "outer".into(), None);
            let _inner = t.span(|| "inner".into(), outer.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start >= outer.start && inner.end <= outer.end);

        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.json");
        t.write_chrome(&path, "{}").expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace read");
        assert!(text.contains("\"name\": \"inner\""));
        assert!(text.contains(&format!("\"parent\": {}", outer.id)));
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
    }
}
