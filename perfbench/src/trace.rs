//! The span recorder of the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions; the program under test carries no tracing. Every span
//! has a name (`<layer>.<call>`), start and end, the span that caused it
//! and the item or request it belongs to. Spans stay in memory until the
//! run ends, when [`Recorder::write_chrome_trace`] writes them once as
//! Chrome trace-event JSON and [`Recorder::self_times`] folds them into
//! per-name self time (a span's duration minus the time its children
//! cover).
//!
//! Parents are tracked per thread. A call that hops to another thread
//! (the parser's big-stack thread, a pool worker) takes its parent along
//! with [`Recorder::current`] and [`Recorder::span_in`].
//!
//! Recording can be switched off ([`Recorder::set_recording`]); a span
//! call then only runs its closure. The traced run times the same calls
//! both ways to measure what recording costs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`, e.g. `syntax.parse` or `pta.solve.baseline`.
    pub name: &'static str,
    /// The item (page, program, request, job) the span belongs to.
    pub item: u64,
    /// Start, in microseconds since the origin.
    pub start_us: f64,
    /// End, in microseconds since the origin.
    pub end_us: f64,
    /// A small per-thread number for the trace viewer.
    pub tid: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Records spans in memory.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    recording: AtomicBool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            recording: AtomicBool::new(true),
        }
    }
}

impl Recorder {
    /// Switches recording on (the default) or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// The innermost open span on this thread (0 when none).
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Runs `f` inside a span whose parent is the innermost open span of
    /// this thread.
    pub fn span<T>(&self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.current();
        self.span_in(parent, name, item, f)
    }

    /// Runs `f` inside a span with an explicit parent (for calls that run
    /// on a thread other than their cause's).
    pub fn span_in<T>(
        &self,
        parent: u64,
        name: &'static str,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.recording() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            item,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("span list").push(span);
        out
    }

    /// A copy of every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    /// Self time per span name: total milliseconds, and the number of
    /// spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        self_times(&self.spans())
    }

    /// Writes every span as Chrome trace-event JSON (complete `X` events).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                cat,
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.parent,
                s.item
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Folds spans into per-name self time (duration minus the durations of
/// direct children) and span counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ms.entry(s.parent).or_default() += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let own = (s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_across_threads() {
        let r = Recorder::default();
        r.span("bench.op", 7, || {
            let parent = r.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    r.span_in(parent, "syntax.parse", 7, || {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    })
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let op = spans.iter().find(|s| s.name == "bench.op").unwrap();
        let parse = spans.iter().find(|s| s.name == "syntax.parse").unwrap();
        assert_eq!(parse.parent, op.id);
        assert_eq!(parse.item, 7);
        let st = self_times(&spans);
        let (op_self, n) = st["bench.op"];
        assert_eq!(n, 1);
        assert!(op_self >= 4.0 && op_self < op.ms() - 19.0, "{op_self}");
        assert!(st["syntax.parse"].0 >= 19.0);
    }

    #[test]
    fn spans_are_not_kept_while_recording_is_off() {
        let r = Recorder::default();
        r.set_recording(false);
        assert_eq!(r.span("pta.precision", 1, || 3), 3);
        r.set_recording(true);
        r.span("pta.precision", 2, || ());
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].item, 2);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let r = Recorder::default();
        r.span("pta.solve.baseline", 1, || {
            r.span("pta.precision", 1, || ())
        });
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        r.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("pta.precision")
        );
    }
}
