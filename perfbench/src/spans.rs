//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around public calls into the
//! program; nothing inside the program is instrumented. A span has a name,
//! a start, an end, a parent and a few labels; counters are summed by name.
//! Everything stays in memory until the run ends, when it is reduced to
//! per-layer metrics and written out as a Chrome trace.
//!
//! Each span keeps two clocks: wall time, and the CPU time of the thread
//! that opened it. The evaluation suite runs more simulation threads than
//! the machine has cores, so a span's wall time there includes time spent
//! waiting for a core; its busy-time metrics use the thread CPU clock.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cscnn::json::{ToJson, Value};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub labels: Vec<(&'static str, Cow<'static, str>)>,
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_start_ns: u64,
    pub cpu_end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// CPU time of the opening thread while the span was open.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_end_ns.saturating_sub(self.cpu_start_ns) as f64 * 1e-9
    }

    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

/// Collects spans and counters from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    state: Mutex<State>,
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            state: Mutex::new(State::default()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_in(name, None, Vec::new())
    }

    /// Opens a span with labels. `fallback_parent` is used when no span is
    /// open on this thread (work the program moved to its own threads).
    pub fn span_in(
        &self,
        name: &'static str,
        fallback_parent: Option<usize>,
        labels: Vec<(&'static str, Cow<'static, str>)>,
    ) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().or(fallback_parent);
            open.push(id);
            parent
        });
        SpanGuard {
            rec: self,
            id,
            parent,
            name,
            labels,
            start_ns: self.now_ns(),
            cpu_start_ns: thread_cpu_ns(),
        }
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        let mut state = self.state.lock().expect("recorder lock poisoned");
        *state.counters.entry(name).or_insert(0.0) += value;
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn drain(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        let mut state = self.state.lock().expect("recorder lock poisoned");
        let mut spans = std::mem::take(&mut state.spans);
        spans.sort_by_key(|s| s.id);
        (spans, std::mem::take(&mut state.counters))
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    labels: Vec<(&'static str, Cow<'static, str>)>,
    start_ns: u64,
    cpu_start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let cpu_end_ns = thread_cpu_ns();
        let end_ns = self.rec.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            labels: std::mem::take(&mut self.labels),
            tid: TID.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            cpu_start_ns: self.cpu_start_ns,
            cpu_end_ns,
        };
        // A poisoned lock only means another thread panicked mid-push; the
        // span list stays valid, and a panic here would abort the process.
        let mut state = self
            .rec
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.spans.push(span);
    }
}

/// CPU time consumed by the calling thread, in nanoseconds.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock_id: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and both callers pass a CPU-time clock id every Linux
    // kernel supports; `clock_gettime` writes only through the pointer it
    // is given.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    // Called from `SpanGuard::drop`, so a failure reads zero instead of
    // panicking.
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Without CPU clocks, CPU-time metrics read zero.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ns(_clock_id: i32) -> u64 {
    0
}

/// Length of the union of `intervals` (nanoseconds), clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Renders spans in the Chrome-trace "X" event form that `sim::trace`
/// uses (microsecond timestamps; the span id and parent go in `args`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), s.id.to_json()),
                ("parent".to_string(), s.parent.to_json()),
            ];
            for (k, v) in &s.labels {
                args.push(((*k).to_string(), v.as_ref().to_json()));
            }
            Value::Obj(vec![
                ("name".to_string(), s.name.to_json()),
                ("ph".to_string(), "X".to_json()),
                ("ts".to_string(), (s.start_ns as f64 * 1e-3).to_json()),
                (
                    "dur".to_string(),
                    ((s.end_ns - s.start_ns) as f64 * 1e-3).to_json(),
                ),
                ("pid".to_string(), Value::U64(0)),
                ("tid".to_string(), s.tid.to_json()),
                ("args".to_string(), Value::Obj(args)),
            ])
        })
        .collect();
    cscnn::json::to_string(&Value::Arr(events)).expect("finite trace values")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn nested_spans_record_parents() {
        let rec = Recorder::new();
        {
            let outer = rec.span("outer");
            let outer_id = outer.id();
            {
                let _inner = rec.span("inner");
            }
            drop(outer);
            let (spans, _) = rec.drain();
            let inner = spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.parent, Some(outer_id));
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _orphan = rec.span_in("worker", Some(99), Vec::new());
            });
        });
        let (spans, _) = rec.drain();
        assert_eq!(spans[0].parent, Some(99));
    }
}
