//! In-memory span recording around calls into the dcfb crates.
//!
//! A span holds its name (`<layer>.<call>`), start, end, parent span
//! and a job id shared by every span of one served job or simulated
//! spec. Spans stay in memory while the run measures and are written
//! out once it ends, as JSON lines and as a Chrome trace rendered by the
//! same writer `dcfb profile` uses.

use dcfb_telemetry::{chrome_trace_json, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique, non-zero span id.
    pub id: u64,
    /// Enclosing span id (0 for none). The parent may run on another
    /// thread, e.g. a worker-pool pass and its cells.
    pub parent: u64,
    /// Job id shared by all spans of one job (0 for none).
    pub job: u64,
    /// `<layer>.<call>`, e.g. `sim.run_resolved`.
    pub name: &'static str,
    /// Recording thread, numbered in order of first use.
    pub lane: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// This thread's lane number, the `tid` of its spans.
pub fn lane() -> u32 {
    LANE.with(|l| *l)
}

/// Records spans while enabled; a disabled tracer only calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans that start afterwards.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id (0 when disabled) to pass to its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled() {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let lane = lane();
        let span = Span {
            id,
            parent,
            job,
            name,
            lane,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker")
            .push(span);
        out
    }

    /// Removes and returns every recorded span, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Splits the wall time of span `root` among layers by self time.
///
/// At every instant inside `root`, the spans that are active and have
/// no active child are "self-active"; the instant is shared equally
/// among them. On one thread this is the span's duration minus the time
/// its children cover; when children run concurrently on several
/// threads each gets its share of the wall clock. The parts therefore
/// sum to the root's duration. Returns per-layer nanoseconds and the
/// root's duration.
pub fn self_time_by_layer(spans: &[Span], root: u64) -> (BTreeMap<&'static str, f64>, f64) {
    let mut parts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let Some(root_span) = spans.iter().find(|s| s.id == root) else {
        return (parts, 0.0);
    };
    let inside: Vec<&Span> = spans
        .iter()
        .filter(|s| s.start_ns >= root_span.start_ns && s.end_ns <= root_span.end_ns)
        .collect();
    // (time, is_start, index); ends sort before starts at equal times.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(inside.len() * 2);
    for (i, s) in inside.iter().enumerate() {
        events.push((s.start_ns, true, i));
        events.push((s.end_ns, false, i));
    }
    events.sort_by_key(|&(t, is_start, i)| (t, is_start, i));
    let mut active: Vec<usize> = Vec::new();
    let mut active_children: HashMap<u64, usize> = HashMap::new();
    let mut prev = root_span.start_ns;
    for (t, is_start, i) in events {
        if t > prev && !active.is_empty() {
            let selfish: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| active_children.get(&inside[a].id).copied().unwrap_or(0) == 0)
                .collect();
            let share = (t - prev) as f64 / selfish.len().max(1) as f64;
            for a in selfish {
                *parts.entry(inside[a].layer()).or_insert(0.0) += share;
            }
        }
        prev = prev.max(t);
        let parent = inside[i].parent;
        if is_start {
            active.push(i);
            *active_children.entry(parent).or_insert(0) += 1;
        } else {
            active.retain(|&a| a != i);
            if let Some(c) = active_children.get_mut(&parent) {
                *c = c.saturating_sub(1);
            }
        }
    }
    let wall = (root_span.end_ns - root_span.start_ns) as f64;
    (parts, wall)
}

/// One JSON object per span, one per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"layer\":\"{}\",\"tid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.job,
            s.name,
            s.layer(),
            s.lane,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

/// A Chrome trace (`chrome://tracing`, Perfetto) of the spans, written
/// by the same serializer as `dcfb profile`: one complete event per
/// span, microsecond timestamps, one lane per thread.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| {
            let mut e = TraceEvent::span(
                s.name,
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
                s.lane,
            );
            e.args = vec![("id", s.id), ("parent", s.parent), ("job", s.job)];
            e
        })
        .collect();
    chrome_trace_json(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, lane: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name,
            lane,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_self_time_sums_to_wall() {
        let spans = vec![
            span(1, 0, "harness.run", 0, 0, 100),
            span(2, 1, "sim.run", 0, 10, 60),
            span(3, 2, "workloads.resolve", 0, 10, 20),
        ];
        let (parts, wall) = self_time_by_layer(&spans, 1);
        assert_eq!(wall, 100.0);
        assert_eq!(parts["harness"], 50.0);
        assert_eq!(parts["sim"], 40.0);
        assert_eq!(parts["workloads"], 10.0);
        assert_eq!(parts.values().sum::<f64>(), wall);
    }

    #[test]
    fn concurrent_children_share_the_wall_clock() {
        // A pool pass on lane 0 with two cells on worker lanes; the
        // waiting pass is not self-active while its cells run.
        let spans = vec![
            span(1, 0, "harness.run", 0, 0, 100),
            span(2, 1, "bench.pass", 0, 0, 80),
            span(3, 2, "sim.cell", 1, 0, 80),
            span(4, 2, "sim.cell", 2, 0, 40),
        ];
        let (parts, wall) = self_time_by_layer(&spans, 1);
        assert_eq!(parts["sim"], 80.0);
        assert_eq!(parts["harness"], 20.0);
        assert!(!parts.contains_key("bench"));
        assert!((parts.values().sum::<f64>() - wall).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let t = Tracer::new();
        assert_eq!(t.span("sim.x", 0, 0, |id| id), 0);
        assert!(t.take().is_empty());
        t.set_enabled(true);
        t.span("harness.run", 0, 7, |root| {
            t.span("sim.run", root, 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "harness.run");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"layer\":\"sim\""));
        let chrome = to_chrome_trace(&spans);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
    }
}
