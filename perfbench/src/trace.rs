//! Spans the benchmark records around its own calls into each layer's
//! public functions. Nothing inside the program is instrumented: a span
//! is the wall time of one call as seen from outside.
//!
//! Spans are off unless [`enable`]d; a disabled [`span`] costs one
//! relaxed atomic load. Recorded spans stay in memory until [`take`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request this span served, when it belongs to one.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn recording on or off.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread, to parent spans recorded on
/// other threads.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    request: Option<u64>,
}

/// Open a span named `name`, child of this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    span_req(name, None)
}

/// [`span`] tagged with a request id.
pub fn span_req(name: &'static str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: None,
            name,
            start: Instant::now(),
            request,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start: Instant::now(),
        request,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.truncate(pos);
            }
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: ns(self.start),
            end_ns: ns(end),
            request: self.request,
        });
    }
}

/// Record a span measured elsewhere (e.g. a request sent by one thread
/// and answered on another).
pub fn record(
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<u64>,
    request: Option<u64>,
) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        request,
    });
}

fn push(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Every span recorded so far, leaving none behind.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span: its duration minus the part of it covered
/// by its children (overlapping children are counted once; the parts of
/// a child outside its parent are ignored).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), sorted by self time,
/// largest first.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Durations (seconds) of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// Median duration (seconds) of the spans named `name`, 0 when there
/// are none.
pub fn median_s(spans: &[Span], name: &str) -> f64 {
    let d = durations_s(spans, name);
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

/// Spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}\n",
            s.id,
            opt(s.parent),
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.request)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp(1, None, 0, 100),
            // two overlapping children cover 10..40 (30 ns) together
            sp(2, Some(1), 10, 30),
            sp(3, Some(1), 20, 40),
            // a child sticking out of its parent only counts inside it
            sp(4, Some(1), 90, 120),
            // a grandchild is the child's business, not the root's
            sp(5, Some(2), 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 6);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let st = self_times(&[sp(7, None, 5, 9)]);
        assert_eq!(st[&7], 4);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        // Other tests in this module do not enable tracing, so the only
        // spans recorded here are this test's.
        enable(true);
        {
            let _outer = span("outer");
            let outer_id = current();
            {
                let _inner = span_req("inner", Some(42));
                assert_ne!(current(), outer_id);
            }
            assert_eq!(current(), outer_id);
        }
        enable(false);
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(42));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let _quiet = span("disabled");
        drop(_quiet);
        assert!(take().is_empty());
    }
}
