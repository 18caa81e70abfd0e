//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent and thread. Spans are
//! kept in memory while the traced run executes and written out once at
//! the end; nothing is recorded while tracing is off, so the
//! end-to-end runs pay one relaxed atomic load per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Turn span recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    tracer();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; it ends when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Open a span named `name`, parented to the innermost open span of the
/// calling thread, or to `parent` when given (for work handed to
/// another thread).
pub fn span_with_parent(name: &'static str, parent: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = parent.or_else(|| STACK.with(|s| s.borrow().last().copied()));
    STACK.with(|s| s.borrow_mut().push(id));
    let start = t.epoch.elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, name, start)),
    }
}

pub fn span(name: &'static str) -> Guard {
    span_with_parent(name, None)
}

/// The innermost open span of the calling thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let t = tracer();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let thread = THREAD_ID.with(|t| *t);
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                thread,
            });
        }
    }
}

/// Every span recorded so far, in start order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *tracer().spans.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it that its child spans cover (children on other threads
/// may overlap one another; their union is subtracted once).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 * 1e-9;
    }
    out
}

/// The spans as JSON lines (one object per span).
pub fn render(spans: &[Span]) -> String {
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.thread
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            s(1, None, "root", 0, 1000),
            s(2, Some(1), "kid", 100, 400),
            s(3, Some(1), "kid", 300, 500),
            s(4, Some(2), "leaf", 150, 250),
        ];
        let out = self_seconds(&spans);
        assert!((out["root"] - 600e-9).abs() < 1e-15);
        assert!((out["kid"] - (200e-9 + 200e-9)).abs() < 1e-15);
        assert!((out["leaf"] - 100e-9).abs() < 1e-15);
    }
}
