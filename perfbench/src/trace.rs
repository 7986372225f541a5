//! In-memory span tracer for the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; the program under test is not
//! instrumented. Disabled (the default) every entry point costs one
//! relaxed atomic load, so the untraced runs measure the plain program.
//!
//! Each thread keeps a stack of open spans and a buffer of closed ones;
//! [`flush_thread`] moves the buffer to the global sink, so worker threads
//! never contend while they run. A span's self time is its duration minus
//! the time its children (spans and leaf timers on the same thread)
//! covered.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    leaves: Vec::new(),
});

/// One closed span. Times are nanoseconds since the tracer was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.pms.run`.
    pub name: &'static str,
    /// Participant index or cloud user the span worked for.
    pub actor: u32,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Part of the span covered by child spans and leaf timers.
    pub child_ns: u64,
}

impl Span {
    /// Duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time children covered.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Calls and total time of a leaf timer (a call too frequent for a span).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Leaf {
    /// Calls timed.
    pub calls: u64,
    /// Total nanoseconds.
    pub ns: u64,
}

struct Sink {
    spans: Vec<Span>,
    leaves: Vec<(&'static str, Leaf)>,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    actor: u32,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static CLOSED: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static LEAVES: RefCell<Vec<(&'static str, Leaf)>> = const { RefCell::new(Vec::new()) };
}

/// Turns tracing on for the rest of the process and drops anything
/// recorded before.
pub fn start() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
    take();
}

/// Whether tracing is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// Id of the innermost open span on this thread (0 when none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |o| o.id))
}

/// Runs `f` inside a span named `name`, parented to the innermost open
/// span on this thread.
pub fn span<R>(name: &'static str, actor: u32, f: impl FnOnce() -> R) -> R {
    span_under(name, actor, None, f)
}

/// Runs `f` inside a span whose parent is `parent` when given — used for
/// the root span of a worker thread, whose cause is open on another thread.
pub fn span_under<R>(
    name: &'static str,
    actor: u32,
    parent: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = parent.unwrap_or_else(|| s.last().map_or(0, |o| o.id));
        s.push(Open {
            id,
            parent,
            name,
            actor,
            start_ns: now_ns(),
            child_ns: 0,
        });
    });
    let out = f();
    let end_ns = now_ns();
    let span = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let open = s.pop().expect("span stack is balanced");
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            actor: open.actor,
            start_ns: open.start_ns,
            end_ns,
            child_ns: open.child_ns,
        };
        if let Some(top) = s.last_mut() {
            top.child_ns += span.dur_ns();
        }
        span
    });
    CLOSED.with(|c| c.borrow_mut().push(span));
    out
}

/// Times `f` into the leaf timer `name` and charges the time to the
/// innermost open span as child time.
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.child_ns += ns;
        }
    });
    LEAVES.with(|l| {
        let mut l = l.borrow_mut();
        match l.iter_mut().find(|(n, _)| *n == name) {
            Some((_, leaf)) => {
                leaf.calls += 1;
                leaf.ns += ns;
            }
            None => l.push((name, Leaf { calls: 1, ns })),
        }
    });
    out
}

/// Moves this thread's closed spans and leaf totals to the global sink.
pub fn flush_thread() {
    let spans = CLOSED.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let leaves = LEAVES.with(|l| std::mem::take(&mut *l.borrow_mut()));
    let mut sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking thread");
    sink.spans.extend(spans);
    for (name, leaf) in leaves {
        match sink.leaves.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => {
                total.calls += leaf.calls;
                total.ns += leaf.ns;
            }
            None => sink.leaves.push((name, leaf)),
        }
    }
}

/// Flushes the calling thread and drains everything recorded so far,
/// spans ordered by start time.
pub fn take() -> (Vec<Span>, Vec<(&'static str, Leaf)>) {
    flush_thread();
    let mut sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking thread");
    let mut spans = std::mem::take(&mut sink.spans);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    (spans, std::mem::take(&mut sink.leaves))
}

/// Sum of leaf `name` in a drained leaf list.
pub fn leaf_total(leaves: &[(&'static str, Leaf)], name: &str) -> Leaf {
    leaves
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(Leaf::default(), |(_, l)| *l)
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `id`,
/// `parent`, `actor`, `self_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"actor\":{},\"self_ns\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.id,
            s.parent,
            s.actor,
            s.self_ns()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let _guard = crate::tests::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        start();
        span("t.outer", 1, || {
            span("t.inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            leaf("t.leaf", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (spans, leaves) = take();
        let outer = spans.iter().find(|s| s.name == "t.outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "t.inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        let l = leaf_total(&leaves, "t.leaf");
        assert_eq!(l.calls, 1);
        assert_eq!(outer.child_ns, inner.dur_ns() + l.ns);
        assert!(outer.self_ns() < outer.dur_ns() / 2);
    }
}
