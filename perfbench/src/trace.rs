//! The traced run's span recorder and self-time arithmetic.
//!
//! Spans are opened only by the benchmark's own code, around calls into
//! the engine's public functions (see `layers.rs`); nothing inside the
//! engine is instrumented. Each span records its name, start, end, the
//! span that caused it and the statement it belongs to. Spans stay in
//! memory until the run ends.
//!
//! A span's parent is the innermost span open on the same thread. A span
//! opened on a thread with no open span — the double-buffered SGD
//! pipeline's producer thread — takes the client's *ambient* parent,
//! which the statement code points at the operator that spawned the work.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Children may overlap each other (the
//! producer and consumer sides of the pipeline run at once) or reach past
//! the parent; only the covered part of the parent's own interval counts.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id; 0 for a statement root.
    pub parent: u64,
    /// Id of the statement root this span belongs to.
    pub stmt: u64,
    /// Layer-qualified name, e.g. `storage.scan`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-client recording handle: cheap to clone, shareable across the
/// threads a statement runs on.
#[derive(Clone)]
pub struct Tracer {
    rec: Arc<Recorder>,
    /// Current statement root id.
    stmt: Arc<AtomicU64>,
    /// Parent for spans opened on a thread with no open span.
    ambient: Arc<AtomicU64>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder with one client handle; more clients via [`Tracer::client`].
    pub fn new() -> Self {
        Tracer {
            rec: Arc::new(Recorder {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            }),
            stmt: Arc::new(AtomicU64::new(0)),
            ambient: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Another client's handle onto the same recorder (own statement and
    /// ambient state, shared clock and id space).
    pub fn client(&self) -> Self {
        Tracer {
            rec: Arc::clone(&self.rec),
            stmt: Arc::new(AtomicU64::new(0)),
            ambient: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Open a statement root named after its kind (`stmt.train`, …);
    /// later spans of this client belong to it.
    pub fn statement(&self, kind: &'static str) -> Guard<'_> {
        let g = self.open(kind, 0, true);
        self.stmt.store(g.id, Ordering::SeqCst);
        self.ambient.store(g.id, Ordering::SeqCst);
        g
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let parent = OPEN
            .with(|o| o.borrow().last().copied())
            .unwrap_or_else(|| self.ambient.load(Ordering::SeqCst));
        self.open(name, parent, false)
    }

    /// Id of the statement root opened last on this client.
    pub fn current_statement(&self) -> u64 {
        self.stmt.load(Ordering::SeqCst)
    }

    /// Make `id` the parent of spans opened on threads with no open span.
    pub fn set_ambient(&self, id: u64) {
        self.ambient.store(id, Ordering::SeqCst);
    }

    fn open(&self, name: &'static str, parent: u64, root: bool) -> Guard<'_> {
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard {
            tracer: self,
            id,
            parent,
            stmt: if root {
                id
            } else {
                self.stmt.load(Ordering::SeqCst)
            },
            name,
            start: self.now(),
        }
    }

    fn now(&self) -> u64 {
        self.rec.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.rec.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    stmt: u64,
    name: &'static str,
    start: u64,
}

impl Guard<'_> {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|id| *id == self.id) {
                o.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            stmt: self.stmt,
            name: self.name,
            start: self.start,
            end,
        };
        if let Ok(mut spans) = self.tracer.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time (ns) of every span: its duration minus what its direct
/// children cover of its interval.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], |v| v.as_slice());
            (s.id, s.dur() - covered(s.start, s.end, kids))
        })
        .collect()
}

/// One statement's wall time split by layer.
#[derive(Debug, Clone, Default)]
pub struct StatementProfile {
    /// Root span name, e.g. `stmt.train`.
    pub kind: &'static str,
    /// Statement wall ns.
    pub wall: u64,
    /// Wall ns no named layer covers (the root's own self time).
    pub unattributed: u64,
    /// Self ns by layer span name.
    pub self_ns: HashMap<&'static str, u64>,
}

impl StatementProfile {
    /// Self ns of `name` in this statement (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Per-statement profiles keyed by statement root id.
pub fn profiles(spans: &[Span]) -> HashMap<u64, StatementProfile> {
    let selfs = self_times(spans);
    let mut by_stmt: HashMap<u64, StatementProfile> = HashMap::new();
    for s in spans {
        let p = by_stmt.entry(s.stmt).or_default();
        if s.parent == 0 {
            p.kind = s.name;
            p.wall = s.dur();
            p.unattributed = selfs[&s.id];
        } else {
            *p.self_ns.entry(s.name).or_default() += selfs[&s.id];
        }
    }
    by_stmt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping and nested intervals count once.
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40), (25, 26)]), 30);
        // Touching intervals merge without a gap.
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20);
        // Parts outside the window do not count.
        assert_eq!(covered(50, 100, &[(0, 60), (90, 200)]), 20);
        assert_eq!(covered(50, 100, &[(0, 40)]), 0);
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        // statement [0,100) > exec [10,90) > scan [20,50) > decode [25,45)
        let spans = vec![
            span(1, 0, "stmt", 0, 100),
            span(2, 1, "exec", 10, 90),
            span(3, 2, "scan", 20, 50),
            span(4, 3, "decode", 25, 45),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 50);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 20);
        // Self times partition the statement's wall exactly.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_on_two_threads_are_not_double_subtracted() {
        // exec [0,100) with a producer-side fill [10,60) and a
        // consumer-side kernel [40,80) running at the same time.
        let spans = vec![
            span(1, 0, "stmt", 0, 100),
            span(2, 1, "exec", 0, 100),
            span(3, 2, "fill", 10, 60),
            span(4, 2, "kernel", 40, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&2], 100 - 70);
        assert_eq!(st[&3], 50);
        assert_eq!(st[&4], 40);
        assert_eq!(st[&1], 0);
    }

    #[test]
    fn a_child_reaching_past_its_parent_subtracts_only_the_overlap() {
        let spans = vec![span(1, 0, "stmt", 0, 50), span(2, 1, "late", 40, 70)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 30);
    }

    #[test]
    fn profiles_sum_self_time_per_name_and_statement() {
        let mut spans = vec![
            span(1, 0, "stmt", 0, 100),
            span(2, 1, "scan", 0, 30),
            span(3, 1, "scan", 50, 70),
        ];
        spans.push(Span {
            id: 4,
            parent: 0,
            stmt: 4,
            name: "stmt",
            start: 200,
            end: 210,
        });
        let p = profiles(&spans);
        assert_eq!(p.len(), 2);
        assert_eq!(p[&1].kind, "stmt");
        assert_eq!(p[&1].wall, 100);
        assert_eq!(p[&1].get("scan"), 50);
        assert_eq!(p[&1].unattributed, 50);
        assert_eq!(p[&4].wall, 10);
        assert_eq!(p[&4].get("scan"), 0);
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let t = Tracer::new();
        let (stmt_id, exec_id);
        {
            let stmt = t.statement("stmt");
            stmt_id = stmt.id();
            let exec = t.span("exec");
            exec_id = exec.id();
            t.set_ambient(exec_id);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _fill = t.span("fill");
                    let _scan = t.span("scan");
                });
            });
        }
        let spans = t.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        assert_eq!(by("stmt").parent, 0);
        assert_eq!(by("exec").parent, stmt_id);
        assert_eq!(by("fill").parent, exec_id);
        assert_eq!(by("scan").parent, by("fill").id);
        assert!(spans.iter().all(|s| s.stmt == stmt_id));
    }
}
