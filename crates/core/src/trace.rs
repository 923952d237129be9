//! Schedule tracing for failure diagnosis ([`CaseTrace`]).
//!
//! When the differential fuzzing oracle (`incgraph-oracle`) reproduces a
//! divergence, the *values* alone rarely explain it — the interesting
//! question is what schedule the engine ran: how many variables each
//! fixpoint resumed from and how much work each run did. This module is
//! the hook the engine reports through: tracing is off by default (one
//! relaxed atomic load per fixpoint run), and when a harness turns it on
//! via [`CaseTrace::start`], every
//! [`Engine::run`](crate::engine::Engine::run) appends a [`TraceEvent`]
//! summarizing its schedule, which [`CaseTrace::finish`] collects for
//! embedding into a replayable case file.
//!
//! The recorder is process-global (the engine is buried inside algorithm
//! states and threading a handle through every layer would distort the
//! APIs the paper mandates); keep at most one trace active at a time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::engine::RunStats;

/// One fixpoint run as the engine saw it.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Variables seeded into the initial scope `H⁰`.
    pub scope: usize,
    /// Work counters of the run.
    pub stats: RunStats,
}

impl TraceEvent {
    /// Compact one-line rendering for case-file comments.
    pub fn summary(&self) -> String {
        format!(
            "scope={} pops={} evals={} changes={} distinct={}{}",
            self.scope,
            self.stats.pops,
            self.stats.evals,
            self.stats.changes,
            self.stats.distinct_vars,
            if self.stats.aborted { " ABORTED" } else { "" }
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Handle for collecting the engine's schedule summaries.
pub struct CaseTrace;

impl CaseTrace {
    /// Starts recording, discarding any events from a previous trace.
    pub fn start() {
        let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
        events.clear();
        ENABLED.store(true, Ordering::Release);
    }

    /// Stops recording and returns the events in arrival order.
    pub fn finish() -> Vec<TraceEvent> {
        ENABLED.store(false, Ordering::Release);
        let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *events)
    }

    /// Whether a trace is active (the engine's fast-path check).
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Appends an event if tracing is active. The engine calls this once per
/// completed run, never per pop, so the mutex is off every hot path.
/// The observability registry taps the same seam: it wants exactly the
/// per-run schedule summary this hook already sees.
pub(crate) fn record(scope: usize, stats: &RunStats) {
    if incgraph_obs::enabled() {
        forward_obs(scope, stats);
    }
    if !CaseTrace::enabled() {
        return;
    }
    let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    events.push(TraceEvent {
        scope,
        stats: *stats,
    });
}

/// Forwards one completed run's counters to the observability layer.
/// Names are static (`engine.*`) so recording allocates nothing; the
/// ambient class label set by the guarded-update path attributes the run
/// to its query class.
fn forward_obs(scope: usize, stats: &RunStats) {
    use incgraph_obs as obs;
    obs::counter("engine.runs", 1);
    obs::counter("engine.pops", stats.pops);
    obs::counter("engine.evals", stats.evals);
    obs::counter("engine.changes", stats.changes);
    obs::counter("engine.pushes", stats.pushes);
    obs::counter("engine.stale_pops", stats.stale_pops);
    obs::counter("engine.reads", stats.reads);
    obs::counter("engine.inspected", stats.distinct_vars);
    if stats.aborted {
        obs::counter("engine.aborts", 1);
    }
    obs::observe("engine.scope", scope as u64);
    obs::observe("engine.inspected_per_run", stats.distinct_vars);
    obs::observe("engine.changed_per_run", stats.changes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fixpoint;
    use crate::spec::FixpointSpec;
    use crate::status::Status;

    /// Trace tests share the process-global recorder; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Chain;
    impl FixpointSpec for Chain {
        type Value = u32;
        fn num_vars(&self) -> usize {
            4
        }
        fn bottom(&self, x: usize) -> u32 {
            x as u32
        }
        fn eval<R: FnMut(usize) -> u32>(&self, x: usize, read: &mut R) -> u32 {
            if x > 0 {
                (x as u32).min(read(x - 1))
            } else {
                0
            }
        }
        fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
            if x + 1 < 4 {
                push(x + 1);
            }
        }
        fn preceq(&self, a: &u32, b: &u32) -> bool {
            a <= b
        }
        fn rank(&self, _x: usize, v: &u32) -> u64 {
            *v as u64
        }
        fn push_rank(&self, _z: usize, _zv: &u32, _t: usize, tv: &u32) -> u64 {
            *tv as u64
        }
    }

    #[test]
    fn engine_runs_are_recorded() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        CaseTrace::start();
        let spec = Chain;
        let mut status = Status::init(&spec, false);
        run_fixpoint(&spec, &mut status, 0..4);
        let events = CaseTrace::finish();
        let ours: Vec<_> = events.iter().filter(|e| e.scope == 4).collect();
        assert!(!ours.is_empty(), "run not traced: {events:?}");
        assert!(ours[0].stats.pops >= 4);
        assert!(ours[0].summary().starts_with("scope=4 "));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Drain anything a previous trace left behind.
        CaseTrace::start();
        let _ = CaseTrace::finish();
        let spec = Chain;
        let mut status = Status::init(&spec, false);
        run_fixpoint(&spec, &mut status, 0..4);
        CaseTrace::start();
        let events = CaseTrace::finish();
        assert!(events.is_empty(), "untracked run leaked: {events:?}");
    }
}
