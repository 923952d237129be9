//! The step function `f_A`: a priority-worklist fixpoint driver.
//!
//! [`Engine::run`] implements one complete fixpoint computation: it pops
//! the scope variable with the smallest rank, re-evaluates its update
//! function, and on a change pushes the variable's dependents — exactly
//! the paper's step-function loop, specialized by nothing but the
//! [`FixpointSpec`] it is handed. Batch algorithms call it from
//! `(D⊥, H⁰)`; the deduced incremental algorithms call **the same
//! function** from the `(D⁰, H⁰)` produced by an initial scope function,
//! which is what makes them deducible.
//!
//! The engine's scratch arrays are epoch-versioned so that an incremental
//! run touches memory proportional to the variables it actually visits,
//! not to `|G|` — without that, the driver itself would break the
//! relative-boundedness story the experiments measure.

use crate::spec::{FixpointSpec, Relax};
use crate::status::Status;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest usable rank; `u64::MAX` is reserved as the "not enqueued"
/// sentinel in the dedup table.
const RANK_CAP: u64 = u64::MAX - 1;

/// Pending-work bitmask per variable.
const PEND_NONE: u8 = 0;
/// The variable's value was applied by a relaxation; its onward
/// propagation to dependents is outstanding.
const PEND_PROP: u8 = 1;
/// The variable's statement σ may be violated; re-evaluate `f_x`.
const PEND_EVAL: u8 = 2;

/// Work counters for one fixpoint run; the raw material of the paper's
/// `AFF`-relative measurements (Exp-1(1c)/(2c)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Worklist pops processed (stale entries excluded).
    pub pops: u64,
    /// Update-function evaluations (= non-stale pops).
    pub evals: u64,
    /// Evaluations that changed the variable's value.
    pub changes: u64,
    /// Dependent enqueue attempts.
    pub pushes: u64,
    /// Worklist entries discarded on pop because a lower-ranked or
    /// re-entrant push superseded them (lazy deletion). Pure scheduling
    /// overhead: each stale pop is a heap operation that did no fixpoint
    /// work.
    pub stale_pops: u64,
    /// Input-variable reads performed by update functions.
    pub reads: u64,
    /// Distinct status variables inspected in this run — the empirical
    /// affected-area size.
    pub distinct_vars: u64,
    /// Whether the run was aborted by the engine's work budget before
    /// reaching a fixpoint. An aborted run leaves the status mid-fixpoint;
    /// the caller must recompute from scratch (see `FallbackPolicy`).
    pub aborted: bool,
}

impl RunStats {
    /// Merges another run's counters into this one (used by the `Inc*_n`
    /// unit-at-a-time variants to aggregate over a batch).
    pub fn merge(&mut self, other: &RunStats) {
        self.pops += other.pops;
        self.evals += other.evals;
        self.changes += other.changes;
        self.pushes += other.pushes;
        self.stale_pops += other.stale_pops;
        self.reads += other.reads;
        self.distinct_vars += other.distinct_vars;
        self.aborted |= other.aborted;
    }
}

/// A reusable fixpoint driver for a fixed number of status variables.
///
/// Keep one `Engine` per algorithm instance: its scratch tables are
/// allocated once (`O(|Ψ_A|)`) and reset per run in `O(1)` via epochs, so
/// repeated incremental runs cost only the work they inspect.
#[derive(Clone, Debug)]
pub struct Engine {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Reusable dependent-collection buffer for the propagate loop.
    dep_buf: Vec<usize>,
    /// Rank of the live outstanding heap entry per variable, valid only
    /// when `epoch_of[x] == epoch`; `u64::MAX` = not enqueued.
    best: Vec<u64>,
    /// What the live entry will do when popped (`PEND_*`), valid only
    /// when `epoch_of[x] == epoch`.
    pend: Vec<u8>,
    /// Epoch in which `best[x]` / `pend[x]` / `seen[x]` were last written.
    epoch_of: Vec<u32>,
    /// Whether the variable was inspected this run (for `distinct_vars`).
    seen: Vec<bool>,
    epoch: u32,
    /// Abort a run once it has inspected this many distinct variables
    /// (`None` = unbounded). The degradation hook of `FallbackPolicy`:
    /// an incremental run that stops paying for itself is cut short
    /// mid-flight instead of grinding through an `|AFF| ≈ |Ψ|` scope.
    work_budget: Option<u64>,
    /// Peak heap length of the current/last run, for capacity policy.
    peak_heap: usize,
    /// Variables whose value changed during the last run, in application
    /// order (a variable may appear more than once). This is the engine's
    /// changed-set: the scope `H⁰` alone is *not* a safe candidate set for
    /// output diffing because propagation pushes dependents beyond it.
    changed: Vec<usize>,
}

impl Engine {
    /// Creates an engine for `num_vars` status variables.
    pub fn new(num_vars: usize) -> Self {
        Engine {
            heap: BinaryHeap::new(),
            dep_buf: Vec::new(),
            best: vec![u64::MAX; num_vars],
            pend: vec![PEND_NONE; num_vars],
            epoch_of: vec![0; num_vars],
            seen: vec![false; num_vars],
            epoch: 0,
            work_budget: None,
            peak_heap: 0,
            changed: Vec::new(),
        }
    }

    /// Variables whose value changed during the last [`run`](Self::run),
    /// in application order (duplicates possible). Cleared at the start of
    /// every run; callers diffing outputs should union this with the
    /// initial scope for a safe candidate superset.
    pub fn changed_vars(&self) -> &[usize] {
        &self.changed
    }

    /// Sets (or clears) the distinct-variable work budget for subsequent
    /// runs. When a run inspects more than `budget` distinct variables it
    /// aborts: the worklist is dropped, `RunStats::aborted` is set, and
    /// the status is left mid-fixpoint — callers must then fall back to a
    /// batch recompute.
    pub fn set_work_budget(&mut self, budget: Option<u64>) {
        self.work_budget = budget;
    }

    /// Current capacity of the worklist heap (regression hook for the
    /// shrink policy).
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Number of variables this engine was sized for.
    pub fn num_vars(&self) -> usize {
        self.best.len()
    }

    /// Heap bytes held by the engine's scratch structures.
    pub fn space_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Reverse<(u64, usize)>>()
            + self.dep_buf.capacity() * std::mem::size_of::<usize>()
            + self.best.capacity() * 8
            + self.pend.capacity()
            + self.epoch_of.capacity() * 4
            + self.seen.capacity()
            + self.changed.capacity() * std::mem::size_of::<usize>()
    }

    /// Runs the step function to a fixpoint from the given initial scope.
    ///
    /// Every variable in `scope` is treated as potentially violating its
    /// logical statement `σ_x` and re-evaluated; changes propagate to
    /// dependents until the scope empties. Propagation prefers the spec's
    /// single-input [`Relax`] fast path (the paper's Fig. 1 relaxation)
    /// and falls back to full re-evaluation. Returns work counters.
    ///
    /// In debug builds, each applied change is asserted to be contracting
    /// (`new ⪯ old`), the C2 precondition of Theorem 3.
    pub fn run<S: FixpointSpec>(
        &mut self,
        spec: &S,
        status: &mut Status<S::Value>,
        scope: impl IntoIterator<Item = usize>,
    ) -> RunStats {
        assert_eq!(
            spec.num_vars(),
            self.best.len(),
            "engine sized for a different variable count"
        );
        let _span = incgraph_obs::span("engine.run");
        self.advance_epoch();
        self.peak_heap = 0;
        self.changed.clear();
        let mut stats = RunStats::default();

        let mut scope_len = 0usize;
        for x in scope {
            scope_len += 1;
            let r = spec.rank(x, &status.get(x)).min(RANK_CAP);
            self.push(x, r, PEND_EVAL, &mut stats);
        }

        while let Some(Reverse((r, x))) = self.heap.pop() {
            if self.epoch_of[x] != self.epoch || self.best[x] != r || self.pend[x] == PEND_NONE {
                stats.stale_pops += 1; // lazy-deleted entry: pure overhead
                continue;
            }
            let kind = self.pend[x];
            self.pend[x] = PEND_NONE;
            self.best[x] = u64::MAX;
            stats.pops += 1;
            if !self.seen[x] {
                self.seen[x] = true;
                stats.distinct_vars += 1;
                if let Some(budget) = self.work_budget {
                    if stats.distinct_vars > budget {
                        // Budget blown: this run's affected area is too
                        // large for incremental maintenance to pay off.
                        // Drop the remaining work and report the abort;
                        // the status is now mid-fixpoint and must be
                        // rebuilt by a batch run.
                        self.heap.clear();
                        stats.aborted = true;
                        break;
                    }
                }
            }

            if kind & PEND_EVAL != 0 {
                let cur = status.get(x);
                let mut reads = 0u64;
                let newv = spec.eval(x, &mut |y| {
                    reads += 1;
                    status.get(y)
                });
                stats.evals += 1;
                stats.reads += reads;
                if newv != cur {
                    debug_assert!(
                        !spec.is_contracting() || spec.preceq(&newv, &cur),
                        "non-contracting step on var {x}: {cur:?} -> {newv:?}"
                    );
                    status.set(x, newv);
                    stats.changes += 1;
                    self.changed.push(x);
                    self.propagate(spec, status, x, &newv, &mut stats);
                } else if kind & PEND_PROP != 0 {
                    // The eval found σ_x already satisfied, but an earlier
                    // relaxation changed x's value and its propagation is
                    // still owed.
                    self.propagate(spec, status, x, &cur, &mut stats);
                }
            } else {
                // PEND_PROP: the value was applied by a relaxation; only
                // the onward propagation is outstanding.
                let v = status.get(x);
                self.propagate(spec, status, x, &v, &mut stats);
            }
        }
        // The heap is empty here. A one-off spike (a batch run, one huge
        // update) should not pin its high-water mark forever, but under a
        // steady update stream shrinking every run just forces realloc
        // churn on the next one — so capacity is dropped only when it
        // overshoots the run's actual peak by more than 4x.
        if self.heap.capacity() > 4 * self.peak_heap.max(1) {
            self.heap.shrink_to(self.peak_heap);
        }
        incgraph_obs::gauge("engine.heap_peak", self.peak_heap as u64);
        crate::trace::record(scope_len, &stats);
        stats
    }

    /// Propagates the (already applied) new value of `x` to dependents:
    /// relaxations apply immediately and queue onward propagation; the
    /// rest schedule full re-evaluations.
    fn propagate<S: FixpointSpec>(
        &mut self,
        spec: &S,
        status: &mut Status<S::Value>,
        x: usize,
        vx: &S::Value,
        stats: &mut RunStats,
    ) {
        // Collect dependents first: `dependents` borrows the spec/graph
        // which the relax path also reads. The buffer is reused across
        // calls to avoid allocation churn in the hot loop.
        let mut deps = std::mem::take(&mut self.dep_buf);
        deps.clear();
        spec.dependents(x, &mut |z| deps.push(z));
        for &z in &deps {
            let zv = status.get(z);
            stats.reads += 1;
            match spec.relax(z, &zv, x, vx) {
                Relax::Skip => {}
                Relax::Set(cand) => {
                    if cand != zv {
                        debug_assert!(
                            !spec.is_contracting() || spec.preceq(&cand, &zv),
                            "non-contracting relax on var {z}: {zv:?} -> {cand:?}"
                        );
                        status.set(z, cand);
                        stats.changes += 1;
                        self.changed.push(z);
                        let zr = spec.rank(z, &cand).min(RANK_CAP);
                        self.push(z, zr, PEND_PROP, stats);
                    }
                }
                Relax::Eval => {
                    let zr = spec.push_rank(z, &zv, x, vx).min(RANK_CAP);
                    self.push(z, zr, PEND_EVAL, stats);
                }
            }
        }
        self.dep_buf = deps;
    }

    fn push(&mut self, x: usize, rank: u64, kind: u8, stats: &mut RunStats) {
        stats.pushes += 1;
        if self.epoch_of[x] != self.epoch {
            self.epoch_of[x] = self.epoch;
            self.best[x] = u64::MAX;
            self.pend[x] = PEND_NONE;
            self.seen[x] = false;
        }
        // One live entry per variable, at rank `best[x]`. An EVAL request
        // subsumes a PROP request (re-evaluation both fixes the value and
        // propagates it), so kinds join upward; ranks join downward, and
        // a lowered rank supersedes the old entry (which then fails the
        // `best` check at pop).
        self.pend[x] |= kind;
        if rank < self.best[x] {
            self.best[x] = rank;
            self.heap.push(Reverse((rank, x)));
            self.peak_heap = self.peak_heap.max(self.heap.len());
        }
    }

    fn advance_epoch(&mut self) {
        self.heap.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset the versioned tables.
            self.best.iter_mut().for_each(|b| *b = u64::MAX);
            self.epoch_of.iter_mut().for_each(|e| *e = 0);
            self.seen.iter_mut().for_each(|s| *s = false);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// One-shot convenience wrapper: builds a throwaway [`Engine`] and runs to
/// fixpoint. Batch algorithms use this; incremental algorithms should keep
/// a reusable engine instead.
pub fn run_fixpoint<S: FixpointSpec>(
    spec: &S,
    status: &mut Status<S::Value>,
    scope: impl IntoIterator<Item = usize>,
) -> RunStats {
    Engine::new(spec.num_vars()).run(spec, status, scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Min-label propagation over a fixed 6-node undirected graph with two
    /// components {0,1,2,3} and {4,5} — a miniature CC.
    struct MiniCc {
        adj: Vec<Vec<usize>>,
    }

    impl MiniCc {
        fn new() -> Self {
            Self::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)])
        }

        fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in edges {
                adj[a].push(b);
                adj[b].push(a);
            }
            MiniCc { adj }
        }
    }

    impl FixpointSpec for MiniCc {
        type Value = u32;
        fn num_vars(&self) -> usize {
            self.adj.len()
        }
        fn bottom(&self, x: usize) -> u32 {
            x as u32
        }
        fn eval<R: FnMut(usize) -> u32>(&self, x: usize, read: &mut R) -> u32 {
            let mut m = x as u32;
            for &y in &self.adj[x] {
                m = m.min(read(y));
            }
            m
        }
        fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
            for &y in &self.adj[x] {
                push(y);
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
    fn converges_to_component_minima() {
        let spec = MiniCc::new();
        let mut status = Status::init(&spec, false);
        let stats = run_fixpoint(&spec, &mut status, 0..spec.num_vars());
        assert_eq!(status.values(), &[0, 0, 0, 0, 4, 4]);
        assert!(stats.changes >= 4, "labels 1,2,3,5 must drop");
    }

    #[test]
    fn church_rosser_any_seed_order() {
        let spec = MiniCc::new();
        let mut a = Status::init(&spec, false);
        run_fixpoint(&spec, &mut a, (0..6).rev());
        let mut b = Status::init(&spec, false);
        run_fixpoint(&spec, &mut b, [3, 0, 5, 1, 4, 2]);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn empty_scope_is_a_noop() {
        let spec = MiniCc::new();
        let mut status = Status::init(&spec, false);
        let stats = run_fixpoint(&spec, &mut status, std::iter::empty());
        assert_eq!(stats.pops, 0);
        assert_eq!(status.values(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn stamps_follow_the_causal_order() {
        // On a path seeded everywhere, every node's min-label change is
        // justified by its predecessor, so stamps must strictly increase
        // along the chain. The weakly deducible classes (CC, Sim, Reach)
        // read `<_C` off exactly these stamps.
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let spec = MiniCc::from_edges(n, &edges);
        let mut status = Status::init(&spec, true);
        Engine::new(n).run(&spec, &mut status, 0..n);
        for i in 1..n {
            assert_eq!(status.get(i), 0);
            assert!(
                status.stamp(i) > status.stamp(i - 1),
                "stamp({i}) must follow stamp({})",
                i - 1
            );
        }
    }

    #[test]
    fn resume_from_partial_scope_converges() {
        // Seed only node 3's region: value flows along the path.
        let spec = MiniCc::new();
        let mut status = Status::init(&spec, false);
        run_fixpoint(&spec, &mut status, [0, 1, 2, 3]);
        assert_eq!(&status.values()[..4], &[0, 0, 0, 0]);
        assert_eq!(&status.values()[4..], &[4, 5], "untouched region stays");
    }

    #[test]
    fn reusable_engine_isolates_runs() {
        let spec = MiniCc::new();
        let mut engine = Engine::new(spec.num_vars());
        let mut s1 = Status::init(&spec, false);
        engine.run(&spec, &mut s1, 0..6);
        let mut s2 = Status::init(&spec, false);
        let stats2 = engine.run(&spec, &mut s2, [4, 5]);
        assert_eq!(s2.values(), &[0, 1, 2, 3, 4, 4]);
        assert!(stats2.distinct_vars <= 2);
    }

    #[test]
    fn rank_order_limits_rework_on_chain() {
        // 0-1-2-3-4-5 path: with value-ranked pops, each label drops to 0
        // exactly once (Dijkstra-like single-settle behaviour).
        struct Chain;
        impl FixpointSpec for Chain {
            type Value = u32;
            fn num_vars(&self) -> usize {
                6
            }
            fn bottom(&self, x: usize) -> u32 {
                x as u32
            }
            fn eval<R: FnMut(usize) -> u32>(&self, x: usize, read: &mut R) -> u32 {
                let mut m = x as u32;
                if x > 0 {
                    m = m.min(read(x - 1));
                }
                if x < 5 {
                    m = m.min(read(x + 1));
                }
                m
            }
            fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
                if x > 0 {
                    push(x - 1);
                }
                if x < 5 {
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
        let spec = Chain;
        let mut status = Status::init(&spec, false);
        let stats = run_fixpoint(&spec, &mut status, 0..6);
        assert_eq!(status.values(), &[0; 6]);
        assert_eq!(stats.changes, 5, "each non-zero label settles once");
    }

    #[test]
    fn stale_pops_account_for_lazy_deletion() {
        let spec = MiniCc::new();
        let mut status = Status::init(&spec, false);
        let stats = run_fixpoint(&spec, &mut status, 0..6);
        assert!(
            stats.stale_pops > 0,
            "rank-lowering pushes must strand superseded entries"
        );
        // Every queued entry is eventually popped as processed or stale,
        // and dedup never queues more entries than push attempts.
        assert!(stats.pops + stats.stale_pops <= stats.pushes);
    }

    #[test]
    fn work_budget_aborts_runaway_run() {
        let spec = MiniCc::new();
        let mut engine = Engine::new(spec.num_vars());
        engine.set_work_budget(Some(2));
        let mut status = Status::init(&spec, false);
        let stats = engine.run(&spec, &mut status, 0..6);
        assert!(stats.aborted, "6-var scope must blow a 2-var budget");
        assert!(stats.distinct_vars <= 3);
        // Clearing the budget restores normal convergence on the same
        // engine instance.
        engine.set_work_budget(None);
        let mut s2 = Status::init(&spec, false);
        let st = engine.run(&spec, &mut s2, 0..6);
        assert!(!st.aborted);
        assert_eq!(s2.values(), &[0, 0, 0, 0, 4, 4]);
    }

    #[test]
    fn budget_within_limit_completes() {
        let spec = MiniCc::new();
        let mut engine = Engine::new(spec.num_vars());
        engine.set_work_budget(Some(64));
        let mut status = Status::init(&spec, false);
        let stats = engine.run(&spec, &mut status, 0..6);
        assert!(!stats.aborted);
        assert_eq!(status.values(), &[0, 0, 0, 0, 4, 4]);
    }

    #[test]
    fn aborted_flag_merges_sticky() {
        let mut a = RunStats::default();
        let b = RunStats {
            aborted: true,
            ..Default::default()
        };
        a.merge(&b);
        assert!(a.aborted);
        a.merge(&RunStats::default());
        assert!(a.aborted, "abort is sticky across merges");
    }

    #[test]
    fn heap_capacity_stable_across_repeated_incremental_runs() {
        // A big batch run sets a high-water mark; repeated small runs must
        // not oscillate between shrink-to-zero and re-grow (the realloc
        // churn the old unconditional shrink_to_fit caused).
        let spec = MiniCc::new();
        let mut engine = Engine::new(spec.num_vars());
        let mut status = Status::init(&spec, false);
        engine.run(&spec, &mut status, 0..6);
        // First small run may release the one-off spike.
        let mut s = Status::init(&spec, false);
        engine.run(&spec, &mut s, [4usize]);
        let settled = engine.heap_capacity();
        for _ in 0..10 {
            let mut s = Status::init(&spec, false);
            engine.run(&spec, &mut s, [4usize]);
            assert_eq!(
                engine.heap_capacity(),
                settled,
                "steady-state runs must not churn heap capacity"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different variable count")]
    fn engine_size_mismatch_is_caught() {
        let spec = MiniCc::new();
        let mut status = Status::init(&spec, false);
        Engine::new(3).run(&spec, &mut status, 0..6);
    }
}

#[cfg(test)]
mod relax_tests {
    use super::*;
    use crate::spec::Relax;

    /// Weighted min-propagation chain with a relax fast path, plus one
    /// "odd" variable that forces the Eval fallback: var 3's update
    /// function caps values at 7 (still monotone + contracting), which a
    /// single-input relax cannot express.
    struct Mixed;

    impl Mixed {
        const N: usize = 5;
    }

    impl FixpointSpec for Mixed {
        type Value = u64;
        fn num_vars(&self) -> usize {
            Self::N
        }
        fn bottom(&self, x: usize) -> u64 {
            if x == 0 {
                0
            } else {
                100
            }
        }
        fn eval<R: FnMut(usize) -> u64>(&self, x: usize, read: &mut R) -> u64 {
            match x {
                0 => 0,
                3 => (read(2) + 1).max(7),
                _ => read(x - 1) + 1,
            }
        }
        fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
            if x + 1 < Self::N {
                push(x + 1);
            }
        }
        fn preceq(&self, a: &u64, b: &u64) -> bool {
            a <= b
        }
        fn relax(&self, z: usize, z_val: &u64, _t: usize, tv: &u64) -> Relax<u64> {
            match z {
                0 => Relax::Skip,
                3 => Relax::Eval, // the capped update needs a real eval
                _ => {
                    let cand = tv + 1;
                    if cand < *z_val {
                        Relax::Set(cand)
                    } else {
                        Relax::Skip
                    }
                }
            }
        }
        fn rank(&self, _x: usize, v: &u64) -> u64 {
            *v
        }
        fn push_rank(&self, _z: usize, _zv: &u64, _t: usize, tv: &u64) -> u64 {
            *tv
        }
    }

    #[test]
    fn relax_and_eval_paths_compose() {
        let spec = Mixed;
        let mut status = Status::init(&spec, false);
        run_fixpoint(&spec, &mut status, [1usize]);
        // 0=0, 1=1, 2=2, 3=max(3,7)=7, 4=8.
        assert_eq!(status.values(), &[0, 1, 2, 7, 8]);
    }

    #[test]
    fn eval_with_pending_prop_still_propagates() {
        // Regression for the pend-bitmask bug: a variable whose value was
        // set by a relaxation and then re-requested for evaluation (which
        // finds no further change) must still propagate downstream.
        let spec = Mixed;
        let mut status = Status::init(&spec, false);
        // Seeding 1 AND 2: var 2 first receives a relax-set from 1's
        // change, and also carries its own EVAL request from the scope.
        run_fixpoint(&spec, &mut status, [1usize, 2]);
        assert_eq!(status.values(), &[0, 1, 2, 7, 8]);
    }

    #[test]
    fn relaxation_counts_changes_not_evals() {
        let spec = Mixed;
        let mut status = Status::init(&spec, false);
        let stats = run_fixpoint(&spec, &mut status, [1usize]);
        // Vars 1 (eval), 3 (eval) are the only full evaluations; 2 and 4
        // settle through relaxations.
        assert_eq!(stats.evals, 2, "only the seed and the Eval-fallback");
        assert_eq!(stats.changes, 4, "vars 1..4 all changed");
    }

    #[test]
    fn engine_reuse_across_epoch_wrap() {
        // Force an epoch wrap and check state isolation afterwards.
        let spec = Mixed;
        let mut engine = Engine::new(Mixed::N);
        engine.epoch = u32::MAX - 1;
        let mut s1 = Status::init(&spec, false);
        engine.run(&spec, &mut s1, [1usize]);
        let mut s2 = Status::init(&spec, false);
        engine.run(&spec, &mut s2, [1usize]); // wraps here
        assert_eq!(s1.values(), s2.values());
        let mut s3 = Status::init(&spec, false);
        engine.run(&spec, &mut s3, [1usize]);
        assert_eq!(s1.values(), s3.values());
    }
}
