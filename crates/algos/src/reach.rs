//! Single-source reachability: a worked example of **extending the
//! framework to a new query class** (the paper's §8 future-work
//! direction), included as the template users should copy.
//!
//! Reachability looks like a least fixpoint "from below", which seems to
//! clash with the framework's contracting model — the trick is choosing
//! the partial order. Declare `true ⪯ false` with `⊥ = false` (except the
//! source): the batch run then *contracts* from unreached toward reached,
//! the OR update function is monotone, and everything else — timestamps,
//! the Fig. 4 scope function, relative boundedness — follows exactly as
//! for CC. Edge deletions are the interesting case: the scope function
//! walks the discovery order and un-reaches exactly the vertices whose
//! surviving in-neighbors no longer justify them.
//!
//! Like CC and Sim, `IncReach` is *weakly deducible*: the order `<_C` is
//! the turn-`true` timestamp recorded by the batch run.

use crate::persist::{self, StateLoadError};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::{bounded_scope, ContributorOracle, ScopeScratch};
use incgraph_core::spec::{FixpointSpec, Relax};
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};

/// The reachability fixpoint specification over a graph.
pub struct ReachSpec<'g> {
    g: &'g DynamicGraph,
    source: NodeId,
}

impl<'g> ReachSpec<'g> {
    /// Specification for reachability from `source` in (directed) `g`.
    pub fn new(g: &'g DynamicGraph, source: NodeId) -> Self {
        assert!((source as usize) < g.node_count(), "source out of range");
        ReachSpec { g, source }
    }
}

impl FixpointSpec for ReachSpec<'_> {
    type Value = bool;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> bool {
        x == self.source as usize
    }

    fn eval<R: FnMut(usize) -> bool>(&self, x: usize, read: &mut R) -> bool {
        if x == self.source as usize {
            return true;
        }
        self.g
            .in_neighbors(x as NodeId)
            .iter()
            .any(|&(u, _)| read(u as usize))
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        for &(v, _) in self.g.out_neighbors(x as NodeId) {
            push(v as usize);
        }
    }

    fn preceq(&self, a: &bool, b: &bool) -> bool {
        // Flipped order: true ⪯ false. The run contracts from unreached
        // (⊥) down to reached.
        *a || !b
    }

    fn relax(&self, z: usize, z_val: &bool, _trigger: usize, tv: &bool) -> Relax<bool> {
        // An in-neighbor turning reached reaches z immediately.
        if z == self.source as usize {
            Relax::Skip
        } else if *tv && !z_val {
            Relax::Set(true)
        } else {
            Relax::Skip
        }
    }
}

/// `IncReach`'s contributor oracle: `<_C` by turn-`true` timestamp;
/// still-unreached variables sort last.
struct ReachOracle<'a> {
    g: &'a DynamicGraph,
}

impl ContributorOracle<bool> for ReachOracle<'_> {
    fn order_key(&self, x: usize, status: &Status<bool>) -> u64 {
        if status.get(x) {
            status.stamp(x)
        } else {
            u64::MAX
        }
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<bool>, push: &mut P) {
        let sx = status.stamp(x);
        for &(z, _) in self.g.out_neighbors(x as NodeId) {
            // z was discovered after x and could have been discovered
            // through x.
            if status.get(z as usize) && status.stamp(z as usize) > sx {
                push(z as usize);
            }
        }
    }
}

/// Reachability state: the previous fixpoint (with timestamps) plus the
/// reusable engine.
pub struct ReachState {
    source: NodeId,
    status: Status<bool>,
    engine: Engine,
    /// Reusable arena for the scope function: epoch-reset bitmaps and
    /// high-water vectors make steady-state updates allocation-free.
    scratch: ScopeScratch,
}

impl ReachState {
    /// Runs the batch fixpoint from `source`.
    pub fn batch(g: &DynamicGraph, source: NodeId) -> (Self, RunStats) {
        let spec = ReachSpec::new(g, source);
        let mut status = Status::init(&spec, true);
        let mut engine = Engine::new(spec.num_vars());
        let scope: Vec<usize> = g
            .out_neighbors(source)
            .iter()
            .map(|&(v, _)| v as usize)
            .collect();
        let stats = engine.run(&spec, &mut status, scope);
        (
            ReachState {
                source,
                status,
                engine,
                scratch: ScopeScratch::new(),
            },
            stats,
        )
    }

    /// Extends `out` with every status variable the last update *may*
    /// have changed: the initial scope `H⁰` plus the engine's changed-set
    /// log (always a superset of the truly changed variables; stale log
    /// entries merely cost a value comparison).
    pub(crate) fn delta_candidates(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.scratch.scope);
        out.extend_from_slice(self.engine.changed_vars());
    }

    /// Whether `v` is reachable from the source.
    pub fn reachable(&self, v: NodeId) -> bool {
        self.status.get(v as usize)
    }

    /// The reachability bitmap.
    pub fn reached(&self) -> &[bool] {
        self.status.values()
    }

    /// Number of reachable vertices (including the source).
    pub fn reached_count(&self) -> usize {
        self.status.values().iter().filter(|&&b| b).count()
    }

    /// `IncReach`: the bounded scope function over the discovery order,
    /// then the unchanged step function.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.ensure_size(g);
        let spec = ReachSpec::new(g, self.source);

        // Heads of changed edges (both endpoints on undirected graphs,
        // where the edge supports reachability in either direction),
        // filtered: an insertion matters only if it newly reaches its
        // head; a deletion only if the head was reached (its support may
        // be gone).
        self.scratch.touched.clear();
        {
            let status = &self.status;
            let touched = &mut self.scratch.touched;
            let mut consider = |tail: NodeId, head: NodeId, inserted: bool| {
                let tail_reached = status.get(tail as usize);
                let head_reached = status.get(head as usize);
                let keep = if inserted {
                    tail_reached && !head_reached
                } else {
                    head_reached
                };
                if keep {
                    touched.push(head as usize);
                }
            };
            for op in applied.ops() {
                consider(op.src, op.dst, op.inserted);
                if !g.is_directed() {
                    consider(op.dst, op.src, op.inserted);
                }
            }
        }
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();

        let oracle = ReachOracle { g };
        let stats = bounded_scope(&spec, &oracle, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// Resident bytes (weakly deducible: bitmap + timestamps).
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence (`SaveState`): the source plus the
    /// reachability status with its discovery-order timestamps.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("reach");
        persist::put_u32(&mut out, self.source);
        persist::put_status(&mut out, &self.status, |b| b as u64);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without running any fixpoint (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        let mut r = persist::expect_header("reach", bytes)?;
        let source = r.u32()?;
        let status = persist::read_status(&mut r, persist::dec_bool)?;
        r.finish()?;
        let n = g.node_count();
        if status.len() != n {
            return Err(StateLoadError::SizeMismatch {
                expected: n,
                found: status.len(),
            });
        }
        if !status.tracks_stamps() {
            return Err(StateLoadError::Malformed(
                "reach is weakly deducible and requires timestamps".into(),
            ));
        }
        if (source as usize) >= n {
            return Err(StateLoadError::Malformed("source out of range".into()));
        }
        Ok(ReachState {
            source,
            status,
            engine: Engine::new(n),
            scratch: ScopeScratch::new(),
        })
    }

    fn ensure_size(&mut self, g: &DynamicGraph) {
        let n = g.node_count();
        if n > self.status.len() {
            self.status.extend_to(n, |_| false);
            self.engine = Engine::new(n);
        }
    }
}

impl crate::IncrementalState for ReachState {
    fn name(&self) -> &'static str {
        "reach"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        ReachState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = ReachState::batch(g, self.source);
        *self = fresh;
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        audit.run(&ReachSpec::new(g, self.source), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        ReachState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        ReachState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        *self = ReachState::restore(g, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn bfs_reference(g: &DynamicGraph, s: NodeId) -> Vec<bool> {
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            for &(w, _) in g.out_neighbors(v) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    stack.push(w);
                }
            }
        }
        seen
    }

    #[test]
    fn batch_matches_bfs() {
        let g = incgraph_graph::gen::uniform(200, 600, true, 1, 1, 3);
        let (state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached(), bfs_reference(&g, 0).as_slice());
    }

    #[test]
    fn deletion_unreaches_dependents() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 4);
        let mut b = UpdateBatch::new();
        b.delete(1, 2);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, true, false, false]);
    }

    #[test]
    fn insertion_reaches_new_region() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 2);
        let mut b = UpdateBatch::new();
        b.insert(1, 2, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached_count(), 4);
    }

    #[test]
    fn undirected_deletion_retracts_the_tail_side() {
        // Regression: on undirected graphs an edge supports reachability
        // in both directions, so a delete op oriented *away* from the
        // source (src = far endpoint) must still retract that endpoint.
        // Found by the post-run fixpoint audit in the fault-injection
        // suite.
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert!(state.reachable(2));
        let mut b = UpdateBatch::new();
        b.delete(2, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, true, false]);
    }

    #[test]
    fn cycle_support_is_not_self_sustaining() {
        // 0 -> 1 -> 2 -> 1 cycle: deleting (0,1) must un-reach the cycle
        // even though 1 and 2 mutually support each other — exactly what
        // the timestamp order resolves.
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 1, 1);
        let (mut state, _) = ReachState::batch(&g, 0);
        assert_eq!(state.reached_count(), 3);
        let mut b = UpdateBatch::new();
        b.delete(0, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.reached(), &[true, false, false]);
    }

    #[test]
    fn random_rounds_match_bfs() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(100, 350, true, 1, 1, 17);
        let (mut state, _) = ReachState::batch(&g, 0);
        let mut rng = SplitMix64::seed_from_u64(23);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let u = rng.gen_range(0..100) as NodeId;
                let v = rng.gen_range(0..100) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.reached(),
                bfs_reference(&g, 0).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn localized_deletion_is_bounded() {
        // A wide shallow DAG: source fans out to 1000 heads, each with a
        // pendant; deleting one pendant edge inspects O(1) variables.
        let mut g = DynamicGraph::new(true, 2001);
        for i in 0..1000u32 {
            g.insert_edge(0, 1 + i, 1);
            g.insert_edge(1 + i, 1001 + i, 1);
        }
        let (mut state, _) = ReachState::batch(&g, 0);
        let mut b = UpdateBatch::new();
        b.delete(500, 1500);
        let applied = b.apply(&mut g);
        let report = state.update(&g, &applied);
        assert!(!state.reachable(1500));
        assert!(
            report.inspected_vars <= 4,
            "inspected {}",
            report.inspected_vars
        );
    }
}
