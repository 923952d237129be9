//! Single-source shortest paths: Dijkstra as a fixpoint algorithm
//! (paper Fig. 1) and its deduced incremental algorithm `IncSSSP`
//! (paper Fig. 5 / Example 4).
//!
//! Status variable `x_v` = shortest distance from the source to `v`,
//! `⊥ = ∞`. The update function is
//! `f_{x_v}(Y) = min_{u ∈ in_nbr(v)} (x_u + L(u, v))`, the partial order
//! `⪯` is `≤` on distances (values only decrease during a run —
//! contracting — and `min` of sums is monotone), and the worklist rank is
//! the distance itself, which makes the generic engine behave exactly like
//! Dijkstra's priority queue on non-negative weights.
//!
//! `IncSSSP` is **deducible**: the order `<_C` is read off the final
//! distances (`x_u <_C x_v ⟺ x_u < x_v`, Example 3), so no timestamps are
//! kept. Its anchor sets are exactly `C_{x_v} = {x_u ∈ Y | x_u + L(u,v) =
//! x_v}` (Example 3): the contributor oracle pushes only the tightly
//! supported out-neighbors.

use crate::persist::{self, StateLoadError};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::{bounded_scope, pe_reset_scope, ContributorOracle, ScopeScratch};
use incgraph_core::spec::{FixpointSpec, Relax};
use incgraph_core::status::Status;
use incgraph_graph::ids::{Dist, INF_DIST};
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};

/// The SSSP fixpoint specification over the live graph.
///
/// Exposed so the bench crate can drive the raw engine (`bench_engine`);
/// normal users go through [`SsspState`].
pub struct SsspSpec<'g> {
    g: &'g DynamicGraph,
    source: NodeId,
}

impl<'g> SsspSpec<'g> {
    /// Specification for the given graph and source.
    pub fn new(g: &'g DynamicGraph, source: NodeId) -> Self {
        assert!((source as usize) < g.node_count(), "source out of range");
        SsspSpec { g, source }
    }
}

impl FixpointSpec for SsspSpec<'_> {
    type Value = Dist;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> Dist {
        if x == self.source as usize {
            0
        } else {
            INF_DIST
        }
    }

    fn eval<R: FnMut(usize) -> Dist>(&self, x: usize, read: &mut R) -> Dist {
        if x == self.source as usize {
            return 0;
        }
        let mut best = INF_DIST;
        for &(u, w) in self.g.in_neighbors(x as NodeId) {
            let du = read(u as usize);
            if du != INF_DIST {
                best = best.min(du + w as Dist);
            }
        }
        best
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        for &(v, _) in self.g.out_neighbors(x as NodeId) {
            push(v as usize);
        }
    }

    fn preceq(&self, a: &Dist, b: &Dist) -> bool {
        a <= b
    }

    fn relax(&self, z: usize, z_val: &Dist, trigger: usize, tv: &Dist) -> Relax<Dist> {
        // The relaxation of the paper's Fig. 1, line 7: when the tail's
        // distance drops to `tv`, the head's candidate is `tv + L(u, v)`.
        if z == self.source as usize || *tv == INF_DIST {
            return Relax::Skip;
        }
        let w = self
            .g
            .edge_weight(trigger as NodeId, z as NodeId)
            .expect("dependent implies an edge") as Dist;
        let cand = tv + w;
        if cand < *z_val {
            Relax::Set(cand)
        } else {
            Relax::Skip
        }
    }

    fn rank(&self, _x: usize, v: &Dist) -> u64 {
        *v
    }

    fn push_rank(&self, _z: usize, _zv: &Dist, _t: usize, tv: &Dist) -> u64 {
        // Process a relaxed node no earlier than the distance that
        // triggered it: pops then happen in near-final distance order.
        *tv
    }
}

/// Contributor oracle of `IncSSSP`: the order `<_C` is the old distance
/// value, and the anchor sets are exactly the paper's Example 3
/// (`C_{x_v} = {x_u ∈ Y | x_u + L(u,v) = x_v}`): a raised variable `x`
/// can only invalidate the out-neighbors whose old distance it *tightly*
/// supported.
struct SsspOracle<'a> {
    g: &'a DynamicGraph,
}

impl ContributorOracle<Dist> for SsspOracle<'_> {
    fn order_key(&self, x: usize, status: &Status<Dist>) -> u64 {
        status.get(x)
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<Dist>, push: &mut P) {
        // Called before x's raise lands, so this is x's pre-raise (old
        // fixpoint) distance; an anchored out-neighbor is exactly tight.
        let dx = status.get(x);
        if dx == u64::MAX {
            return;
        }
        for &(z, w) in self.g.out_neighbors(x as NodeId) {
            if status.get(z as usize) == dx + w as Dist {
                push(z as usize);
            }
        }
    }
}

/// SSSP state: the previous fixpoint plus the reusable engine, i.e.
/// everything `A_Δ` is allowed to keep between updates.
pub struct SsspState {
    source: NodeId,
    status: Status<Dist>,
    engine: Engine,
    /// Reusable arena for the scope function: epoch-reset bitmaps and
    /// high-water vectors make steady-state updates allocation-free.
    scratch: ScopeScratch,
}

impl SsspState {
    /// Runs batch Dijkstra (the fixpoint formulation) from `source`.
    pub fn batch(g: &DynamicGraph, source: NodeId) -> (Self, RunStats) {
        let spec = SsspSpec::new(g, source);
        // Deducible: no timestamps.
        let mut status = Status::init(&spec, false);
        let mut engine = Engine::new(spec.num_vars());
        // Initially only the source's out-neighbors can violate σ.
        let scope: Vec<usize> = g
            .out_neighbors(source)
            .iter()
            .map(|&(v, _)| v as usize)
            .collect();
        let stats = engine.run(&spec, &mut status, scope);
        (
            SsspState {
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

    /// The query source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Current shortest distance of every node ([`INF_DIST`] if
    /// unreachable).
    pub fn distances(&self) -> &[Dist] {
        self.status.values()
    }

    /// Distance of one node.
    pub fn distance(&self, v: NodeId) -> Dist {
        self.status.get(v as usize)
    }

    /// `IncSSSP` (paper Fig. 5): given the already-updated graph
    /// `G ⊕ ΔG` and the effective updates, adjusts the previous fixpoint
    /// via the initial scope function `h` and resumes the unchanged step
    /// function.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.ensure_size(g);
        let spec = SsspSpec::new(g, self.source);

        // Variables with evolved input sets: heads of changed edges (both
        // endpoints on undirected graphs, where in_nbr = nbr). A head is
        // kept only when its statement σ can actually be violated:
        // an inserted edge must *improve* on the stored distance, and a
        // deleted edge must have been *tight* (it supported the stored
        // distance). Anything else provably leaves f_x unchanged.
        self.scratch.touched.clear();
        {
            let status = &self.status;
            let touched = &mut self.scratch.touched;
            let mut consider = |tail: NodeId, head: NodeId, w: u64, inserted: bool| {
                let dt = status.get(tail as usize);
                if dt == INF_DIST {
                    return;
                }
                let keep = if inserted {
                    dt + w < status.get(head as usize)
                } else {
                    dt + w == status.get(head as usize)
                };
                if keep {
                    touched.push(head as usize);
                }
            };
            for op in applied.ops() {
                consider(op.src, op.dst, op.weight as u64, op.inserted);
                if !g.is_directed() {
                    consider(op.dst, op.src, op.weight as u64, op.inserted);
                }
            }
        }
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();

        // Deducible: the order <_C is read off the (live) distance
        // values themselves; no snapshot and no timestamps.
        let oracle = SsspOracle { g };
        let stats = bounded_scope(&spec, &oracle, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// The Theorem 1 construction for SSSP (ablation `abl-scope`): flood
    /// PE variables through dependency edges — i.e. everything reachable
    /// from the touched nodes — reset them to `∞`, and re-run. Correct
    /// but unbounded: contrast with [`update`](Self::update).
    pub fn update_pe_reset(
        &mut self,
        g: &DynamicGraph,
        applied: &AppliedBatch,
    ) -> BoundednessReport {
        self.ensure_size(g);
        let spec = SsspSpec::new(g, self.source);
        self.scratch.touched.clear();
        for op in applied.ops() {
            self.scratch.touched.push(op.dst as usize);
            if !g.is_directed() {
                self.scratch.touched.push(op.src as usize);
            }
        }
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();
        let stats = pe_reset_scope(&spec, &mut self.status, &mut self.scratch);
        // The reset region must be re-reachable from its boundary: seed
        // the engine with the region plus the sources feeding into it.
        let scope = &self.scratch.scope;
        let seeds = scope.iter().copied().chain([self.source as usize]);
        let run = self.engine.run(&spec, &mut self.status, seeds);
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// Resident bytes of the algorithm's state (Fig. 8 space experiment).
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence of the state (`SaveState`): the
    /// source plus the distance status. See [`crate::persist`].
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("sssp");
        persist::put_u32(&mut out, self.source);
        persist::put_status(&mut out, &self.status, |d| d);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without running any fixpoint (`LoadState`): the blob *is* the
    /// fixpoint. The engine starts fresh.
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        let mut r = persist::expect_header("sssp", bytes)?;
        let source = r.u32()?;
        let status = persist::read_status(&mut r, Ok)?;
        r.finish()?;
        if status.len() != g.node_count() {
            return Err(StateLoadError::SizeMismatch {
                expected: g.node_count(),
                found: status.len(),
            });
        }
        if status.tracks_stamps() {
            return Err(StateLoadError::Malformed(
                "sssp is deducible and stores no timestamps".into(),
            ));
        }
        if (source as usize) >= g.node_count() {
            return Err(StateLoadError::Malformed("source out of range".into()));
        }
        Ok(SsspState {
            source,
            status,
            engine: Engine::new(g.node_count()),
            scratch: ScopeScratch::new(),
        })
    }

    /// Extends the state when nodes were added to the graph (vertex
    /// insertions are edge updates plus fresh `⊥` variables, §4).
    fn ensure_size(&mut self, g: &DynamicGraph) {
        let n = g.node_count();
        if n > self.status.len() {
            self.status.extend_to(n, |_| INF_DIST);
            self.engine = Engine::new(n);
        }
    }

    /// Test hook: corrupt one stored distance without restamping, to
    /// exercise the audit/fallback machinery.
    #[cfg(test)]
    pub(crate) fn poison(&mut self, v: NodeId, d: Dist) {
        self.status.set_unstamped(v as usize, d);
    }
}

impl crate::IncrementalState for SsspState {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        SsspState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = SsspState::batch(g, self.source);
        *self = fresh;
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        audit.run(&SsspSpec::new(g, self.source), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        SsspState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        SsspState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        *self = SsspState::restore(g, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    /// The paper's running example graph (Fig. 2(a), node 0 the source),
    /// reconstructed so that every value in Fig. 3 is reproduced: the
    /// SSSP distances and anchor sets of Fig. 3(a) (both the G and the
    /// G ⊕ ΔG columns), and the LCC degrees/triangle counts of Fig. 3(d).
    /// The dotted edge (5,3) is *not* present initially; ΔG deletes the
    /// bold edge (5,6) and inserts (5,3) with weight 1.
    pub(crate) fn paper_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new(true, 8);
        for (u, v, w) in [
            (0u32, 1u32, 6u32),
            (0, 2, 1),
            (2, 1, 4),
            (1, 4, 1),
            (1, 5, 1),
            (2, 5, 1),
            (4, 3, 1),
            (3, 1, 1),
            (4, 5, 1),
            (4, 6, 4),
            (5, 6, 1),
            (6, 7, 1),
            (2, 7, 4),
        ] {
            g.insert_edge(u, v, w);
        }
        g
    }

    fn dijkstra_reference(g: &DynamicGraph, s: NodeId) -> Vec<Dist> {
        // Textbook Dijkstra, independent of the fixpoint machinery.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = g.node_count();
        let mut dist = vec![INF_DIST; n];
        dist[s as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in g.out_neighbors(u) {
                let nd = d + w as Dist;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn batch_matches_paper_example() {
        let g = paper_graph();
        let (state, _) = SsspState::batch(&g, 0);
        assert_eq!(state.distances(), &[0, 5, 1, 7, 6, 2, 3, 4]);
    }

    #[test]
    fn incremental_matches_paper_example_4() {
        // ΔG: delete (5,6), insert dotted (5,3) with weight 1.
        let mut g = paper_graph();
        let (mut state, _) = SsspState::batch(&g, 0);
        let mut batch = UpdateBatch::new();
        batch.delete(5, 6).insert(5, 3, 1);
        let applied = batch.apply(&mut g);
        let report = state.update(&g, &applied);
        // Fig. 3(a), G ⊕ ΔG column.
        assert_eq!(state.distances(), &[0, 4, 1, 3, 5, 2, 9, 5]);
        // Boundedness: the affected area is small; far fewer than all 8
        // variables should have been raised by h.
        assert!(report.scope_size <= 5, "scope was {}", report.scope_size);
    }

    #[test]
    fn batch_agrees_with_reference_on_random_graph() {
        let g = incgraph_graph::gen::uniform(300, 1500, true, 10, 5, 42);
        let (state, _) = SsspState::batch(&g, 7);
        assert_eq!(state.distances(), dijkstra_reference(&g, 7).as_slice());
    }

    #[test]
    fn incremental_equals_recompute_random_mixed_updates() {
        let mut g = incgraph_graph::gen::uniform(200, 1000, true, 10, 5, 7);
        let (mut state, _) = SsspState::batch(&g, 0);
        use incgraph_graph::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(99);
        for round in 0..10 {
            let mut batch = UpdateBatch::new();
            for _ in 0..20 {
                let u = rng.gen_range(0..200) as NodeId;
                let v = rng.gen_range(0..200) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, rng.gen_range(1u32..=10));
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.distances(),
                dijkstra_reference(&g, 0).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn deleting_all_source_edges_disconnects() {
        let mut g = DynamicGraph::new(true, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        let (mut state, _) = SsspState::batch(&g, 0);
        assert_eq!(state.distances(), &[0, 1, 2]);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.distances(), &[0, INF_DIST, INF_DIST]);
    }

    #[test]
    fn insertion_reaching_disconnected_region() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(0, 1, 2);
        g.insert_edge(2, 3, 3);
        let (mut state, _) = SsspState::batch(&g, 0);
        assert_eq!(state.distances(), &[0, 2, INF_DIST, INF_DIST]);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 4);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.distances(), &[0, 2, 6, 9]);
    }

    #[test]
    fn undirected_graphs_are_supported() {
        let mut g = incgraph_graph::gen::grid(6, 6, 9, 3);
        let (mut state, _) = SsspState::batch(&g, 0);
        assert_eq!(state.distances(), dijkstra_reference(&g, 0).as_slice());
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1).insert(0, 35, 2);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.distances(), dijkstra_reference(&g, 0).as_slice());
    }

    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(true, 2);
        g.insert_edge(0, 1, 1);
        let (mut state, _) = SsspState::batch(&g, 0);
        let v = g.add_node(0);
        let mut batch = UpdateBatch::new();
        batch.insert(1, v, 5);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.distances(), &[0, 1, 6]);
    }

    #[test]
    fn noop_batch_inspects_nothing() {
        let mut g = paper_graph();
        let (mut state, _) = SsspState::batch(&g, 0);
        let applied = UpdateBatch::new().apply(&mut g);
        let report = state.update(&g, &applied);
        assert_eq!(report.scope_size, 0);
        assert_eq!(report.run_stats.pops, 0);
    }

    #[test]
    fn unit_by_unit_agrees_with_batch_update() {
        // IncSSSP_n: apply each unit update separately; the final
        // distances must agree with one batched IncSSSP run.
        let base = incgraph_graph::gen::uniform(150, 700, true, 10, 5, 5);
        let mut batch = UpdateBatch::new();
        batch
            .delete(0, 1)
            .insert(3, 77, 2)
            .insert(77, 99, 1)
            .delete(10, 20)
            .insert(99, 3, 4);

        let mut g1 = base.clone();
        let (mut bulk, _) = SsspState::batch(&g1, 3);
        let applied = batch.apply(&mut g1);
        bulk.update(&g1, &applied);

        let mut g2 = base.clone();
        let (mut unit, _) = SsspState::batch(&g2, 3);
        for u in batch.as_units() {
            let a = u.apply(&mut g2);
            unit.update(&g2, &a);
        }
        assert_eq!(bulk.distances(), unit.distances());
    }
}
