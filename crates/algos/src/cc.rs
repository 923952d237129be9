//! Connected components: min-label propagation `CC_fp` (paper Example 2)
//! and its **weakly deducible** incremental algorithm `IncCC`
//! (paper Example 5).
//!
//! Status variable `x_v` = the component id of `v`, initialized to `v`'s
//! own id; the update function takes the minimum over the neighborhood,
//! so the final value is the minimum node id of `v`'s component. `⪯` is
//! `≤` on ids — contracting and monotonic.
//!
//! `IncCC` keeps **timestamps** (the one auxiliary structure weak
//! deducibility permits): the order `<_C` is the change order of the batch
//! run, and the anchor set of `x_w` consists of the neighbors whose label
//! settled *earlier* (smaller stamp). This is what makes a unit edge
//! deletion inside a stable component cheap — only the endpoint with the
//! larger timestamp can be truly affected — in contrast to the Theorem 1
//! PE-reset strategy of Example 2, which floods the entire component.
//! Both strategies are exposed; the PE one backs the `abl-scope`/`abl-ts`
//! ablations.

use crate::persist::{self, StateLoadError};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::{bounded_scope, pe_reset_scope, ContributorOracle, ScopeScratch};
use incgraph_core::spec::{FixpointSpec, Relax};
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId};

/// Component label type (a node id).
pub type CompId = u32;

/// The CC fixpoint specification over an (undirected) graph.
pub struct CcSpec<'g> {
    g: &'g DynamicGraph,
}

impl<'g> CcSpec<'g> {
    /// Specification over `g`. CC is defined on undirected graphs; for a
    /// directed graph this computes weakly connected components using the
    /// union of both adjacency directions.
    pub fn new(g: &'g DynamicGraph) -> Self {
        CcSpec { g }
    }

    fn neighbors(&self, v: usize, mut f: impl FnMut(usize)) {
        for &(u, _) in self.g.out_neighbors(v as NodeId) {
            f(u as usize);
        }
        if self.g.is_directed() {
            for &(u, _) in self.g.in_neighbors(v as NodeId) {
                f(u as usize);
            }
        }
    }
}

impl FixpointSpec for CcSpec<'_> {
    type Value = CompId;

    fn num_vars(&self) -> usize {
        self.g.node_count()
    }

    fn bottom(&self, x: usize) -> CompId {
        x as CompId
    }

    fn eval<R: FnMut(usize) -> CompId>(&self, x: usize, read: &mut R) -> CompId {
        // f_{x_v}(Y) = min({v} ∪ Y): the self term is folded in as the
        // constant `v` (see the FixpointSpec contract on self-reads).
        let mut m = x as CompId;
        self.neighbors(x, |u| m = m.min(read(u)));
        m
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        self.neighbors(x, push);
    }

    fn preceq(&self, a: &CompId, b: &CompId) -> bool {
        a <= b
    }

    fn relax(&self, _z: usize, z_val: &CompId, _trigger: usize, tv: &CompId) -> Relax<CompId> {
        // Min-label propagation: a neighbor's drop to `tv` can only pull
        // the label down to `tv`.
        if tv < z_val {
            Relax::Set(*tv)
        } else {
            Relax::Skip
        }
    }

    fn rank(&self, _x: usize, v: &CompId) -> u64 {
        *v as u64
    }

    fn push_rank(&self, _z: usize, _zv: &CompId, _t: usize, tv: &CompId) -> u64 {
        *tv as u64
    }
}

/// `IncCC`'s contributor oracle: order `<_C` from timestamps. A neighbor
/// `z` has `x` in its anchor set only if `z`'s label was *witnessed* by
/// `x` — same old value, later stamp (for min-propagation every anchor is
/// an equal-valued, earlier-settled neighbor), so `contributes_to(x)`
/// pushes exactly those.
struct CcOracle<'a> {
    g: &'a DynamicGraph,
}

impl CcOracle<'_> {
    fn neighbors(&self, v: usize, mut f: impl FnMut(usize)) {
        for &(u, _) in self.g.out_neighbors(v as NodeId) {
            f(u as usize);
        }
        if self.g.is_directed() {
            for &(u, _) in self.g.in_neighbors(v as NodeId) {
                f(u as usize);
            }
        }
    }
}

impl ContributorOracle<CompId> for CcOracle<'_> {
    fn order_key(&self, x: usize, status: &Status<CompId>) -> u64 {
        status.stamp(x)
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<CompId>, push: &mut P) {
        // Pre-raise value of x (contributes_to runs before the raise):
        // witnesses carry the same label with a later stamp.
        let sx = status.stamp(x);
        let vx = status.get(x);
        self.neighbors(x, |z| {
            if status.stamp(z) > sx && status.get(z) == vx {
                push(z);
            }
        });
    }
}

/// CC state: previous fixpoint (with timestamps) plus the reusable engine.
pub struct CcState {
    status: Status<CompId>,
    engine: Engine,
    /// Reusable arena for the scope function: epoch-reset bitmaps and
    /// high-water vectors make steady-state updates allocation-free.
    scratch: ScopeScratch,
}

impl CcState {
    /// Runs batch `CC_fp`.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        let spec = CcSpec::new(g);
        // Weakly deducible: timestamps on.
        let mut status = Status::init(&spec, true);
        let mut engine = Engine::new(spec.num_vars());
        let stats = engine.run(&spec, &mut status, 0..spec.num_vars());
        (
            CcState {
                status,
                engine,
                scratch: ScopeScratch::new(),
            },
            stats,
        )
    }

    /// Extends `out` with every status variable the last update *may*
    /// have changed: the initial scope `H⁰` plus the engine's changed-set
    /// log. Always a superset of the truly changed variables (the run
    /// pushes dependents beyond `H⁰`, which the logs capture; stale log
    /// entries from earlier runs merely cost a value comparison).
    pub(crate) fn delta_candidates(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.scratch.scope);
        out.extend_from_slice(self.engine.changed_vars());
    }

    /// Component id (= minimum node id of the component) of every node.
    pub fn components(&self) -> &[CompId] {
        self.status.values()
    }

    /// Component id of one node.
    pub fn component(&self, v: NodeId) -> CompId {
        self.status.get(v as usize)
    }

    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        let mut ids: Vec<CompId> = self.status.values().to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// `IncCC` (Example 5): timestamps determine `<_C`; the bounded scope
    /// function of Fig. 4 adjusts the previous fixpoint, and the unchanged
    /// step function is resumed.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.ensure_size(g);
        let spec = CcSpec::new(g);
        // Endpoints of changed edges, filtered as in the paper's
        // Example 5. A deleted edge can only invalidate a label that was
        // *witnessed* across it: both endpoints carry the same old label
        // and only the one with the larger timestamp may be truly
        // affected. An inserted edge can only lower the endpoint with the
        // larger old label. Equal-label insertions and distinct-label
        // deletions provably change nothing.
        self.scratch.touched.clear();
        for op in applied.ops() {
            let (a, b) = (op.src as usize, op.dst as usize);
            let (va, vb) = (self.status.get(a), self.status.get(b));
            if op.inserted {
                match va.cmp(&vb) {
                    std::cmp::Ordering::Less => self.scratch.touched.push(b),
                    std::cmp::Ordering::Greater => self.scratch.touched.push(a),
                    std::cmp::Ordering::Equal => {}
                }
            } else if va == vb {
                let e = if self.status.stamp(a) >= self.status.stamp(b) {
                    a
                } else {
                    b
                };
                if self.status.get(e) != e as CompId {
                    self.scratch.touched.push(e);
                }
            }
        }
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();
        // Weakly deducible: <_C comes from the live timestamps (h never
        // restamps, so these are the previous run's); no snapshots.
        let oracle = CcOracle { g };
        let stats = bounded_scope(&spec, &oracle, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// The deducible-but-unbounded strategy of Example 2 (Theorem 1):
    /// flood PE variables and reset them, using no timestamps. Kept as the
    /// ablation baseline contrasting Theorem 1 with Theorem 3.
    pub fn update_pe_reset(
        &mut self,
        g: &DynamicGraph,
        applied: &AppliedBatch,
    ) -> BoundednessReport {
        self.ensure_size(g);
        let spec = CcSpec::new(g);
        self.scratch.touched.clear();
        self.scratch.touched.extend(
            applied
                .ops()
                .iter()
                .flat_map(|o| [o.src as usize, o.dst as usize]),
        );
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();
        let stats = pe_reset_scope(&spec, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// Resident bytes of the algorithm's state (Fig. 8). Includes the
    /// timestamp array — the weakly-deducible overhead.
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence (`SaveState`): the label status
    /// *with its timestamps* — `IncCC` derives `<_C` from them, so a
    /// restore that dropped stamps would corrupt every later update.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("cc");
        persist::put_status(&mut out, &self.status, |v| v as u64);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without running any fixpoint (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        let mut r = persist::expect_header("cc", bytes)?;
        let status = persist::read_status(&mut r, |b| {
            u32::try_from(b)
                .map_err(|_| StateLoadError::Malformed(format!("label {b} exceeds u32")))
        })?;
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
                "cc is weakly deducible and requires timestamps".into(),
            ));
        }
        if status.values().iter().any(|&v| v as usize >= n) {
            return Err(StateLoadError::Malformed("label beyond node range".into()));
        }
        Ok(CcState {
            status,
            engine: Engine::new(n),
            scratch: ScopeScratch::new(),
        })
    }

    fn ensure_size(&mut self, g: &DynamicGraph) {
        let n = g.node_count();
        if n > self.status.len() {
            self.status.extend_to(n, |i| i as CompId);
            self.engine = Engine::new(n);
        }
    }
}

impl crate::IncrementalState for CcState {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        CcState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = CcState::batch(g);
        *self = fresh;
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        audit.run(&CcSpec::new(g), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        CcState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        CcState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        *self = CcState::restore(g, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    /// Reference: BFS labeling with min id per component.
    fn cc_reference(g: &DynamicGraph) -> Vec<CompId> {
        let n = g.node_count();
        let mut label = vec![CompId::MAX; n];
        for start in 0..n {
            if label[start] != CompId::MAX {
                continue;
            }
            // BFS; the component minimum is the smallest unvisited seed,
            // which is `start` itself since we scan in id order.
            let mut queue = vec![start];
            label[start] = start as CompId;
            while let Some(v) = queue.pop() {
                let mut visit = |u: usize| {
                    if label[u] == CompId::MAX {
                        label[u] = start as CompId;
                        queue.push(u);
                    }
                };
                for &(u, _) in g.out_neighbors(v as NodeId) {
                    visit(u as usize);
                }
                if g.is_directed() {
                    for &(u, _) in g.in_neighbors(v as NodeId) {
                        visit(u as usize);
                    }
                }
            }
        }
        label
    }

    #[test]
    fn batch_labels_components_with_min_id() {
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(1, 3, 1);
        g.insert_edge(3, 5, 1);
        g.insert_edge(2, 4, 1);
        let (state, _) = CcState::batch(&g);
        assert_eq!(state.components(), &[0, 1, 2, 1, 2, 1]);
        assert_eq!(state.component_count(), 3);
    }

    #[test]
    fn unit_deletion_in_stable_component_is_cheap() {
        // Example 5's point: deleting a non-bridge edge of one component
        // must not flood it.
        let mut g = DynamicGraph::new(false, 100);
        for i in 0..99u32 {
            g.insert_edge(i, i + 1, 1);
        }
        g.insert_edge(40, 60, 1); // chord: (50,51) deletion keeps connectivity
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(50, 51);
        let applied = batch.apply(&mut g);
        let report = state.update(&g, &applied);
        assert_eq!(state.components(), cc_reference(&g).as_slice());
        assert!(
            report.inspected_vars < 50,
            "stable component flooded: {} vars",
            report.inspected_vars
        );
    }

    #[test]
    fn pe_reset_floods_but_is_correct() {
        let mut g = DynamicGraph::new(false, 100);
        for i in 0..99u32 {
            g.insert_edge(i, i + 1, 1);
        }
        g.insert_edge(40, 60, 1);
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(50, 51);
        let applied = batch.apply(&mut g);
        let report = state.update_pe_reset(&g, &applied);
        assert_eq!(state.components(), cc_reference(&g).as_slice());
        assert_eq!(
            report.scope_size, 100,
            "Theorem 1 strategy floods the whole component"
        );
    }

    #[test]
    fn bridge_deletion_splits_component() {
        let mut g = DynamicGraph::new(false, 6);
        for i in 0..5u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut state, _) = CcState::batch(&g);
        assert_eq!(state.component_count(), 1);
        let mut batch = UpdateBatch::new();
        batch.delete(2, 3);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn insertion_merges_components() {
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(0, 1, 1);
        g.insert_edge(4, 5, 1);
        let (mut state, _) = CcState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 4, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 2, 3, 0, 0]);
    }

    #[test]
    fn successive_bridge_deletions_keep_stamps_honest() {
        // Found by `incgraph fuzz` (minimized to 2 updates; see
        // tests/corpus/). Edges 0-2, 1-5, 2-5: one component labeled 0.
        // Deleting 0-2 makes {1,2,5} re-label to 1; the scope function
        // raises 1 and 5 to values the engine then confirms unchanged.
        // If those raises had kept the refined value with its stale
        // timestamp, the change order would claim 5 settled before its
        // witness 1, and the next deletion (1-5) would pick node 1 as the
        // only possibly-affected endpoint, leaving 5's label stale at 1
        // instead of 2.
        let mut g = DynamicGraph::new(false, 6);
        g.insert_edge(0, 2, 2);
        g.insert_edge(1, 5, 1);
        g.insert_edge(2, 5, 6);
        let (mut state, _) = CcState::batch(&g);
        for (u, v) in [(0, 2), (1, 5)] {
            let mut batch = UpdateBatch::new();
            batch.delete(u, v);
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.components(),
                cc_reference(&g).as_slice(),
                "divergence after deleting ({u}, {v})"
            );
        }
    }

    #[test]
    fn repeated_rounds_stay_correct() {
        // Multi-round incremental runs exercise timestamp maintenance
        // across rounds (stamp drift would silently corrupt later rounds).
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(120, 200, false, 1, 1, 31);
        let (mut state, _) = CcState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(5);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let u = rng.gen_range(0..120) as NodeId;
                let v = rng.gen_range(0..120) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            assert_eq!(
                state.components(),
                cc_reference(&g).as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn directed_graphs_use_weak_connectivity() {
        let mut g = DynamicGraph::new(true, 4);
        g.insert_edge(1, 0, 1);
        g.insert_edge(2, 3, 1);
        let (mut state, _) = CcState::batch(&g);
        assert_eq!(state.components(), &[0, 0, 2, 2]);
        let mut batch = UpdateBatch::new();
        batch.insert(3, 1, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0, 0]);
    }

    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(false, 2);
        g.insert_edge(0, 1, 1);
        let (mut state, _) = CcState::batch(&g);
        let v = g.add_node(0);
        let mut batch = UpdateBatch::new();
        batch.insert(1, v, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_eq!(state.components(), &[0, 0, 0]);
    }
}
