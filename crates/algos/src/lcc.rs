//! Local clustering coefficient: the `LCC_fp` fixpoint (paper §5.3) and
//! its deducible incremental algorithm `IncLCC`.
//!
//! Each node `v` carries **two** status variables: its degree `d_v` and
//! its triangle count `λ_v`; the coefficient is
//! `γ_v = 2 λ_v / (d_v (d_v − 1))`. Both update functions are pure
//! functions of the graph (their input sets contain no other status
//! variables), so the dependency graph has no edges and the fixpoint
//! converges in one round.
//!
//! LCC is **not** contracting (counts move both ways), so Theorem 3 does
//! not apply; instead `IncLCC` is deduced by the Theorem 1 PE-variable
//! strategy: for each changed edge `(u, v)`, the variables `d_u`, `d_v`
//! and `λ_w` for every `w` within one hop of `u` or `v` are marked PE and
//! re-evaluated by the unchanged step function. Because the dependency
//! graph is edgeless, the PE flood is exactly the one-hop ball — bounded
//! by construction, which is why `IncLCC` is deducible *and* relatively
//! bounded without timestamps.

use crate::persist::{self, StateLoadError};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::ScopeStats;
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Weight};

/// Count type for degrees and triangle counts.
pub type Count = u64;

/// Number of common neighbors of two sorted adjacency slices.
pub(crate) fn sorted_intersect_count(a: &[(NodeId, Weight)], b: &[(NodeId, Weight)]) -> Count {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The LCC fixpoint specification over an undirected graph.
/// Variable `2v` is `d_v`; variable `2v + 1` is `λ_v`.
pub struct LccSpec<'g> {
    g: &'g DynamicGraph,
}

impl<'g> LccSpec<'g> {
    /// Specification over `g`, which must be undirected.
    pub fn new(g: &'g DynamicGraph) -> Self {
        assert!(!g.is_directed(), "LCC is defined on undirected graphs");
        LccSpec { g }
    }
}

impl FixpointSpec for LccSpec<'_> {
    type Value = Count;

    fn num_vars(&self) -> usize {
        self.g.node_count() * 2
    }

    fn bottom(&self, _x: usize) -> Count {
        0
    }

    fn eval<R: FnMut(usize) -> Count>(&self, x: usize, _read: &mut R) -> Count {
        let v = (x / 2) as NodeId;
        if x.is_multiple_of(2) {
            // f_{d_v}: the degree.
            self.g.degree(v) as Count
        } else {
            // f_{λ_v}: triangles at v. Each triangle (v, a, b) is found at
            // both a and b when intersecting N(v) with N(a) and N(b).
            let nv = self.g.out_neighbors(v);
            let mut twice: Count = 0;
            for &(a, _) in nv {
                twice += sorted_intersect_count(nv, self.g.out_neighbors(a));
            }
            twice / 2
        }
    }

    fn dependents<P: FnMut(usize)>(&self, _x: usize, _push: &mut P) {
        // d and λ feed only the derived γ; no status variable depends on
        // another, so change propagation is empty.
    }

    fn preceq(&self, a: &Count, b: &Count) -> bool {
        a <= b
    }

    fn is_contracting(&self) -> bool {
        false
    }
}

/// Reusable flat scratch for the `IncLCC` delta path: the batch-edge
/// timeline overlay plus the λ delta accumulator. All lookups are binary
/// searches over sorted arrays — no hashing — and every vector keeps its
/// high-water capacity, so steady-state updates allocate nothing.
#[derive(Clone, Debug, Default)]
struct LccScratch {
    /// Sorted canonical `(min << 32) | max` keys of the batch's edges.
    keys: Vec<u64>,
    /// Present/absent in the current timeline view, parallel to `keys`.
    present: Vec<bool>,
    /// Batch incidences `(node, partner, key index)`, sorted by node, so
    /// batch-edge partners of a node are one range scan.
    incid: Vec<(NodeId, NodeId, u32)>,
    /// Accumulated `λ` deltas `(node, ±count)`, merged and applied once.
    deltas: Vec<(NodeId, i64)>,
    /// Distinct endpoint nodes of the batch (degree refresh).
    endpoints: Vec<NodeId>,
}

impl LccScratch {
    fn space_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.present.capacity()
            + self.incid.capacity() * std::mem::size_of::<(NodeId, NodeId, u32)>()
            + self.deltas.capacity() * std::mem::size_of::<(NodeId, i64)>()
            + self.endpoints.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// Canonical undirected key of `(a, b)`.
#[inline]
fn lcc_key(a: NodeId, b: NodeId) -> u64 {
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    ((x as u64) << 32) | y as u64
}

/// Whether edge `(a, b)` exists in the current timeline view: batch edges
/// answer from the overlay, every other edge is identical in all views
/// and answers from the final graph.
#[inline]
fn edge_in_view(g: &DynamicGraph, keys: &[u64], present: &[bool], a: NodeId, b: NodeId) -> bool {
    match keys.binary_search(&lcc_key(a, b)) {
        Ok(i) => present[i],
        Err(_) => g.has_edge(a, b),
    }
}

/// LCC state: the previous counts plus the reusable engine.
pub struct LccState {
    status: Status<Count>,
    engine: Engine,
    /// Flat scratch of the delta update path.
    scratch: LccScratch,
}

impl LccState {
    /// Runs batch `LCC_fp`.
    pub fn batch(g: &DynamicGraph) -> (Self, RunStats) {
        let spec = LccSpec::new(g);
        let mut status = Status::init(&spec, false);
        let mut engine = Engine::new(spec.num_vars());
        let stats = engine.run(&spec, &mut status, 0..spec.num_vars());
        (
            LccState {
                status,
                engine,
                scratch: LccScratch::default(),
            },
            stats,
        )
    }

    /// Extends `out` with every *node* whose packed LCC value the last
    /// update may have changed. The default delta path writes the status
    /// directly (no engine), so its candidates come from the scratch's
    /// accumulated λ deltas and degree-refresh endpoints; the engine logs
    /// log covers the re-evaluation ablation path. Always a superset of the
    /// truly changed nodes.
    pub(crate) fn delta_candidates(&self, out: &mut Vec<usize>) {
        out.extend(self.scratch.deltas.iter().map(|&(w, _)| w as usize));
        out.extend(self.scratch.endpoints.iter().map(|&e| e as usize));
        // Engine paths use the 2-per-node variable layout (2v = degree,
        // 2v+1 = triangles); fold both back to the node.
        out.extend(self.engine.changed_vars().iter().map(|&x| x / 2));
    }

    /// Degree of `v` as maintained by the fixpoint.
    pub fn degree(&self, v: NodeId) -> Count {
        self.status.get(v as usize * 2)
    }

    /// Triangle count of `v`.
    pub fn triangles(&self, v: NodeId) -> Count {
        self.status.get(v as usize * 2 + 1)
    }

    /// Local clustering coefficient `γ_v ∈ \[0, 1\]`.
    pub fn coefficient(&self, v: NodeId) -> f64 {
        let d = self.degree(v);
        if d < 2 {
            0.0
        } else {
            2.0 * self.triangles(v) as f64 / (d as f64 * (d - 1) as f64)
        }
    }

    /// All coefficients, in node order.
    pub fn coefficients(&self) -> Vec<f64> {
        (0..self.status.len() / 2)
            .map(|v| self.coefficient(v as NodeId))
            .collect()
    }

    /// `IncLCC`, delta form: instead of re-evaluating `f_{λ_w}` (a full
    /// neighborhood-intersection scan per affected node), maintain the
    /// triangle counts *arithmetically*. A changed edge `(u, v)` with `c`
    /// common neighbors in the graph state it was applied to changes
    /// `λ_u` and `λ_v` by `±c` and each common neighbor's `λ_w` by `±1`;
    /// degrees are re-read from the final graph. This is value-identical
    /// to the re-evaluation path (kept as
    /// [`update_reeval`](Self::update_reeval), the `abl` baseline) but
    /// does one intersection per changed edge instead of one per affected
    /// node — the difference between `O(Δ·d)` and `O(Δ·d²)` per batch.
    ///
    /// Intermediate graph states inside the batch are reconstructed by
    /// walking the effective ops in *reverse* from the final graph with a
    /// flat timeline overlay over just the batch's edges (everything else
    /// is identical in every intermediate state). Deltas accumulate as
    /// signed counts and are applied once at the end, so a transient
    /// negative running sum (deltas arrive in reverse order) never
    /// touches the unsigned status.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.ensure_size(g);
        let n_vars = g.node_count() * 2;

        let s = &mut self.scratch;
        s.keys.clear();
        s.present.clear();
        s.incid.clear();
        s.deltas.clear();
        s.endpoints.clear();
        for op in applied.ops() {
            s.keys.push(lcc_key(op.src, op.dst));
        }
        s.keys.sort_unstable();
        s.keys.dedup();
        for (i, &k) in s.keys.iter().enumerate() {
            let a = (k >> 32) as NodeId;
            let b = (k & 0xffff_ffff) as NodeId;
            s.present.push(g.has_edge(a, b));
            s.incid.push((a, b, i as u32));
            s.incid.push((b, a, i as u32));
        }
        s.incid.sort_unstable();

        let mut reads = 0u64;
        for op in applied.ops().iter().rev() {
            let (u, v) = (op.src, op.dst);
            s.endpoints.push(u);
            s.endpoints.push(v);
            let ki = s
                .keys
                .binary_search(&lcc_key(u, v))
                .expect("batch edge is keyed");
            if !op.inserted {
                // Undo the delete first: its Δ was computed on the
                // pre-delete view. (The (u,v) edge itself never counts —
                // no self-loops on undirected graphs.)
                s.present[ki] = true;
            }
            let sign: i64 = if op.inserted { 1 } else { -1 };

            // Probe the endpoint with the smaller candidate set: final
            // adjacency plus batch partners.
            let range = |x: NodeId| {
                let lo = s.incid.partition_point(|&(n, _, _)| n < x);
                let hi = s.incid.partition_point(|&(n, _, _)| n <= x);
                lo..hi
            };
            let (ru, rv) = (range(u), range(v));
            let (probe, other, rp) = if g.out_degree(u) + ru.len() <= g.out_degree(v) + rv.len() {
                (u, v, ru)
            } else {
                (v, u, rv)
            };
            let mut c: i64 = 0;
            for &(w, _) in g.out_neighbors(probe) {
                if w == other {
                    continue;
                }
                reads += 1;
                if edge_in_view(g, &s.keys, &s.present, probe, w)
                    && edge_in_view(g, &s.keys, &s.present, other, w)
                {
                    c += 1;
                    s.deltas.push((w, sign));
                }
            }
            // Batch partners absent from the final graph can still be
            // neighbors in this view; partners present in the final graph
            // were already scanned above.
            for idx in rp {
                let (_, w, kw) = s.incid[idx];
                if w == other || g.has_edge(probe, w) {
                    continue;
                }
                reads += 1;
                if s.present[kw as usize] && edge_in_view(g, &s.keys, &s.present, other, w) {
                    c += 1;
                    s.deltas.push((w, sign));
                }
            }
            if c != 0 {
                s.deltas.push((u, sign * c));
                s.deltas.push((v, sign * c));
            }
            if op.inserted {
                s.present[ki] = false; // undo the insert
            }
        }

        // Apply: merge λ deltas per node, then refresh endpoint degrees.
        let mut changed = 0u64;
        let mut lambda_vars = 0u64;
        s.deltas.sort_unstable_by_key(|&(w, _)| w);
        let mut i = 0;
        while i < s.deltas.len() {
            let w = s.deltas[i].0;
            let mut d = 0i64;
            while i < s.deltas.len() && s.deltas[i].0 == w {
                d += s.deltas[i].1;
                i += 1;
            }
            lambda_vars += 1;
            if d != 0 {
                let x = w as usize * 2 + 1;
                let old = self.status.get(x) as i64;
                // `old + d ≥ 0` whenever the applied ops match the graph;
                // saturate instead of asserting so an injected-fault ΔG
                // (oracle campaigns doctor batches on purpose) degrades to
                // a wrong value the differential oracle can observe,
                // rather than a panic.
                self.status.set_unstamped(x, (old + d).max(0) as Count);
                changed += 1;
            }
        }
        s.endpoints.sort_unstable();
        s.endpoints.dedup();
        for &e in s.endpoints.iter() {
            let x = e as usize * 2;
            let new = g.degree(e) as Count;
            if self.status.get(x) != new {
                self.status.set_unstamped(x, new);
                changed += 1;
            }
        }

        // Every variable the delta path wrote or considered is counted as
        // inspected, so the strict `|AFF_diff| ≤ inspected` boundedness
        // accounting holds exactly as for the engine-backed path.
        let distinct = s.endpoints.len() as u64 + lambda_vars;
        let run = RunStats {
            pops: applied.len() as u64,
            evals: distinct,
            changes: changed,
            reads,
            distinct_vars: distinct,
            ..RunStats::default()
        };
        BoundednessReport::new(n_vars, distinct as usize, ScopeStats::default(), run)
    }

    /// `IncLCC`, re-evaluation form (the PR 2–6 implementation, kept as
    /// the ablation baseline and differential cross-check): mark the PE
    /// variables of each changed edge and re-run the unchanged step
    /// function on them.
    ///
    /// The PE set per changed edge `(u, v)` is the *exact* affected set:
    /// `d_u`, `d_v`, `λ_u`, `λ_v`, plus `λ_w` for every common neighbor
    /// `w` of `u` and `v` — only nodes adjacent to both endpoints gain or
    /// lose a triangle (a refinement of the paper's conservative one-hop
    /// marking that keeps `H⁰ ⊆ AFF` tight). Common neighbors are taken
    /// over the new adjacency *plus* the batch's deleted incidences
    /// (tracked in a sorted flat pair list, not a hash map), so triangles
    /// destroyed by multiple deletions in one batch are still caught.
    pub fn update_reeval(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        self.ensure_size(g);
        let spec = LccSpec::new(g);

        // Batch-local deleted incidences: old-only adjacency, as sorted
        // (node, partner) pairs.
        let mut deleted: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v, _) in applied.deleted() {
            deleted.push((u, v));
            deleted.push((v, u));
        }
        deleted.sort_unstable();
        deleted.dedup();
        let deleted_range = |x: NodeId| {
            let lo = deleted.partition_point(|&(n, _)| n < x);
            let hi = deleted.partition_point(|&(n, _)| n <= x);
            lo..hi
        };
        let neighbor = |x: NodeId, y: NodeId| -> bool {
            g.has_edge(x, y) || deleted.binary_search(&(x, y)).is_ok()
        };

        let mut scope: Vec<usize> = Vec::new();
        for op in applied.ops() {
            let (u, v) = (op.src, op.dst);
            for &e in &[u, v] {
                scope.push(e as usize * 2); // d_e
                scope.push(e as usize * 2 + 1); // λ_e
            }
            // Common neighbors over new ∪ batch-deleted adjacency: probe
            // the smaller incidence list of u against v.
            let (ru, rv) = (deleted_range(u), deleted_range(v));
            let du = g.out_degree(u) + ru.len();
            let dv = g.out_degree(v) + rv.len();
            let (probe, other, rp) = if du <= dv { (u, v, ru) } else { (v, u, rv) };
            for &(w, _) in g.out_neighbors(probe) {
                if neighbor(w, other) {
                    scope.push(w as usize * 2 + 1);
                }
            }
            for idx in rp {
                let (_, w) = deleted[idx];
                if neighbor(w, other) {
                    scope.push(w as usize * 2 + 1);
                }
            }
        }
        scope.sort_unstable();
        scope.dedup();
        let scope_len = scope.len();
        let run = self.engine.run(&spec, &mut self.status, scope);
        BoundednessReport::new(spec.num_vars(), scope_len, ScopeStats::default(), run)
    }

    /// Resident bytes of the algorithm's state (Fig. 8). No timestamps —
    /// IncLCC is deducible.
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence (`SaveState`): the interleaved
    /// degree/triangle status. Deducible — no timestamps.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("lcc");
        persist::put_status(&mut out, &self.status, |c| c);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without running any fixpoint (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        if g.is_directed() {
            return Err(StateLoadError::Malformed(
                "LCC is defined on undirected graphs".into(),
            ));
        }
        let mut r = persist::expect_header("lcc", bytes)?;
        let status = persist::read_status(&mut r, Ok)?;
        r.finish()?;
        let expected = g.node_count() * 2;
        if status.len() != expected {
            return Err(StateLoadError::SizeMismatch {
                expected,
                found: status.len(),
            });
        }
        if status.tracks_stamps() {
            return Err(StateLoadError::Malformed(
                "lcc is deducible and stores no timestamps".into(),
            ));
        }
        Ok(LccState {
            status,
            engine: Engine::new(expected),
            scratch: LccScratch::default(),
        })
    }

    fn ensure_size(&mut self, g: &DynamicGraph) {
        let n = g.node_count() * 2;
        if n > self.status.len() {
            self.status.extend_to(n, |_| 0);
            self.engine = Engine::new(n);
        }
    }
}

impl crate::IncrementalState for LccState {
    fn name(&self) -> &'static str {
        "lcc"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count() * 2
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        LccState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = LccState::batch(g);
        *self = fresh;
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        audit.run(&LccSpec::new(g), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        LccState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        LccState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        *self = LccState::restore(g, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    /// Brute-force reference: O(n³) triangle enumeration.
    fn lcc_reference(g: &DynamicGraph) -> Vec<(Count, Count)> {
        let n = g.node_count();
        let mut out = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let d = g.degree(v) as Count;
            let mut t = 0u64;
            let nv = g.out_neighbors(v);
            for i in 0..nv.len() {
                for j in i + 1..nv.len() {
                    if g.has_edge(nv[i].0, nv[j].0) {
                        t += 1;
                    }
                }
            }
            out.push((d, t));
        }
        out
    }

    fn assert_matches_reference(state: &LccState, g: &DynamicGraph) {
        for (v, &(d, t)) in lcc_reference(g).iter().enumerate() {
            assert_eq!(state.degree(v as NodeId), d, "degree of {v}");
            assert_eq!(state.triangles(v as NodeId), t, "triangles of {v}");
        }
    }

    /// The undirected view of the paper's Fig. 2(a) graph.
    fn paper_graph_undirected() -> DynamicGraph {
        let mut g = DynamicGraph::new(false, 8);
        for (u, v) in [
            (0u32, 1u32),
            (0, 2),
            (2, 1),
            (1, 4),
            (1, 5),
            (2, 5),
            (4, 3),
            (3, 1),
            (4, 5),
            (4, 6),
            (5, 6),
            (6, 7),
            (2, 7),
        ] {
            g.insert_edge(u, v, 1);
        }
        g
    }

    #[test]
    fn batch_matches_paper_figure_3d() {
        let g = paper_graph_undirected();
        let (state, _) = LccState::batch(&g);
        // Fig. 3(d), G columns (rows 0..4 are printed in the paper).
        let expect_d = [2u64, 5, 4, 2, 4];
        let expect_l = [1u64, 4, 2, 1, 3];
        for v in 0..5u32 {
            assert_eq!(state.degree(v), expect_d[v as usize], "d_{v}");
            assert_eq!(state.triangles(v), expect_l[v as usize], "λ_{v}");
        }
        assert_matches_reference(&state, &g);
    }

    #[test]
    fn incremental_matches_paper_example_8() {
        let mut g = paper_graph_undirected();
        let (mut state, _) = LccState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.delete(5, 6).insert(5, 3, 1);
        let applied = batch.apply(&mut g);
        let report = state.update(&g, &applied);
        // Fig. 3(d), G ⊕ ΔG columns.
        let expect_d = [2u64, 5, 4, 3, 4];
        let expect_l = [1u64, 5, 2, 3, 3];
        for v in 0..5u32 {
            assert_eq!(state.degree(v), expect_d[v as usize], "d_{v}");
            assert_eq!(state.triangles(v), expect_l[v as usize], "λ_{v}");
        }
        assert_matches_reference(&state, &g);
        // The scope is the one-hop ball: d for {3,5,6}, λ for the ball.
        assert!(report.scope_size <= 16);
    }

    #[test]
    fn coefficient_formula() {
        // Triangle graph: every γ = 1.
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(0, 2, 1);
        let (state, _) = LccState::batch(&g);
        assert_eq!(state.coefficients(), vec![1.0, 1.0, 1.0]);
        // Path graph: every γ = 0 (degree-1 ends defined as 0).
        let mut p = DynamicGraph::new(false, 3);
        p.insert_edge(0, 1, 1);
        p.insert_edge(1, 2, 1);
        let (ps, _) = LccState::batch(&p);
        assert_eq!(ps.coefficients(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn random_rounds_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(80, 400, false, 1, 1, 12);
        let (mut state, _) = LccState::batch(&g);
        let mut rng = SplitMix64::seed_from_u64(8);
        for round in 0..15 {
            let mut batch = UpdateBatch::new();
            for _ in 0..10 {
                let u = rng.gen_range(0..80) as NodeId;
                let v = rng.gen_range(0..80) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            for (v, &(d, t)) in lcc_reference(&g).iter().enumerate() {
                assert_eq!(state.degree(v as NodeId), d, "round {round} d_{v}");
                assert_eq!(state.triangles(v as NodeId), t, "round {round} λ_{v}");
            }
        }
    }

    #[test]
    fn update_inspects_only_the_ball() {
        // A long path plus one triangle at the end; touching the far end
        // must not inspect the path.
        let mut g = DynamicGraph::new(false, 1000);
        for i in 0..999u32 {
            g.insert_edge(i, i + 1, 1);
        }
        let (mut state, _) = LccState::batch(&g);
        let mut batch = UpdateBatch::new();
        batch.insert(997, 999, 1);
        let applied = batch.apply(&mut g);
        let report = state.update(&g, &applied);
        assert!(report.inspected_vars <= 12, "got {}", report.inspected_vars);
        assert_eq!(state.triangles(998), 1);
    }

    #[test]
    fn delta_path_matches_reeval_path() {
        // The arithmetic delta path and the PE re-evaluation ablation must
        // land on identical counts after every round, including batches
        // that churn the same edge repeatedly (timeline overlay) and
        // batches that delete whole triangles.
        use incgraph_graph::rng::SplitMix64;
        let mut g1 = incgraph_graph::gen::uniform(60, 300, false, 1, 1, 44);
        let mut g2 = g1.clone();
        let (mut delta, _) = LccState::batch(&g1);
        let (mut reeval, _) = LccState::batch(&g2);
        let mut rng = SplitMix64::seed_from_u64(21);
        for round in 0..15 {
            let mut batch = UpdateBatch::new();
            for _ in 0..12 {
                let u = rng.gen_range(0..60) as NodeId;
                let v = rng.gen_range(0..60) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            // Churn one edge inside the same batch: ins/del/ins runs.
            batch.delete(1, 2).insert(1, 2, 1).delete(1, 2);
            let a1 = batch.clone().apply(&mut g1);
            let a2 = batch.apply(&mut g2);
            assert_eq!(a1.ops(), a2.ops());
            delta.update(&g1, &a1);
            reeval.update_reeval(&g2, &a2);
            assert_eq!(
                delta.status.values(),
                reeval.status.values(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::new(false, 3);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(0, 2, 1);
        let (mut state, _) = LccState::batch(&g);
        let v = g.add_node(0);
        let mut batch = UpdateBatch::new();
        batch.insert(0, v, 1).insert(1, v, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert_eq!(state.triangles(v), 1);
    }

    #[test]
    fn intersect_count_basics() {
        let a = [(1u32, 0u32), (3, 0), (5, 0), (9, 0)];
        let b = [(2u32, 0u32), (3, 0), (9, 0)];
        assert_eq!(sorted_intersect_count(&a, &b), 2);
        assert_eq!(sorted_intersect_count(&a, &[]), 0);
    }
}
