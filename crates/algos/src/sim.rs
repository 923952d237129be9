//! Graph simulation: the `Sim_fp` fixpoint \[HHK95, paper §5.1\] and its
//! **weakly deducible** incremental algorithm `IncSim`.
//!
//! A Boolean status variable `x[v, u]` says whether data node `v` matches
//! pattern node `u`. `⊥` is the label test `L(v) = L_Q(u)`; the update
//! function re-checks the simulation condition
//!
//! ```text
//! x[v,u] = L(v)=L_Q(u) ∧ ∀ (u,u') ∈ E_Q ∃ (v,v') ∈ E : x[v',u']
//! ```
//!
//! With the order `false ⪯ true`, runs are contracting (matches are only
//! retracted) and the condition is monotone, so Theorem 3 applies. As in
//! the paper, `IncSim` records a **timestamp** on each variable when it
//! turns false; the order `<_C` is "turned false earlier", with
//! still-true variables ordered last (key `∞`) — this is what resolves
//! anchor sets on *cyclic* patterns, where mutually-supporting false
//! variables would otherwise be indistinguishable.
//!
//! The union of all true variables at the fixpoint is the unique maximum
//! simulation `Q(G)`.

use crate::persist::{self, StateLoadError};
use incgraph_core::engine::{Engine, RunStats};
use incgraph_core::metrics::BoundednessReport;
use incgraph_core::scope::{bounded_scope, pe_reset_scope, ContributorOracle, ScopeScratch};
use incgraph_core::spec::FixpointSpec;
use incgraph_core::status::Status;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern};

/// The Sim fixpoint specification over a graph and a pattern.
pub struct SimSpec<'g, 'p> {
    g: &'g DynamicGraph,
    q: &'p Pattern,
}

impl<'g, 'p> SimSpec<'g, 'p> {
    /// Specification for matching pattern `q` in (directed) graph `g`.
    pub fn new(g: &'g DynamicGraph, q: &'p Pattern) -> Self {
        assert!(q.node_count() > 0, "empty pattern");
        SimSpec { g, q }
    }

    #[inline]
    fn nq(&self) -> usize {
        self.q.node_count()
    }

    /// Packs `(v, u)` into a dense variable index.
    #[inline]
    pub fn var(&self, v: NodeId, u: usize) -> usize {
        v as usize * self.nq() + u
    }

    /// Unpacks a variable index into `(v, u)`.
    #[inline]
    pub fn unvar(&self, x: usize) -> (NodeId, usize) {
        ((x / self.nq()) as NodeId, x % self.nq())
    }
}

impl FixpointSpec for SimSpec<'_, '_> {
    type Value = bool;

    fn num_vars(&self) -> usize {
        self.g.node_count() * self.nq()
    }

    fn bottom(&self, x: usize) -> bool {
        let (v, u) = self.unvar(x);
        self.g.label(v) == self.q.label(u)
    }

    fn eval<R: FnMut(usize) -> bool>(&self, x: usize, read: &mut R) -> bool {
        let (v, u) = self.unvar(x);
        if self.g.label(v) != self.q.label(u) {
            return false;
        }
        // ∀ pattern successor u' of u, ∃ graph successor v' of v matching u'.
        'succ: for &u_next in self.q.out_neighbors(u) {
            for &(v_next, _) in self.g.out_neighbors(v) {
                if read(self.var(v_next, u_next)) {
                    continue 'succ;
                }
            }
            return false;
        }
        true
    }

    fn dependents<P: FnMut(usize)>(&self, x: usize, push: &mut P) {
        let (v, u) = self.unvar(x);
        for &(v_prev, _) in self.g.in_neighbors(v) {
            for &u_prev in self.q.in_neighbors(u) {
                push(self.var(v_prev, u_prev));
            }
        }
    }

    fn preceq(&self, a: &bool, b: &bool) -> bool {
        // false ⪯ true: matches only get retracted during a run.
        !a || *b
    }
}

/// `IncSim`'s contributor oracle: order `<_C` from turn-false timestamps;
/// still-true variables sort last.
struct SimOracle<'a> {
    spec: &'a SimSpec<'a, 'a>,
}

impl ContributorOracle<bool> for SimOracle<'_> {
    fn order_key(&self, x: usize, status: &Status<bool>) -> u64 {
        if status.get(x) {
            u64::MAX
        } else {
            status.stamp(x)
        }
    }

    fn contributes_to<P: FnMut(usize)>(&self, x: usize, status: &Status<bool>, push: &mut P) {
        // Pre-raise: x is false here; its fall time orders the anchors.
        let kx = status.stamp(x);
        self.spec.dependents(x, &mut |z| {
            // Only false variables that fell *after* x can have relied on
            // x's falseness; true variables cannot be raised further.
            if !status.get(z) && status.stamp(z) > kx {
                push(z);
            }
        });
    }
}

/// Sim state: the pattern, the previous fixpoint (with timestamps) and the
/// reusable engine.
pub struct SimState {
    q: Pattern,
    status: Status<bool>,
    engine: Engine,
    /// Reusable arena for the scope function: epoch-reset bitmaps and
    /// high-water vectors make steady-state updates allocation-free.
    scratch: ScopeScratch,
}

impl SimState {
    /// Runs batch `Sim_fp`: computes the maximum simulation of `q` in `g`.
    pub fn batch(g: &DynamicGraph, q: Pattern) -> (Self, RunStats) {
        let spec = SimSpec::new(g, &q);
        let mut status = Status::init(&spec, true);
        let mut engine = Engine::new(spec.num_vars());
        // Only label-matching variables can violate σ initially; the rest
        // start false and stay false.
        let scope: Vec<usize> = (0..spec.num_vars()).filter(|&x| status.get(x)).collect();
        let stats = engine.run(&spec, &mut status, scope);
        (
            SimState {
                q,
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

    /// The pattern being matched.
    pub fn pattern(&self) -> &Pattern {
        &self.q
    }

    /// Whether data node `v` matches pattern node `u`.
    pub fn matches(&self, g: &DynamicGraph, v: NodeId, u: usize) -> bool {
        let _ = g;
        self.status.get(v as usize * self.q.node_count() + u)
    }

    /// The maximum simulation relation as `(v, u)` pairs.
    pub fn relation(&self) -> Vec<(NodeId, usize)> {
        let nq = self.q.node_count();
        (0..self.status.len())
            .filter(|&x| self.status.get(x))
            .map(|x| ((x / nq) as NodeId, x % nq))
            .collect()
    }

    /// Number of matching pairs `|Q(G)|`.
    pub fn match_count(&self) -> usize {
        (0..self.status.len())
            .filter(|&x| self.status.get(x))
            .count()
    }

    /// `IncSim`: bounded scope function over the timestamp order, then the
    /// unchanged step function.
    pub fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let nq = self.q.node_count();
        self.ensure_size(g);
        let q = &self.q;
        let spec = SimSpec::new(g, q);

        // Evolved input sets: Y_{x[v,u]} ranges over out_nbr(v), so every
        // changed edge (a, b) touches the tail's variables {x[a, u]} —
        // and on undirected graphs both endpoints are tails. Most of
        // those provably cannot change and are filtered out up front:
        // a deletion only retracts matches (skip already-false vars), an
        // insertion only adds them (skip already-true vars and label
        // mismatches), and either way the edge is irrelevant to `x[a, u]`
        // unless some pattern successor of `u` carries `b`'s label.
        self.scratch.touched.clear();
        {
            let status = &self.status;
            let touched = &mut self.scratch.touched;
            let mut consider = |tail: NodeId, head: NodeId, inserted: bool| {
                let head_label = g.label(head);
                for u in 0..nq {
                    if !q
                        .out_neighbors(u)
                        .iter()
                        .any(|&u2| q.label(u2) == head_label)
                    {
                        continue;
                    }
                    let x = spec.var(tail, u);
                    let cur = status.get(x);
                    let keep = if inserted {
                        !cur && g.label(tail) == q.label(u)
                    } else {
                        cur
                    };
                    if keep {
                        touched.push(x);
                    }
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

        // Weakly deducible: <_C from the live timestamps; no snapshots.
        let oracle = SimOracle { spec: &spec };
        let stats = bounded_scope(&spec, &oracle, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// The Theorem 1 construction for Sim (ablation `abl-ts`): flood PE
    /// variables backward through dependency edges, reset them to their
    /// label-match value, and re-run — no timestamps consulted. Correct
    /// but floods far beyond the anchor-bounded scope of
    /// [`update`](Self::update).
    pub fn update_pe_reset(
        &mut self,
        g: &DynamicGraph,
        applied: &AppliedBatch,
    ) -> BoundednessReport {
        let nq = self.q.node_count();
        self.ensure_size(g);
        let q = &self.q;
        let spec = SimSpec::new(g, q);
        self.scratch.touched.clear();
        for op in applied.ops() {
            for u in 0..nq {
                self.scratch.touched.push(spec.var(op.src, u));
                if !g.is_directed() {
                    self.scratch.touched.push(spec.var(op.dst, u));
                }
            }
        }
        self.scratch.touched.sort_unstable();
        self.scratch.touched.dedup();
        let stats = pe_reset_scope(&spec, &mut self.status, &mut self.scratch);
        let scope = &self.scratch.scope;
        let run = self
            .engine
            .run(&spec, &mut self.status, scope.iter().copied());
        BoundednessReport::new(spec.num_vars(), scope.len(), stats, run)
    }

    /// Resident bytes of the algorithm's state (Fig. 8): the Boolean
    /// match matrix plus its timestamps plus the engine scratch.
    pub fn space_bytes(&self) -> usize {
        self.status.space_bytes() + self.engine.space_bytes() + self.scratch.space_bytes()
    }

    /// Serializes the durable essence (`SaveState`): the pattern plus the
    /// match matrix with its turn-false timestamps.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = persist::header("sim");
        let nq = self.q.node_count();
        persist::put_u32(&mut out, nq as u32);
        for u in 0..nq {
            persist::put_u32(&mut out, self.q.label(u));
        }
        let edges: Vec<(usize, usize)> = self.q.edges().collect();
        persist::put_u32(&mut out, edges.len() as u32);
        for (u, v) in edges {
            persist::put_u32(&mut out, u as u32);
            persist::put_u32(&mut out, v as u32);
        }
        persist::put_status(&mut out, &self.status, |b| b as u64);
        out
    }

    /// Rebuilds a state from [`save_state`](Self::save_state) bytes
    /// without running any fixpoint (`LoadState`).
    pub fn restore(g: &DynamicGraph, bytes: &[u8]) -> Result<Self, StateLoadError> {
        let mut r = persist::expect_header("sim", bytes)?;
        let nq = r.u32()? as usize;
        if nq == 0 {
            return Err(StateLoadError::Malformed("empty pattern".into()));
        }
        let mut labels = Vec::with_capacity(nq);
        for _ in 0..nq {
            labels.push(r.u32()?);
        }
        let ne = r.u32()? as usize;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            let u = r.u32()? as usize;
            let v = r.u32()? as usize;
            if u >= nq || v >= nq {
                return Err(StateLoadError::Malformed(
                    "pattern edge beyond pattern nodes".into(),
                ));
            }
            edges.push((u, v));
        }
        {
            let mut sorted = edges.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != edges.len() {
                return Err(StateLoadError::Malformed("duplicate pattern edge".into()));
            }
        }
        let status = persist::read_status(&mut r, persist::dec_bool)?;
        r.finish()?;
        let expected = g.node_count() * nq;
        if status.len() != expected {
            return Err(StateLoadError::SizeMismatch {
                expected,
                found: status.len(),
            });
        }
        if !status.tracks_stamps() {
            return Err(StateLoadError::Malformed(
                "sim is weakly deducible and requires timestamps".into(),
            ));
        }
        Ok(SimState {
            q: Pattern::new(labels, &edges),
            status,
            engine: Engine::new(expected),
            scratch: ScopeScratch::new(),
        })
    }

    fn ensure_size(&mut self, g: &DynamicGraph) {
        let n = g.node_count() * self.q.node_count();
        if n > self.status.len() {
            let nq = self.q.node_count();
            let q = &self.q;
            let labels: Vec<_> = (0..g.node_count()).map(|v| g.label(v as NodeId)).collect();
            self.status
                .extend_to(n, |x| labels[x / nq] == q.label(x % nq));
            self.engine = Engine::new(n);
        }
    }
}

impl crate::IncrementalState for SimState {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        g.node_count() * self.q.node_count()
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        SimState::update(self, g, applied)
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let (fresh, stats) = SimState::batch(g, self.q.clone());
        *self = fresh;
        stats
    }

    fn audit(
        &self,
        g: &DynamicGraph,
        audit: &incgraph_core::audit::FixpointAudit,
    ) -> incgraph_core::audit::AuditReport {
        audit.run(&SimSpec::new(g, &self.q), &self.status)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.engine.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        SimState::space_bytes(self)
    }

    fn save_state(&self) -> Vec<u8> {
        SimState::save_state(self)
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        *self = SimState::restore(g, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    #[test]
    fn undirected_insertion_matches_the_dst_side() {
        // Regression: on undirected graphs both endpoints of a changed
        // edge are tails of evolved input sets, so an insert op oriented
        // (1, 0) must also reconsider node 0's variables. Found by the
        // post-run fixpoint audit in the fault-injection suite.
        let mut g = DynamicGraph::with_labels(false, vec![0, 1]);
        let q = Pattern::new(vec![0, 1], &[(0, 1)]);
        let (mut state, _) = SimState::batch(&g, q.clone());
        assert!(!state.matches(&g, 0, 0));
        let mut b = UpdateBatch::new();
        b.insert(1, 0, 1);
        let applied = b.apply(&mut g);
        state.update(&g, &applied);
        assert!(state.matches(&g, 0, 0), "0 now simulates pattern node 0");
        let (fresh, _) = SimState::batch(&g, q);
        assert_eq!(state.relation(), fresh.relation());
    }

    /// Reference: naive simulation fixpoint, O(rounds · n·nq · checks).
    fn sim_reference(g: &DynamicGraph, q: &Pattern) -> Vec<bool> {
        let nq = q.node_count();
        let n = g.node_count();
        let mut m: Vec<bool> = (0..n * nq)
            .map(|x| g.label((x / nq) as NodeId) == q.label(x % nq))
            .collect();
        loop {
            let mut changed = false;
            for v in 0..n {
                for u in 0..nq {
                    if !m[v * nq + u] {
                        continue;
                    }
                    let ok = q.out_neighbors(u).iter().all(|&u2| {
                        g.out_neighbors(v as NodeId)
                            .iter()
                            .any(|&(v2, _)| m[v2 as usize * nq + u2])
                    });
                    if !ok {
                        m[v * nq + u] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                return m;
            }
        }
    }

    fn assert_matches_reference(state: &SimState, g: &DynamicGraph) {
        let expect = sim_reference(g, state.pattern());
        assert_eq!(state.status.values(), expect.as_slice());
    }

    fn tri_pattern() -> Pattern {
        // a -> b -> c with back edge c -> b (cyclic, label-distinct).
        Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)])
    }

    #[test]
    fn batch_on_matching_cycle() {
        // Data: 0(a) -> 1(b) -> 2(c) -> 3(b) -> 4(c) -> 3 ...
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1, 2]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 3)] {
            g.insert_edge(u, v, 1);
        }
        let (state, _) = SimState::batch(&g, tri_pattern());
        assert_matches_reference(&state, &g);
        // The cycle 3 -> 4 -> 3 sustains (3,b),(4,c); 1 matches b via 2,
        // whose (2,c) needs an out-edge to a b-match: 2 -> 3 exists.
        assert!(state.matches(&g, 3, 1));
        assert!(state.matches(&g, 4, 2));
        assert!(state.matches(&g, 0, 0));
    }

    #[test]
    fn batch_retracts_unsupported_matches() {
        // 0(a) -> 1(b), but 1 has no c-successor: nothing matches a or b.
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2]);
        g.insert_edge(0, 1, 1);
        let (state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 0, 0));
        assert!(!state.matches(&g, 1, 1));
        // Node 2 is a c-labelled sink; pattern c has an out-edge to b, so
        // it does not match either.
        assert!(!state.matches(&g, 2, 2));
        assert_matches_reference(&state, &g);
    }

    #[test]
    fn insertion_restores_matches() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(2, 3, 1); // c -> b
        g.insert_edge(3, 2, 1); // b -> c : cycle sustains (2,c),(3,b)
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 1, 1), "1 lacks a c-successor");
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(state.matches(&g, 1, 1));
        assert!(state.matches(&g, 0, 0));
    }

    #[test]
    fn deletion_retracts_matches() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2, 1]);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 2)] {
            g.insert_edge(u, v, 1);
        }
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(state.matches(&g, 0, 0));
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(!state.matches(&g, 0, 0));
        assert!(!state.matches(&g, 1, 1));
        // The 2 <-> 3 cycle is self-sustaining and must survive.
        assert!(state.matches(&g, 2, 2));
        assert!(state.matches(&g, 3, 1));
    }

    #[test]
    fn repeated_rounds_match_reference() {
        use incgraph_graph::rng::SplitMix64;
        let mut g = incgraph_graph::gen::uniform(60, 240, true, 1, 3, 77);
        let q = tri_pattern();
        let (mut state, _) = SimState::batch(&g, q);
        let mut rng = SplitMix64::seed_from_u64(13);
        for round in 0..20 {
            let mut batch = UpdateBatch::new();
            for _ in 0..6 {
                let u = rng.gen_range(0..60) as NodeId;
                let v = rng.gen_range(0..60) as NodeId;
                if rng.gen_bool(0.55) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            let expect = sim_reference(&g, state.pattern());
            assert_eq!(
                state.status.values(),
                expect.as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn cyclic_pattern_on_cyclic_data_rounds() {
        // Stress the cyclic-anchor case the paper singles out: pattern
        // cycle b <-> c, data cycles breaking and reforming.
        use incgraph_graph::rng::SplitMix64;
        let q = Pattern::new(vec![1, 2], &[(0, 1), (1, 0)]);
        let mut g = DynamicGraph::with_labels(true, (0..40).map(|i| 1 + (i % 2) as u32).collect());
        let mut rng = SplitMix64::seed_from_u64(3);
        for i in 0..40u32 {
            g.insert_edge(i, (i + 1) % 40, 1);
        }
        let (mut state, _) = SimState::batch(&g, q);
        for round in 0..25 {
            let mut batch = UpdateBatch::new();
            for _ in 0..4 {
                let u = rng.gen_range(0..40) as NodeId;
                let v = rng.gen_range(0..40) as NodeId;
                if rng.gen_bool(0.5) {
                    batch.insert(u, v, 1);
                } else {
                    batch.delete(u, v);
                }
            }
            let applied = batch.apply(&mut g);
            state.update(&g, &applied);
            let expect = sim_reference(&g, state.pattern());
            assert_eq!(
                state.status.values(),
                expect.as_slice(),
                "divergence at round {round}"
            );
        }
    }

    #[test]
    fn match_count_and_relation_agree() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1, 2]);
        g.insert_edge(0, 1, 1);
        g.insert_edge(1, 2, 1);
        g.insert_edge(2, 1, 1);
        let (state, _) = SimState::batch(&g, tri_pattern());
        let rel = state.relation();
        assert_eq!(rel.len(), state.match_count());
        assert!(rel.contains(&(0, 0)));
    }

    #[test]
    fn vertex_insertion_extends_state() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 1]);
        g.insert_edge(0, 1, 1);
        let (mut state, _) = SimState::batch(&g, tri_pattern());
        assert!(!state.matches(&g, 0, 0));
        let v = g.add_node(2); // a c-labelled node
        let mut batch = UpdateBatch::new();
        batch.insert(1, v, 1).insert(v, 1, 1);
        let applied = batch.apply(&mut g);
        state.update(&g, &applied);
        assert_matches_reference(&state, &g);
        assert!(state.matches(&g, 0, 0), "b now has a c-successor cycle");
    }
}
