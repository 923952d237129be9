//! One construction path for the seven query classes.
//!
//! Every driver in the repo — the CLI, the differential oracle, the
//! crash oracle, durable recovery — used to carry its own seven-way
//! `match` over the class enum to pick the right `batch` constructor and
//! thread the policy/audit arguments through. This module centralizes
//! that: [`QueryClass`] names the class, [`Session::builder`] collects
//! the query parameters (source, pattern) and the execution options
//! ([`ExecOptions`]: policy, audit, micro-batching), and
//! [`Session::build`] produces a ready state holding its own options.
//!
//! A [`Session`] is itself an [`IncrementalState`] (by delegation to the
//! concrete state), so everything that consumed
//! `Box<dyn IncrementalState>` — the durable pipeline, the crash oracle —
//! consumes a `Session` unchanged, and its durable essence is
//! byte-identical to the bare state's. On top of the trait it exposes
//! the class-aware extras the oracles need: [`Session::update_guarded`]
//! (the hardened path under the stored options) and [`Session::digest`]
//! (the canonical value digest the differential oracle compares).

use crate::output::{NodeChange, OutputChange, OutputDelta, OutputSnapshot, TrackedUpdate};
use crate::{
    update_with, BcState, CcState, DfsState, ExecOptions, IncrementalState, LccState, ReachState,
    SimState, SsspState, StateLoadError,
};
use incgraph_core::audit::{AuditReport, FixpointAudit};
use incgraph_core::engine::RunStats;
use incgraph_core::fallback::FallbackPolicy;
use incgraph_core::metrics::BoundednessReport;
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern};
use std::collections::BTreeMap;

/// The seven query classes, in canonical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    /// Single-source shortest paths.
    Sssp,
    /// Connected components.
    Cc,
    /// Graph simulation.
    Sim,
    /// Source reachability.
    Reach,
    /// Local clustering coefficient.
    Lcc,
    /// Depth-first search forest.
    Dfs,
    /// Biconnectivity (lowpoints, articulation points, bridges).
    Bc,
}

impl QueryClass {
    /// All seven classes, canonical order.
    pub const ALL: [QueryClass; 7] = [
        QueryClass::Sssp,
        QueryClass::Cc,
        QueryClass::Sim,
        QueryClass::Reach,
        QueryClass::Lcc,
        QueryClass::Dfs,
        QueryClass::Bc,
    ];

    /// Short lowercase name, matching the CLI class argument.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Sssp => "sssp",
            QueryClass::Cc => "cc",
            QueryClass::Sim => "sim",
            QueryClass::Reach => "reach",
            QueryClass::Lcc => "lcc",
            QueryClass::Dfs => "dfs",
            QueryClass::Bc => "bc",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<QueryClass> {
        QueryClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Whether the class runs through the generic worklist engine, whose
    /// work accounting supports the strict `|AFF_diff| ≤ inspected`
    /// boundedness check (DFS/BC traverse outside the engine and report
    /// coarser counters).
    pub fn engine_backed(self) -> bool {
        !matches!(self, QueryClass::Dfs | QueryClass::Bc)
    }

    /// Whether the class is only defined on undirected graphs (LCC's
    /// triangle counting and BC's biconnectivity both are).
    pub fn requires_undirected(self) -> bool {
        matches!(self, QueryClass::Lcc | QueryClass::Bc)
    }

    /// Whether the class is rooted at a source node (and so needs the
    /// builder's `source` to name a real node).
    pub fn source_rooted(self) -> bool {
        matches!(self, QueryClass::Sssp | QueryClass::Reach)
    }
}

/// Why a [`SessionBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// [`QueryClass::Sim`] needs a pattern; none was supplied.
    MissingPattern,
    /// The class is only defined on undirected graphs
    /// ([`QueryClass::requires_undirected`]) but the graph is directed.
    /// Every driver used to carry this gate itself; the builder now
    /// refuses instead of silently computing a meaningless answer.
    RequiresUndirected(QueryClass),
    /// A [`source_rooted`](QueryClass::source_rooted) class was given a
    /// source beyond the graph's node range. The per-class specs assert
    /// on this; the builder turns it into a typed refusal so a remote
    /// `REGISTER` with a bad source cannot panic the server.
    SourceOutOfRange { source: NodeId, nodes: usize },
    /// A builder option was supplied that the class does not consume —
    /// `source` on a class that is not [`source_rooted`]
    /// (QueryClass::source_rooted), or `pattern` on anything but
    /// [`QueryClass::Sim`]. The builder used to ignore these silently,
    /// which let a caller believe a parameter was in effect when it
    /// wasn't; it now refuses.
    OptionNotApplicable {
        /// The class being built.
        class: QueryClass,
        /// The offending option (`"source"` or `"pattern"`).
        option: &'static str,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingPattern => write!(f, "sim session built without a pattern"),
            SessionError::RequiresUndirected(c) => write!(
                f,
                "{} is only defined on undirected graphs, but the graph is directed",
                c.name()
            ),
            SessionError::SourceOutOfRange { source, nodes } => write!(
                f,
                "source {source} is out of range for a graph of {nodes} node(s)"
            ),
            SessionError::OptionNotApplicable { class, option } => {
                write!(f, "{} does not take a `{option}` option", class.name())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Collects a class's query parameters and execution options before the
/// batch fixpoint is run. See the module docs; obtained from
/// [`Session::builder`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    class: QueryClass,
    source: Option<NodeId>,
    pattern: Option<Pattern>,
    policy: FallbackPolicy,
    audit: Option<FixpointAudit>,
    micro_batch: bool,
}

impl SessionBuilder {
    /// Source node for SSSP/Reach. Only valid on a
    /// [`source_rooted`](QueryClass::source_rooted) class — [`build`]
    /// (Self::build) refuses with [`SessionError::OptionNotApplicable`]
    /// otherwise. Source-rooted classes default to node 0 when unset.
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = Some(source);
        self
    }

    /// Pattern for Sim (required for that class). Only valid on
    /// [`QueryClass::Sim`] — [`build`](Self::build) refuses with
    /// [`SessionError::OptionNotApplicable`] otherwise.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Degradation policy for guarded updates (default
    /// [`FallbackPolicy::default`]).
    pub fn policy(mut self, policy: FallbackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Post-update fixpoint audit for guarded updates (default: none).
    pub fn audit(mut self, audit: FixpointAudit) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Canonicalize each presented ΔG through the micro-batch coalescer
    /// before the class update sees it (default: off). See
    /// [`ExecOptions::micro_batch`].
    pub fn micro_batch(mut self, on: bool) -> Self {
        self.micro_batch = on;
        self
    }

    /// Runs the batch fixpoint on `g` and returns the live session.
    pub fn build(self, g: &DynamicGraph) -> Result<Session, SessionError> {
        if self.source.is_some() && !self.class.source_rooted() {
            return Err(SessionError::OptionNotApplicable {
                class: self.class,
                option: "source",
            });
        }
        if self.pattern.is_some() && self.class != QueryClass::Sim {
            return Err(SessionError::OptionNotApplicable {
                class: self.class,
                option: "pattern",
            });
        }
        if self.class.requires_undirected() && g.is_directed() {
            return Err(SessionError::RequiresUndirected(self.class));
        }
        let source = self.source.unwrap_or(0);
        if self.class.source_rooted() && source as usize >= g.node_count() {
            return Err(SessionError::SourceOutOfRange {
                source,
                nodes: g.node_count(),
            });
        }
        let state = match self.class {
            QueryClass::Sssp => ClassState::Sssp(SsspState::batch(g, source).0),
            QueryClass::Cc => ClassState::Cc(CcState::batch(g).0),
            QueryClass::Sim => {
                let p = self.pattern.ok_or(SessionError::MissingPattern)?;
                ClassState::Sim(SimState::batch(g, p).0)
            }
            QueryClass::Reach => ClassState::Reach(ReachState::batch(g, source).0),
            QueryClass::Lcc => ClassState::Lcc(LccState::batch(g).0),
            QueryClass::Dfs => ClassState::Dfs(DfsState::batch(g).0),
            QueryClass::Bc => ClassState::Bc(BcState::batch(g).0),
        };
        let snap = compute_snapshot(self.class, &state, g);
        let drained_len = snap.digest_len();
        Ok(Session {
            class: self.class,
            exec: ExecOptions {
                policy: self.policy,
                audit: self.audit,
                micro_batch: self.micro_batch,
            },
            state,
            snap,
            pending_entries: BTreeMap::new(),
            pending_nodes: BTreeMap::new(),
            drained_len,
            cand_buf: Vec::new(),
        })
    }
}

/// One concrete algorithm state, tagged by class. Kept private: the
/// class-aware surface (digests, guarded updates) lives on [`Session`].
enum ClassState {
    Sssp(SsspState),
    Cc(CcState),
    Sim(SimState),
    Reach(ReachState),
    Lcc(LccState),
    Dfs(DfsState),
    Bc(BcState),
}

/// Builds the full [`OutputSnapshot`] of a class state — the historical
/// digest computation, split into the per-node entry stream and the
/// class-specific tail so the two concatenate byte-identically.
fn compute_snapshot(class: QueryClass, state: &ClassState, g: &DynamicGraph) -> OutputSnapshot {
    let n = g.node_count();
    match state {
        ClassState::Sssp(s) => OutputSnapshot::new(class, n, 1, s.distances().to_vec(), vec![]),
        ClassState::Cc(s) => OutputSnapshot::new(
            class,
            n,
            1,
            s.components().iter().map(|&c| c as u64).collect(),
            vec![],
        ),
        ClassState::Sim(s) => {
            let q = s.pattern().node_count();
            let mut out = Vec::with_capacity(n * q);
            for v in 0..n as NodeId {
                for u in 0..q {
                    out.push(s.matches(g, v, u) as u64);
                }
            }
            OutputSnapshot::new(class, n, q, out, vec![])
        }
        ClassState::Reach(s) => OutputSnapshot::new(
            class,
            n,
            1,
            s.reached().iter().map(|&b| b as u64).collect(),
            vec![],
        ),
        ClassState::Lcc(s) => OutputSnapshot::new(
            class,
            n,
            1,
            (0..n as NodeId)
                .map(|v| (s.degree(v) << 32) | (s.triangles(v) & 0xffff_ffff))
                .collect(),
            vec![],
        ),
        ClassState::Dfs(s) => OutputSnapshot::new(
            class,
            n,
            3,
            (0..n as NodeId)
                .flat_map(|v| [s.first(v) as u64, s.last(v) as u64, s.parent(v) as u64])
                .collect(),
            vec![],
        ),
        ClassState::Bc(s) => OutputSnapshot::new(
            class,
            n,
            1,
            (0..n as NodeId)
                .map(|v| ((s.low(v) as u64) << 1) | s.is_articulation(g, v) as u64)
                .collect(),
            s.bridges(g)
                .into_iter()
                .map(|(a, b)| ((a as u64) << 32) | b as u64)
                .collect(),
        ),
    }
}

/// Recomputes one digest entry of an engine-backed class from its state.
/// Only called on the candidate-restricted refresh path, which DFS and
/// BC (full-rescan classes) never take.
fn entry_value(state: &ClassState, g: &DynamicGraph, i: usize) -> u64 {
    match state {
        ClassState::Sssp(s) => s.distances()[i],
        ClassState::Cc(s) => s.components()[i] as u64,
        ClassState::Sim(s) => {
            let q = s.pattern().node_count();
            s.matches(g, (i / q) as NodeId, i % q) as u64
        }
        ClassState::Reach(s) => s.reached()[i] as u64,
        ClassState::Lcc(s) => {
            let v = i as NodeId;
            (s.degree(v) << 32) | (s.triangles(v) & 0xffff_ffff)
        }
        ClassState::Dfs(_) | ClassState::Bc(_) => unreachable!("full-rescan classes"),
    }
}

/// A live query-class state plus the [`ExecOptions`] it runs under.
/// Built by [`Session::builder`]; see the module docs.
///
/// The session keeps its [`OutputSnapshot`] materialized and coherent:
/// every mutation routes through the [`IncrementalState`] impl (the
/// concrete state is private), whose overrides refresh the snapshot —
/// from the engine's changed-set after an incremental update, by full
/// rescan after a recompute, load, or geometry change — and accumulate
/// the net changes for the next [`take_delta`](Session::take_delta).
pub struct Session {
    class: QueryClass,
    exec: ExecOptions,
    state: ClassState,
    /// The materialized output, always current.
    snap: OutputSnapshot,
    /// Digest entry index → value at the last drain point, recorded on
    /// the entry's *first* change since that drain (so self-cancelling
    /// changes net out to nothing at drain time).
    pending_entries: BTreeMap<u32, u64>,
    /// Node → σ_x at the last drain point (`None` = node did not exist).
    pending_nodes: BTreeMap<u32, Option<u64>>,
    /// Digest length at the last drain point; a differing current length
    /// means the geometry changed and entry diffs are meaningless.
    drained_len: usize,
    /// Reusable candidate buffer for the restricted refresh.
    cand_buf: Vec<usize>,
}

impl Session {
    /// Starts a builder for `class` with the defaults: no source, no
    /// pattern, default policy, no audit.
    pub fn builder(class: QueryClass) -> SessionBuilder {
        SessionBuilder {
            class,
            source: None,
            pattern: None,
            policy: FallbackPolicy::default(),
            audit: None,
            micro_batch: false,
        }
    }

    /// The session's query class.
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The execution options guarded updates run under.
    pub fn options(&self) -> &ExecOptions {
        &self.exec
    }

    /// Replaces the execution options for subsequent guarded updates.
    pub fn set_options(&mut self, exec: ExecOptions) {
        self.exec = exec;
    }

    /// One hardened incremental step under the stored options — the
    /// session-flavored [`update_with`](crate::update_with) — returning
    /// both the boundedness report and the typed [`OutputDelta`] of the
    /// step. Fallback paths (budget abort → recompute, failed audit →
    /// recompute) still produce the correct *net* delta: each inner
    /// mutation accumulates into the pending maps and the drain compares
    /// first-old against last-new.
    pub fn update_guarded(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> TrackedUpdate {
        let exec = self.exec;
        let report = update_with(self, g, applied, &exec);
        TrackedUpdate {
            report,
            delta: self.take_delta(),
        }
    }

    /// The materialized output snapshot (always current).
    pub fn output(&self) -> &OutputSnapshot {
        &self.snap
    }

    /// Drains the changes accumulated since the previous drain point
    /// (session construction, the last `take_delta`, or the last
    /// [`update_guarded`](Self::update_guarded), which drains internally)
    /// into one net [`OutputDelta`]. Entries and nodes whose value
    /// returned to the drained-point value are filtered out, so a
    /// self-cancelling update yields an empty delta — matching the old
    /// "digests compare equal" behavior bit for bit.
    pub fn take_delta(&mut self) -> OutputDelta {
        let cur_len = self.snap.digest_len();
        let resync = (cur_len != self.drained_len).then_some(cur_len);
        let mut changes = Vec::new();
        if resync.is_none() {
            for (&i, &old) in &self.pending_entries {
                let new = self.snap.entry(i as usize);
                if new != old {
                    changes.push(OutputChange { index: i, old, new });
                }
            }
        }
        let mut nodes = Vec::new();
        for (&v, &old) in &self.pending_nodes {
            if (v as usize) < self.snap.nodes() {
                let new = self.snap.node_value(v as usize);
                if old != Some(new) {
                    nodes.push(NodeChange { node: v, old, new });
                }
            }
        }
        self.pending_entries.clear();
        self.pending_nodes.clear();
        self.drained_len = cur_len;
        OutputDelta {
            changes,
            nodes,
            resync,
        }
    }

    /// Refreshes the snapshot after an inner incremental update: the
    /// candidate-restricted path when the class is engine-backed and the
    /// geometry is unchanged (candidates = scope ∪ engine changed-set, a
    /// safe superset — see the per-class `delta_candidates`), a full
    /// rescan otherwise (DFS/BC, node growth).
    fn refresh_after_update(&mut self, g: &DynamicGraph) {
        let geometry_ok = self.snap.nodes() == g.node_count();
        let mut cand = std::mem::take(&mut self.cand_buf);
        cand.clear();
        if geometry_ok {
            match &self.state {
                ClassState::Sssp(s) => s.delta_candidates(&mut cand),
                ClassState::Cc(s) => s.delta_candidates(&mut cand),
                ClassState::Sim(s) => s.delta_candidates(&mut cand),
                ClassState::Reach(s) => s.delta_candidates(&mut cand),
                ClassState::Lcc(s) => s.delta_candidates(&mut cand),
                ClassState::Dfs(_) | ClassState::Bc(_) => {}
            }
        }
        if geometry_ok && !matches!(self.state, ClassState::Dfs(_) | ClassState::Bc(_)) {
            cand.sort_unstable();
            cand.dedup();
            let stride = self.snap.stride();
            for &i in &cand {
                if i >= self.snap.entries().len() {
                    continue; // stale log entry beyond the current stream
                }
                let new = entry_value(&self.state, g, i);
                let old = self.snap.entries()[i];
                if new != old {
                    let v = (i / stride) as u32;
                    self.pending_nodes
                        .entry(v)
                        .or_insert_with(|| Some(self.snap.node_value(v as usize)));
                    self.pending_entries.entry(i as u32).or_insert(old);
                    self.snap.set_entry(i, new);
                }
            }
        } else {
            self.full_refresh(g);
        }
        self.cand_buf = cand;
    }

    /// Recomputes the snapshot from scratch and accumulates every
    /// difference into the pending maps — the path for full-rescan
    /// classes, recomputes, state loads, and geometry changes.
    fn full_refresh(&mut self, g: &DynamicGraph) {
        let fresh = compute_snapshot(self.class, &self.state, g);
        let old = &self.snap;
        let common = old.digest_len().min(fresh.digest_len());
        for i in 0..common {
            if old.entry(i) != fresh.entry(i) {
                self.pending_entries.entry(i as u32).or_insert(old.entry(i));
            }
        }
        for v in 0..fresh.nodes() {
            let newv = fresh.node_value(v);
            let oldv = (v < old.nodes()).then(|| old.node_value(v));
            if oldv != Some(newv) {
                self.pending_nodes.entry(v as u32).or_insert(oldv);
            }
        }
        self.snap = fresh;
    }

    fn inner(&self) -> &dyn IncrementalState {
        match &self.state {
            ClassState::Sssp(s) => s,
            ClassState::Cc(s) => s,
            ClassState::Sim(s) => s,
            ClassState::Reach(s) => s,
            ClassState::Lcc(s) => s,
            ClassState::Dfs(s) => s,
            ClassState::Bc(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn IncrementalState {
        match &mut self.state {
            ClassState::Sssp(s) => s,
            ClassState::Cc(s) => s,
            ClassState::Sim(s) => s,
            ClassState::Reach(s) => s,
            ClassState::Lcc(s) => s,
            ClassState::Dfs(s) => s,
            ClassState::Bc(s) => s,
        }
    }

    /// Canonical value digest: one `u64` stream, index-aligned to the
    /// class's status variables where the class is engine-backed (the
    /// basis of the differential oracle's AFF diff), value-complete for
    /// all seven. A thin shim over the maintained [`OutputSnapshot`] —
    /// byte-identical to the historical per-call computation.
    pub fn digest(&self, _g: &DynamicGraph) -> Vec<u64> {
        self.snap.to_digest()
    }
}

impl IncrementalState for Session {
    fn name(&self) -> &'static str {
        self.class.name()
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        self.inner().total_vars(g)
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let report = self.inner_mut().update(g, applied);
        self.refresh_after_update(g);
        report
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        let stats = self.inner_mut().recompute(g);
        self.full_refresh(g);
        stats
    }

    fn audit(&self, g: &DynamicGraph, audit: &FixpointAudit) -> AuditReport {
        self.inner().audit(g, audit)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.inner_mut().set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        self.inner().space_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner().save_state()
    }

    fn load_state(&mut self, g: &DynamicGraph, bytes: &[u8]) -> Result<(), StateLoadError> {
        self.inner_mut().load_state(g, bytes)?;
        self.full_refresh(g);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn ring(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(false, n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, 1);
        }
        g.insert_edge(0, n as u32 / 2, 3);
        g
    }

    /// Builder with exactly the options `class` consumes.
    fn builder_for(class: QueryClass) -> SessionBuilder {
        let mut b = Session::builder(class);
        if class.source_rooted() {
            b = b.source(0);
        }
        if class == QueryClass::Sim {
            b = b.pattern(Pattern::new(vec![0], &[]));
        }
        b
    }

    #[test]
    fn builder_covers_all_seven_classes() {
        let g = ring(12);
        for class in QueryClass::ALL {
            let session = builder_for(class).build(&g).expect("build");
            assert_eq!(session.class(), class);
            assert_eq!(session.name(), class.name());
            assert!(!session.digest(&g).is_empty());
            assert!(session.space_bytes() > 0);
        }
    }

    #[test]
    fn inapplicable_options_are_refused() {
        let g = ring(8);
        for class in QueryClass::ALL {
            if !class.source_rooted() {
                assert_eq!(
                    Session::builder(class).source(0).build(&g).err(),
                    Some(SessionError::OptionNotApplicable {
                        class,
                        option: "source"
                    }),
                    "{}",
                    class.name()
                );
            }
            if class != QueryClass::Sim {
                assert_eq!(
                    Session::builder(class)
                        .pattern(Pattern::new(vec![0], &[]))
                        .build(&g)
                        .err(),
                    Some(SessionError::OptionNotApplicable {
                        class,
                        option: "pattern"
                    }),
                    "{}",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn sim_without_pattern_is_rejected() {
        let g = ring(8);
        assert_eq!(
            Session::builder(QueryClass::Sim).build(&g).err(),
            Some(SessionError::MissingPattern)
        );
    }

    #[test]
    fn guarded_update_through_the_session_stays_incremental() {
        let g0 = ring(16);
        let mut g = g0.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 10, 2).delete(5, 6);
        let applied = batch.apply(&mut g);
        for class in QueryClass::ALL {
            let mut session = builder_for(class)
                .audit(FixpointAudit::full())
                .build(&g0)
                .unwrap();
            let tracked = session.update_guarded(&g, &applied);
            assert!(
                !tracked.report.fell_back(),
                "{}: {:?}",
                class.name(),
                tracked.report.fallback
            );
        }
    }

    /// The delta contract, pinned against the ground truth the old
    /// callers computed by hand: applying the entry-level changes to the
    /// previous digest must reproduce the new digest exactly, for every
    /// class, across a multi-round churn schedule.
    #[test]
    fn output_delta_replays_the_digest_diff_for_all_classes() {
        use incgraph_graph::rng::SplitMix64;
        let g0 = ring(14);
        for class in QueryClass::ALL {
            let mut g = g0.clone();
            let mut session = builder_for(class).build(&g).unwrap();
            let mut prev = session.digest(&g);
            let mut rng = SplitMix64::seed_from_u64(0xD1F7 + class as u64);
            for round in 0..12 {
                let mut batch = UpdateBatch::new();
                for _ in 0..3 {
                    let u = rng.gen_range(0..14) as u32;
                    let v = rng.gen_range(0..14) as u32;
                    if rng.gen_bool(0.5) {
                        batch.insert(u, v, 1 + rng.gen_range(0..4) as u32);
                    } else {
                        batch.delete(u, v);
                    }
                }
                let applied = batch.apply(&mut g);
                let tracked = session.update_guarded(&g, &applied);
                let now = session.digest(&g);
                let delta = &tracked.delta;
                if let Some(len) = delta.resync {
                    assert_eq!(len, now.len(), "{} round {round}", class.name());
                } else {
                    assert_eq!(prev.len(), now.len());
                    let mut replay = prev.clone();
                    for c in &delta.changes {
                        assert_eq!(replay[c.index as usize], c.old, "{}", class.name());
                        replay[c.index as usize] = c.new;
                    }
                    assert_eq!(replay, now, "{} round {round}", class.name());
                }
                // Node-level changes must agree with the snapshot's
                // per-node values on both ends.
                let snap = session.output();
                for nc in &delta.nodes {
                    assert_eq!(nc.new, snap.node_value(nc.node as usize));
                }
                assert_eq!(session.output().to_digest(), now);
                prev = now;
            }
        }
    }

    /// A self-cancelling guarded update (insert then delete of the same
    /// edge in one batch) produces an empty delta — the behavior DELTA
    /// consumers relied on when they compared digests.
    #[test]
    fn self_cancelling_update_yields_an_empty_delta() {
        let g0 = ring(10);
        for class in QueryClass::ALL {
            let mut g = g0.clone();
            let mut session = builder_for(class).build(&g).unwrap();
            let mut batch = UpdateBatch::new();
            batch.insert(1, 4, 2).delete(1, 4);
            let applied = batch.apply(&mut g);
            let tracked = session.update_guarded(&g, &applied);
            assert!(
                tracked.delta.is_empty(),
                "{}: {:?}",
                class.name(),
                tracked.delta
            );
        }
    }

    #[test]
    fn session_essence_matches_the_bare_state() {
        // The durable pipeline swaps `Box<dyn IncrementalState>`s for
        // sessions; checkpoints written by one must restore via the other.
        let g = ring(10);
        let session = Session::builder(QueryClass::Cc).build(&g).unwrap();
        let bare = CcState::batch(&g).0;
        assert_eq!(session.save_state(), IncrementalState::save_state(&bare));
    }

    #[test]
    fn class_names_roundtrip() {
        for c in QueryClass::ALL {
            assert_eq!(QueryClass::from_name(c.name()), Some(c));
        }
        assert_eq!(QueryClass::from_name("nope"), None);
    }
}
