//! The shared store behind the service: named graphs, standing queries,
//! and the single-writer commit path with exactly-once client retries.
//!
//! One process hosts one [`Store`]. A store holds **named graphs**, each
//! either in-memory (created over the wire with `GRAPH`) or WAL-durable
//! (the store the server was launched on). All mutation — graph
//! creation, standing-query registration, `ΔG` application — happens on
//! the server's single writer thread holding `&mut Store`, which is what
//! makes the WAL commit protocol and the ack bookkeeping race-free by
//! construction; reads (`QUERY`, `STATUS`) take the shared lock.
//!
//! **Standing queries** are live [`Session`]s owned by the store. After
//! every committed batch the writer runs each affected query's
//! incremental update (the paper's `A_Δ`, bounded by `|AFF|`) and pushes
//! a `DELTA` carrying only the digest entries that changed — the wire
//! analogue of the incremental contract: notification cost tracks the
//! affected area, not `|G|`.
//!
//! **Exactly-once**: clients stamp each batch with a per-token sequence
//! number. The store acks `seq == last` as a duplicate (the retry case)
//! without re-applying, admits `seq == last + 1`, and rejects anything
//! else as a gap. For durable graphs the `(token, seq → WAL seq)` intent
//! is fsynced through [`DedupLog`] *before* the WAL commit (via
//! [`DurableSession::apply_with`]), so the ack table survives crashes
//! with the same once-only semantics — see the [`dedup`](crate::dedup)
//! module docs for the crash analysis.

use crate::dedup::{self, AckRecord, DedupEntry, DedupLog};
use crate::outbound::Outbound;
use crate::protocol::{format_view_rows, ErrCode, ViewRow};
use incgraph_algos::{IncrementalState, QueryClass, Session, SessionError};
use incgraph_dataflow::{DataflowError, DataflowSession, PlanContext};
use incgraph_durable::{
    encode_record, recover, scan_records, CrashPoint, DurableError, DurableOptions, DurableSession,
    WAL_NAME,
};
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch};
use incgraph_workloads::random_pattern;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Resource caps guarding the store against a hostile or buggy client.
#[derive(Clone, Debug)]
pub struct StoreLimits {
    /// Max unit updates per `UPDATE` batch.
    pub max_batch_units: usize,
    /// Max nodes per `GRAPH`.
    pub max_nodes: usize,
    /// Max named graphs in the store.
    pub max_graphs: usize,
    /// Max standing queries per session.
    pub max_queries_per_session: usize,
    /// Max changed entries enumerated in one `DELTA`; wider changes (and
    /// digest-length changes) send the `resync` form instead.
    pub max_delta_entries: usize,
}

impl Default for StoreLimits {
    fn default() -> Self {
        StoreLimits {
            max_batch_units: 4096,
            max_nodes: 1 << 20,
            max_graphs: 4096,
            max_queries_per_session: 64,
            max_delta_entries: 256,
        }
    }
}

/// A wire-typed refusal: the `ERR` code plus a human detail.
pub type WireError = (ErrCode, String);

/// How an `UPDATE` failed.
#[derive(Debug)]
pub enum UpdateError {
    /// Refused; reply `ERR` and keep the session.
    Wire(ErrCode, String),
    /// An armed [`CrashPoint`] fired mid-commit: the store is dead and
    /// the server must simulate process death (no replies, no drain).
    Crashed(CrashPoint),
}

/// A successful `UPDATE`: what the `ACK` line carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Echo of the client sequence.
    pub client_seq: u64,
    /// Store sequence the batch committed under (WAL sequence for
    /// durable graphs).
    pub wal_seq: u64,
    /// Unit updates in the batch.
    pub units: usize,
    /// `true` when this acked a retry without re-applying.
    pub dup: bool,
}

/// The per-class states a durable store tracks from creation, in
/// [`QueryClass::ALL`] order, skipping the undirected-only classes on
/// directed graphs. Shared with the chaos harness so its full-replay
/// reference builds *identical* states (same pattern seed, same source)
/// and essence comparison is byte-exact.
pub fn standing_states(g: &DynamicGraph, pattern_seed: u64) -> Vec<Box<dyn IncrementalState>> {
    QueryClass::ALL
        .into_iter()
        .filter(|c| !(c.requires_undirected() && g.is_directed()))
        .map(|c| {
            let mut b = Session::builder(c);
            if c == QueryClass::Sim {
                b = b.pattern(random_pattern(g, 4, 6, pattern_seed));
            }
            Box::new(b.build(g).expect("direction-filtered class builds"))
                as Box<dyn IncrementalState>
        })
        .collect()
}

/// One registered standing query: a live session plus the digest it last
/// notified, and the owner's outbound queue. `source`/`pattern_seed`
/// are kept so the query can be rebuilt from scratch when a replica
/// adopts a shipped snapshot (the old incremental state describes a
/// world that no longer exists).
struct StandingQuery {
    class: QueryClass,
    session: Session,
    digest: Vec<u64>,
    source: NodeId,
    pattern_seed: u64,
    out: Arc<Outbound>,
}

/// One registered standing *dataflow* plan (`PLAN`): a live
/// [`DataflowSession`] plus the canonical plan text and pattern seed it
/// can be rebuilt from when a replica adopts a shipped snapshot.
struct StandingPlan {
    session: DataflowSession,
    text: String,
    pattern_seed: u64,
    out: Arc<Outbound>,
}

// One Backend exists per named graph for the life of the process, so
// the Memory/Durable size asymmetry never multiplies across a
// collection — boxing would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// Wire-created, lives and dies with the process.
    Memory { graph: DynamicGraph, seq: u64 },
    /// WAL-durable with an exactly-once intent log.
    Durable {
        session: DurableSession,
        dedup: DedupLog,
    },
}

impl Backend {
    fn graph(&self) -> &DynamicGraph {
        match self {
            Backend::Memory { graph, .. } => graph,
            Backend::Durable { session, .. } => session.graph(),
        }
    }

    fn seq(&self) -> u64 {
        match self {
            Backend::Memory { seq, .. } => *seq,
            Backend::Durable { session, .. } => session.last_seq(),
        }
    }
}

struct GraphEntry {
    backend: Backend,
    /// token → last acked batch.
    acks: HashMap<String, AckRecord>,
    /// `(session id, qid)` → standing query.
    queries: BTreeMap<(u64, String), StandingQuery>,
    /// `(session id, qid)` → standing dataflow plan. Plans share the
    /// per-session query cap and the qid namespace with `queries`.
    plans: BTreeMap<(u64, String), StandingPlan>,
}

/// The service's shared state. See the module docs.
pub struct Store {
    graphs: BTreeMap<String, GraphEntry>,
    limits: StoreLimits,
    /// Set on the first real WAL I/O failure; durable writes are refused
    /// (`ERR readonly`) for the life of the process while reads keep
    /// working. Process-lifetime by design: it also guarantees an
    /// orphaned intent's WAL sequence is never reused (see [`DedupLog`]).
    degraded: bool,
}

impl Store {
    /// An empty store holding only wire-created in-memory graphs.
    pub fn new(limits: StoreLimits) -> Self {
        Store {
            graphs: BTreeMap::new(),
            limits,
            degraded: false,
        }
    }

    /// Opens (or initializes) a durable graph named `name` from `dir` and
    /// mounts it into a fresh store. An existing store is recovered —
    /// `nodes`/`directed` then describe the *expected* shape and are only
    /// used when initializing. Tracks [`standing_states`] inside the
    /// durable session so checkpoints and recovery carry all per-class
    /// essences.
    pub fn open_durable(
        dir: &Path,
        name: &str,
        nodes: usize,
        directed: bool,
        options: DurableOptions,
        limits: StoreLimits,
    ) -> Result<Self, DurableError> {
        let manifest = dir.join("MANIFEST");
        let session = if manifest.exists() {
            let (session, report) = recover(dir, options)?;
            if incgraph_obs::enabled() {
                incgraph_obs::event(
                    "service.recovered",
                    &format!(
                        "graph={name} seq={} replayed={}",
                        session.last_seq(),
                        report.wal_records_replayed
                    ),
                );
            }
            session
        } else {
            let graph = DynamicGraph::new(directed, nodes);
            let states = standing_states(&graph, DURABLE_PATTERN_SEED);
            DurableSession::create(dir, graph, states, options)?
        };
        let (dedup, index) = DedupLog::open(dir, session.last_seq())?;
        let mut store = Store::new(limits);
        store.graphs.insert(
            name.to_string(),
            GraphEntry {
                backend: Backend::Durable { session, dedup },
                acks: index.into_iter().collect(),
                queries: BTreeMap::new(),
                plans: BTreeMap::new(),
            },
        );
        Ok(store)
    }

    /// Creates the in-memory graph `name`, or attaches to an existing
    /// graph of the **same shape** (idempotent, so clients can `GRAPH`
    /// unconditionally after reconnecting).
    pub fn open_graph(
        &mut self,
        name: &str,
        nodes: usize,
        directed: bool,
    ) -> Result<(), WireError> {
        if let Some(entry) = self.graphs.get(name) {
            let g = entry.backend.graph();
            return if g.node_count() == nodes && g.is_directed() == directed {
                Ok(())
            } else {
                Err((
                    ErrCode::GraphMismatch,
                    format!(
                        "{name} exists with {} nodes ({})",
                        g.node_count(),
                        if g.is_directed() {
                            "directed"
                        } else {
                            "undirected"
                        }
                    ),
                ))
            };
        }
        if nodes == 0 || nodes > self.limits.max_nodes {
            return Err((
                ErrCode::TooLarge,
                format!("nodes must be in 1..={}", self.limits.max_nodes),
            ));
        }
        if self.graphs.len() >= self.limits.max_graphs {
            return Err((
                ErrCode::TooLarge,
                format!("store caps at {} graphs", self.limits.max_graphs),
            ));
        }
        self.graphs.insert(
            name.to_string(),
            GraphEntry {
                backend: Backend::Memory {
                    graph: DynamicGraph::new(directed, nodes),
                    seq: 0,
                },
                acks: HashMap::new(),
                queries: BTreeMap::new(),
                plans: BTreeMap::new(),
            },
        );
        incgraph_obs::counter("service.graphs_created", 1);
        Ok(())
    }

    /// Registers a standing query for session `sid`, running the batch
    /// fixpoint now. Returns the digest length (what a `RESULT` for this
    /// query will carry).
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        sid: u64,
        qid: &str,
        graph: &str,
        class_name: &str,
        source: NodeId,
        pattern_seed: u64,
        out: Arc<Outbound>,
    ) -> Result<usize, WireError> {
        let Some(class) = QueryClass::from_name(class_name) else {
            return Err((
                ErrCode::UnknownClass,
                format!("{class_name} is not one of the seven classes"),
            ));
        };
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let key = (sid, qid.to_string());
        if entry.queries.contains_key(&key) || entry.plans.contains_key(&key) {
            return Err((
                ErrCode::DupQuery,
                format!("{qid} is already registered on this session"),
            ));
        }
        let owned = entry.queries.keys().filter(|(s, _)| *s == sid).count()
            + entry.plans.keys().filter(|(s, _)| *s == sid).count();
        if owned >= self.limits.max_queries_per_session {
            return Err((
                ErrCode::TooLarge,
                format!(
                    "session caps at {} standing queries",
                    self.limits.max_queries_per_session
                ),
            ));
        }
        let g = entry.backend.graph();
        if source as usize >= g.node_count() {
            return Err((
                ErrCode::BadCommand,
                format!("source {source} out of range for {graph}"),
            ));
        }
        let _cls = incgraph_obs::class_scope(class.name());
        let _span = incgraph_obs::span("service.register");
        let mut builder = Session::builder(class);
        if class.source_rooted() {
            builder = builder.source(source);
        }
        if class == QueryClass::Sim {
            builder = builder.pattern(random_pattern(g, 4, 6, pattern_seed));
        }
        let session = match builder.build(g) {
            Ok(s) => s,
            Err(SessionError::RequiresUndirected(c)) => {
                return Err((
                    ErrCode::UndirectedRequired,
                    format!("{} needs an undirected graph", c.name()),
                ))
            }
            Err(e) => return Err((ErrCode::BadCommand, e.to_string())),
        };
        let digest = session.digest(g);
        let len = digest.len();
        entry.queries.insert(
            key,
            StandingQuery {
                class,
                session,
                digest,
                source,
                pattern_seed,
                out,
            },
        );
        incgraph_obs::counter("service.registers", 1);
        Ok(len)
    }

    /// Unregisters one standing query of session `sid`.
    pub fn unregister(&mut self, sid: u64, qid: &str) -> Result<(), WireError> {
        for entry in self.graphs.values_mut() {
            if entry.queries.remove(&(sid, qid.to_string())).is_some() {
                return Ok(());
            }
        }
        Err((ErrCode::UnknownQuery, format!("no query {qid}")))
    }

    /// Registers a standing dataflow plan (`PLAN`) for session `sid`:
    /// parses the `incgraph-plan/1` text, builds the member class
    /// sessions, and primes the view. Returns the initial view row count
    /// (what `PLANQ` will enumerate).
    pub fn register_plan(
        &mut self,
        sid: u64,
        qid: &str,
        graph: &str,
        pattern_seed: u64,
        text: &str,
        out: Arc<Outbound>,
    ) -> Result<usize, WireError> {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let key = (sid, qid.to_string());
        if entry.queries.contains_key(&key) || entry.plans.contains_key(&key) {
            return Err((
                ErrCode::DupQuery,
                format!("{qid} is already registered on this session"),
            ));
        }
        let owned = entry.queries.keys().filter(|(s, _)| *s == sid).count()
            + entry.plans.keys().filter(|(s, _)| *s == sid).count();
        if owned >= self.limits.max_queries_per_session {
            return Err((
                ErrCode::TooLarge,
                format!(
                    "session caps at {} standing queries",
                    self.limits.max_queries_per_session
                ),
            ));
        }
        let g = entry.backend.graph();
        let _span = incgraph_obs::span("service.plan");
        let ctx = PlanContext {
            pattern: Some(random_pattern(g, 4, 6, pattern_seed)),
            ..PlanContext::default()
        };
        let session = match DataflowSession::from_text(text, g, &ctx) {
            Ok(s) => s,
            Err(DataflowError::Session(SessionError::RequiresUndirected(c))) => {
                return Err((
                    ErrCode::UndirectedRequired,
                    format!("{} needs an undirected graph", c.name()),
                ))
            }
            Err(e) => return Err((ErrCode::BadPlan, e.to_string())),
        };
        let rows = session.view().len();
        // Store the canonical form so replica rebuilds and STATUS agree
        // with what the parser admitted, not the client's spelling.
        let canonical = session.plan().display();
        entry.plans.insert(
            key,
            StandingPlan {
                session,
                text: canonical,
                pattern_seed,
                out,
            },
        );
        incgraph_obs::counter("service.plans", 1);
        Ok(rows)
    }

    /// Unregisters one standing plan of session `sid`.
    pub fn unregister_plan(&mut self, sid: u64, qid: &str) -> Result<(), WireError> {
        for entry in self.graphs.values_mut() {
            if entry.plans.remove(&(sid, qid.to_string())).is_some() {
                return Ok(());
            }
        }
        Err((ErrCode::UnknownQuery, format!("no plan {qid}")))
    }

    /// Reads a standing plan's materialized view with the sequence it
    /// reflects (`PLANQ`, over the shared lock).
    pub fn plan_view(&self, sid: u64, qid: &str) -> Option<(Vec<ViewRow>, u64)> {
        self.graphs.values().find_map(|entry| {
            entry
                .plans
                .get(&(sid, qid.to_string()))
                .map(|p| (p.session.view(), entry.backend.seq()))
        })
    }

    /// Drops every standing query and plan of a disconnected session;
    /// returns how many were removed.
    pub fn drop_session(&mut self, sid: u64) -> usize {
        let mut removed = 0;
        for entry in self.graphs.values_mut() {
            let before = entry.queries.len() + entry.plans.len();
            entry.queries.retain(|(s, _), _| *s != sid);
            entry.plans.retain(|(s, _), _| *s != sid);
            removed += before - entry.queries.len() - entry.plans.len();
        }
        removed
    }

    /// Reads a standing query's current digest with the sequence it
    /// reflects (`QUERY`, over the shared lock).
    pub fn query(&self, sid: u64, qid: &str) -> Option<(Vec<u64>, u64)> {
        self.graphs.values().find_map(|entry| {
            entry
                .queries
                .get(&(sid, qid.to_string()))
                .map(|q| (q.digest.clone(), entry.backend.seq()))
        })
    }

    /// Applies one client batch: dedup/gap check, commit (WAL-durable
    /// where the graph is), then incremental notification of every
    /// standing query on the graph. See the module docs for the
    /// exactly-once protocol.
    pub fn apply_update(
        &mut self,
        graph: &str,
        token: &str,
        client_seq: u64,
        batch: &UpdateBatch,
    ) -> Result<Ack, UpdateError> {
        let (ack, applied) = self.apply_update_deferred(graph, token, client_seq, batch)?;
        if let Some(applied) = applied {
            self.notify_queries(graph, std::slice::from_ref(&applied));
        }
        Ok(ack)
    }

    /// The commit half of [`apply_update`]: dedup/gap check, graph
    /// mutation, WAL + dedup-intent fsync, ack bookkeeping — everything
    /// the exactly-once protocol depends on — but **no** standing-query
    /// notification. The caller owns the returned effective ΔG and must
    /// eventually hand it (alone or merged with later batches) to
    /// [`notify_queries`](Self::notify_queries). Returns `None` ops for
    /// a deduplicated retry, which re-acks without re-applying.
    ///
    /// This split is the writer's micro-batch coalescing hook: acks stay
    /// per-batch (a client's durability guarantee must never wait on a
    /// flush window), while the per-query incremental fixpoint and DELTA
    /// push — the part whose cost scales with standing-query count — can
    /// run once per flush over the coalesced net ΔG.
    pub fn apply_update_deferred(
        &mut self,
        graph: &str,
        token: &str,
        client_seq: u64,
        batch: &UpdateBatch,
    ) -> Result<(Ack, Option<incgraph_graph::AppliedBatch>), UpdateError> {
        let wire = |c: ErrCode, d: String| UpdateError::Wire(c, d);
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err(wire(ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        if batch.len() > self.limits.max_batch_units {
            return Err(wire(
                ErrCode::TooLarge,
                format!("batch caps at {} units", self.limits.max_batch_units),
            ));
        }
        let last = entry.acks.get(token).copied().unwrap_or_default();
        if client_seq == last.client_seq {
            // The retry of an acked batch: re-ack, never re-apply.
            incgraph_obs::counter("service.dedup_hits", 1);
            return Ok((
                Ack {
                    client_seq,
                    wal_seq: last.wal_seq,
                    units: batch.len(),
                    dup: true,
                },
                None,
            ));
        }
        if client_seq != last.client_seq + 1 {
            return Err(wire(
                ErrCode::SeqGap,
                format!(
                    "expected seq {} or {}",
                    last.client_seq,
                    last.client_seq + 1
                ),
            ));
        }
        let _span = incgraph_obs::span("service.apply");
        let (wal_seq, applied) = match &mut entry.backend {
            Backend::Memory { graph: g, seq } => {
                let applied = batch
                    .apply_validated(g)
                    .map_err(|e| wire(ErrCode::InvalidBatch, e.to_string()))?;
                *seq += 1;
                (*seq, applied)
            }
            Backend::Durable { session, dedup } => {
                if self.degraded {
                    return Err(wire(
                        ErrCode::ReadOnly,
                        "store is in degraded read-only mode after a WAL failure".into(),
                    ));
                }
                match session.apply_with(batch, |wal_seq| dedup.append(token, client_seq, wal_seq))
                {
                    Ok((_, applied)) => (session.last_seq(), applied),
                    Err(DurableError::InvalidBatch(e)) => {
                        return Err(wire(ErrCode::InvalidBatch, e.to_string()))
                    }
                    Err(DurableError::InjectedCrash(p)) => return Err(UpdateError::Crashed(p)),
                    Err(e) => {
                        // Real I/O or corruption: the in-memory graph was
                        // rolled back, but trust in the log is gone —
                        // degrade to read-only for the process lifetime.
                        self.degraded = true;
                        if incgraph_obs::enabled() {
                            incgraph_obs::event("service.degraded", &e.to_string());
                        }
                        return Err(wire(
                            ErrCode::Store,
                            format!("{e}; store degraded to read-only"),
                        ));
                    }
                }
            }
        };
        entry.acks.insert(
            token.to_string(),
            AckRecord {
                client_seq,
                wal_seq,
            },
        );
        incgraph_obs::counter("service.batches", 1);
        Ok((
            Ack {
                client_seq,
                wal_seq,
                units: batch.len(),
                dup: false,
            },
            Some(applied),
        ))
    }

    /// The notification half of [`apply_update`]: runs every standing
    /// query's incremental update over the (coalesced) ΔG of `batches`
    /// and pushes one `DELTA` per query that changed, stamped with the
    /// graph's current committed sequence. `batches` must be the
    /// *effective* applied ops of consecutive committed batches, oldest
    /// first, with none skipped — the net batch the
    /// [`Coalescer`](incgraph_core::Coalescer) builds from them is
    /// equivalent by construction, so each query does one bounded
    /// incremental step instead of one per batch.
    pub fn notify_queries(&mut self, graph: &str, batches: &[incgraph_graph::AppliedBatch]) {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return;
        };
        if batches.is_empty() || (entry.queries.is_empty() && entry.plans.is_empty()) {
            return;
        }
        let _notify = incgraph_obs::span("service.notify");
        let g = match &entry.backend {
            Backend::Memory { graph, .. } => graph,
            Backend::Durable { session, .. } => session.graph(),
        };
        let wal_seq = match &entry.backend {
            Backend::Memory { seq, .. } => *seq,
            Backend::Durable { session, .. } => session.last_seq(),
        };
        let net;
        let applied = if batches.len() == 1 {
            &batches[0]
        } else {
            net = incgraph_core::coalesce_batches(g.is_directed(), batches);
            incgraph_obs::observe("service.coalesced_ops", net.len() as u64);
            &net
        };
        let max_entries = self.limits.max_delta_entries;
        for ((_, qid), q) in entry.queries.iter_mut() {
            let _cls = incgraph_obs::class_scope(q.class.name());
            // The session's typed delta replaces the historical
            // digest-zip: same wire bytes, O(|Δoutput|) instead of
            // O(|Ψ|) per query per commit.
            let delta = q.session.update_guarded(g, applied).delta;
            if delta.resync.is_none() && delta.changes.is_empty() {
                continue;
            }
            let len = q.session.output().digest_len();
            if delta.resync.is_some() || delta.changes.len() > max_entries {
                // Digest geometry changed (BC's bridge list can grow) or
                // the diff is too large to ship: positional diffs are
                // meaningless or uneconomical, ask for a re-QUERY.
                q.out.push_delta(qid, wal_seq, None, len);
            } else {
                let changed: BTreeMap<u32, u64> =
                    delta.changes.iter().map(|c| (c.index, c.new)).collect();
                incgraph_obs::observe("service.delta_entries", changed.len() as u64);
                q.out.push_delta(qid, wal_seq, Some(changed), len);
            }
            q.digest = q.session.digest(g);
        }
        // Standing plans tick after the class queries: one DAG
        // propagation per plan, notified as a `VDELTA` of weighted view
        // rows (empty ticks stay silent, like unchanged digests).
        for ((_, qid), p) in entry.plans.iter_mut() {
            let delta = p.session.apply(g, applied);
            if delta.is_empty() {
                continue;
            }
            incgraph_obs::observe("service.vdelta_rows", delta.len() as u64);
            p.out
                .push_line(format_view_rows("VDELTA", qid, wal_seq, delta.rows()));
        }
    }

    /// Whether durable writes are refused.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Checkpoints every durable graph (graceful shutdown). Best-effort:
    /// failures degrade the store but the drain continues.
    pub fn checkpoint_all(&mut self) {
        for entry in self.graphs.values_mut() {
            if let Backend::Durable { session, .. } = &mut entry.backend {
                if let Err(e) = session.checkpoint() {
                    self.degraded = true;
                    if incgraph_obs::enabled() {
                        incgraph_obs::event("service.degraded", &e.to_string());
                    }
                }
            }
        }
    }

    /// `(graphs, standing queries)` for `STATUS`.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.graphs.len(),
            self.graphs
                .values()
                .map(|e| e.queries.len() + e.plans.len())
                .sum(),
        )
    }

    /// Arms a one-shot crash injection on the named durable graph (the
    /// chaos harness's in-process "kill -9 mid-commit").
    pub fn arm_crash(&mut self, graph: &str, point: Option<CrashPoint>) -> bool {
        match self.graphs.get_mut(graph) {
            Some(GraphEntry {
                backend: Backend::Durable { session, .. },
                ..
            }) => {
                session.arm_crash(point);
                true
            }
            _ => false,
        }
    }

    /// The store's resource caps.
    pub fn limits(&self) -> &StoreLimits {
        &self.limits
    }

    // --- replication -----------------------------------------------------

    /// Replication-facing view of the durable graph `name`; `None` for
    /// unknown or non-durable graphs.
    pub fn repl_info(&self, graph: &str) -> Option<ReplInfo> {
        let entry = self.graphs.get(graph)?;
        let Backend::Durable { session, .. } = &entry.backend else {
            return None;
        };
        Some(ReplInfo {
            epoch: session.epoch(),
            base_seq: session.base_seq(),
            last_seq: session.last_seq(),
            directed: session.graph().is_directed(),
            nodes: session.graph().node_count(),
        })
    }

    /// `(last_seq, digest)` of the durable graph — the divergence probe's
    /// payload on both ends.
    pub fn repl_digest(&self, graph: &str) -> Option<(u64, String)> {
        let entry = self.graphs.get(graph)?;
        let Backend::Durable { session, .. } = &entry.backend else {
            return None;
        };
        Some((session.last_seq(), session.digest()))
    }

    /// CRC of the WAL record at `seq` (recomputed from the scanned
    /// batch), or `None` when `seq` precedes the retained tail or was
    /// never logged. Both the replica (announcing its position in `SYNC`)
    /// and the primary (validating that announcement) use this.
    pub fn record_crc(&self, graph: &str, seq: u64) -> Option<u32> {
        let entry = self.graphs.get(graph)?;
        let Backend::Durable { session, .. } = &entry.backend else {
            return None;
        };
        if seq <= session.base_seq() || seq > session.last_seq() {
            return None;
        }
        let body = std::fs::read(session.dir().join(WAL_NAME)).ok()?;
        let body = body.get(8..)?;
        let scan = scan_records(body, session.base_seq() + 1);
        scan.records
            .iter()
            .find(|r| r.seq == seq)
            .map(|r| record_crc_of(r.seq, &r.batch))
    }

    /// Promotion's commit point: durably bumps the durable graph's epoch.
    pub fn bump_epoch(&mut self, graph: &str) -> Result<u64, WireError> {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let Backend::Durable { session, .. } = &mut entry.backend else {
            return Err((ErrCode::BadCommand, format!("{graph} is not durable")));
        };
        session
            .bump_epoch()
            .map_err(|e| (ErrCode::Store, e.to_string()))
    }

    /// Adopts a primary's (higher) epoch on a tailing replica.
    pub fn adopt_epoch(&mut self, graph: &str, epoch: u64) -> Result<(), WireError> {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let Backend::Durable { session, .. } = &mut entry.backend else {
            return Err((ErrCode::BadCommand, format!("{graph} is not durable")));
        };
        session
            .adopt_epoch(epoch)
            .map_err(|e| (ErrCode::Store, e.to_string()))
    }

    /// Encodes the durable graph's live world as a bootstrap snapshot:
    /// the checkpoint payload covering `last_seq` plus the current ack
    /// table (latest entry per token, WAL order) for `SNAPACK` shipping.
    pub fn encode_snapshot(&self, graph: &str) -> Option<(u64, Vec<u8>, Vec<DedupEntry>)> {
        let entry = self.graphs.get(graph)?;
        let Backend::Durable { session, .. } = &entry.backend else {
            return None;
        };
        let mut acks: Vec<DedupEntry> = entry
            .acks
            .iter()
            .map(|(token, rec)| DedupEntry {
                wal_seq: rec.wal_seq,
                client_seq: rec.client_seq,
                token: token.clone(),
            })
            .collect();
        acks.sort_by_key(|e| e.wal_seq);
        Some((session.last_seq(), session.encode_snapshot(), acks))
    }

    /// Reads the catch-up tail for a replica at `from_seq`: every
    /// retained WAL record with `seq > from_seq` (raw record bytes, ready
    /// for `SHIP`), each joined with the client identity its dedup intent
    /// recorded, plus the CRC of the record *at* `from_seq` so the caller
    /// can validate the replica's announced position.
    pub fn wal_catchup(
        &self,
        graph: &str,
        from_seq: u64,
    ) -> Result<(Option<u32>, Vec<ShipRecord>), WireError> {
        let Some(entry) = self.graphs.get(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let Backend::Durable { session, .. } = &entry.backend else {
            return Err((ErrCode::BadCommand, format!("{graph} is not durable")));
        };
        let bytes = std::fs::read(session.dir().join(WAL_NAME))
            .map_err(|e| (ErrCode::Store, format!("wal read: {e}")))?;
        let body = bytes.get(8..).unwrap_or(&[]);
        let scan = scan_records(body, session.base_seq() + 1);
        let identities: HashMap<u64, (String, u64)> =
            dedup::scan_entries(session.dir(), session.last_seq())
                .map_err(|e| (ErrCode::Store, format!("dedup scan: {e}")))?
                .into_iter()
                .map(|e| (e.wal_seq, (e.token, e.client_seq)))
                .collect();
        let mut crc_at_from = None;
        let mut ships = Vec::new();
        for r in &scan.records {
            if r.seq == from_seq {
                crc_at_from = Some(record_crc_of(r.seq, &r.batch));
            } else if r.seq > from_seq {
                ships.push(ShipRecord {
                    seq: r.seq,
                    identity: identities.get(&r.seq).cloned(),
                    record: encode_record(r.seq, &r.batch),
                });
            }
        }
        Ok((crc_at_from, ships))
    }

    /// Applies one shipped record on a replica, through the same
    /// validated/WAL-fsynced path client updates take. `seq` must be
    /// exactly the next expected sequence (ships arrive in order; a gap
    /// means the stream is broken and the replica must resync). The
    /// shipped client identity lands in the dedup log and ack table so
    /// client retries stay exactly-once across failover.
    pub fn apply_replicated(
        &mut self,
        graph: &str,
        seq: u64,
        identity: Option<(&str, u64)>,
        batch: &UpdateBatch,
    ) -> Result<incgraph_graph::AppliedBatch, UpdateError> {
        let wire = |c: ErrCode, d: String| UpdateError::Wire(c, d);
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err(wire(ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        let Backend::Durable { session, dedup } = &mut entry.backend else {
            return Err(wire(ErrCode::BadCommand, format!("{graph} is not durable")));
        };
        if self.degraded {
            return Err(wire(
                ErrCode::ReadOnly,
                "store is in degraded read-only mode after a WAL failure".into(),
            ));
        }
        if seq != session.last_seq() + 1 {
            return Err(wire(
                ErrCode::SeqGap,
                format!("replica at {}, ship at {seq}", session.last_seq()),
            ));
        }
        let _span = incgraph_obs::span("repl.apply");
        match session.apply_with(batch, |wal_seq| match identity {
            Some((token, client_seq)) => dedup.append(token, client_seq, wal_seq),
            None => Ok(()),
        }) {
            Ok((_, applied)) => {
                if let Some((token, client_seq)) = identity {
                    entry.acks.insert(
                        token.to_string(),
                        AckRecord {
                            client_seq,
                            wal_seq: seq,
                        },
                    );
                }
                incgraph_obs::counter("repl.ship_records", 1);
                Ok(applied)
            }
            Err(DurableError::InvalidBatch(e)) => Err(wire(ErrCode::InvalidBatch, e.to_string())),
            Err(DurableError::InjectedCrash(p)) => Err(UpdateError::Crashed(p)),
            Err(e) => {
                self.degraded = true;
                if incgraph_obs::enabled() {
                    incgraph_obs::event("service.degraded", &e.to_string());
                }
                Err(wire(
                    ErrCode::Store,
                    format!("{e}; store degraded to read-only"),
                ))
            }
        }
    }

    /// Replaces the durable graph's world with a shipped snapshot
    /// (bootstrap or divergence resync): installs the payload as the new
    /// base, adopts `epoch`, resets the dedup log and ack table to the
    /// shipped entries, and rebuilds every standing query from scratch
    /// over the new graph, pushing each a `resync` DELTA.
    ///
    /// On failure the graph is unmounted and the store degraded — the
    /// half-installed world must not serve.
    pub fn adopt_snapshot(
        &mut self,
        graph: &str,
        payload: &[u8],
        epoch: u64,
        acks: &[DedupEntry],
    ) -> Result<u64, WireError> {
        let Some(entry) = self.graphs.get_mut(graph) else {
            return Err((ErrCode::UnknownGraph, format!("no graph {graph}")));
        };
        if !matches!(entry.backend, Backend::Durable { .. }) {
            return Err((ErrCode::BadCommand, format!("{graph} is not durable")));
        }
        let mut entry = self.graphs.remove(graph).expect("checked above");
        let Backend::Durable { session, mut dedup } = entry.backend else {
            unreachable!("checked above");
        };
        let mut sorted: Vec<DedupEntry> = acks.to_vec();
        sorted.sort_by_key(|e| e.wal_seq);
        let session = match session
            .install_snapshot(payload, epoch)
            .and_then(|s| dedup.reset(&sorted).map(|()| s))
        {
            Ok(s) => s,
            Err(e) => {
                // The old session was consumed; there is no world to go
                // back to. Leave the graph unmounted and refuse writes.
                self.degraded = true;
                if incgraph_obs::enabled() {
                    incgraph_obs::event("service.degraded", &e.to_string());
                }
                return Err((ErrCode::Store, format!("snapshot install failed: {e}")));
            }
        };
        let covered = session.last_seq();
        entry.acks = sorted
            .into_iter()
            .map(|e| {
                (
                    e.token,
                    AckRecord {
                        client_seq: e.client_seq,
                        wal_seq: e.wal_seq,
                    },
                )
            })
            .collect();
        // Rebuild standing queries over the new world; their old
        // incremental states describe dead history.
        let g = session.graph();
        for ((_, qid), q) in entry.queries.iter_mut() {
            let mut builder = Session::builder(q.class);
            if q.class.source_rooted() {
                builder = builder.source(q.source);
            }
            if q.class == QueryClass::Sim {
                builder = builder.pattern(random_pattern(g, 4, 6, q.pattern_seed));
            }
            if let Ok(s) = builder.build(g) {
                q.digest = s.digest(g);
                q.session = s;
                q.out.push_delta(qid, covered, None, q.digest.len());
            }
        }
        // Standing plans likewise: rebuild from the canonical text and
        // push the full view so the client resyncs.
        for ((_, qid), p) in entry.plans.iter_mut() {
            let ctx = PlanContext {
                pattern: Some(random_pattern(g, 4, 6, p.pattern_seed)),
                ..PlanContext::default()
            };
            if let Ok(s) = DataflowSession::from_text(&p.text, g, &ctx) {
                p.out
                    .push_line(format_view_rows("VIEW", qid, covered, &s.view()));
                p.session = s;
            }
        }
        entry.backend = Backend::Durable { session, dedup };
        self.graphs.insert(graph.to_string(), entry);
        Ok(covered)
    }
}

/// Replication-facing facts about a durable graph.
#[derive(Clone, Copy, Debug)]
pub struct ReplInfo {
    /// Durable replication epoch.
    pub epoch: u64,
    /// Sequence the retained WAL tail starts after.
    pub base_seq: u64,
    /// Last committed sequence.
    pub last_seq: u64,
    /// Graph directedness (shape validation in `SYNC`).
    pub directed: bool,
    /// Graph node count (shape validation in `SYNC`).
    pub nodes: usize,
}

/// One catch-up record ready to ship: raw WAL record bytes plus the
/// client identity its dedup intent recorded (if any).
#[derive(Clone, Debug)]
pub struct ShipRecord {
    /// WAL sequence.
    pub seq: u64,
    /// `(token, client_seq)` the batch committed under.
    pub identity: Option<(String, u64)>,
    /// Full encoded WAL record (self-validating).
    pub record: Vec<u8>,
}

/// CRC of the WAL record `(seq, batch)` as stored on disk — recomputed
/// through [`encode_record`], whose layout places it at bytes 12..16.
pub fn record_crc_of(seq: u64, batch: &UpdateBatch) -> u32 {
    let bytes = encode_record(seq, batch);
    u32::from_le_bytes(bytes[12..16].try_into().expect("record header"))
}

/// Pattern seed the durable store's built-in states use; the chaos
/// harness must build its reference with the same seed.
pub const DURABLE_PATTERN_SEED: u64 = 0x1A2B3C4D;
