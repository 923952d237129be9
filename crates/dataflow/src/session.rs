//! [`DataflowSession`]: a standing plan wired to live query-class
//! sessions.
//!
//! Building one instantiates a member [`Session`] per distinct class
//! source in the plan and primes every operator with the classes'
//! initial outputs. Each [`apply`](DataflowSession::apply) then runs one
//! **tick**: the committed ΔG is pushed through every member session
//! (`update_guarded`), the resulting typed [`OutputDelta`]s are lowered
//! to z-set deltas, and those propagate through the DAG in binding
//! order — shared sub-plans evaluate exactly once per tick because every
//! binding's output delta is computed once and read by all its
//! consumers. The returned root delta is what the wire layer ships as a
//! view notification; [`view`](DataflowSession::view) is the
//! consolidated root collection.
//!
//! [`OutputDelta`]: incgraph_algos::OutputDelta

use crate::ops::{expr_inputs, states_for, Coll, OpState, Rows};
use crate::plan::{Expr, Plan, PlanParseError, Source};
use incgraph_algos::{QueryClass, Session, SessionError};
use incgraph_graph::{AppliedBatch, DynamicGraph, Pattern};
use std::fmt;

/// Ambient inputs a plan text cannot carry: the Sim pattern for member
/// sessions.
#[derive(Clone, Debug, Default)]
pub struct PlanContext {
    /// Pattern for `sim` sources; building a plan that mentions `sim`
    /// without one fails with [`DataflowError::Session`]
    /// (`MissingPattern`).
    pub pattern: Option<Pattern>,
    /// Has no effect: every member session resumes the one sequential
    /// engine. Kept so callers that build the context by struct literal
    /// keep compiling.
    pub threads: usize,
}

/// Why a dataflow session could not be built.
#[derive(Debug)]
pub enum DataflowError {
    /// The plan text was rejected.
    Parse(PlanParseError),
    /// A member class session refused to build.
    Session(SessionError),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Parse(e) => write!(f, "{e}"),
            DataflowError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<PlanParseError> for DataflowError {
    fn from(e: PlanParseError) -> Self {
        DataflowError::Parse(e)
    }
}

impl From<SessionError> for DataflowError {
    fn from(e: SessionError) -> Self {
        DataflowError::Session(e)
    }
}

/// A standing dataflow query: the plan, its member class sessions, the
/// per-binding operator states, and the materialized root view.
pub struct DataflowSession {
    plan: Plan,
    /// One live session per distinct `Source::Class` in the plan.
    members: Vec<(Source, Session)>,
    /// Nodes already emitted by the `labels` source.
    label_nodes: usize,
    uses_labels: bool,
    states: Vec<OpState>,
    view: Coll,
    ticks: u64,
}

impl DataflowSession {
    /// Builds the member sessions and primes the DAG with the classes'
    /// initial outputs, so [`view`](Self::view) is correct before any
    /// update.
    pub fn build(
        plan: Plan,
        g: &DynamicGraph,
        ctx: &PlanContext,
    ) -> Result<DataflowSession, DataflowError> {
        let mut members = Vec::new();
        let mut uses_labels = false;
        for src in plan.sources() {
            match src {
                Source::Labels => uses_labels = true,
                Source::Class { class, source } => {
                    let mut b = Session::builder(class);
                    if let Some(s) = source {
                        b = b.source(s);
                    }
                    if class == QueryClass::Sim {
                        if let Some(p) = &ctx.pattern {
                            b = b.pattern(p.clone());
                        }
                    }
                    members.push((src, b.build(g)?));
                }
            }
        }
        let states = states_for(&plan);
        let mut df = DataflowSession {
            plan,
            members,
            label_nodes: 0,
            uses_labels,
            states,
            view: Coll::new(),
            ticks: 0,
        };
        // Prime: every initial row enters as a +1 delta, flowing through
        // the same propagation path updates will use.
        let mut sources: Vec<(Source, Rows)> = Vec::new();
        for (src, session) in &df.members {
            let rows = Rows::from_rows(
                session
                    .output()
                    .node_rows()
                    .into_iter()
                    .map(|(n, v)| (n as u64, v, 1)),
            );
            sources.push((*src, rows));
        }
        if df.uses_labels {
            sources.push((Source::Labels, df.label_rows(g)));
        }
        let root = df.propagate(&sources);
        df.view.apply(&root);
        Ok(df)
    }

    /// Parses and builds in one step (the wire `PLAN` / CLI path).
    pub fn from_text(
        text: &str,
        g: &DynamicGraph,
        ctx: &PlanContext,
    ) -> Result<DataflowSession, DataflowError> {
        DataflowSession::build(Plan::parse(text)?, g, ctx)
    }

    /// The plan this session stands for.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Ticks applied so far (excluding the priming pass).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// One tick: push a committed ΔG through every member session and
    /// the DAG; returns the root view's delta (empty when the update did
    /// not move the view).
    pub fn apply(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> Rows {
        let _span = incgraph_obs::span("dataflow.tick");
        incgraph_obs::counter("dataflow.ticks", 1);
        self.ticks += 1;
        let mut sources: Vec<(Source, Rows)> = Vec::new();
        for (src, session) in &mut self.members {
            let delta = session.update_guarded(g, applied).delta;
            let mut rows = Rows::new();
            for nc in &delta.nodes {
                if let Some(old) = nc.old {
                    rows.push(nc.node as u64, old, -1);
                }
                rows.push(nc.node as u64, nc.new, 1);
            }
            rows.consolidate();
            sources.push((*src, rows));
        }
        if self.uses_labels {
            let rows = self.label_rows(g);
            sources.push((Source::Labels, rows));
        }
        let root = self.propagate(&sources);
        self.view.apply(&root);
        root
    }

    /// The materialized root view: sorted `(key, value, multiplicity)`
    /// rows.
    pub fn view(&self) -> Vec<(u64, u64, i64)> {
        self.view.to_rows()
    }

    /// `labels` source delta: rows for nodes that appeared since the
    /// last tick (labels are fixed at node creation; ΔG is edge-only).
    fn label_rows(&mut self, g: &DynamicGraph) -> Rows {
        let rows = Rows::from_rows(
            (self.label_nodes..g.node_count()).map(|v| (v as u64, g.label(v as u32) as u64, 1)),
        );
        self.label_nodes = g.node_count();
        rows
    }

    /// Evaluates every binding once, in definition (= topological)
    /// order, and returns the root's output delta.
    fn propagate(&mut self, sources: &[(Source, Rows)]) -> Rows {
        let bindings = self.plan.bindings();
        let mut out: Vec<Rows> = Vec::with_capacity(bindings.len());
        for (i, b) in bindings.iter().enumerate() {
            let rows = match b.expr {
                Expr::Source(src) => sources
                    .iter()
                    .find(|(s, _)| *s == src)
                    .map(|(_, r)| r.clone())
                    .unwrap_or_default(),
                _ => {
                    let inputs = expr_inputs(&b.expr);
                    let in_rows: usize = inputs.iter().map(|&j| out[j].len()).sum();
                    let refs: Vec<&Rows> = inputs.iter().map(|&j| &out[j]).collect();
                    let produced = self.states[i].eval(&refs);
                    let name = self.states[i].name();
                    observe_op(name, in_rows, produced.len());
                    produced
                }
            };
            out.push(rows);
        }
        out.pop().expect("plans are non-empty")
    }
}

/// Per-operator in/out delta-row streams, keyed by operator kind (obs
/// names must be static).
fn observe_op(name: &'static str, rows_in: usize, rows_out: usize) {
    match name {
        "filter" => {
            incgraph_obs::observe("dataflow.filter.in", rows_in as u64);
            incgraph_obs::observe("dataflow.filter.out", rows_out as u64);
        }
        "map" => {
            incgraph_obs::observe("dataflow.map.in", rows_in as u64);
            incgraph_obs::observe("dataflow.map.out", rows_out as u64);
        }
        "join" => {
            incgraph_obs::observe("dataflow.join.in", rows_in as u64);
            incgraph_obs::observe("dataflow.join.out", rows_out as u64);
        }
        "agg" => {
            incgraph_obs::observe("dataflow.agg.in", rows_in as u64);
            incgraph_obs::observe("dataflow.agg.out", rows_out as u64);
        }
        "threshold" => {
            incgraph_obs::observe("dataflow.threshold.in", rows_in as u64);
            incgraph_obs::observe("dataflow.threshold.out", rows_out as u64);
        }
        _ => {}
    }
}

/// One-shot evaluation: build the plan over `g` and return the root
/// view (the CLI `incgraph query --plan` path).
pub fn eval_once(
    text: &str,
    g: &DynamicGraph,
    ctx: &PlanContext,
) -> Result<Vec<(u64, u64, i64)>, DataflowError> {
    Ok(DataflowSession::from_text(text, g, ctx)?.view())
}
