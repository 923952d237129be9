//! The differential oracles: drive a [`Case`](crate::case::Case) through
//! every query class under test and cross-check two properties after
//! every `ΔG` batch (plus the coalesce and dataflow oracles when the case
//! asks for them).
//!
//! 1. **Incremental vs. batch recompute** (Theorems 1 & 3): the
//!    incremental state resumed from `h(D^r, ΔG)` must hold exactly the
//!    fixpoint a from-scratch batch run computes on `G ⊕ ΔG`. The batch
//!    run is the ground truth — it never touches the incremental path.
//! 2. **Boundedness accounting** (`|H⁰| ≤ |AFF|`-style invariants): the
//!    [`BoundednessReport`] of each incremental run must be internally
//!    consistent, and every variable the recompute diff proves *changed*
//!    must have been inspected by the incremental run
//!    (`|AFF_diff| ≤ inspected`) — an incremental run that changes a
//!    variable it never inspected is mis-accounting the very quantity
//!    the paper's boundedness claims are stated over.
//!
//! Faults ([`Fault`]) model the bug shapes PR 1's audit caught in the
//! wild (missed undirected mirrors): they doctor the `AppliedBatch`
//! *presented to the states* while the ground-truth graph keeps the real
//! ΔG, so the oracles must notice.

use crate::case::Case;
use incgraph_algos::{IncrementalState, Session};
use incgraph_core::metrics::BoundednessReport;
use incgraph_dataflow::{eval_once, DataflowSession, Plan, PlanContext, Source};
use incgraph_graph::{AppliedBatch, DynamicGraph, NodeId, Pattern};

/// The seven query classes, in canonical order. Historically this enum
/// lived here; it is now `incgraph_algos::QueryClass`, re-exported under
/// the old name so corpus files, case parsing, and every oracle-facing
/// signature keep working unchanged.
pub use incgraph_algos::QueryClass as ClassId;

/// Which oracle rejected the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// The incremental state diverged from the batch recompute.
    IncVsBatch,
    /// The boundedness accounting is inconsistent.
    Boundedness,
    /// A session fed coalesced micro-batches diverged from the batch
    /// ground truth (`--coalesce` campaigns only).
    Coalesce {
        /// How many ΔG batches were merged into the diverging net batch.
        merged: usize,
    },
    /// The standing dataflow view diverged from a fresh plan evaluation
    /// on the current graph (cases carrying a `plan` line).
    Dataflow,
}

impl OracleKind {
    /// Short stable name for case files and logs.
    pub fn name(&self) -> &'static str {
        match self {
            OracleKind::IncVsBatch => "inc-vs-batch",
            OracleKind::Boundedness => "boundedness",
            OracleKind::Coalesce { .. } => "coalesce",
            OracleKind::Dataflow => "dataflow",
        }
    }

    /// Same oracle, ignoring parameters — the shrinker's notion of "the
    /// same failure".
    pub fn same_kind(&self, other: &OracleKind) -> bool {
        self.name() == other.name()
    }
}

/// One oracle violation: the first mismatch [`run_case`] hit.
#[derive(Clone, Debug)]
pub struct OracleFailure {
    /// Query class that diverged.
    pub class: ClassId,
    /// Schedule position: `None` = at the initial batch fixpoint,
    /// `Some(r)` = after applying batch `r` (0-based).
    pub round: Option<usize>,
    /// Which oracle fired.
    pub kind: OracleKind,
    /// Human-readable detail (first differing variable, counters, …).
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.round {
            Some(r) => write!(
                f,
                "{} oracle failed for {} after batch {}: {}",
                self.kind.name(),
                self.class.name(),
                r,
                self.detail
            ),
            None => write!(
                f,
                "{} oracle failed for {} at the initial fixpoint: {}",
                self.kind.name(),
                self.class.name(),
                self.detail
            ),
        }
    }
}

/// Outcome of driving one case through all oracles.
#[derive(Debug)]
pub struct RunOutcome {
    /// Total oracle comparisons performed.
    pub checks: u64,
    /// First violation, if any ([`run_case`] stops at the first).
    pub failure: Option<OracleFailure>,
}

impl RunOutcome {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// An artificially injected fault, for validating that the oracles and
/// the shrinker actually have teeth (and for seeding the regression
/// corpus with known-shape failures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drop the last effective op from every `AppliedBatch` handed to the
    /// algorithm states (the graph keeps it): models the PR-1 class of
    /// bugs where an update path misses one unit update — e.g. the
    /// undirected mirror of an edge.
    SkipOp,
    /// Strip every deletion from the ΔG handed to the states: models an
    /// update path that handles insertions but forgets deletions (values
    /// go stale because the scope function never learns what vanished —
    /// the engine alone cannot repair variables it was never pointed at).
    DropDeletes,
}

impl Fault {
    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Fault::SkipOp => "skip-op",
            Fault::DropDeletes => "drop-deletes",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Fault> {
        match name {
            "skip-op" => Some(Fault::SkipOp),
            "drop-deletes" => Some(Fault::DropDeletes),
            _ => None,
        }
    }

    /// The doctored ΔG the states will see.
    fn doctor(self, applied: &AppliedBatch) -> AppliedBatch {
        let mut ops = applied.ops().to_vec();
        match self {
            Fault::SkipOp => {
                ops.pop();
            }
            Fault::DropDeletes => {
                ops.retain(|o| o.inserted);
            }
        }
        AppliedBatch::from_ops(ops)
    }
}

/// Fresh batch fixpoint for `class` on `g` through the one construction
/// path ([`Session::builder`]). The oracle drives sessions with the
/// *unguarded* [`IncrementalState::update`] — degradation would mask
/// exactly the divergences it exists to find.
fn build_session(
    class: ClassId,
    g: &DynamicGraph,
    source: NodeId,
    pattern: Option<&Pattern>,
) -> Session {
    let mut builder = Session::builder(class);
    if class.source_rooted() {
        builder = builder.source(source);
    }
    if class == ClassId::Sim {
        builder = builder.pattern(pattern.expect("sim case without a pattern").clone());
    }
    builder.build(g).expect("session build")
}

/// One class's states under test.
struct ClassUnderTest {
    class: ClassId,
    /// The incremental state checked against the batch ground truth.
    inc: Session,
    /// The coalesce-oracle session (`case.coalesce` only): sees the
    /// pending ΔG batches merged into one net batch at every flush.
    coal: Option<Session>,
    /// Batch-fixpoint digest of the previous round, for the AFF diff.
    prev_full: Vec<u64>,
}

/// First index at which two digests differ, with both values. A length
/// mismatch reports the lengths instead.
fn first_diff(a: &[u64], b: &[u64]) -> Option<(usize, u64, u64)> {
    if a.len() != b.len() {
        return Some((a.len().min(b.len()), a.len() as u64, b.len() as u64));
    }
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x != y)
        .map(|(i, (&x, &y))| (i, x, y))
}

/// Number of differing positions (the `|AFF|` diff of oracle 2).
fn diff_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Human-readable first divergence between a standing view and a fresh
/// plan evaluation (both are sorted `(key, value, weight)` rows).
fn view_diff(standing: &[(u64, u64, i64)], fresh: &[(u64, u64, i64)]) -> String {
    let extra = standing.iter().find(|r| !fresh.contains(r));
    let missing = fresh.iter().find(|r| !standing.contains(r));
    format!(
        "standing view has {} rows vs {} recomputed; spurious {extra:?}, missing {missing:?}",
        standing.len(),
        fresh.len()
    )
}

/// The boundedness accounting checks for one incremental run.
fn check_boundedness(
    class: ClassId,
    report: &BoundednessReport,
    aff_diff: usize,
    total_vars: usize,
) -> Result<(), String> {
    if report.scope_size as u64 > report.inspected_vars {
        return Err(format!(
            "initial scope |H0|={} exceeds inspected vars {}",
            report.scope_size, report.inspected_vars
        ));
    }
    if report.inspected_vars as usize > total_vars {
        return Err(format!(
            "inspected {} vars of a {}-var universe",
            report.inspected_vars, total_vars
        ));
    }
    if report.run_stats.aborted {
        return Err("un-budgeted oracle run reported an abort".into());
    }
    // Strict AFF accounting only where the generic engine runs: every
    // variable the recompute diff proves changed must have been inspected.
    if class.engine_backed() && aff_diff as u64 > report.inspected_vars {
        return Err(format!(
            "recompute diff changed {aff_diff} vars but the incremental run inspected only {}",
            report.inspected_vars
        ));
    }
    Ok(())
}

/// Clamps an out-of-range source to node 0 (shrinking can drop nodes).
fn clamp_source(source: NodeId, g: &DynamicGraph) -> NodeId {
    if (source as usize) < g.node_count() {
        source
    } else {
        0
    }
}

/// Drives `case` through all oracles; `fault` doctors the ΔG the states
/// see (the ground-truth graph always gets the real one). Stops at the
/// first violation.
pub fn run_case(case: &Case, fault: Option<Fault>) -> RunOutcome {
    let mut g = case.build_graph();
    let source = clamp_source(case.source, &g);
    let pattern = case.pattern.as_ref();
    let mut checks = 0u64;

    let mut classes: Vec<ClassUnderTest> = Vec::with_capacity(case.classes.len());
    for &class in &case.classes {
        let inc = build_session(class, &g, source, pattern);
        let prev_full = inc.digest(&g);
        let coal = case
            .coalesce
            .then(|| build_session(class, &g, source, pattern));
        classes.push(ClassUnderTest {
            class,
            inc,
            coal,
            prev_full,
        });
    }

    // Dataflow oracle (cases carrying a `plan` line): a standing
    // DataflowSession follows the schedule — fed the same *presented*
    // ΔG as the class states, so injected faults reach it too — and its
    // view must equal a from-scratch plan evaluation on every
    // intermediate graph (the operator-level analogue of inc-vs-batch).
    let df_ctx = PlanContext {
        pattern: case.pattern.clone(),
        ..PlanContext::default()
    };
    let mut dataflow = case.plan.as_deref().map(|text| {
        let plan = Plan::parse(text).expect("case plan parses (validated by Case::parse)");
        let class = plan
            .sources()
            .iter()
            .find_map(|s| match s {
                Source::Class { class, .. } => Some(*class),
                Source::Labels => None,
            })
            .unwrap_or(ClassId::Cc);
        let session = DataflowSession::build(plan, &g, &df_ctx).expect("case plan builds");
        (session, class)
    });
    if let Some((session, class)) = dataflow.as_ref() {
        checks += 1;
        let text = case.plan.as_deref().expect("dataflow implies plan");
        let fresh = eval_once(text, &g, &df_ctx).expect("plan batch eval");
        if session.view() != fresh {
            return RunOutcome {
                checks,
                failure: Some(OracleFailure {
                    class: *class,
                    round: None,
                    kind: OracleKind::Dataflow,
                    detail: view_diff(&session.view(), &fresh),
                }),
            };
        }
    }

    // Coalesce oracle: the *real* applied batches (never the doctored
    // ones — the Coalescer's contract is effective ops from an actual
    // graph) accumulate here and flush as one net batch every
    // `COALESCE_EVERY` rounds and at the end of the schedule.
    const COALESCE_EVERY: usize = 2;
    let mut pending: Vec<AppliedBatch> = Vec::new();

    for (round, batch) in case.schedule.iter().enumerate() {
        let applied = batch.apply(&mut g);
        let presented = match fault {
            Some(f) => f.doctor(&applied),
            None => applied.clone(),
        };
        if case.coalesce {
            pending.push(applied.clone());
        }
        let flush =
            case.coalesce && (pending.len() >= COALESCE_EVERY || round + 1 == case.schedule.len());
        for cut in &mut classes {
            let class = cut.class;
            // Incremental step.
            let report = cut.inc.update(&g, &presented);

            // Ground truth: a from-scratch batch run on the updated graph.
            let fresh = build_session(class, &g, source, pattern);
            let full = fresh.digest(&g);

            checks += 1;
            let inc = cut.inc.digest(&g);
            if let Some((i, a, b)) = first_diff(&full, &inc) {
                return RunOutcome {
                    checks,
                    failure: Some(OracleFailure {
                        class,
                        round: Some(round),
                        kind: OracleKind::IncVsBatch,
                        detail: format!("var {i}: batch={a} incremental={b}"),
                    }),
                };
            }

            checks += 1;
            let aff_diff = if full.len() == cut.prev_full.len() {
                diff_count(&cut.prev_full, &full)
            } else {
                0 // digest resized (e.g. bridge list); skip the diff
            };
            if let Err(detail) = check_boundedness(class, &report, aff_diff, cut.inc.total_vars(&g))
            {
                return RunOutcome {
                    checks,
                    failure: Some(OracleFailure {
                        class,
                        round: Some(round),
                        kind: OracleKind::Boundedness,
                        detail,
                    }),
                };
            }

            if flush {
                let state = cut.coal.as_mut().expect("flush implies coalesce sessions");
                let net = incgraph_core::coalesce_batches(g.is_directed(), &pending);
                state.update(&g, &net);
                checks += 1;
                let d = state.digest(&g);
                if let Some((i, a, b)) = first_diff(&full, &d) {
                    return RunOutcome {
                        checks,
                        failure: Some(OracleFailure {
                            class,
                            round: Some(round),
                            kind: OracleKind::Coalesce {
                                merged: pending.len(),
                            },
                            detail: format!("var {i}: batch={a} coalesced={b}"),
                        }),
                    };
                }
            }
            cut.prev_full = full;
        }
        if let Some((session, class)) = dataflow.as_mut() {
            session.apply(&g, &presented);
            checks += 1;
            let text = case.plan.as_deref().expect("dataflow implies plan");
            let fresh = eval_once(text, &g, &df_ctx).expect("plan batch eval");
            if session.view() != fresh {
                return RunOutcome {
                    checks,
                    failure: Some(OracleFailure {
                        class: *class,
                        round: Some(round),
                        kind: OracleKind::Dataflow,
                        detail: view_diff(&session.view(), &fresh),
                    }),
                };
            }
        }
        if flush {
            pending.clear();
        }
    }
    RunOutcome {
        checks,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::UpdateBatch;

    fn small_case(classes: Vec<ClassId>) -> Case {
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 3, 2).delete(1, 2);
        let mut b2 = UpdateBatch::new();
        b2.insert(2, 4, 1).insert(4, 0, 3);
        Case {
            seed: 7,
            directed: false,
            nodes: 5,
            labels: None,
            edges: vec![(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)],
            schedule: vec![b1, b2],
            classes,
            source: 0,
            pattern: Some(Pattern::new(vec![0, 0], &[(0, 1)])),
            fault: None,
            crash_at: None,
            coalesce: false,
            plan: None,
        }
    }

    #[test]
    fn clean_case_passes_all_oracles_for_all_classes() {
        let outcome = run_case(&small_case(ClassId::ALL.to_vec()), None);
        assert!(outcome.passed(), "{:?}", outcome.failure);
        // Per round: 7 value + 7 boundedness checks, times 2 rounds.
        assert_eq!(outcome.checks, 2 * (7 + 7));
    }

    #[test]
    fn coalesce_mode_adds_one_check_per_class_per_flush() {
        let mut case = small_case(ClassId::ALL.to_vec());
        case.coalesce = true;
        let outcome = run_case(&case, None);
        assert!(outcome.passed(), "{:?}", outcome.failure);
        // The 2-round schedule flushes once (at round 1, when two ΔG
        // batches are pending): plain-mode checks + 7 coalesce checks.
        assert_eq!(outcome.checks, 2 * (7 + 7) + 7);
    }

    #[test]
    fn coalesce_case_roundtrips_through_corpus_format() {
        let mut case = small_case(vec![ClassId::Cc]);
        case.coalesce = true;
        let parsed = Case::parse(&case.render(&[])).expect("parse");
        assert!(parsed.coalesce, "coalesce flag survives render/parse");
        assert!(run_case(&parsed, None).passed());
    }

    #[test]
    fn skip_op_fault_is_caught() {
        let outcome = run_case(&small_case(vec![ClassId::Sssp]), Some(Fault::SkipOp));
        let failure = outcome.failure.expect("fault must be caught");
        assert_eq!(failure.class, ClassId::Sssp);
        assert!(failure.kind.same_kind(&OracleKind::IncVsBatch));
    }

    #[test]
    fn drop_deletes_fault_is_caught() {
        // Directed path 0→1→2→3→4; deleting the first edge makes every
        // downstream distance infinite. A state that never sees the
        // delete keeps them finite — unmissable for inc-vs-batch.
        let mut b = UpdateBatch::new();
        b.delete(0, 1);
        let case = Case {
            seed: 11,
            directed: true,
            nodes: 5,
            labels: None,
            edges: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            schedule: vec![b],
            classes: vec![ClassId::Sssp],
            source: 0,
            pattern: None,
            fault: None,
            crash_at: None,
            coalesce: false,
            plan: None,
        };
        let outcome = run_case(&case, Some(Fault::DropDeletes));
        let failure = outcome.failure.expect("fault must be caught");
        assert!(failure.kind.same_kind(&OracleKind::IncVsBatch));
    }

    #[test]
    fn class_names_roundtrip() {
        for c in ClassId::ALL {
            assert_eq!(ClassId::from_name(c.name()), Some(c));
        }
        assert_eq!(ClassId::from_name("nope"), None);
        for f in [Fault::SkipOp, Fault::DropDeletes] {
            assert_eq!(Fault::from_name(f.name()), Some(f));
        }
    }
}
