//! Greedy ddmin-style case minimization.
//!
//! Given a failing [`Case`], the shrinker searches for the smallest case
//! that still trips *the same oracle on the same class* (the failure's
//! fingerprint — chasing a different bug mid-shrink would produce a
//! misleading corpus entry). Reduction passes, cheapest first:
//!
//! 1. truncate the schedule right after the failing round;
//! 2. narrow the class list to the failing class (dropping the Sim
//!    pattern when Sim leaves the list);
//! 3. ddmin over schedule batches;
//! 4. ddmin over the remaining unit updates (batch boundaries kept,
//!    emptied batches dropped);
//! 5. ddmin over base-graph edges;
//! 6. flatten labels to all-zero and trim unreferenced trailing nodes.
//!
//! Every candidate is re-run through the full oracle stack
//! ([`run_case`]), so a minimized case is a *certified* reproducer, and
//! the total number of oracle runs is reported in [`ShrinkStats`].

use crate::case::Case;
use crate::runner::{run_case, ClassId, Fault, OracleFailure, OracleKind};
use incgraph_graph::{Update, UpdateBatch};

/// Work accounting for one shrink.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Oracle runs attempted.
    pub attempts: usize,
    /// Attempts that still reproduced the failure (accepted reductions).
    pub successes: usize,
}

/// The failure fingerprint a candidate must reproduce, plus the attempt
/// budget that bounds shrink time on pathological cases.
struct Shrinker {
    fault: Option<Fault>,
    class: ClassId,
    kind: OracleKind,
    stats: ShrinkStats,
    max_attempts: usize,
}

impl Shrinker {
    /// Whether `candidate` still fails the same way.
    fn holds(&mut self, candidate: &Case) -> bool {
        if self.stats.attempts >= self.max_attempts {
            return false;
        }
        self.stats.attempts += 1;
        let ok = match run_case(candidate, self.fault).failure {
            Some(f) => f.class == self.class && f.kind.same_kind(&self.kind),
            None => false,
        };
        if ok {
            self.stats.successes += 1;
        }
        ok
    }

    /// Greedy complement reduction over `items`: try dropping chunks
    /// (halving the chunk size down to single items, rescanning after
    /// every acceptance) and keep the smallest list whose rebuilt case
    /// still reproduces. `rebuild` may return `None` for candidates that
    /// would be structurally invalid.
    fn minimize_list<T: Clone>(
        &mut self,
        items: Vec<T>,
        rebuild: &dyn Fn(Vec<T>) -> Option<Case>,
    ) -> Vec<T> {
        let mut cur = items;
        if cur.is_empty() {
            return cur;
        }
        let mut chunk = (cur.len() / 2).max(1);
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < cur.len() {
                let end = (i + chunk).min(cur.len());
                let mut smaller = cur.clone();
                smaller.drain(i..end);
                let accepted = match rebuild(smaller.clone()) {
                    Some(c) => self.holds(&c),
                    None => false,
                };
                if accepted {
                    cur = smaller;
                    progressed = true;
                    // Rescan the same position: the next chunk slid in.
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                if !progressed {
                    break;
                }
            } else {
                chunk = (chunk / 2).max(1);
            }
        }
        cur
    }
}

/// Flattened schedule entry: `(batch index, unit update)`.
type FlatOp = (usize, Update);

/// Regroups flattened ops into batches, dropping emptied ones.
fn regroup(ops: &[FlatOp]) -> Vec<UpdateBatch> {
    let mut schedule: Vec<UpdateBatch> = Vec::new();
    let mut last_batch = usize::MAX;
    for &(b, u) in ops {
        if b != last_batch {
            schedule.push(UpdateBatch::new());
            last_batch = b;
        }
        let batch = schedule.last_mut().expect("just pushed");
        match u {
            Update::Insert { src, dst, weight } => {
                batch.insert(src, dst, weight);
            }
            Update::Delete { src, dst } => {
                batch.delete(src, dst);
            }
        }
    }
    schedule
}

/// Shrinks `case` while preserving `failure`'s fingerprint under `fault`.
/// `case` itself must reproduce the failure; the result is the smallest
/// reproducer found within the attempt budget.
pub fn shrink_case(
    case: &Case,
    fault: Option<Fault>,
    failure: &OracleFailure,
) -> (Case, ShrinkStats) {
    let mut sh = Shrinker {
        fault,
        class: failure.class,
        kind: failure.kind.clone(),
        stats: ShrinkStats::default(),
        max_attempts: 4000,
    };
    let mut best = case.clone();

    // 1. Truncate the schedule after the failing round.
    if let Some(r) = failure.round {
        if r + 1 < best.schedule.len() {
            let mut c = best.clone();
            c.schedule.truncate(r + 1);
            if sh.holds(&c) {
                best = c;
            }
        }
    }

    // 2. Narrow to the failing class; Sim's pattern goes with it —
    //    unless the dataflow plan still reads the `sim` source, which
    //    needs the pattern to build.
    if best.classes.len() > 1 {
        let mut c = best.clone();
        c.classes = vec![failure.class];
        let plan_needs_pattern = c.plan.as_deref().is_some_and(|p| p.contains("sim"));
        if failure.class != ClassId::Sim && !plan_needs_pattern {
            c.pattern = None;
        }
        if sh.holds(&c) {
            best = c;
        }
    }

    // 3. ddmin over whole batches.
    {
        let base = best.clone();
        let batches = sh.minimize_list(best.schedule.clone(), &|schedule| {
            let mut c = base.clone();
            c.schedule = schedule;
            Some(c)
        });
        best.schedule = batches;
    }

    // 4. ddmin over unit updates, preserving batch boundaries.
    {
        let base = best.clone();
        let flat: Vec<FlatOp> = best
            .schedule
            .iter()
            .enumerate()
            .flat_map(|(b, batch)| batch.updates().iter().map(move |&u| (b, u)))
            .collect();
        let flat = sh.minimize_list(flat, &|ops| {
            let mut c = base.clone();
            c.schedule = regroup(&ops);
            Some(c)
        });
        best.schedule = regroup(&flat);
    }

    // 5. ddmin over base-graph edges.
    {
        let base = best.clone();
        let edges = sh.minimize_list(best.edges.clone(), &|edges| {
            let mut c = base.clone();
            c.edges = edges;
            Some(c)
        });
        best.edges = edges;
    }

    // 6. Cosmetic reductions: all-zero labels, trim unreferenced tail
    //    nodes (ids are not renumbered, so only the tail can go).
    if best.labels.is_some() {
        let mut c = best.clone();
        c.labels = None;
        if sh.holds(&c) {
            best = c;
        }
    }
    {
        let mut max_ref = best.source as usize;
        for &(u, v, _) in &best.edges {
            max_ref = max_ref.max(u as usize).max(v as usize);
        }
        for batch in &best.schedule {
            for u in batch.updates() {
                max_ref = max_ref.max(u.src() as usize).max(u.dst() as usize);
            }
        }
        let trimmed = max_ref + 1;
        if trimmed < best.nodes {
            let mut c = best.clone();
            c.nodes = trimmed;
            if let Some(labels) = &mut c.labels {
                labels.truncate(trimmed);
            }
            if sh.holds(&c) {
                best = c;
            }
        }
    }

    (best, sh.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::{gen_case, GenConfig};

    /// An injected skip-op fault must shrink to a handful of updates —
    /// the ISSUE's acceptance bar is ≤ 10 — and stay a certified
    /// reproducer.
    #[test]
    fn injected_fault_shrinks_small() {
        let cfg = GenConfig::default();
        let mut shrunk_one = false;
        for seed in 0..20u64 {
            let case = gen_case(seed, &cfg);
            let outcome = run_case(&case, Some(Fault::SkipOp));
            let Some(failure) = outcome.failure else {
                continue; // fault happened to be benign for this seed
            };
            let (small, stats) = shrink_case(&case, Some(Fault::SkipOp), &failure);
            assert!(stats.attempts > 0);
            assert!(
                small.schedule_len() <= 10,
                "seed {seed}: shrunk to {} updates",
                small.schedule_len()
            );
            assert!(small.schedule_len() <= case.schedule_len());
            assert!(small.edges.len() <= case.edges.len());
            // Certified: the minimized case still reproduces.
            let re = run_case(&small, Some(Fault::SkipOp));
            let refail = re.failure.expect("minimized case must still fail");
            assert_eq!(refail.class, failure.class);
            assert!(refail.kind.same_kind(&failure.kind));
            shrunk_one = true;
            break;
        }
        assert!(shrunk_one, "no seed in 0..20 tripped the injected fault");
    }

    #[test]
    fn regroup_preserves_order_and_drops_empty() {
        let ops = vec![
            (
                0,
                Update::Insert {
                    src: 0,
                    dst: 1,
                    weight: 2,
                },
            ),
            (2, Update::Delete { src: 1, dst: 0 }),
            (
                2,
                Update::Insert {
                    src: 1,
                    dst: 2,
                    weight: 1,
                },
            ),
        ];
        let schedule = regroup(&ops);
        assert_eq!(schedule.len(), 2, "batch 1 vanished");
        assert_eq!(schedule[0].len(), 1);
        assert_eq!(schedule[1].len(), 2);
    }
}
