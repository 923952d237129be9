//! Micro-batch ΔG coalescing: merge many small applied batches into one
//! canonical batch with the same net effect.
//!
//! The fixpoint + notification cost of the service's writer thread is
//! per *batch*, not per unit update. [`Coalescer`] turns `N` pending ΔGs into
//! one canonical ΔG whose combined affected area is their union:
//! insert+delete of the same edge cancels outright, duplicate ops on one
//! edge collapse to their net effect, and everything else is
//! concatenated. Applying the coalesced batch to the pre-state graph and
//! fixpoint is value-equivalent to applying the constituents in order —
//! the property test `coalesce_equiv.rs` in `crates/algos` pins this
//! across all seven query classes.
//!
//! # Soundness
//!
//! Coalescing operates on **effective** ops ([`AppliedOp`]) — the ops an
//! [`UpdateBatch::apply`](incgraph_graph::UpdateBatch) actually performed
//! — never on raw requested updates. Effective ops on one edge strictly
//! alternate insert/delete (an effective insert requires the edge absent,
//! an effective delete requires it present), so the net effect of a run
//! of ops on one edge is fully determined by its first and last op:
//!
//! | first    | last     | net effect                                    |
//! |----------|----------|-----------------------------------------------|
//! | insert   | insert   | `insert(last.weight)`                         |
//! | insert   | delete   | nothing (absent → absent: cancels)            |
//! | delete   | delete   | `delete(first.weight)`                        |
//! | delete   | insert   | weight change: `delete(first.weight)` then    |
//! |          |          | `insert(last.weight)`; nothing if equal       |
//!
//! Raw `UpdateBatch` entries must not be coalesced this way: an insert of
//! an already-present edge is a silent no-op under apply semantics, so
//! cancelling it against a later delete would drop a real deletion.

use incgraph_graph::{AppliedBatch, AppliedOp};

/// Reusable ΔG coalescer. Keep one per writer/session: its scratch
/// buffers retain their high-water capacity so steady-state coalescing
/// allocates only the output batch.
#[derive(Clone, Debug, Default)]
pub struct Coalescer {
    /// (canonical edge key, arrival index, op) — sorted to group per-edge
    /// runs while preserving arrival order within each run.
    tagged: Vec<(u64, u32, AppliedOp)>,
}

/// Canonical key of an edge: orientation-normalized on undirected graphs
/// so `(u,v)` and `(v,u)` coalesce into the same run.
#[inline]
fn edge_key(directed: bool, op: &AppliedOp) -> u64 {
    let (a, b) = if directed || op.src <= op.dst {
        (op.src, op.dst)
    } else {
        (op.dst, op.src)
    };
    ((a as u64) << 32) | b as u64
}

impl Coalescer {
    /// An empty coalescer.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Coalesces `batches` (in application order) into one canonical
    /// batch with the same net effect on a graph in the pre-`batches`
    /// state. `directed` must match the graph the batches were applied
    /// to. The output's ops are ordered by canonical edge key; per edge a
    /// weight-changing delete precedes its re-insert.
    pub fn coalesce<'a>(
        &mut self,
        directed: bool,
        batches: impl IntoIterator<Item = &'a AppliedBatch>,
    ) -> AppliedBatch {
        self.tagged.clear();
        let mut seq = 0u32;
        for batch in batches {
            for op in batch.ops() {
                self.tagged.push((edge_key(directed, op), seq, *op));
                seq += 1;
            }
        }
        // Group per-edge runs; `seq` keeps arrival order inside a run.
        self.tagged
            .sort_unstable_by_key(|&(key, seq, _)| (key, seq));

        let mut out: Vec<AppliedOp> = Vec::new();
        let mut i = 0;
        while i < self.tagged.len() {
            let key = self.tagged[i].0;
            let mut j = i + 1;
            while j < self.tagged.len() && self.tagged[j].0 == key {
                debug_assert_ne!(
                    self.tagged[j - 1].2.inserted,
                    self.tagged[j].2.inserted,
                    "effective ops on one edge must alternate insert/delete"
                );
                j += 1;
            }
            let first = &self.tagged[i].2;
            let last = &self.tagged[j - 1].2;
            match (first.inserted, last.inserted) {
                (true, true) => out.push(*last),
                (true, false) => {} // absent → absent: cancels out
                (false, false) => out.push(*first),
                (false, true) => {
                    // present → present: net weight change (or nothing).
                    if first.weight != last.weight {
                        out.push(*first);
                        out.push(*last);
                    }
                }
            }
            i = j;
        }
        AppliedBatch::from_ops(out)
    }

    /// Heap bytes held by the coalescer's scratch.
    pub fn space_bytes(&self) -> usize {
        self.tagged.capacity() * std::mem::size_of::<(u64, u32, AppliedOp)>()
    }
}

/// One-shot convenience wrapper around a throwaway [`Coalescer`].
pub fn coalesce_batches<'a>(
    directed: bool,
    batches: impl IntoIterator<Item = &'a AppliedBatch>,
) -> AppliedBatch {
    Coalescer::new().coalesce(directed, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incgraph_graph::{DynamicGraph, UpdateBatch};

    fn ins(src: u32, dst: u32, weight: u32) -> AppliedOp {
        AppliedOp {
            inserted: true,
            src,
            dst,
            weight,
        }
    }

    fn del(src: u32, dst: u32, weight: u32) -> AppliedOp {
        AppliedOp {
            inserted: false,
            src,
            dst,
            weight,
        }
    }

    #[test]
    fn insert_then_delete_cancels() {
        let a = AppliedBatch::from_ops(vec![ins(0, 1, 5)]);
        let b = AppliedBatch::from_ops(vec![del(0, 1, 5)]);
        let net = coalesce_batches(true, [&a, &b]);
        assert!(net.is_empty(), "insert+delete of one edge must cancel");
    }

    #[test]
    fn delete_then_reinsert_same_weight_cancels() {
        let a = AppliedBatch::from_ops(vec![del(2, 3, 7)]);
        let b = AppliedBatch::from_ops(vec![ins(2, 3, 7)]);
        let net = coalesce_batches(true, [&a, &b]);
        assert!(net.is_empty());
    }

    #[test]
    fn delete_then_reinsert_new_weight_becomes_weight_change() {
        let a = AppliedBatch::from_ops(vec![del(2, 3, 7)]);
        let b = AppliedBatch::from_ops(vec![ins(2, 3, 9)]);
        let net = coalesce_batches(true, [&a, &b]);
        assert_eq!(net.ops(), &[del(2, 3, 7), ins(2, 3, 9)]);
    }

    #[test]
    fn alternating_run_keeps_only_net_effect() {
        // ins, del, ins: edge absent before, present (weight 3) after.
        let a = AppliedBatch::from_ops(vec![ins(1, 4, 1), del(1, 4, 1), ins(1, 4, 3)]);
        let net = coalesce_batches(true, [&a]);
        assert_eq!(net.ops(), &[ins(1, 4, 3)]);
    }

    #[test]
    fn undirected_orientations_coalesce() {
        // (0,1) inserted, then its mirror orientation deleted: one edge.
        let a = AppliedBatch::from_ops(vec![ins(0, 1, 2)]);
        let b = AppliedBatch::from_ops(vec![del(1, 0, 2)]);
        assert!(coalesce_batches(false, [&a, &b]).is_empty());
        // Directed: (0,1) and (1,0) are distinct edges and both survive.
        let net = coalesce_batches(true, [&a, &b]);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn independent_edges_pass_through() {
        let a = AppliedBatch::from_ops(vec![ins(0, 1, 1), del(5, 6, 2)]);
        let b = AppliedBatch::from_ops(vec![ins(2, 3, 4)]);
        let net = coalesce_batches(true, [&a, &b]);
        assert_eq!(net.len(), 3);
        // Output is ordered by canonical key, deterministic.
        let keys: Vec<(u32, u32)> = net.ops().iter().map(|o| (o.src, o.dst)).collect();
        assert_eq!(keys, vec![(0, 1), (2, 3), (5, 6)]);
    }

    #[test]
    fn coalesced_apply_equals_sequential_apply() {
        // Ground truth through the real graph: applying the coalesced
        // batch to a copy of the pre-state graph yields the same edges as
        // applying the constituent batches in order.
        let mut g1 = DynamicGraph::new(false, 6);
        let mut b0 = UpdateBatch::new();
        b0.insert(0, 1, 2).insert(1, 2, 3).insert(3, 4, 1);
        b0.apply(&mut g1);
        let mut g2 = g1.clone();

        let mut u1 = UpdateBatch::new();
        u1.insert(2, 3, 5).delete(0, 1).insert(4, 5, 7);
        let a1 = u1.apply(&mut g1);
        let mut u2 = UpdateBatch::new();
        u2.insert(0, 1, 9).delete(4, 5).delete(1, 2);
        let a2 = u2.apply(&mut g1);

        let net = coalesce_batches(g2.is_directed(), [&a1, &a2]);
        let applied = net.to_update_batch().apply(&mut g2);
        assert_eq!(applied.len(), net.len(), "every net op must be effective");
        for v in 0..6u32 {
            assert_eq!(
                g1.out_neighbors(v),
                g2.out_neighbors(v),
                "node {v} adjacency diverged"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let a = AppliedBatch::from_ops(vec![ins(0, 1, 1), ins(2, 3, 2)]);
        let b = AppliedBatch::from_ops(vec![del(0, 1, 1)]);
        let mut c = Coalescer::new();
        let first = c.coalesce(true, [&a, &b]);
        let second = c.coalesce(true, [&a, &b]);
        assert_eq!(first.ops(), second.ops());
    }
}
