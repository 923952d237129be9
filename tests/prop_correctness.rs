//! Randomized property tests: for *arbitrary* graphs and *arbitrary*
//! update batches, the paper's correctness equation holds for every
//! deduced incremental algorithm, every fallback strategy, and every
//! baseline; and the C2 lattice laws hold for the contracting specs.
//!
//! Cases are generated by the in-repo [`SplitMix64`] PRNG (crates.io is
//! unreachable in the build environment, so proptest is unavailable);
//! each test derives its case seeds from a fixed base so runs are fully
//! reproducible — a failure message names the exact seed to replay.

use incgraph::algos::cc::CcSpec;
use incgraph::algos::sim::SimSpec;
use incgraph::algos::sssp::SsspSpec;
use incgraph::algos::{
    CcState, DfsState, IncrementalState, LccState, QueryClass, Session, SimState, SsspState,
};
use incgraph::baselines::dyndfs::is_valid_dfs_forest;
use incgraph::baselines::{DynCc, DynDfs, DynDij, DynLcc, IncMatch, RrSssp};
use incgraph::core::lattice::{check_monotone_at, is_feasible};
use incgraph::core::{FixpointAudit, Status};
use incgraph::graph::rng::SplitMix64;
use incgraph::graph::{DynamicGraph, Pattern, Update, UpdateBatch};

const N: u32 = 24;
const CASES: u64 = 96;

/// A random directed/undirected labeled graph on `N` nodes with up to 80
/// random edges (self-loops skipped), labels in `0..3`, weights in `1..8`.
fn random_graph(rng: &mut SplitMix64, directed: bool) -> DynamicGraph {
    let labels: Vec<u32> = (0..N).map(|_| rng.gen_range(0u32..3)).collect();
    let mut g = DynamicGraph::with_labels(directed, labels);
    for _ in 0..rng.gen_range(0..80usize) {
        let (u, v) = (rng.gen_range(0..N), rng.gen_range(0..N));
        if u != v {
            g.insert_edge(u, v, rng.gen_range(1u32..8));
        }
    }
    g
}

/// A random update batch of up to 40 units — insertions and deletions,
/// possibly redundant; the apply layer must tolerate both.
fn random_batch(rng: &mut SplitMix64) -> UpdateBatch {
    let len = rng.gen_range(0..40usize);
    let mut updates = Vec::with_capacity(len);
    for _ in 0..len {
        let (u, v) = (rng.gen_range(0..N), rng.gen_range(0..N));
        if rng.gen_bool(0.5) {
            updates.push(Update::Insert {
                src: u,
                dst: v,
                weight: rng.gen_range(1u32..8),
            });
        } else {
            updates.push(Update::Delete { src: u, dst: v });
        }
    }
    UpdateBatch::from_updates(updates)
}

/// 1–3 random batches, mirroring proptest's `vec(arb_batch(), 1..4)`.
fn random_batches(rng: &mut SplitMix64) -> Vec<UpdateBatch> {
    let k = rng.gen_range(1..4usize);
    (0..k).map(|_| random_batch(rng)).collect()
}

fn tri_pattern() -> Pattern {
    Pattern::new(vec![0, 1, 2], &[(0, 1), (1, 2), (2, 1)])
}

#[test]
fn sssp_correctness_equation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x55_5000 + case);
        let g0 = random_graph(&mut rng, true);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = SsspState::batch(&g0, 0);
        let (mut pe, _) = SsspState::batch(&g0, 0);
        let mut dd = DynDij::new(&g0, 0);
        let mut rr = RrSssp::new(&g0, 0);
        let mut g = g0.clone();
        for batch in &batches {
            // RR consumes units with the graph state at each unit.
            let mut gr = g.clone();
            for unit in batch.as_units() {
                let applied = unit.apply(&mut gr);
                for op in applied.ops() {
                    rr.apply_unit(&gr, op.inserted, op.src, op.dst, op.weight);
                }
            }
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            pe.update_pe_reset(&g, &applied);
            dd.apply_batch(&g, &applied);
            let (fresh, _) = SsspState::batch(&g, 0);
            assert_eq!(inc.distances(), fresh.distances(), "case {case}");
            assert_eq!(pe.distances(), fresh.distances(), "case {case}");
            assert_eq!(dd.distances(), fresh.distances(), "case {case}");
            assert_eq!(rr.distances(), fresh.distances(), "case {case}");
        }
    }
}

/// Regression distilled from a proptest shrink: a directed graph with a
/// single edge 0→22 and a batch that inserts then deletes 22→23 inside
/// one ΔG, exercising the cancel-within-batch path of the touched-var
/// filter.
#[test]
fn sssp_insert_then_delete_same_edge_regression() {
    let mut g0 = DynamicGraph::with_labels(true, vec![0; N as usize]);
    g0.insert_edge(0, 22, 1);
    let batch = UpdateBatch::from_updates(vec![
        Update::Insert {
            src: 22,
            dst: 23,
            weight: 1,
        },
        Update::Delete { src: 22, dst: 23 },
    ]);
    let (mut inc, _) = SsspState::batch(&g0, 0);
    let (mut pe, _) = SsspState::batch(&g0, 0);
    let mut g = g0.clone();
    let applied = batch.apply(&mut g);
    inc.update(&g, &applied);
    pe.update_pe_reset(&g, &applied);
    let (fresh, _) = SsspState::batch(&g, 0);
    assert_eq!(inc.distances(), fresh.distances());
    assert_eq!(pe.distances(), fresh.distances());
}

#[test]
fn cc_correctness_equation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xCC_5000 + case);
        let g0 = random_graph(&mut rng, false);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = CcState::batch(&g0);
        let (mut pe, _) = CcState::batch(&g0);
        let mut hdt = DynCc::new(&g0);
        let mut g = g0.clone();
        for batch in &batches {
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            pe.update_pe_reset(&g, &applied);
            hdt.apply_batch(&applied);
            let (fresh, _) = CcState::batch(&g);
            assert_eq!(inc.components(), fresh.components(), "case {case}");
            assert_eq!(pe.components(), fresh.components(), "case {case}");
            assert_eq!(&hdt.components()[..], fresh.components(), "case {case}");
        }
    }
}

#[test]
fn sim_correctness_equation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x51_5000 + case);
        let g0 = random_graph(&mut rng, true);
        let batches = random_batches(&mut rng);
        let q = tri_pattern();
        let (mut inc, _) = SimState::batch(&g0, q.clone());
        let (mut pe, _) = SimState::batch(&g0, q.clone());
        let mut im = IncMatch::new(&g0, q.clone());
        let mut g = g0.clone();
        for batch in &batches {
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            pe.update_pe_reset(&g, &applied);
            im.apply_batch(&g, &applied);
            let (fresh, _) = SimState::batch(&g, q.clone());
            assert_eq!(inc.relation(), fresh.relation(), "case {case}");
            assert_eq!(pe.relation(), fresh.relation(), "case {case}");
            assert_eq!(im.match_count(), fresh.match_count(), "case {case}");
        }
    }
}

#[test]
fn dfs_correctness_equation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xDF_5000 + case);
        let g0 = random_graph(&mut rng, true);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = DfsState::batch(&g0);
        let mut dyn_dfs = DynDfs::new(&g0);
        let mut g = g0.clone();
        for batch in &batches {
            let mut gu = g.clone();
            for unit in batch.as_units() {
                let applied = unit.apply(&mut gu);
                for op in applied.ops() {
                    dyn_dfs.apply_unit(&gu, op.inserted, op.src, op.dst);
                }
            }
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            let (fresh, _) = DfsState::batch(&g);
            for v in 0..N {
                assert_eq!(inc.first(v), fresh.first(v), "case {case} node {v}");
                assert_eq!(inc.last(v), fresh.last(v), "case {case} node {v}");
                assert_eq!(inc.parent(v), fresh.parent(v), "case {case} node {v}");
            }
            assert!(is_valid_dfs_forest(&g, &dyn_dfs).is_ok(), "case {case}");
        }
    }
}

#[test]
fn lcc_correctness_equation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x1C_5000 + case);
        let g0 = random_graph(&mut rng, false);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = LccState::batch(&g0);
        let mut stream = DynLcc::new(&g0);
        let mut g = g0.clone();
        for batch in &batches {
            let mut gu = g.clone();
            for unit in batch.as_units() {
                let applied = unit.apply(&mut gu);
                for op in applied.ops() {
                    stream.apply_unit(&gu, op.inserted, op.src, op.dst, op.weight);
                }
            }
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            let (fresh, _) = LccState::batch(&g);
            for v in 0..N {
                assert_eq!(inc.degree(v), fresh.degree(v), "case {case} node {v}");
                assert_eq!(inc.triangles(v), fresh.triangles(v), "case {case} node {v}");
                assert_eq!(
                    stream.triangles(v),
                    fresh.triangles(v),
                    "case {case} node {v}"
                );
            }
        }
    }
}

#[test]
fn monotonicity_laws_hold() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x30_5000 + case);
        let g = random_graph(&mut rng, true);
        let lo_vals: Vec<u64> = (0..N).map(|_| rng.gen_range(0u64..20)).collect();
        let bumps: Vec<u64> = (0..N).map(|_| rng.gen_range(0u64..10)).collect();
        // SSSP: eval is monotone w.r.t. pointwise ≤ on any input pair.
        let spec = SsspSpec::new(&g, 0);
        let lo = Status::from_values(lo_vals.clone());
        let hi = Status::from_values(lo_vals.iter().zip(&bumps).map(|(a, b)| a + b).collect());
        for x in 0..N as usize {
            assert_eq!(
                check_monotone_at(&spec, x, &lo, &hi),
                Some(true),
                "case {case} var {x}"
            );
        }
    }
}

#[test]
fn cc_monotonicity_and_feasibility() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x31_5000 + case);
        let g = random_graph(&mut rng, false);
        let lo_vals: Vec<u32> = (0..N).map(|_| rng.gen_range(0u32..24)).collect();
        let bumps: Vec<u32> = (0..N).map(|_| rng.gen_range(0u32..8)).collect();
        let spec = CcSpec::new(&g);
        let lo = Status::from_values(lo_vals.clone());
        let hi = Status::from_values(
            lo_vals
                .iter()
                .zip(&bumps)
                .map(|(a, b)| (a + b).min(N - 1))
                .collect(),
        );
        for x in 0..N as usize {
            assert_eq!(
                check_monotone_at(&spec, x, &lo, &hi),
                Some(true),
                "case {case} var {x}"
            );
        }
        // Every intermediate status of a batch run is feasible.
        let (state, _) = CcState::batch(&g);
        let final_status = Status::from_values(state.components().to_vec());
        assert!(
            is_feasible(&spec, &final_status, &final_status),
            "case {case}"
        );
    }
}

#[test]
fn sim_monotonicity() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x32_5000 + case);
        let g = random_graph(&mut rng, true);
        let flips: Vec<bool> = (0..3 * N).map(|_| rng.gen_bool(0.5)).collect();
        let q = tri_pattern();
        let spec = SimSpec::new(&g, &q);
        // lo = all false; hi = arbitrary: any false ⪯ arbitrary pair.
        let lo = Status::from_values(vec![false; 3 * N as usize]);
        let hi = Status::from_values(flips);
        for x in 0..3 * N as usize {
            assert_eq!(
                check_monotone_at(&spec, x, &lo, &hi),
                Some(true),
                "case {case} var {x}"
            );
        }
    }
}

#[test]
fn graph_apply_invert_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x60_5000 + case);
        let g0 = random_graph(&mut rng, true);
        let batch = random_batch(&mut rng);
        let mut g = g0.clone();
        let applied = batch.apply(&mut g);
        applied.invert().apply(&mut g);
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = g0.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn bc_correctness_equation() {
    for case in 0..64 {
        let mut rng = SplitMix64::seed_from_u64(0xBC_5000 + case);
        let g0 = random_graph(&mut rng, false);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = incgraph::algos::BcState::batch(&g0);
        let mut g = g0.clone();
        for batch in &batches {
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            let (fresh, _) = incgraph::algos::BcState::batch(&g);
            assert_eq!(
                inc.articulation_points(&g),
                fresh.articulation_points(&g),
                "case {case}"
            );
            assert_eq!(inc.bridges(&g), fresh.bridges(&g), "case {case}");
            for v in 0..N {
                assert_eq!(inc.low(v), fresh.low(v), "case {case} node {v}");
            }
        }
    }
}

#[test]
fn reach_correctness_equation() {
    for case in 0..64 {
        let mut rng = SplitMix64::seed_from_u64(0x4E_5000 + case);
        let g0 = random_graph(&mut rng, true);
        let batches = random_batches(&mut rng);
        let (mut inc, _) = incgraph::algos::ReachState::batch(&g0, 0);
        let mut g = g0.clone();
        for batch in &batches {
            let applied = batch.apply(&mut g);
            inc.update(&g, &applied);
            let (fresh, _) = incgraph::algos::ReachState::batch(&g, 0);
            assert_eq!(inc.reached(), fresh.reached(), "case {case}");
        }
    }
}

/// A stream dominated by self-loop churn over `n` nodes, with enough
/// ordinary edges mixed in that the fixpoints actually move between
/// rounds.
fn self_loop_stream(n: usize, rounds: usize, seed: u64) -> Vec<UpdateBatch> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..8 {
                let v = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.6) {
                    batch.insert(v, v, rng.gen_range(1..=5u32));
                } else {
                    batch.delete(v, v);
                }
                let u = rng.gen_range(0..n) as u32;
                let w = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.5) {
                    batch.insert(u, w, rng.gen_range(1..=5u32));
                } else {
                    batch.delete(u, w);
                }
            }
            batch
        })
        .collect()
}

/// Drives `class` through `stream` from `g0` and checks, before the
/// first round and after every round, that the maintained state passes
/// the full fixpoint audit and equals a fresh batch run.
fn track_batch_under_audit(
    label: &str,
    class: QueryClass,
    g0: &DynamicGraph,
    stream: &[UpdateBatch],
) {
    let build = |g: &DynamicGraph| {
        let builder = Session::builder(class);
        let builder = match class {
            QueryClass::Sssp | QueryClass::Reach => builder.source(0),
            QueryClass::Sim => builder.pattern(Pattern::new(vec![0], &[])),
            _ => builder,
        };
        builder.build(g).expect("build")
    };
    let audit = FixpointAudit::full();
    let mut g = g0.clone();
    let mut inc = build(&g);
    for round in 0..=stream.len() {
        if round > 0 {
            let applied = stream[round - 1].apply(&mut g);
            inc.update(&g, &applied);
        }
        let report = inc.audit(&g, &audit);
        assert!(report.is_clean(), "{label} round {round}: {report:?}");
        assert_eq!(
            inc.digest(&g),
            build(&g).digest(&g),
            "{label} round {round}"
        );
    }
}

/// Degenerate inputs for the engine-backed classes: graphs with no
/// status variables at all, a single node whose only edge is its own
/// self-loop, and self-loop churn on a directed graph, where self-loops
/// are real arcs that must neither shorten SSSP distances nor create
/// spurious reachability. Undirected graphs reject every self-loop op
/// as a no-op.
#[test]
fn degenerate_graphs_track_batch_under_audit() {
    let empty = DynamicGraph::new(false, 0);
    track_batch_under_audit("cc/0-nodes", QueryClass::Cc, &empty, &[]);
    track_batch_under_audit("lcc/0-nodes", QueryClass::Lcc, &empty, &[]);

    let stream = self_loop_stream(1, 4, 900);
    let one = DynamicGraph::new(true, 1);
    track_batch_under_audit("sssp/1-node", QueryClass::Sssp, &one, &stream);
    track_batch_under_audit("reach/1-node", QueryClass::Reach, &one, &stream);
    track_batch_under_audit("sim/1-node", QueryClass::Sim, &one, &stream);
    let one_undirected = DynamicGraph::new(false, 1);
    track_batch_under_audit("cc/1-node", QueryClass::Cc, &one_undirected, &stream);

    let g = incgraph::graph::gen::uniform(60, 150, true, 5, 2, 47);
    let stream = self_loop_stream(60, 6, 947);
    track_batch_under_audit("sssp/self-loops", QueryClass::Sssp, &g, &stream);
    track_batch_under_audit("reach/self-loops", QueryClass::Reach, &g, &stream);
}
