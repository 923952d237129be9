//! Proof that the steady-state incremental hot path is allocation-free
//! for every class that resumes the generic engine: SSSP, CC, Reach, Sim
//! and LCC.
//!
//! A counting `#[global_allocator]` wraps `System`; the counter is armed
//! only around the `state.update(&g, &applied)` call under test, so
//! graph mutation (`batch.apply`), batch construction, and test
//! bookkeeping never pollute the count. A warmup phase first runs the
//! same update shapes so every scratch structure (the `ScopeScratch`
//! arena, per-class `touched` buffers, the engine's persistent heap and
//! dependency buffers) grows to its working capacity; after that, a ΔG
//! update must not touch the heap at all.
//!
//! The arm flag and the counter are thread-local: cargo runs tests on
//! parallel threads, and a process-global flag would count one test's
//! warm-up allocations inside another test's armed window. Thread-local
//! counting is sound because no update path spawns threads.
//!
//! BC is deliberately not pinned: its update copies `O(|V|)` DFS arrays
//! by design, so it allocates on every update. DFS keeps its own interval
//! code outside the engine and is not pinned either.
//!
//! Gated behind the `alloc-count` feature because the wrapper
//! intercepts every allocation in the test binary:
//!
//! ```text
//! cargo test -p incgraph-algos --features alloc-count --test alloc_count
//! ```
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use incgraph_algos::{CcState, IncrementalState, LccState, ReachState, SimState, SsspState};
use incgraph_graph::{DynamicGraph, Pattern, UpdateBatch};

/// Counts heap acquisitions (`alloc`, `alloc_zeroed`, `realloc`) while
/// armed on the current thread. Frees are not counted: releasing memory
/// is cheap and the claim under test is "no new heap memory per
/// steady-state update".
struct CountingAlloc;

thread_local! {
    // `const` initializers without destructors: reading them never
    // allocates, so the allocator itself can consult them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Records one heap acquisition if the current thread is armed.
fn note_alloc() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A shrinking realloc releases memory (the scratch buffers'
        // 4× overshoot policy); only growth acquires heap.
        if new_size > layout.size() {
            note_alloc();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the current thread's counter armed and returns how many
/// heap acquisitions it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

/// Undirected ring of `n` nodes (unit weights, alternating labels 0/1)
/// with `(i, i + n/2)` chords — enough structure that edge churn moves
/// SSSP distances, forces CC reconfirmation walks and gives the Sim
/// pattern below non-trivial matches.
fn chord_ring(n: usize) -> DynamicGraph {
    let labels = (0..n).map(|v| (v % 2) as u32).collect();
    let mut g = DynamicGraph::with_labels(false, labels);
    for i in 0..n {
        g.insert_edge(i as u32, ((i + 1) % n) as u32, 1);
    }
    for i in 0..n / 2 {
        g.insert_edge(i as u32, (i + n / 2) as u32, 3);
    }
    g
}

/// One steady-state round: delete a fixed ring edge and re-insert it at
/// a parity-toggled weight, so distances genuinely move every round but
/// the affected region — and therefore every scratch high-water mark —
/// is the same from round to round. (A workload whose scope sizes swing
/// by more than 4× between rounds would legitimately trip the scratch
/// buffers' 4× overshoot shrink-and-regrow policy; that is capacity
/// management, not steady state.) Returns the applied ΔG; the graph
/// mutation happens here, outside any armed region.
fn churn_round(g: &mut DynamicGraph, round: usize) -> incgraph_graph::AppliedBatch {
    let (u, v) = (16u32, 17u32);
    let mut batch = UpdateBatch::new();
    batch.delete(u, v).insert(u, v, 1 + (round % 2) as u32);
    batch.apply(g)
}

const N: usize = 64;
const WARMUP_ROUNDS: usize = 16;
const MEASURE_ROUNDS: usize = 8;

/// Warms `state` up on the churn workload, then asserts that every
/// measured update performs zero heap acquisitions.
fn assert_steady_updates_allocate_nothing(
    mut g: DynamicGraph,
    build: impl FnOnce(&DynamicGraph) -> Box<dyn IncrementalState>,
) {
    let mut state = build(&g);
    for round in 0..WARMUP_ROUNDS {
        let applied = churn_round(&mut g, round);
        state.update(&g, &applied);
    }
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + MEASURE_ROUNDS {
        let applied = churn_round(&mut g, round);
        let allocs = count_allocs(|| {
            state.update(&g, &applied);
        });
        assert_eq!(
            allocs,
            0,
            "{} steady-state update allocated {allocs} times in round {round}",
            state.name()
        );
    }
}

#[test]
fn sssp_steady_state_update_is_allocation_free() {
    assert_steady_updates_allocate_nothing(chord_ring(N), |g| Box::new(SsspState::batch(g, 0).0));
}

#[test]
fn cc_steady_state_update_is_allocation_free() {
    assert_steady_updates_allocate_nothing(chord_ring(N), |g| Box::new(CcState::batch(g).0));
}

#[test]
fn reach_steady_state_update_is_allocation_free() {
    assert_steady_updates_allocate_nothing(chord_ring(N), |g| Box::new(ReachState::batch(g, 0).0));
}

#[test]
fn sim_steady_state_update_is_allocation_free() {
    let pattern = Pattern::new(vec![0, 1], &[(0, 1), (1, 0)]);
    assert_steady_updates_allocate_nothing(chord_ring(N), |g| {
        Box::new(SimState::batch(g, pattern).0)
    });
}

#[test]
fn lcc_steady_state_update_is_allocation_free() {
    assert_steady_updates_allocate_nothing(chord_ring(N), |g| Box::new(LccState::batch(g).0));
}
