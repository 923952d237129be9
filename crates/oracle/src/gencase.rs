//! Seeded case generation: one `u64` seed deterministically expands into
//! a full [`Case`] — topology, labels, query parameters, and a long
//! schedule of *effective* update batches (a live mirror of the graph is
//! maintained so inserts hit absent edges and deletes hit present ones,
//! matching the paper's experimental ΔG mixes instead of degenerating
//! into no-ops).
//!
//! All randomness comes from [`SplitMix64`] — the repository's single
//! sanctioned PRNG — so a seed printed in a fuzz report reproduces the
//! identical case on any machine, offline, forever.

use crate::case::Case;
use crate::runner::ClassId;
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{gen, DynamicGraph, Label, NodeId, UpdateBatch, Weight};
use incgraph_workloads::random_pattern;

/// Size knobs for generated cases. The defaults keep a single case in the
/// low milliseconds (every round recomputes seven batch fixpoints), so a
/// 200-case smoke run fits a CI budget.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Upper bound on node count (lower bound is 6).
    pub max_nodes: usize,
    /// Upper bound on batches per schedule (lower bound is 2).
    pub max_batches: usize,
    /// Upper bound on unit updates per batch (lower bound is 1).
    pub max_batch_ops: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_nodes: 36,
            max_batches: 6,
            max_batch_ops: 5,
        }
    }
}

/// Topology families the generator rotates through.
const TOPOLOGIES: [&str; 3] = ["uniform", "powerlaw", "grid"];

/// Expands `seed` into a complete case under `cfg`. Deterministic:
/// identical `(seed, cfg)` always yields the identical case.
pub fn gen_case(seed: u64, cfg: &GenConfig) -> Case {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let topology = TOPOLOGIES[rng.gen_range(0..TOPOLOGIES.len())];
    let max_weight: Weight = rng.gen_range(1..=8u32);
    let alphabet: u32 = rng.gen_range(2..=4u32);

    let g = match topology {
        "grid" => {
            let rows = rng.gen_range(2..=6usize);
            let cols = rng.gen_range(2..=(cfg.max_nodes / rows).clamp(2, 6));
            gen::grid(rows, cols, max_weight, rng.next_u64())
        }
        "powerlaw" => {
            let n = rng.gen_range(6..=cfg.max_nodes);
            let m = n * rng.gen_range(1..=3usize);
            let gamma = 2.1 + rng.next_f64() * 0.7;
            let directed = rng.gen_bool(0.5);
            gen::power_law(n, m, gamma, directed, max_weight, alphabet, rng.next_u64())
        }
        _ => {
            let n = rng.gen_range(6..=cfg.max_nodes);
            let m = n * rng.gen_range(1..=3usize);
            let directed = rng.gen_bool(0.5);
            gen::uniform(n, m, directed, max_weight, alphabet, rng.next_u64())
        }
    };

    let nodes = g.node_count();
    let directed = g.is_directed();
    let labels: Vec<Label> = (0..nodes as NodeId).map(|v| g.label(v)).collect();
    let edges: Vec<(NodeId, NodeId, Weight)> = g.edges().collect();

    // Source: prefer a node with outgoing edges so SSSP/Reach are
    // non-degenerate; clamp to 0 on isolated graphs.
    let source = {
        let mut pick = 0;
        for _ in 0..32 {
            let v = rng.gen_range(0..nodes) as NodeId;
            if g.out_degree(v) > 0 {
                pick = v;
                break;
            }
        }
        pick
    };

    // Sim pattern: small shapes, labels drawn from the live graph.
    let pn = rng.gen_range(2..=3usize);
    let pe = rng.gen_range((pn - 1)..=pn);
    let pattern = Some(random_pattern(&g, pn, pe, rng.next_u64()));

    // Effective schedule against a live mirror: an insert-heavy, a
    // delete-heavy, or a mixed regime per case.
    let insert_bias = [0.8, 0.5, 0.25][rng.gen_range(0..3usize)];
    let mut mirror = g.clone();
    let n_batches = rng.gen_range(2..=cfg.max_batches);
    let mut schedule = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        let mut batch = UpdateBatch::new();
        let ops = rng.gen_range(1..=cfg.max_batch_ops);
        for _ in 0..ops {
            let live: Vec<(NodeId, NodeId, Weight)> = mirror.edges().collect();
            let do_insert = live.is_empty() || rng.gen_bool(insert_bias);
            if do_insert {
                // Rejection-sample an absent pair; give up after a few
                // tries on dense graphs (the op is then skipped).
                for _ in 0..16 {
                    let u = rng.gen_range(0..nodes) as NodeId;
                    let v = rng.gen_range(0..nodes) as NodeId;
                    if u != v && !mirror.has_edge(u, v) {
                        let w = rng.gen_range(1..=max_weight);
                        batch.insert(u, v, w);
                        mirror.insert_edge(u, v, w);
                        break;
                    }
                }
            } else {
                let (u, v, _) = live[rng.gen_range(0..live.len())];
                batch.delete(u, v);
                mirror.delete_edge(u, v);
            }
        }
        if !batch.is_empty() {
            schedule.push(batch);
        }
    }
    if schedule.is_empty() {
        // Degenerate roll: force one effective op so every case steps.
        let mut batch = UpdateBatch::new();
        match mirror.edges().next() {
            Some((u, v, _)) => {
                batch.delete(u, v);
            }
            None => {
                batch.insert(0, 1, 1);
            }
        }
        schedule.push(batch);
    }

    Case {
        seed,
        directed,
        nodes,
        labels: Some(labels),
        edges,
        schedule,
        // LCC and BC are only defined on undirected graphs; directed
        // cases exercise the other five (a campaign mixes both, so all
        // seven classes get coverage).
        classes: ClassId::ALL
            .into_iter()
            .filter(|c| !directed || !c.requires_undirected())
            .collect(),
        source,
        pattern,
        fault: None,
        crash_at: None,
        coalesce: false,
        plan: None,
    }
}

/// Expands `seed` into a small random `incgraph-plan/1` program valid
/// for `case`: sources respect directedness (no `lcc`/`bc` on directed
/// graphs), `sim` is always available because generated cases carry a
/// pattern, and every program ends in an aggregate so views stay small.
/// Deterministic in `(seed, case topology)` like the case generator.
pub fn gen_plan(seed: u64, case: &Case) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xDA7A_F107);
    let mut sources: Vec<String> = vec![
        format!("sssp(source={})", case.source),
        format!("reach(source={})", case.source),
        "cc".into(),
        "dfs".into(),
        "sim".into(),
        "labels".into(),
    ];
    if !case.directed {
        sources.push("lcc".into());
        sources.push("bc".into());
    }
    let mut text = format!("a = {}", sources[rng.gen_range(0..sources.len())]);
    let mut cur = "a";
    // Optional row-level operator over the first source.
    match rng.gen_range(0..3usize) {
        0 => {
            let cmp = ["<", "<=", ">", ">=", "!="][rng.gen_range(0..5usize)];
            let k = rng.gen_range(0..8u64);
            text.push_str(&format!("; b = filter({cur}, val {cmp} {k})"));
            cur = "b";
        }
        1 => {
            let op = ["+", "*", "&", ">>"][rng.gen_range(0..4usize)];
            let k = 1 + rng.gen_range(0..4u64);
            text.push_str(&format!("; b = map({cur}, val {op} {k})"));
            cur = "b";
        }
        _ => {}
    }
    // Optional bilinear join against a second source.
    if rng.gen_bool(0.5) {
        let s2 = sources[rng.gen_range(0..sources.len())].clone();
        let val = ["left", "right", "sum", "min", "max"][rng.gen_range(0..5usize)];
        text.push_str(&format!("; c = {s2}; d = join({cur}, c, val={val})"));
        cur = "d";
    }
    // Terminal: an aggregate, or a threshold feeding a count.
    match rng.gen_range(0..5usize) {
        0 => text.push_str(&format!("; z = sum({cur})")),
        1 => text.push_str(&format!("; z = min({cur})")),
        2 => text.push_str(&format!("; z = max({cur})")),
        3 => {
            let k = rng.gen_range(0..6u64);
            text.push_str(&format!("; t = threshold({cur}, val > {k}); z = count(t)"));
        }
        _ => text.push_str(&format!("; z = count({cur})")),
    }
    text
}

/// Convenience: rebuilds the mirror graph a prefix of the schedule leaves
/// behind — used by tests and the shrinker to reason about live edges.
pub fn graph_after(case: &Case, rounds: usize) -> DynamicGraph {
    let mut g = case.build_graph();
    for batch in case.schedule.iter().take(rounds) {
        batch.apply(&mut g);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = gen_case(99, &cfg);
        let b = gen_case(99, &cfg);
        assert_eq!(a.render(&[]), b.render(&[]));
    }

    #[test]
    fn seeds_cover_all_topology_regimes() {
        let cfg = GenConfig::default();
        let mut directed_seen = false;
        let mut undirected_seen = false;
        let mut delete_seen = false;
        for seed in 0..40 {
            let case = gen_case(seed, &cfg);
            assert!(case.nodes >= 4);
            assert!(!case.schedule.is_empty());
            assert_eq!(case.classes.len(), if case.directed { 5 } else { 7 });
            directed_seen |= case.directed;
            undirected_seen |= !case.directed;
            delete_seen |= case
                .schedule
                .iter()
                .any(|b| b.updates().iter().any(|u| !u.is_insert()));
        }
        assert!(directed_seen && undirected_seen && delete_seen);
    }

    #[test]
    fn generated_plans_parse_and_cover_all_class_sources() {
        use incgraph_dataflow::{Plan, Source};
        let cfg = GenConfig::default();
        let mut classes_seen = Vec::new();
        for seed in 0..60u64 {
            let case = gen_case(seed, &cfg);
            let text = gen_plan(seed, &case);
            assert_eq!(text, gen_plan(seed, &case), "plan gen is deterministic");
            let plan = Plan::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}: {text}"));
            for s in plan.sources() {
                if let Source::Class { class, .. } = s {
                    assert!(
                        !case.directed || !class.requires_undirected(),
                        "seed {seed} put `{}` on a directed graph",
                        class.name()
                    );
                    if !classes_seen.contains(&class) {
                        classes_seen.push(class);
                    }
                }
            }
        }
        classes_seen.sort_unstable();
        assert_eq!(
            classes_seen,
            ClassId::ALL.to_vec(),
            "60 seeds must draw every class as a plan source"
        );
    }

    #[test]
    fn schedules_are_effective() {
        // Every generated unit update must actually change the graph.
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let case = gen_case(seed, &cfg);
            let mut g = case.build_graph();
            for (i, batch) in case.schedule.iter().enumerate() {
                let applied = batch.apply(&mut g);
                assert_eq!(
                    applied.ops().len(),
                    batch.updates().len(),
                    "seed {seed} batch {i} contains ineffective ops"
                );
            }
        }
    }
}
