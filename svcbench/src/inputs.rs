//! Seeded inputs: the graph, the ΔG stream, the standing queries and the
//! send schedules. Everything here is a pure function of the seed it is
//! given, and all of it is built before any clock starts.

use incgraph_graph::rng::SplitMix64;
use incgraph_graph::{DynamicGraph, NodeId, UpdateBatch};
use incgraph_workloads::datasets::{Dataset, MAX_WEIGHT};

/// The LiveJournal stand-in at scale 4: 32,000 nodes, 456,000 edges,
/// undirected so all seven classes are defined on it. Fixed across seeds:
/// the seed varies what happens to the graph, not the graph.
pub const LJ_SCALE: f64 = 4.0;

pub fn lj_graph() -> DynamicGraph {
    Dataset::LiveJournal.graph(false, LJ_SCALE)
}

/// Derives an independent stream seed from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Generates *effective* random ΔG batches against an evolving graph:
/// deletions pick a live edge uniformly, insertions an absent pair, with
/// the paper's 50/50 insert/delete mix. It keeps its own live copy and
/// edge list so each batch costs O(batch), not O(|E|).
pub struct BatchGen {
    live: DynamicGraph,
    edges: Vec<(NodeId, NodeId)>,
    rng: SplitMix64,
}

impl BatchGen {
    pub fn new(g: &DynamicGraph, seed: u64) -> Self {
        BatchGen {
            live: g.clone(),
            edges: g.edges().map(|(u, v, _)| (u, v)).collect(),
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    pub fn next_batch(&mut self, units: usize) -> UpdateBatch {
        let n = self.live.node_count();
        let mut batch = UpdateBatch::new();
        while batch.len() < units {
            if self.rng.gen_bool(0.5) || self.edges.is_empty() {
                let u = self.rng.gen_range(0..n) as NodeId;
                let v = self.rng.gen_range(0..n) as NodeId;
                if u == v || self.live.has_edge(u, v) {
                    continue;
                }
                let w = self.rng.gen_range(1..=MAX_WEIGHT);
                self.live.insert_edge(u, v, w);
                self.edges.push((u, v));
                batch.insert(u, v, w);
            } else {
                let i = self.rng.gen_range(0..self.edges.len());
                let (u, v) = self.edges.swap_remove(i);
                self.live.delete_edge(u, v);
                batch.delete(u, v);
            }
        }
        batch
    }
}

/// Splits a graph's edges into insert-only `UPDATE` batches of at most
/// `units` (the wire bulk load of an in-memory graph).
pub fn load_batches(g: &DynamicGraph, units: usize) -> Vec<UpdateBatch> {
    let edges: Vec<_> = g.edges().collect();
    edges
        .chunks(units)
        .map(|chunk| {
            let mut b = UpdateBatch::new();
            for &(u, v, w) in chunk {
                b.insert(u, v, w);
            }
            b
        })
        .collect()
}

/// One standing query a subscriber registers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Standing {
    /// `REGISTER <qid> <graph> <class> source=<s> pattern=<p>`.
    Class {
        class: &'static str,
        source: NodeId,
        pattern_seed: u64,
    },
    /// `PLAN <qid> <graph> <pattern_seed> <text>`.
    Plan { text: String, pattern_seed: u64 },
}

/// Standing-query mix of `view-fanout` and `read-mix`: 48 class queries
/// (23 sssp, 12 reach, 4 cc, 8 sim, 1 lcc) and 12 plans. Sources are
/// drawn Zipf-skewed over the top-degree hubs, so popular views repeat
/// (shareable work) while the tail keeps distinct sources (work that
/// cannot be shared).
pub fn standing_queries(g: &DynamicGraph, seed: u64) -> Vec<Standing> {
    let mut hubs: Vec<NodeId> = g.nodes().collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    hubs.truncate(64);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let zipf = Zipf::new(hubs.len(), 1.0);
    let pattern_seeds = [
        rng.next_u64() >> 16,
        rng.next_u64() >> 16,
        rng.next_u64() >> 16,
    ];
    let mut out = Vec::new();
    let hub = |rng: &mut SplitMix64| hubs[zipf.sample(rng)];
    for i in 0..48 {
        let q = match i % 12 {
            0..=4 => Standing::Class {
                class: "sssp",
                source: hub(&mut rng),
                pattern_seed: 0,
            },
            5..=7 => Standing::Class {
                class: "reach",
                source: hub(&mut rng),
                pattern_seed: 0,
            },
            8 => Standing::Class {
                class: "cc",
                source: 0,
                pattern_seed: 0,
            },
            9 | 10 => Standing::Class {
                class: "sim",
                source: 0,
                pattern_seed: pattern_seeds[rng.gen_range(0..pattern_seeds.len())],
            },
            // One LCC query: its batch build alone takes ~1.6 s of set-up.
            _ if i == 11 => Standing::Class {
                class: "lcc",
                source: 0,
                pattern_seed: 0,
            },
            _ => Standing::Class {
                class: "sssp",
                source: hub(&mut rng),
                pattern_seed: 0,
            },
        };
        out.push(q);
    }
    for i in 0..12 {
        let text = match i % 4 {
            0 => format!(
                "d = sssp(source={}); f = filter(d, val < {}); n = count(f)",
                hub(&mut rng),
                rng.gen_range(10..40)
            ),
            1 => format!(
                "d = sssp(source={}); near = filter(d, val < {})",
                hub(&mut rng),
                rng.gen_range(10..20)
            ),
            2 => format!("d = sssp(source={}); s = sum(d)", hub(&mut rng)),
            _ => "c = cc; n = count(c)".to_string(),
        };
        out.push(Standing::Plan {
            text,
            pattern_seed: pattern_seeds[0],
        });
    }
    out
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.next_f64();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Open-loop send offsets (seconds from the window start) for `count`
/// ops at `rate` per second: a fixed period with seeded ±10% jitter, so
/// the schedule is identical on every run with the same seed and never
/// locks step with a server-side timer. Wider jitter lets sends bunch
/// up, and the queueing that follows makes the tails swing from run to
/// run.
pub fn schedule(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let period = 1.0 / rate;
    (0..count)
        .map(|k| (k as f64 + 0.5 + 0.2 * (rng.next_f64() - 0.5)) * period)
        .collect()
}
