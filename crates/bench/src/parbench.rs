//! Engine benchmark suite: per-class batch and incremental timings and
//! the machine-readable `BENCH_<date>.json` report.
//!
//! The suite runs the five engine-backed classes (SSSP, CC, Reach, Sim,
//! LCC) on their dataset stand-ins and measures two numbers each: the
//! batch fixpoint from scratch and the incremental resume over a 1% ΔG.
//! The incremental-over-batch ratio of the fastest samples is what the
//! bench-regression gate ([`regressions`]) tracks against a committed
//! baseline. Used by the `incgraph bench` subcommand.

use crate::report::measure_stats;
use incgraph_algos::{CcState, IncrementalState, LccState, ReachState, SimState, SsspState};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_workloads::{random_batch_pct, random_pattern, sample_sources, Dataset};
use std::fmt::Write as _;

/// Maximum edge weight for the weighted (SSSP) workload.
const MAX_WEIGHT: u32 = 100;

/// |ΔG| as a percentage of |G| for the incremental measurements.
const DELTA_PCT: f64 = 1.0;

/// Timings for one query class, in nanoseconds per operation. The
/// `seq_` prefixes name the committed baseline's JSON keys.
#[derive(Clone, Debug)]
pub struct ClassResult {
    /// Query class tag (`sssp`, `cc`, `reach`, `sim`, `lcc`).
    pub class: &'static str,
    /// Dataset stand-in tag (LJ, DP, ...).
    pub dataset: &'static str,
    /// Node count of the benchmarked graph.
    pub nodes: usize,
    /// Edge count of the benchmarked graph.
    pub edges: usize,
    /// Batch fixpoint from scratch (mean).
    pub seq_batch_ns: f64,
    /// Incremental resume over a 1% ΔG (mean).
    pub seq_inc_ns: f64,
    /// Fastest batch sample (noise floor, see [`measure_stats`]).
    pub seq_batch_min_ns: f64,
    /// Fastest incremental sample — the bench-regression gate metric:
    /// mins shed scheduler noise that inflates the means of µs-scale
    /// measurements.
    pub seq_inc_min_ns: f64,
}

/// Measures one class: `batch` builds the fixpoint on a graph, and the
/// incremental sample applies `delta` to a fresh batch state of `g0`.
fn bench_class<S: IncrementalState>(
    class: &'static str,
    dataset: Dataset,
    g0: &DynamicGraph,
    delta: &UpdateBatch,
    reps: usize,
    batch: impl Fn(&DynamicGraph) -> S,
) -> ClassResult {
    let secs = |s: f64| s * 1e9;
    let mut g1 = g0.clone();
    let applied = delta.apply(&mut g1);
    let (batch_mean, batch_min) = measure_stats(
        reps,
        || (),
        |_| {
            std::hint::black_box(batch(&g1));
        },
    );
    let (inc_mean, inc_min) = measure_stats(
        reps,
        || batch(g0),
        |s| {
            s.update(&g1, &applied);
        },
    );
    ClassResult {
        class,
        dataset: dataset.tag(),
        nodes: g1.node_count(),
        edges: g1.edge_count(),
        seq_batch_ns: secs(batch_mean),
        seq_inc_ns: secs(inc_mean),
        seq_batch_min_ns: secs(batch_min),
        seq_inc_min_ns: secs(inc_min),
    }
}

/// Runs the five-class suite. `scale` multiplies the stand-in sizes
/// (1.0 = the DESIGN.md base; Sim and LCC use a reduced slice of it to
/// keep their heavier kernels in budget), `reps` is the repetition count
/// per measurement (setup excluded).
pub fn run_suite(scale: f64, reps: usize) -> Vec<ClassResult> {
    // SSSP on the LiveJournal stand-in (directed, weighted).
    let lj = Dataset::LiveJournal;
    let g = lj.graph(true, scale);
    let delta = random_batch_pct(&g, DELTA_PCT, MAX_WEIGHT, 42);
    let src = sample_sources(&g, 1, 7)[0];
    let sssp = bench_class("sssp", lj, &g, &delta, reps, |g| SsspState::batch(g, src).0);

    // CC on the LiveJournal stand-in (undirected).
    let g = lj.graph(false, scale);
    let delta = random_batch_pct(&g, DELTA_PCT, 1, 43);
    let cc = bench_class("cc", lj, &g, &delta, reps, |g| CcState::batch(g).0);

    // Reach on the DBPedia stand-in (directed).
    let dp = Dataset::DbPedia;
    let g = dp.graph(true, scale);
    let delta = random_batch_pct(&g, DELTA_PCT, 1, 44);
    let src = sample_sources(&g, 1, 9)[0];
    let reach = bench_class("reach", dp, &g, &delta, reps, |g| {
        ReachState::batch(g, src).0
    });

    // Sim on the DBPedia stand-in (directed, labeled; half scale — the
    // per-variable work is quadratic in pattern fan-in).
    let g = dp.graph(true, scale * 0.5);
    let q = random_pattern(&g, 4, 6, 11);
    let delta = random_batch_pct(&g, DELTA_PCT, 1, 45);
    let sim = bench_class("sim", dp, &g, &delta, reps, |g| {
        SimState::batch(g, q.clone()).0
    });

    // LCC on the LiveJournal stand-in (undirected; quarter scale — the
    // triangle kernel is O(Σ deg²)).
    let g = lj.graph(false, scale * 0.25);
    let delta = random_batch_pct(&g, DELTA_PCT, 1, 46);
    let lcc = bench_class("lcc", lj, &g, &delta, reps, |g| LccState::batch(g).0);

    vec![sssp, cc, reach, sim, lcc]
}

/// Renders the suite as an aligned text table (one row per class).
pub fn render_table(results: &[ClassResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<4} {:>7} {:>8} {:>13} {:>13}",
        "class", "data", "|V|", "|E|", "batch", "inc"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<6} {:<4} {:>7} {:>8} {:>13} {:>13}",
            r.class,
            r.dataset,
            r.nodes,
            r.edges,
            fmt_ns(r.seq_batch_ns),
            fmt_ns(r.seq_inc_ns),
        );
    }
    out
}

/// Human-readable nanoseconds (`1.23ms`, `456µs`, ...).
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Serializes the suite as the `BENCH_<date>.json` document.
pub fn to_json(date: &str, reps: usize, results: &[ClassResult]) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:.1}")
        } else {
            "null".to_string()
        }
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"date\": \"{date}\",");
    let _ = writeln!(json, "  \"samples\": {reps},");
    let _ = writeln!(json, "  \"delta_pct\": {DELTA_PCT},");
    json.push_str("  \"classes\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{ \"class\": \"{}\", \"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"seq_batch_ns\": {}, \"seq_inc_ns\": {}, \
             \"seq_batch_min_ns\": {}, \"seq_inc_min_ns\": {} }}",
            r.class,
            r.dataset,
            r.nodes,
            r.edges,
            num(r.seq_batch_ns),
            num(r.seq_inc_ns),
            num(r.seq_batch_min_ns),
            num(r.seq_inc_min_ns),
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}

/// One baseline row the regression gate compares against:
/// `(class, seq_inc_min_ns, seq_batch_min_ns)`.
type BaselineRow = (String, f64, f64);

/// Extracts the gate rows from a BENCH json document. Handwritten scan
/// — the files are machine written one class-object per line, so no
/// JSON dependency is needed. A class appearing several times (the
/// thread-count sweeps of older documents) keeps its *first*
/// occurrence, which is the single-thread row. Pre-min documents fall
/// back to the mean fields.
pub fn parse_baseline(json: &str) -> Vec<BaselineRow> {
    let mut out: Vec<BaselineRow> = Vec::new();
    for line in json.lines() {
        let Some(cls) = field_str(line, "\"class\": \"") else {
            continue;
        };
        let inc =
            field_num(line, "\"seq_inc_min_ns\": ").or_else(|| field_num(line, "\"seq_inc_ns\": "));
        let batch = field_num(line, "\"seq_batch_min_ns\": ")
            .or_else(|| field_num(line, "\"seq_batch_ns\": "));
        let (Some(inc), Some(batch)) = (inc, batch) else {
            continue;
        };
        if !out.iter().any(|(c, _, _)| c == cls) {
            out.push((cls.to_string(), inc, batch));
        }
    }
    out
}

pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(['"', ','])
        .unwrap_or_else(|| rest.trim_end().len());
    Some(&rest[..end])
}

pub(crate) fn field_num(line: &str, key: &str) -> Option<f64> {
    field_str(line, key)?
        .trim_end_matches([' ', '}'])
        .parse()
        .ok()
}

/// Compares fresh results against a committed baseline
/// document and returns one message per class whose incremental path
/// regressed beyond `threshold` (0.25 = 25% slower). Classes absent
/// from the baseline are ignored (new classes cannot fail the gate).
///
/// The compared metric is the *ratio* of the fastest incremental
/// sample to the fastest batch sample, not raw nanoseconds: the batch
/// fixpoint exercises the same kernels on the same machine, so
/// dividing by it cancels host speed and lets one committed baseline
/// gate runs on arbitrary CI hardware. Mins rather than means for
/// both, because scheduler noise only ever adds time and a single
/// inflated sample would otherwise dominate a µs-scale mean.
pub fn regressions(baseline_json: &str, results: &[ClassResult], threshold: f64) -> Vec<String> {
    let baseline = parse_baseline(baseline_json);
    let mut out = Vec::new();
    for r in results {
        let Some((_, base_inc, base_batch)) = baseline.iter().find(|(c, _, _)| c == r.class) else {
            continue;
        };
        if *base_inc <= 0.0 || *base_batch <= 0.0 || r.seq_batch_min_ns <= 0.0 {
            continue;
        }
        let base_ratio = base_inc / base_batch;
        let ratio = r.seq_inc_min_ns / r.seq_batch_min_ns;
        if ratio > base_ratio * (1.0 + threshold) {
            out.push(format!(
                "{}: seq_inc/seq_batch {:.5} (inc {} / batch {}) vs baseline {:.5} \
                 (+{:.0}%, limit +{:.0}%)",
                r.class,
                ratio,
                fmt_ns(r.seq_inc_min_ns),
                fmt_ns(r.seq_batch_min_ns),
                base_ratio,
                (ratio / base_ratio - 1.0) * 100.0,
                threshold * 100.0,
            ));
        }
    }
    out
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// date crates offline; civil-from-days per Howard Hinnant's algorithm).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_trip_known_points() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_671), (2026, 8, 6));
    }

    fn sample_result(class: &'static str, seq_inc_ns: f64) -> ClassResult {
        ClassResult {
            class,
            dataset: "LJ",
            nodes: 100,
            edges: 400,
            seq_batch_ns: 2000.0,
            seq_inc_ns,
            seq_batch_min_ns: 2000.0,
            seq_inc_min_ns: seq_inc_ns,
        }
    }

    #[test]
    fn json_report_is_well_formed_and_round_trips() {
        let json = to_json("2026-08-06", 5, &[sample_result("sssp", 300.0)]);
        assert!(json.contains("\"seq_inc_min_ns\": 300.0"), "{json}");
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(
            parse_baseline(&json),
            vec![("sssp".to_string(), 300.0, 2000.0)]
        );
    }

    #[test]
    fn committed_sweep_baselines_gate_on_their_first_row() {
        // Older documents hold one `classes` array per thread count;
        // the first (single-thread) row of each class is the baseline.
        let json = "{\n  \"sweep\": [\n\
            { \"class\": \"sssp\", \"seq_batch_min_ns\": 2000.0, \"seq_inc_min_ns\": 300.0 },\n\
            { \"class\": \"sssp\", \"seq_batch_min_ns\": 2000.0, \"seq_inc_min_ns\": 200.0 }\n\
            ]\n}\n";
        assert_eq!(
            parse_baseline(json),
            vec![("sssp".to_string(), 300.0, 2000.0)]
        );
    }

    #[test]
    fn regression_gate_trips_only_past_threshold() {
        let baseline = to_json(
            "2026-08-08",
            5,
            &[sample_result("sssp", 1000.0), sample_result("cc", 1000.0)],
        );
        let fresh = [
            sample_result("sssp", 1200.0), // +20%: inside the 25% budget
            sample_result("cc", 1300.0),   // +30%: regression
            sample_result("lcc", 9999.0),  // not in baseline: ignored
        ];
        let bad = regressions(&baseline, &fresh, 0.25);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("cc:"), "{bad:?}");
        // Pre-min baseline documents gate on the mean fields instead.
        let legacy: String = baseline
            .lines()
            .map(|l| {
                let cut = l.find(", \"seq_batch_min_ns\"").unwrap_or(l.len());
                if cut < l.len() {
                    format!(
                        "{} }}{}\n",
                        &l[..cut],
                        if l.ends_with(',') { "," } else { "" }
                    )
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(!legacy.contains("seq_inc_min_ns"), "{legacy}");
        let bad = regressions(&legacy, &fresh, 0.25);
        assert_eq!(bad.len(), 1, "{bad:?}");
    }

    #[test]
    fn suite_smoke_runs_tiny() {
        let results = run_suite(0.02, 1);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.seq_batch_ns > 0.0 && r.seq_inc_ns > 0.0, "{r:?}");
        }
    }
}
