//! `svcbench`: the service benchmark. One run = one workload, driven open
//! loop against `incgraph serve` running as a separate process, then
//! checked for correctness; `--trace 1` adds the in-process traced replay
//! and reports per-layer metrics instead of end-to-end ones.
//!
//! ```text
//! svcbench --server <incgraph binary> --workload <name> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; everything else
//! goes to standard error. Exit codes: 0 ok, 1 correctness gate failed,
//! 2 usage, 3 run invalid (the generator fell behind its schedule),
//! 4 set-up or I/O failure.

mod check;
mod conn;
mod drive;
mod inputs;
mod proc;
mod stats;
mod trace;

use drive::{Sub, Traffic, Views};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_service::Reply;
use inputs::{standing_queries, sub_seed, BatchGen, Standing, Zipf};
use proc::{fresh_dir, Res, Server};
use stats::{median, pct, result_line, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run whose generator sent its p99 op later than this is invalid.
const LATE_LIMIT_MS: f64 = 50.0;
/// Bulk-load `UPDATE` size for the in-memory graph (the store's cap).
const LOAD_UNITS: usize = 4096;
/// Commits the traced replay covers at most (its cost is ~3× a commit).
const TRACE_COMMITS: usize = 240;
/// Durable commits the traced store passes cover (BC and DFS dominate).
const TRACE_DURABLE_COMMITS: usize = 60;
/// Seed of the standing set: the queries, plans and Sim patterns. Like
/// the graph, it is the same on every run, so the workload seed varies
/// the traffic (ΔG contents, schedules, read targets) and not which
/// views exist; per-query cost differs too much between hubs for a
/// seed-drawn set to give comparable runs.
const STANDING_SEED: u64 = 0x5EED_0F74;

/// One workload's fixed shape. Rates sit at a third of the measured
/// capacity of a 2-core host or below (see README.md), so a host that
/// slows down for a while does not tip a run into a growing backlog; a
/// capacity change shows as latency and CPU per op, never as a
/// throughput echo of these rates.
struct Spec {
    name: &'static str,
    durable: bool,
    units: usize,
    update_rate: f64,
    read_rate: f64,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "durable-ingest",
        durable: true,
        units: 16,
        update_rate: 6.0,
        read_rate: 0.0,
    },
    Spec {
        name: "view-fanout",
        durable: false,
        units: 64,
        update_rate: 50.0,
        read_rate: 0.0,
    },
    Spec {
        name: "read-mix",
        durable: false,
        units: 64,
        update_rate: 20.0,
        read_rate: 100.0,
    },
];

struct Args {
    server: PathBuf,
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = num(get("--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        server: PathBuf::from(get("--server")?),
        spec,
        seed: num(get("--seed")?, "--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// Everything a run sends, generated from the seed before any clock.
struct Inputs {
    /// The graph the server holds when the window opens.
    loaded: DynamicGraph,
    load: Vec<UpdateBatch>,
    batches: Vec<UpdateBatch>,
    update_at: Vec<f64>,
    reads: Vec<(f64, String)>,
    standing: Vec<(String, Standing)>,
}

fn make_inputs(a: &Args) -> Inputs {
    let s = a.spec;
    let lj = inputs::lj_graph();
    // Over the wire an in-memory graph has no labels: the view workloads
    // run on the same edges with every label 0, exactly as served.
    let (loaded, load) = if s.durable {
        (lj, Vec::new())
    } else {
        let load = inputs::load_batches(&lj, LOAD_UNITS);
        let mut g = DynamicGraph::new(false, lj.node_count());
        for b in &load {
            b.apply_validated(&mut g).expect("bulk load is effective");
        }
        (g, load)
    };
    let count = (s.update_rate * a.seconds).round() as usize;
    let mut gen = BatchGen::new(&loaded, sub_seed(a.seed, 1));
    let batches = (0..count).map(|_| gen.next_batch(s.units)).collect();
    let update_at = inputs::schedule(s.update_rate, count, sub_seed(a.seed, 3));
    // The in-memory workloads stand views; the durable one stands none.
    let standing: Vec<(String, Standing)> = if !s.durable {
        let mut next = (0, 0);
        standing_queries(&loaded, STANDING_SEED)
            .into_iter()
            .map(|q| {
                let id = match q {
                    Standing::Class { .. } => {
                        next.0 += 1;
                        format!("q{}", next.0 - 1)
                    }
                    Standing::Plan { .. } => {
                        next.1 += 1;
                        format!("p{}", next.1 - 1)
                    }
                };
                (id, q)
            })
            .collect()
    } else {
        Vec::new()
    };
    let reads = if s.read_rate > 0.0 {
        let n = (s.read_rate * a.seconds).round() as usize;
        let zipf = Zipf::new(standing.len(), 1.0);
        let mut rng = incgraph_graph::rng::SplitMix64::seed_from_u64(sub_seed(a.seed, 5));
        inputs::schedule(s.read_rate, n, sub_seed(a.seed, 4))
            .into_iter()
            .map(|at| (at, standing[zipf.sample(&mut rng)].0.clone()))
            .collect()
    } else {
        Vec::new()
    };
    Inputs {
        loaded,
        load,
        batches,
        update_at,
        reads,
        standing,
    }
}

/// A server ready for the window, with its connections.
struct Ready {
    server: Server,
    writer: (conn::Tx, conn::Rx),
    sub: Option<Sub>,
}

/// One timed set-up: from store creation / server launch to the first
/// scheduled op being sendable.
fn set_up(a: &Args, inp: &Inputs, graph_file: &Path, store: &Path) -> Res<(Ready, f64)> {
    let t = Instant::now();
    let server = if a.spec.durable {
        proc::create_store(&a.server, store, graph_file, STANDING_SEED)?;
        Server::start(&a.server, Some(store))?
    } else {
        Server::start(&a.server, None)?
    };
    let (mut wtx, mut wrx) = conn::connect(server.addr, "w")?;
    if !a.spec.durable {
        let n = inp.loaded.node_count();
        wtx.send(&format!("GRAPH g0 {n} undirected\n"))
            .map_err(|e| e.to_string())?;
        expect_ok(wrx.reply(Duration::from_secs(30), |_, _| {})?)?;
        // Pipelined bulk load, then every ACK.
        for (i, b) in inp.load.iter().enumerate() {
            wtx.send(&conn::update_msg("g0", i as u64 + 1, b))
                .map_err(|e| e.to_string())?;
        }
        for _ in &inp.load {
            match wrx.reply(Duration::from_secs(60), |_, _| {})? {
                Reply::Ack(_) => {}
                other => return Err(format!("bulk load: {other:?}")),
            }
        }
    }
    let sub = if inp.standing.is_empty() {
        None
    } else {
        let (mut tx, mut rx) = conn::connect(server.addr, "s")?;
        for (qid, q) in &inp.standing {
            let msg = match q {
                Standing::Class {
                    class,
                    source,
                    pattern_seed,
                } => format!("REGISTER {qid} g0 {class} source={source} pattern={pattern_seed}\n"),
                Standing::Plan { text, pattern_seed } => {
                    format!("PLAN {qid} g0 {pattern_seed} {text}\n")
                }
            };
            tx.send(&msg).map_err(|e| e.to_string())?;
            expect_ok(rx.reply(Duration::from_secs(60), |_, _| {})?)?;
        }
        // The subscriber's starting views, which pushes then patch.
        let mut views = Views::default();
        for (qid, _) in &inp.standing {
            tx.send(&drive::read_msg(qid)).map_err(|e| e.to_string())?;
            let (got, view) = drive::full_view(rx.reply(Duration::from_secs(30), |_, _| {})?)?;
            views.views.insert(got, view);
        }
        Some(Sub { tx, rx, views })
    };
    let secs = t.elapsed().as_secs_f64();
    Ok((
        Ready {
            server,
            writer: (wtx, wrx),
            sub,
        },
        secs,
    ))
}

fn expect_ok(r: Reply) -> Res<()> {
    match r {
        Reply::Ok(_) => Ok(()),
        other => Err(format!("expected OK, got {other:?}")),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(a: &Args) -> Res<Outcome> {
    let inp = make_inputs(a);
    let work = fresh_dir(Path::new(".bench_work"), a.spec.name)?;
    let graph_file = work.join("graph.txt");
    if a.spec.durable {
        let f = std::fs::File::create(&graph_file).map_err(|e| e.to_string())?;
        incgraph_graph::io::write_graph(&inp.loaded, f).map_err(|e| e.to_string())?;
    }
    let store = work.join("store");
    eprintln!(
        "svcbench {}: seed {} | |V|={} |E|={} | {} updates x {} units @ {}/s | {} reads @ {}/s | {} standing | {} s",
        a.spec.name,
        a.seed,
        inp.loaded.node_count(),
        inp.loaded.edge_count(),
        inp.batches.len(),
        a.spec.units,
        a.spec.update_rate,
        inp.reads.len(),
        a.spec.read_rate,
        inp.standing.len(),
        a.seconds
    );

    // Set up several times; keep the last server for the window.
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..reps {
        if let Some(r) = ready.take() {
            r.server.shutdown()?;
        }
        if store.exists() {
            std::fs::remove_dir_all(&store).map_err(|e| e.to_string())?;
        }
        let (r, secs) = set_up(a, &inp, &graph_file, &store)?;
        setup_s.push(secs);
        ready = Some(r);
    }
    eprintln!("set-up: {setup_s:.3?} s");
    let Ready {
        server,
        mut writer,
        mut sub,
    } = ready.expect("at least one set-up");

    let ticks = proc::clock_ticks();
    let first_seq = inp.load.len() as u64 + 1;
    let traffic = Traffic {
        graph: "g0",
        nodes: inp.loaded.node_count(),
        batches: &inp.batches,
        first_seq,
        update_at: &inp.update_at,
        reads: &inp.reads,
    };
    let cpu0 = proc::cpu_ms(server.pid(), ticks)?;
    let w = drive::run(&traffic, &mut writer.0, &mut writer.1, sub.as_mut());
    let cpu1 = proc::cpu_ms(server.pid(), ticks)?;
    let rss = proc::peak_rss_mb(server.pid())?;
    let done_ops = (w.ack_ms.len() + w.read_ms.len()) as f64;

    // Correctness gates, after the window.
    let mut gate: Vec<String> = Vec::new();
    if w.wrong > 0 {
        gate.push(format!(
            "{} reads disagreed with the replayed pushes",
            w.wrong
        ));
    }
    let acked: Vec<UpdateBatch> = w
        .acked
        .iter()
        .zip(&inp.batches)
        .filter(|(a, _)| a.is_some())
        .map(|(_, b)| b.clone())
        .collect();
    let mut tr = trace::Tracer::new(a.trace);
    let mut overhead = f64::NAN;
    let mut traced_commits = acked.len().min(TRACE_COMMITS);
    if a.spec.durable {
        server.shutdown()?;
        let shadow_dir = fresh_dir(&work, "shadow")?;
        let shadow =
            trace::durable_shadow(&mut tr, &graph_file, STANDING_SEED, &acked, &shadow_dir)?;
        if let Err(e) = check::durable(&store, &inp.batches, &w, &shadow.digests) {
            gate.push(e);
        }
        if a.trace {
            traced_commits = acked.len().min(TRACE_DURABLE_COMMITS);
            overhead = trace::durable_store_passes(
                &mut tr,
                shadow.genesis,
                &shadow.essences,
                &acked[..traced_commits],
                &fresh_dir(&work, "stores")?,
            )?;
        }
    } else {
        let mut last = inp.loaded.clone();
        for b in &acked {
            b.apply_validated(&mut last).map_err(|e| e.to_string())?;
        }
        let Sub { tx, rx, .. } = sub.as_mut().expect("view workloads have a subscriber");
        match check::views(tx, rx, &inp.standing, &w.views, &inp.loaded, &last) {
            Ok(distinct) => eprintln!(
                "gate: {} views checked, {} against replayed pushes ({distinct} distinct built from scratch)",
                inp.standing.len(),
                inp.standing.len() - w.views.stale.len()
            ),
            Err(e) => gate.push(e),
        }
        server.shutdown()?;
        if a.trace {
            let mut reads_after = vec![Vec::new(); traced_commits];
            for (at, qid) in &inp.reads {
                let k = inp.update_at.partition_point(|u| u < at).saturating_sub(1);
                if k < traced_commits {
                    reads_after[k].push(qid.clone());
                }
            }
            let replay = trace::ViewReplay {
                nodes: inp.loaded.node_count(),
                load: &inp.load,
                standing: &inp.standing,
                batches: &acked[..traced_commits],
                reads_after: &reads_after,
            };
            overhead = trace::view_passes(&mut tr, &replay, &inp.loaded)?;
        }
    }
    for e in &gate {
        eprintln!("gate FAILED: {e}");
    }
    eprintln!(
        "ops: {} of {} updates acked, {} of {} reads answered; {} failed, {} wrong",
        w.ack_ms.len(),
        inp.batches.len(),
        w.read_ms.len(),
        inp.reads.len(),
        w.failed,
        w.wrong
    );
    for e in w.errors.iter().take(8) {
        eprintln!("op failed: {e}");
    }

    let mut ack = w.ack_ms.clone();
    let mut fresh = w.fresh_ms();
    let mut reply: Vec<f64> = w.ack_ms.iter().chain(&w.read_ms).copied().collect();
    let p50s: BTreeMap<&str, f64> = [
        ("ack", median(&mut ack)),
        ("fresh", median(&mut fresh)),
        ("reply", median(&mut reply)),
    ]
    .into();
    let mut late = w.late_ms.clone();
    let late_p99 = pct(&mut late, 0.99);
    let view_change_pct = if w.acked.is_empty() {
        0.0
    } else {
        100.0 * w.views.last_push.len() as f64 / w.acked.len() as f64
    };
    eprintln!(
        "window: {} acks, {} reads, {} fresh samples ({:.1}% of commits changed a view), {} resyncs, late p99 {:.3} ms, {:.2} s",
        w.ack_ms.len(),
        w.read_ms.len(),
        fresh.len(),
        view_change_pct,
        w.views.resyncs,
        late_p99,
        w.elapsed.as_secs_f64()
    );
    if late_p99 > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: generator p99 lateness {late_p99:.1} ms exceeds {LATE_LIMIT_MS} ms"
        ));
    }
    let e2e = {
        let mut m = Metrics::default();
        m.put("setup_s", median(&mut setup_s), "s");
        m.put("ack_p50_ms", p50s["ack"], "ms");
        m.put("ack_p90_ms", pct(&mut ack, 0.90), "ms");
        m.put("fresh_p50_ms", p50s["fresh"], "ms");
        m.put("fresh_p90_ms", pct(&mut fresh, 0.90), "ms");
        m.put("reply_p50_ms", p50s["reply"], "ms");
        m.put("reply_p90_ms", pct(&mut reply, 0.90), "ms");
        m.put(
            "server_cpu_ms_per_op",
            (cpu1 - cpu0) / done_ops.max(1.0),
            "ms",
        );
        m.put("peak_rss_mb", rss, "MiB");
        m
    };
    e2e.print_table(&format!("{} end to end (seed {})", a.spec.name, a.seed));
    let metrics = if a.trace {
        let result_kb = if w.read_ms.is_empty() {
            0.0
        } else {
            w.views.reply_bytes as f64 / 1024.0 / w.read_ms.len() as f64
        };
        let (layers, extra) = trace::layer_metrics(
            &tr,
            traced_commits,
            &p50s,
            overhead,
            late_p99,
            view_change_pct,
            result_kb,
        );
        layers.print_table(&format!(
            "{} per layer (traced replay of {traced_commits} commits)",
            a.spec.name
        ));
        extra.print_table(&format!("{} per layer, workload-specific", a.spec.name));
        let spans = work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-{}-seed{}.jsonl", a.spec.name, a.seed));
        tr.write_jsonl(&spans)
            .map_err(|e| format!("write spans: {e}"))?;
        eprintln!("spans written to {}", spans.display());
        layers
    } else {
        e2e
    };
    std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    Ok(Outcome {
        correct: gate.is_empty(),
        attempted: w.attempted,
        failed: w.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(o) => {
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if o.correct && o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) if e.starts_with("invalid run") => {
            eprintln!("svcbench: {e}");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::from(4)
        }
    }
}
