//! The traced run: the window's seeded inputs replayed in-process, with
//! spans recorded from the benchmark's side around calls into each
//! layer's public functions.
//!
//! Two replays run side by side, interleaved commit by commit:
//!
//! - a `Store` driven through its public calls (`apply_update_deferred`,
//!   `notify_queries`, `query`, `plan_view`), once with spans and once
//!   without — the difference is `trace.overhead_pct`;
//! - a *shadow pipeline* of the same ΔG through the layers underneath:
//!   `graph` (`apply_validated`), `service::dedup` and `durable::Wal`
//!   (durable workloads), `algos` (one guarded update per class state or
//!   standing query) and `dataflow` (one tick per plan). Its per-commit
//!   sums are checked against `service.commit` / `service.notify`, so
//!   time no layer accounts for shows up as a number.
//!
//! Spans stay in memory and are written out as JSON lines at the end.

use crate::conn::update_msg;
use crate::inputs::Standing;
use crate::stats::{mean, median, pct, Metrics};
use incgraph_algos::{update_with, ExecOptions, IncrementalState, QueryClass, Session};
use incgraph_core::BoundednessReport;
use incgraph_dataflow::{DataflowSession, PlanContext};
use incgraph_durable::crc::crc32;
use incgraph_durable::{encode_record, DurableOptions, DurableSession, Wal};
use incgraph_graph::io::read_graph;
use incgraph_graph::{AppliedBatch, DynamicGraph, UpdateBatch};
use incgraph_service::client::parse_reply;
use incgraph_service::protocol::{format_view_rows, parse_update_line};
use incgraph_service::{DedupLog, Outbound, Reply, Store, StoreLimits};
use incgraph_workloads::random_pattern;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commit id of spans outside any commit (set-up, checkpoint).
pub const NO_COMMIT: u64 = u64::MAX;

pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub commit: u64,
}

/// In-memory span recorder. When off, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub commit: u64,
    /// `(name, commit, value)` counts recorded at the same boundaries.
    counts: Vec<(String, u64, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            commit: NO_COMMIT,
            counts: Vec::new(),
        }
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            commit: self.commit,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        r
    }

    pub fn count(&mut self, name: &str, v: f64) {
        if self.on {
            self.counts.push((name.to_string(), self.commit, v));
        }
    }

    /// Self time of every span (ms): its duration minus the part of it
    /// its children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(dur_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= dur_ms(s);
            }
        }
        own
    }

    /// Per-commit totals (ms) of spans whose name matches, over commits
    /// `0..commits`; commits without such a span count 0.
    pub fn per_commit(&self, commits: usize, matches: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut v = vec![0.0; commits];
        for s in &self.spans {
            if (s.commit as usize) < commits && matches(&s.name) {
                v[s.commit as usize] += dur_ms(s);
            }
        }
        v
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(dur_ms)
            .collect()
    }

    /// Values of count `name` recorded in commits `0..commits` or
    /// outside any commit.
    pub fn values(&self, name: &str, commits: usize) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name && (c.1 == NO_COMMIT || (c.1 as usize) < commits))
            .map(|c| c.2)
            .collect()
    }

    /// Writes every span (with its self time) and count as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        let own = self.self_ms();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;
        let commit = |c: u64| {
            if c == NO_COMMIT {
                "null".to_string()
            } else {
                c.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"type\": \"span\", \"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"parent\": {}, \"commit\": {}}}",
                s.name,
                us(s.start),
                us(s.end),
                own[i] * 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                commit(s.commit)
            )?;
        }
        for (name, c, v) in &self.counts {
            writeln!(
                f,
                "{{\"type\": \"count\", \"name\": \"{name}\", \"commit\": {}, \"value\": {v}}}",
                commit(*c)
            )?;
        }
        f.flush()
    }
}

fn dur_ms(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64() * 1e3
}

/// Records a guarded update's report under its class.
fn record_report(tr: &mut Tracer, class: &str, r: &BoundednessReport) {
    tr.count(
        &format!("algos.{class}.inspected_vars"),
        r.inspected_vars as f64,
    );
    tr.count(
        &format!("algos.{class}.changed_vars"),
        r.changed_vars as f64,
    );
    tr.count(&format!("algos.{class}.total_vars"), r.total_vars as f64);
    tr.count(
        &format!("algos.{class}.fallbacks"),
        r.fell_back() as u8 as f64,
    );
    tr.count(&format!("core.{class}.evals"), r.run_stats.evals as f64);
    tr.count(
        &format!("core.{class}.stale_pops"),
        r.run_stats.stale_pops as f64,
    );
    tr.count(
        &format!("core.{class}.scope_evals"),
        r.scope_stats.evals as f64,
    );
    tr.count("algos.updates", 1.0);
}

/// Formats and parses the `UPDATE` request and its `ACK` the way the
/// client and server do, inside spans.
fn wire_update(tr: &mut Tracer, graph: &str, client_seq: u64, wal_seq: u64, b: &UpdateBatch) {
    let msg = tr.span("protocol.format.update", |_| {
        update_msg(graph, client_seq, b)
    });
    tr.span("protocol.parse.update", |_| {
        let mut parsed = UpdateBatch::new();
        for line in msg.lines().skip(1) {
            parse_update_line(line, &mut parsed).expect("the benchmark's own UPDATE parses");
        }
        std::hint::black_box(parsed);
    });
    let ack = tr.span("protocol.format.update", |_| {
        format!("ACK {client_seq} {wal_seq} {}", b.len())
    });
    tr.span("protocol.parse.update", |_| {
        std::hint::black_box(parse_reply(&ack).expect("ACK parses"));
    });
}

fn build_session(
    class: QueryClass,
    source: u32,
    pattern_graph: &DynamicGraph,
    pattern_seed: u64,
    g: &DynamicGraph,
) -> Session {
    let mut b = Session::builder(class);
    if class.source_rooted() {
        b = b.source(source);
    }
    if class == QueryClass::Sim {
        b = b.pattern(random_pattern(pattern_graph, 4, 6, pattern_seed));
    }
    b.build(g).expect("benchmark queries are valid")
}

/// What the durable shadow pipeline leaves behind.
pub struct DurableShadow {
    /// Per-class `(name, crc32(essence))` after every batch.
    pub digests: Vec<(String, u32)>,
    /// The graph and state essences before the first batch.
    pub genesis: DynamicGraph,
    pub essences: Vec<Vec<u8>>,
}

/// `durable-ingest`'s shadow pipeline over every acked batch. With the
/// tracer off it is the correctness reference: the per-class
/// `(name, crc32(essence))` after the batches, built exactly as
/// `incgraph checkpoint` builds a store's states (rooted at node 0, Sim
/// pattern from `pattern_seed`). Also returns the graph and essences at
/// genesis for [`durable_store_passes`].
pub fn durable_shadow(
    tr: &mut Tracer,
    graph_file: &Path,
    pattern_seed: u64,
    batches: &[UpdateBatch],
    scratch: &Path,
) -> Result<DurableShadow, String> {
    let mut g = tr.span("graph.load", |_| {
        let f = std::fs::File::open(graph_file).map_err(|e| e.to_string())?;
        read_graph(f, false).map_err(|e| e.to_string())
    })?;
    // Built as sessions (as `incgraph checkpoint` does), then run as the
    // bare class states a mounted store restores from their essences.
    let mut states: Vec<Box<dyn IncrementalState>> = QueryClass::ALL
        .into_iter()
        .map(|c| {
            let s = tr.span(&format!("algos.{}.batch", c.name()), |_| {
                build_session(c, 0, &g, pattern_seed, &g)
            });
            incgraph_algos::restore_state(&g, &s.save_state()).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let genesis = g.clone();
    let essences = states.iter().map(|s| s.save_state()).collect();
    let mut durable = if tr.on {
        let (dedup, _) = DedupLog::open(scratch, 0).map_err(|e| e.to_string())?;
        let wal = Wal::open(&scratch.join("shadow.wal")).map_err(|e| e.to_string())?;
        Some((dedup, wal.wal))
    } else {
        None
    };
    let exec = ExecOptions::default();
    for (k, b) in batches.iter().enumerate() {
        tr.commit = k as u64;
        let seq = k as u64 + 1;
        tr.span("shadow.commit", |tr| -> Result<(), String> {
            if tr.on {
                wire_update(tr, "g0", seq, seq, b);
            }
            let applied = tr
                .span("graph.apply", |_| b.apply_validated(&mut g))
                .map_err(|e| e.to_string())?;
            if let Some((dedup, wal)) = durable.as_mut() {
                tr.span("service.dedup_append", |_| dedup.append("w", seq, seq))
                    .map_err(|e| e.to_string())?;
                tr.span("durable.wal_append", |_| wal.append(seq, b, None))
                    .map_err(|e| e.to_string())?;
                tr.count("durable.wal_bytes", encode_record(seq, b).len() as f64);
            }
            for s in states.iter_mut() {
                let name = s.name();
                let rep = tr.span(&format!("algos.{name}.update"), |_| {
                    update_with(s.as_mut(), &g, &applied, &exec)
                });
                record_report(tr, name, &rep);
            }
            Ok(())
        })?;
    }
    tr.commit = NO_COMMIT;
    for s in &states {
        tr.count(
            &format!("algos.{}.space_bytes", s.name()),
            s.space_bytes() as f64,
        );
    }
    let digests = states
        .iter()
        .map(|s| (s.name().to_string(), crc32(&s.save_state())))
        .collect();
    Ok(DurableShadow {
        digests,
        genesis,
        essences,
    })
}

/// Replays `batches` through two durable `Store`s mounted from the same
/// genesis, one timed with spans and one without, interleaved. Returns
/// the tracing overhead in percent.
pub fn durable_store_passes(
    tr: &mut Tracer,
    genesis: DynamicGraph,
    essences: &[Vec<u8>],
    batches: &[UpdateBatch],
    scratch: &Path,
) -> Result<f64, String> {
    let mount = |tr: &mut Tracer, dir: &Path, traced: bool| -> Result<Store, String> {
        let states = essences
            .iter()
            .map(|e| incgraph_algos::restore_state(&genesis, e).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let g = genesis.clone();
        let mut quiet = Tracer::new(false);
        let t = if traced { &mut *tr } else { &mut quiet };
        let session = t
            .span("durable.create", |_| {
                DurableSession::create(dir, g, states, DurableOptions::default())
            })
            .map_err(|e| e.to_string())?;
        drop(session);
        t.span("durable.recover", |_| {
            Store::open_durable(
                dir,
                "g0",
                1,
                false,
                DurableOptions::default(),
                StoreLimits::default(),
            )
        })
        .map_err(|e| e.to_string())
    };
    let dir_t = scratch.join("traced");
    let dir_u = scratch.join("untraced");
    let mut traced = mount(tr, &dir_t, true)?;
    let mut plain = mount(tr, &dir_u, false)?;
    let (mut t_total, mut u_total) = (Duration::ZERO, Duration::ZERO);
    for (k, b) in batches.iter().enumerate() {
        tr.commit = k as u64;
        let seq = k as u64 + 1;
        let t = Instant::now();
        let (_, applied) = plain
            .apply_update_deferred("g0", "w", seq, b)
            .map_err(|e| format!("{e:?}"))?;
        plain.notify_queries("g0", &applied.into_iter().collect::<Vec<_>>());
        u_total += t.elapsed();
        let t = Instant::now();
        let (_, applied) = tr
            .span("service.commit", |_| {
                traced.apply_update_deferred("g0", "w", seq, b)
            })
            .map_err(|e| format!("{e:?}"))?;
        let applied: Vec<AppliedBatch> = applied.into_iter().collect();
        tr.span("service.notify", |_| traced.notify_queries("g0", &applied));
        t_total += t.elapsed();
    }
    tr.commit = NO_COMMIT;
    tr.span("durable.checkpoint", |_| traced.checkpoint_all());
    let ckpt_bytes: u64 = std::fs::read_dir(&dir_t)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    tr.count("durable.checkpoint_bytes", ckpt_bytes as f64);
    Ok(overhead_pct(t_total, u_total))
}

fn overhead_pct(traced: Duration, plain: Duration) -> f64 {
    (traced.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64() * 100.0
}

/// The in-memory view workloads' replay. `reads_after[k]` are the reads
/// scheduled between commit `k` and the next.
pub struct ViewReplay<'a> {
    pub nodes: usize,
    pub load: &'a [UpdateBatch],
    pub standing: &'a [(String, Standing)],
    pub batches: &'a [UpdateBatch],
    pub reads_after: &'a [Vec<String>],
}

struct MemStore {
    store: Store,
    out: Arc<Outbound>,
    seq: u64,
}

impl MemStore {
    /// Bulk-loads and registers every standing query, spans when traced.
    fn new(tr: &mut Tracer, r: &ViewReplay) -> Result<MemStore, String> {
        let mut store = Store::new(StoreLimits::default());
        let mut seq = 0;
        tr.span("graph.load", |_| -> Result<(), String> {
            store.open_graph("g0", r.nodes, false).map_err(|e| e.1)?;
            for b in r.load {
                seq += 1;
                store
                    .apply_update("g0", "w", seq, b)
                    .map_err(|e| format!("{e:?}"))?;
            }
            Ok(())
        })?;
        let out = Arc::new(Outbound::new(1 << 24, 1 << 24, 256));
        for (qid, q) in r.standing {
            match q {
                Standing::Class {
                    class,
                    source,
                    pattern_seed,
                } => tr.span(&format!("algos.{class}.batch"), |_| {
                    store.register(
                        1,
                        qid,
                        "g0",
                        class,
                        *source,
                        *pattern_seed,
                        Arc::clone(&out),
                    )
                }),
                Standing::Plan { text, pattern_seed } => tr.span("dataflow.build", |_| {
                    store.register_plan(1, qid, "g0", *pattern_seed, text, Arc::clone(&out))
                }),
            }
            .map_err(|e| format!("{qid}: {}", e.1))?;
        }
        while out.pop(Duration::ZERO).is_some() {}
        Ok(MemStore { store, out, seq })
    }

    /// One commit, its notify, the pushes it produced and the reads that
    /// follow it (scheduled ones plus re-queries after `resync`).
    fn step(&mut self, tr: &mut Tracer, b: &UpdateBatch, reads: &[String]) -> Result<(), String> {
        self.seq += 1;
        let seq = self.seq;
        let (_, applied) = tr
            .span("service.commit", |_| {
                self.store.apply_update_deferred("g0", "w", seq, b)
            })
            .map_err(|e| format!("{e:?}"))?;
        let applied: Vec<AppliedBatch> = applied.into_iter().collect();
        tr.span("service.notify", |_| {
            self.store.notify_queries("g0", &applied)
        });
        let mut requery = Vec::new();
        let (mut entries, mut resyncs, mut rows, mut changed) = (0usize, 0usize, 0usize, false);
        while let Some(msg) = self.out.pop(Duration::ZERO) {
            changed = true;
            let line = tr.span("protocol.format.push", |_| msg.render());
            match tr.span("protocol.parse.push", |_| parse_reply(&line)) {
                Ok(Reply::Delta(d)) => match d.changed {
                    Some(c) => entries += c.len(),
                    None => {
                        resyncs += 1;
                        requery.push(d.qid);
                    }
                },
                Ok(Reply::VDelta(v)) => rows += v.rows.len(),
                other => return Err(format!("unexpected push {other:?}")),
            }
        }
        tr.count("service.delta_entries", entries as f64);
        tr.count("service.resyncs", resyncs as f64);
        tr.count("service.vdelta_rows", rows as f64);
        tr.count("service.view_changed", changed as u8 as f64);
        for qid in reads.iter().chain(&requery) {
            let line = if qid.starts_with('p') {
                let (view, seq) = tr
                    .span("service.plan_view", |_| self.store.plan_view(1, qid))
                    .ok_or("plan vanished")?;
                tr.span("protocol.format.read", |_| {
                    format_view_rows("VIEW", qid, seq, &view)
                })
            } else {
                let (digest, seq) = tr
                    .span("service.query", |_| self.store.query(1, qid))
                    .ok_or("query vanished")?;
                tr.span("protocol.format.read", |_| {
                    let mut line = format!("RESULT {qid} {seq} {}", digest.len());
                    for v in &digest {
                        line.push(' ');
                        line.push_str(&v.to_string());
                    }
                    line
                })
            };
            tr.count("service.result_bytes", line.len() as f64);
            tr.span("protocol.parse.read", |_| {
                std::hint::black_box(parse_reply(&line).map_err(|e| e.to_string()))
            })?;
        }
        Ok(())
    }
}

/// `view-fanout` / `read-mix` replay: traced and untraced stores plus the
/// shadow sessions, interleaved per commit. Returns the overhead in
/// percent.
pub fn view_passes(tr: &mut Tracer, r: &ViewReplay, loaded: &DynamicGraph) -> Result<f64, String> {
    let mut traced = MemStore::new(tr, r)?;
    let mut plain = MemStore::new(&mut Tracer::new(false), r)?;
    // Shadow: the same standing queries as bare sessions on a graph copy.
    let mut g = loaded.clone();
    let mut classes: Vec<Session> = Vec::new();
    let mut plans: Vec<DataflowSession> = Vec::new();
    for (_, q) in r.standing {
        match q {
            Standing::Class {
                class,
                source,
                pattern_seed,
            } => {
                let c = QueryClass::from_name(class).ok_or("unknown class")?;
                classes.push(build_session(c, *source, loaded, *pattern_seed, &g));
            }
            Standing::Plan { text, pattern_seed } => {
                let ctx = PlanContext {
                    pattern: Some(random_pattern(loaded, 4, 6, *pattern_seed)),
                    threads: 0,
                };
                plans.push(DataflowSession::from_text(text, &g, &ctx).map_err(|e| e.to_string())?);
            }
        }
    }
    let first_seq = r.load.len() as u64 + 1;
    let (mut t_total, mut u_total) = (Duration::ZERO, Duration::ZERO);
    for (k, b) in r.batches.iter().enumerate() {
        tr.commit = k as u64;
        let seq = first_seq + k as u64;
        tr.span("shadow.commit", |tr| -> Result<(), String> {
            wire_update(tr, "g0", seq, seq, b);
            let applied = tr
                .span("graph.apply", |_| b.apply_validated(&mut g))
                .map_err(|e| e.to_string())?;
            let mut changes = 0;
            for s in classes.iter_mut() {
                let name = s.class().name();
                let tracked = tr.span(&format!("algos.{name}.update"), |_| {
                    s.update_guarded(&g, &applied)
                });
                record_report(tr, name, &tracked.report);
                changes += tracked.delta.changes.len();
            }
            tr.count("algos.delta_changes", changes as f64);
            for p in plans.iter_mut() {
                let rows = tr.span("dataflow.tick", |_| p.apply(&g, &applied));
                tr.count("dataflow.rows", rows.len() as f64);
            }
            Ok(())
        })?;
        let reads = &r.reads_after[k];
        let t = Instant::now();
        plain.step(&mut Tracer::new(false), b, reads)?;
        u_total += t.elapsed();
        let t = Instant::now();
        traced.step(tr, b, reads)?;
        t_total += t.elapsed();
    }
    tr.commit = NO_COMMIT;
    for s in &classes {
        tr.count(
            &format!("algos.{}.space_bytes", s.class().name()),
            s.space_bytes() as f64,
        );
    }
    Ok(overhead_pct(t_total, u_total))
}

/// Per-layer metrics from a finished trace. `e2e` holds this run's
/// wire-side p50s (`ack`, `fresh`, `reply`) for the residuals; `commits`
/// is how many commits the replay covered.
pub fn layer_metrics(
    tr: &Tracer,
    commits: usize,
    e2e: &BTreeMap<&str, f64>,
    overhead: f64,
    late_p99: f64,
    view_change_pct: f64,
    result_kb: f64,
) -> (Metrics, Metrics) {
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    let per = |f: &dyn Fn(&str) -> bool| tr.per_commit(commits, f);
    let p50 = |mut v: Vec<f64>| median(&mut v);
    let p99 = |mut v: Vec<f64>| pct(&mut v, 0.99);
    let one = |name: &str| tr.durations(name).first().copied().unwrap_or(0.0);
    let per_call_p50 = |name: &str| {
        let mut d = tr.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&mut d)
        }
    };
    let vals = |name: &str| tr.values(name, commits);
    let commit = per(&|n| n == "service.commit");
    let notify = per(&|n| n == "service.notify");
    let fmt = per(&|n| n.starts_with("protocol.format."));
    let parse = per(&|n| n.starts_with("protocol.parse."));
    let fmt_update = per(&|n| n == "protocol.format.update" || n == "protocol.parse.update");
    let push_proto = per(&|n| n == "protocol.format.push" || n == "protocol.parse.push");
    m.put("graph.apply_ms", p50(per(&|n| n == "graph.apply")), "ms");
    m.put("graph.load_s", one("graph.load") / 1e3, "s");
    m.put("service.commit_ms", p50(commit.clone()), "ms");
    m.put("service.commit_p99_ms", p99(commit.clone()), "ms");
    m.put("service.notify_ms", p50(notify.clone()), "ms");
    m.put("service.notify_p99_ms", p99(notify.clone()), "ms");
    m.put("protocol.format_ms", p50(fmt), "ms");
    m.put("protocol.parse_ms", p50(parse), "ms");
    for c in ["sssp", "cc", "sim", "reach", "lcc", "dfs", "bc"] {
        let upd = per(&|n| n == format!("algos.{c}.update"));
        // dfs and bc run only on the durable workload: their times go to
        // the breakdown table, never to the result line as a constant 0.
        let times = if matches!(c, "dfs" | "bc") {
            &mut extra
        } else {
            &mut m
        };
        times.put(format!("algos.{c}.update_ms"), p50(upd.clone()), "ms");
        times.put(format!("algos.{c}.update_p99_ms"), p99(upd), "ms");
        times.put(
            format!("algos.{c}.batch_ms"),
            per_call_p50(&format!("algos.{c}.batch")),
            "ms",
        );
        let inspected = mean(&vals(&format!("algos.{c}.inspected_vars")));
        let total = mean(&vals(&format!("algos.{c}.total_vars")));
        m.put(format!("algos.{c}.inspected_vars"), inspected, "count");
        m.put(
            format!("algos.{c}.changed_vars"),
            mean(&vals(&format!("algos.{c}.changed_vars"))),
            "count",
        );
        m.put(format!("algos.{c}.total_vars"), total, "count");
        m.put(
            format!("algos.{c}.aff_frac"),
            if total > 0.0 { inspected / total } else { 0.0 },
            "ratio",
        );
        m.put(
            format!("algos.{c}.fallbacks"),
            0.0 + vals(&format!("algos.{c}.fallbacks")).iter().sum::<f64>(),
            "count",
        );
        m.put(
            format!("algos.{c}.space_mb"),
            (0.0 + vals(&format!("algos.{c}.space_bytes")).iter().sum::<f64>()) / (1 << 20) as f64,
            "MiB",
        );
        if !matches!(c, "dfs" | "bc") {
            m.put(
                format!("core.{c}.evals"),
                mean(&vals(&format!("core.{c}.evals"))),
                "count",
            );
            m.put(
                format!("core.{c}.stale_pops"),
                mean(&vals(&format!("core.{c}.stale_pops"))),
                "count",
            );
            m.put(
                format!("core.{c}.scope_evals"),
                mean(&vals(&format!("core.{c}.scope_evals"))),
                "count",
            );
        }
    }
    let n = commits.max(1) as f64;
    m.put(
        "algos.updates_per_commit",
        vals("algos.updates").len() as f64 / n,
        "count",
    );
    m.put(
        "algos.delta_changes_per_commit",
        mean(&vals("algos.delta_changes")),
        "count",
    );
    m.put(
        "durable.wal_bytes_per_commit",
        mean(&vals("durable.wal_bytes")),
        "B",
    );
    m.put(
        "durable.checkpoint_mb",
        vals("durable.checkpoint_bytes")
            .first()
            .copied()
            .unwrap_or(0.0)
            / (1 << 20) as f64,
        "MiB",
    );
    m.put(
        "service.delta_entries_per_commit",
        mean(&vals("service.delta_entries")),
        "count",
    );
    m.put(
        "service.resyncs_per_commit",
        mean(&vals("service.resyncs")),
        "count",
    );
    m.put("service.result_kb", result_kb, "KiB");
    m.put("service.view_change_pct", view_change_pct, "%");
    m.put(
        "dataflow.rows_per_tick",
        mean(&vals("dataflow.rows")),
        "count",
    );

    // Closure: the shadow layers against the Store calls they make up.
    // On the durable path one commit is graph + intent + WAL + every
    // class update; in memory a commit is the graph apply and the class
    // updates and plan ticks run in notify.
    let durable = !tr.durations("durable.wal_append").is_empty();
    let class_update = |n: &str| n.starts_with("algos.") && n.ends_with(".update");
    let (sc, sn) = if durable {
        let path = per(&|n| {
            matches!(
                n,
                "graph.apply" | "service.dedup_append" | "durable.wal_append"
            ) || class_update(n)
        });
        (path, vec![0.0; commits])
    } else {
        (
            per(&|n| n == "graph.apply"),
            per(&|n| class_update(n) || n == "dataflow.tick"),
        )
    };
    m.put(
        "trace.commit_unattributed_ms",
        p50(commit.clone()) - p50(sc),
        "ms",
    );
    m.put(
        "trace.notify_unattributed_ms",
        p50(notify.clone()) - p50(sn),
        "ms",
    );

    // Residuals: the wire's p50s minus the traced in-process path.
    let ack_path = p50(commit.iter().zip(&fmt_update).map(|(a, b)| a + b).collect());
    let fresh_path = p50((0..commits)
        .map(|k| commit[k] + notify[k] + fmt_update[k] + push_proto[k])
        .collect());
    let mut reply_path: Vec<f64> = commit.iter().zip(&fmt_update).map(|(a, b)| a + b).collect();
    let reads = tr.read_paths();
    reply_path.extend(reads.iter().copied());
    m.put("wire.ack_unattributed_ms", e2e["ack"] - ack_path, "ms");
    m.put(
        "wire.fresh_unattributed_ms",
        e2e["fresh"] - if durable { ack_path } else { fresh_path },
        "ms",
    );
    m.put(
        "wire.reply_unattributed_ms",
        e2e["reply"] - p50(reply_path),
        "ms",
    );
    m.put("trace.overhead_pct", overhead, "%");
    m.put("gen.late_p99_ms", late_p99, "ms");

    // Layers a workload may not exercise at all: breakdown table only.
    extra.put(
        "service.dedup_append_ms",
        p50(per(&|n| n == "service.dedup_append")),
        "ms",
    );
    extra.put(
        "durable.wal_append_ms",
        p50(per(&|n| n == "durable.wal_append")),
        "ms",
    );
    extra.put("durable.create_s", one("durable.create") / 1e3, "s");
    extra.put("durable.recover_s", one("durable.recover") / 1e3, "s");
    extra.put("durable.checkpoint_ms", one("durable.checkpoint"), "ms");
    extra.put(
        "dataflow.tick_ms",
        p50(per(&|n| n == "dataflow.tick")),
        "ms",
    );
    extra.put("dataflow.build_ms", per_call_p50("dataflow.build"), "ms");
    extra.put("service.query_ms", per_call_p50("service.query"), "ms");
    extra.put(
        "service.plan_view_ms",
        per_call_p50("service.plan_view"),
        "ms",
    );
    extra.put("dataflow.view_ms", per_call_p50("service.plan_view"), "ms");
    (m, extra)
}

impl Tracer {
    /// In-process path of every read: store call + format + parse (ms).
    fn read_paths(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut cur = 0.0;
        for s in &self.spans {
            match s.name.as_str() {
                "service.query" | "service.plan_view" => cur = dur_ms(s),
                "protocol.format.read" => cur += dur_ms(s),
                "protocol.parse.read" => {
                    out.push(cur + dur_ms(s));
                    cur = 0.0;
                }
                _ => {}
            }
        }
        out
    }
}
