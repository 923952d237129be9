//! Correctness gates, run after every timed window.

use crate::conn::{Rx, Tx};
use crate::drive::{full_view, read_msg, View, Views, Window};
use crate::inputs::Standing;
use incgraph_algos::{QueryClass, Session};
use incgraph_dataflow::{eval_once, PlanContext};
use incgraph_durable::crc::crc32;
use incgraph_durable::{recover, DurableOptions};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use incgraph_oracle::walcheck::{audit_wal, batch_fingerprint, AckedBatch};
use incgraph_workloads::random_pattern;
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

/// `durable-ingest`: the WAL holds every acked batch exactly once, and
/// recovering the store yields per-class digests equal to `reference`
/// (the in-process replay of the same batches).
pub fn durable(
    store: &Path,
    batches: &[UpdateBatch],
    w: &Window,
    reference: &[(String, u32)],
) -> Result<(), String> {
    let ledger: Vec<AckedBatch> = w
        .acked
        .iter()
        .zip(batches)
        .filter_map(|(a, b)| {
            a.map(|(seq, _)| AckedBatch {
                seq,
                fingerprint: batch_fingerprint(b),
            })
        })
        .collect();
    audit_wal(store, &ledger, 0).map_err(|e| format!("wal audit: {e}"))?;
    let (session, _) =
        recover(store, DurableOptions::default()).map_err(|e| format!("recover: {e}"))?;
    let recovered: Vec<(String, u32)> = session
        .states()
        .iter()
        .map(|s| (s.name().to_string(), crc32(&s.save_state())))
        .collect();
    if recovered != reference {
        return Err(format!(
            "recovered digests {recovered:x?} != replayed {reference:x?}"
        ));
    }
    Ok(())
}

/// `view-fanout` / `read-mix`: every replayed view equals the final
/// `QUERY`/`PLANQ`, and both equal a from-scratch build on the final
/// graph (identical queries are built once). A view whose last `DELTA`
/// was a `resync` has no replay; its final read must still equal the
/// from-scratch build.
pub fn views(
    tx: &mut Tx,
    rx: &mut Rx,
    standing: &[(String, Standing)],
    replayed: &Views,
    loaded: &DynamicGraph,
    last: &DynamicGraph,
) -> Result<usize, String> {
    let mut built: HashMap<Standing, View> = HashMap::new();
    for (qid, q) in standing {
        tx.send(&read_msg(qid)).map_err(|e| format!("send: {e}"))?;
        let (got_qid, served) = full_view(rx.reply(Duration::from_secs(30), |_, _| {})?)?;
        if &got_qid != qid {
            return Err(format!("asked {qid}, got {got_qid}"));
        }
        if !replayed.stale.contains(qid) && replayed.views.get(qid) != Some(&served) {
            return Err(format!("{qid}: replayed pushes differ from the final read"));
        }
        if !built.contains_key(q) {
            built.insert(q.clone(), from_scratch(q, loaded, last)?);
        }
        if built[q] != served {
            return Err(format!(
                "{qid}: served view differs from a from-scratch build"
            ));
        }
    }
    Ok(built.len())
}

/// The ground truth for one standing query on `last`. The Sim pattern
/// comes from the graph the query was registered on, like the server's.
fn from_scratch(q: &Standing, loaded: &DynamicGraph, last: &DynamicGraph) -> Result<View, String> {
    match q {
        Standing::Class {
            class,
            source,
            pattern_seed,
        } => {
            let c = QueryClass::from_name(class).ok_or("unknown class")?;
            let mut b = Session::builder(c);
            if c.source_rooted() {
                b = b.source(*source);
            }
            if c == QueryClass::Sim {
                b = b.pattern(random_pattern(loaded, 4, 6, *pattern_seed));
            }
            let s = b.build(last).map_err(|e| e.to_string())?;
            Ok(View::Digest(s.digest(last)))
        }
        Standing::Plan { text, pattern_seed } => {
            let ctx = PlanContext {
                pattern: Some(random_pattern(loaded, 4, 6, *pattern_seed)),
                threads: 0,
            };
            let rows = eval_once(text, last, &ctx).map_err(|e| e.to_string())?;
            Ok(View::from_rows(&rows))
        }
    }
}
