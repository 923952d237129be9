//! The open-loop window: one generator thread sends every op at its
//! scheduled time and collects the writer's `ACK`s while it waits; a
//! second thread owns the subscriber/reader connection, replays
//! `DELTA`/`VDELTA` pushes into local views, and times read replies.
//! Every latency runs from the op's *scheduled* send time, so a stall
//! also charges the ops queued behind it.

use crate::conn::{update_msg, Rx, Tx};
use incgraph_graph::UpdateBatch;
use incgraph_service::protocol::ViewRow;
use incgraph_service::Reply;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long stragglers may take after the last scheduled send.
const GRACE: Duration = Duration::from_secs(20);

/// A standing query's locally replayed output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum View {
    /// A class query's digest (`RESULT` / `DELTA`).
    Digest(Vec<u64>),
    /// A plan's weighted rows (`VIEW` / `VDELTA`).
    Rows(BTreeMap<(u64, u64), i64>),
}

impl View {
    pub fn from_rows(rows: &[ViewRow]) -> View {
        let mut m = BTreeMap::new();
        add_rows(&mut m, rows);
        View::Rows(m)
    }
}

fn add_rows(m: &mut BTreeMap<(u64, u64), i64>, rows: &[ViewRow]) {
    for &(k, v, w) in rows {
        let e = m.entry((k, v)).or_insert(0);
        *e += w;
        if *e == 0 {
            m.remove(&(k, v));
        }
    }
}

/// The subscriber's replayed views, plus the bookkeeping that turns
/// pushes into freshness samples.
#[derive(Default)]
pub struct Views {
    pub views: HashMap<String, View>,
    /// Views a `resync` invalidated; the next full read restores them.
    pub stale: HashSet<String>,
    /// wal-seq → when the last notification for that commit landed.
    pub last_push: HashMap<u64, Instant>,
    pub resyncs: u64,
    /// Bytes of `RESULT`/`VIEW` lines parsed (read size).
    pub reply_bytes: u64,
}

impl Views {
    fn pushed(&mut self, seq: u64, at: Instant) {
        let e = self.last_push.entry(seq).or_insert(at);
        *e = (*e).max(at);
    }

    /// Applies one push.
    fn apply_push(&mut self, r: Reply, at: Instant) -> Result<(), String> {
        match r {
            Reply::Delta(d) => {
                self.pushed(d.wal_seq, at);
                match d.changed {
                    Some(changed) => {
                        if self.stale.contains(&d.qid) {
                            return Ok(());
                        }
                        let Some(View::Digest(digest)) = self.views.get_mut(&d.qid) else {
                            return Err(format!("DELTA for unknown query {}", d.qid));
                        };
                        for (i, v) in changed {
                            *digest.get_mut(i as usize).ok_or_else(|| {
                                format!("DELTA index {i} past digest of {}", d.qid)
                            })? = v;
                        }
                        Ok(())
                    }
                    None => {
                        self.resyncs += 1;
                        self.stale.insert(d.qid);
                        Ok(())
                    }
                }
            }
            Reply::VDelta(v) => {
                self.pushed(v.wal_seq, at);
                let Some(View::Rows(m)) = self.views.get_mut(&v.qid) else {
                    return Err(format!("VDELTA for unknown plan {}", v.qid));
                };
                add_rows(m, &v.rows);
                Ok(())
            }
            other => Err(format!("not a push: {other:?}")),
        }
    }

    /// Folds a full `RESULT`/`VIEW` for `qid` into the replay. Returns
    /// whether it agreed with the replayed view (a view a `resync`
    /// invalidated agrees with anything, and is restored by it).
    fn adopt(&mut self, qid: &str, view: View) -> bool {
        let agrees = self.stale.remove(qid) || self.views.get(qid) == Some(&view);
        self.views.insert(qid.to_string(), view);
        agrees
    }
}

/// Parses a full-view reply into `(qid, view)`.
pub fn full_view(r: Reply) -> Result<(String, View), String> {
    match r {
        Reply::ResultDigest { qid, digest, .. } => Ok((qid, View::Digest(digest))),
        Reply::View(v) => Ok((v.qid, View::from_rows(&v.rows))),
        Reply::Err { code, detail } => Err(format!("ERR {code} {detail}")),
        Reply::Busy { .. } => Err("BUSY".into()),
        other => Err(format!("expected RESULT/VIEW, got {other:?}")),
    }
}

/// The read verb for a qid (`p*` ids are plans).
pub fn read_msg(qid: &str) -> String {
    if qid.starts_with('p') {
        format!("PLANQ {qid}\n")
    } else {
        format!("QUERY {qid}\n")
    }
}

/// The timed traffic of one window.
pub struct Traffic<'a> {
    pub graph: &'a str,
    pub nodes: usize,
    pub batches: &'a [UpdateBatch],
    /// Client sequence of `batches[0]`.
    pub first_seq: u64,
    /// Send offsets of the updates, seconds from the window start.
    pub update_at: &'a [f64],
    /// `(offset, qid)` reads on the subscriber connection.
    pub reads: &'a [(f64, String)],
}

/// What a window measured.
pub struct Window {
    pub ack_ms: Vec<f64>,
    /// Per update: `(wal_seq, ack time)` once acked.
    pub acked: Vec<Option<(u64, Instant)>>,
    pub update_sched: Vec<Instant>,
    pub read_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub errors: Vec<String>,
    pub views: Views,
    /// Wall time from the first scheduled send to the last reply.
    pub elapsed: Duration,
}

impl Window {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Records why an op failed without counting it: an update that
    /// gets `ERR`/`BUSY` is counted once, as never acked.
    fn note(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Freshness samples: scheduled `UPDATE` → the last notification its
    /// commit caused (never before its `ACK`), over commits that changed
    /// a view; with no views standing, every commit at its `ACK`.
    pub fn fresh_ms(&self) -> Vec<f64> {
        let changed = self.acked.iter().any(|a| {
            a.map(|(s, _)| self.views.last_push.contains_key(&s))
                .unwrap_or(false)
        });
        self.acked
            .iter()
            .zip(&self.update_sched)
            .filter_map(|(a, &sched)| {
                let (seq, ack) = (*a)?;
                let done = match self.views.last_push.get(&seq) {
                    Some(&p) => p.max(ack),
                    None if !changed => ack,
                    None => return None,
                };
                Some(done.duration_since(sched).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

enum Pending {
    Read { sched: Instant },
    Ping,
}

/// The subscriber/reader connection and its replayed views.
pub struct Sub {
    pub tx: Tx,
    pub rx: Rx,
    pub views: Views,
}

/// The subscriber connection's write half, shared by both threads so
/// requests and their expected replies are queued in one order.
struct SubTx<'a> {
    tx: &'a mut Tx,
    pending: VecDeque<Pending>,
}

impl SubTx<'_> {
    fn request(&mut self, msg: &str, p: Pending) -> Result<(), String> {
        self.pending.push_back(p);
        self.tx.send(msg).map_err(|e| format!("send: {e}"))
    }
}

/// Runs one window. `sub` is the subscriber/reader connection, when the
/// workload has one; its views move into the window, replayed to its end.
pub fn run(t: &Traffic, wtx: &mut Tx, wrx: &mut Rx, sub: Option<&mut Sub>) -> Window {
    let n = t.batches.len();
    let mut events: Vec<(f64, Option<usize>, usize)> = t
        .update_at
        .iter()
        .enumerate()
        .map(|(k, &at)| (at, None, k))
        .chain(
            t.reads
                .iter()
                .enumerate()
                .map(|(j, (at, _))| (*at, Some(j), j)),
        )
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut w = Window {
        ack_ms: Vec::with_capacity(n),
        acked: vec![None; n],
        update_sched: Vec::with_capacity(n),
        read_ms: Vec::new(),
        late_ms: Vec::with_capacity(events.len()),
        attempted: events.len() as u64,
        failed: 0,
        wrong: 0,
        errors: Vec::new(),
        views: Views::default(),
        elapsed: Duration::ZERO,
    };
    let (sub_tx, sub_rx, views) = match sub {
        Some(Sub { tx, rx, views }) => {
            let stx = Mutex::new(SubTx {
                tx,
                pending: VecDeque::new(),
            });
            (Some(stx), Some(rx), std::mem::take(views))
        }
        None => (None, None, Views::default()),
    };
    // Update messages are formatted before the clock starts.
    let msgs: Vec<String> = t
        .batches
        .iter()
        .enumerate()
        .map(|(k, b)| update_msg(t.graph, t.first_seq + k as u64, b))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    w.update_sched = t.update_at.iter().map(|&s| t0 + secs(s)).collect();

    let reader_out = std::thread::scope(|scope| {
        let reader = match (&sub_tx, sub_rx) {
            (Some(stx), Some(rx)) => Some(scope.spawn(move || sub_loop(rx, stx, views))),
            _ => None,
        };
        let mut acks_seen = 0usize;
        // Folds one writer line into the window; true for a reply to an
        // update (the writer session receives nothing else).
        let on_line = |w: &mut Window, line: String, at: Instant| -> bool {
            match incgraph_service::client::parse_reply(&line) {
                Ok(Reply::Ack(ack)) => {
                    let k = ack.client_seq.wrapping_sub(t.first_seq) as usize;
                    if k < n && w.acked[k].is_none() && !ack.dup {
                        w.acked[k] = Some((ack.wal_seq, at));
                        w.ack_ms.push(ms(at.duration_since(w.update_sched[k])));
                    } else {
                        w.note(format!("unexpected {line}"));
                    }
                    true
                }
                Ok(other) => {
                    w.note(format!("writer got {other:?}"));
                    true
                }
                Err(e) => {
                    w.fail(format!("writer: {e}"));
                    false
                }
            }
        };
        let mut io_err = None;
        'send: for &(at, read, idx) in &events {
            let due = t0 + secs(at);
            // Collect replies until the op is due.
            loop {
                match wrx.line_before(due) {
                    Ok(Some((line, when))) => acks_seen += on_line(&mut w, line, when) as usize,
                    Ok(None) => break,
                    Err(e) => {
                        io_err = Some(format!("writer read: {e}"));
                        break 'send;
                    }
                }
            }
            let now = Instant::now();
            w.late_ms.push(ms(now.saturating_duration_since(due)));
            let sent = match read {
                None => wtx.send(&msgs[idx]).map_err(|e| format!("send: {e}")),
                Some(j) => sub_tx
                    .as_ref()
                    .expect("reads need a subscriber connection")
                    .lock()
                    .expect("subscriber mutex poisoned")
                    .request(&read_msg(&t.reads[j].1), Pending::Read { sched: due }),
            };
            if let Err(e) = sent {
                io_err = Some(e);
                break;
            }
        }
        // Drain the writer: every ACK, then a barrier job through the
        // writer queue, which runs only after the last commit's notify.
        let deadline = Instant::now() + GRACE;
        if io_err.is_none() {
            while acks_seen < n {
                match wrx.line_before(deadline) {
                    Ok(Some((line, when))) => acks_seen += on_line(&mut w, line, when) as usize,
                    Ok(None) => break,
                    Err(e) => {
                        io_err = Some(format!("writer read: {e}"));
                        break;
                    }
                }
            }
        }
        let barrier = io_err.is_none()
            && wtx
                .send(&format!("GRAPH {} {} undirected\n", t.graph, t.nodes))
                .is_ok()
            && matches!(wrx.reply(GRACE, |_, _| {}), Ok(Reply::Ok(_)));
        if let Some(stx) = &sub_tx {
            let mut s = stx.lock().expect("subscriber mutex poisoned");
            if s.request("PING\n", Pending::Ping).is_err() {
                io_err.get_or_insert("subscriber PING failed".into());
            }
        }
        if !barrier {
            io_err.get_or_insert("writer barrier failed".into());
        }
        let out = reader.map(|h| h.join().expect("subscriber thread panicked"));
        (io_err, out)
    });
    let (io_err, sub_out) = reader_out;
    w.elapsed = Instant::now().saturating_duration_since(t0);
    for k in 0..n {
        if w.acked[k].is_none() {
            w.fail(format!("update {k} never acked"));
        }
    }
    if let Some(e) = io_err {
        w.fail(e);
    }
    if let Some(out) = sub_out {
        w.read_ms = out.read_ms;
        w.views = out.views;
        w.failed += out.failed;
        w.wrong += out.wrong;
        w.errors.extend(out.errors);
        // A read that got no usable reply; one answered wrongly is in `wrong`.
        w.failed += (t.reads.len() - w.read_ms.len()) as u64 + out.wrong;
    }
    w
}

struct SubOut {
    read_ms: Vec<f64>,
    views: Views,
    failed: u64,
    wrong: u64,
    errors: Vec<String>,
}

/// The subscriber thread: pushes and read replies until the end-of-window
/// `PONG` with nothing left in flight.
fn sub_loop(rx: &mut Rx, stx: &Mutex<SubTx>, mut views: Views) -> SubOut {
    let mut out = SubOut {
        read_ms: Vec::new(),
        views: Views::default(),
        failed: 0,
        wrong: 0,
        errors: Vec::new(),
    };
    let fail = |out: &mut SubOut, e: String| {
        out.failed += 1;
        if out.errors.len() < 8 {
            out.errors.push(e);
        }
    };
    let mut ponged = false;
    let mut deadline = Instant::now() + Duration::from_secs(3600);
    loop {
        if ponged
            && stx
                .lock()
                .expect("subscriber mutex poisoned")
                .pending
                .is_empty()
        {
            break;
        }
        let (line, at) = match rx.line_before(deadline) {
            Ok(Some(x)) => x,
            Ok(None) => {
                fail(&mut out, "subscriber timed out".into());
                break;
            }
            Err(e) => {
                fail(&mut out, format!("subscriber read: {e}"));
                break;
            }
        };
        let reply = match incgraph_service::client::parse_reply(&line) {
            Ok(r) => r,
            Err(e) => {
                fail(&mut out, format!("subscriber: {e}"));
                continue;
            }
        };
        match reply {
            r @ (Reply::Delta(_) | Reply::VDelta(_)) => {
                if let Err(e) = views.apply_push(r, at) {
                    fail(&mut out, e);
                }
            }
            reply => {
                let pending = stx
                    .lock()
                    .expect("subscriber mutex poisoned")
                    .pending
                    .pop_front();
                match (pending, reply) {
                    (Some(Pending::Ping), Reply::Pong) => {
                        ponged = true;
                        deadline = Instant::now() + GRACE;
                    }
                    (Some(Pending::Read { sched }), reply) => {
                        views.reply_bytes += line.len() as u64;
                        match full_view(reply) {
                            Ok((qid, view)) => {
                                out.read_ms.push(ms(at.saturating_duration_since(sched)));
                                if !views.adopt(&qid, view) {
                                    out.wrong += 1;
                                    out.errors.push(format!(
                                        "read of {qid} disagrees with the replayed pushes"
                                    ));
                                }
                            }
                            // Counted once, as a read without a reply.
                            Err(e) => out.errors.push(e),
                        }
                    }
                    (_, other) => fail(&mut out, format!("subscriber got unexpected {other:?}")),
                }
            }
        }
    }
    out.views = views;
    out
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
