//! `incgraph stream`: sustained-stream SLO harness over a live durable
//! store with standing queries.
//!
//! Where the microbenches measure one-shot per-update cost, this harness
//! measures the *steady-state regime* the paper's boundedness results are
//! about: timestamped ΔGs arriving continuously at a target rate against
//! a WAL-durable store with standing queries over all seven classes. The
//! moving parts:
//!
//! * **Workload** — the Wiki-DE temporal stand-in
//!   ([`Dataset::temporal`]) on an *undirected* base (so the LCC/BC
//!   standing queries participate), replayed op by op on its
//!   generator-assigned admission ticks rescaled to a target mean
//!   ops/sec ([`rate_schedule`]).
//! * **Scheduler** — [`Scheduler`]: flush on size or deadline, drain at
//!   end of history, explicit backpressure ([`Scheduler::shift_tail`])
//!   when the consumer lags the schedule.
//! * **Store** — a [`DurableSession`] owning the standing states
//!   ([`standing_states`]); the WAL fsync is the ack point, and
//!   [`DurableOptions::micro_batch`] coalesces each flush's effective
//!   ops before propagation.
//! * **Latency** — each standing state is wrapped in a [`LatencyProbe`]
//!   recording per-class admission→completion nanoseconds into the obs
//!   log₂ histograms; p50/p99/p999 are read back from those histograms.
//! * **Oracles** — the run is checked, not just timed: the WAL is
//!   audited for exactly-once application of every acked flush
//!   ([`audit_wal`]) after any recovery *and* at end of run, and the
//!   final [`store_digest`] is a pure function of `(seed, schedule)` in
//!   virtual-time mode (pinned by `tests/stream_determinism.rs`).
//! * **RTO** — an optional injected kill ([`CrashPoint`]) mid-stream;
//!   recovery time (recover + re-apply of the in-flight flush when its
//!   fsync never landed) is measured and reported.
//!
//! Reports serialize to `results/STREAM_<date>.json` ([`to_json`]) with
//! a `--check-against` regression gate ([`stream_regressions`]) in the
//! spirit of the parbench gate: tail latency is compared as a *ratio*
//! to an in-run batch-recompute calibration, so one committed baseline
//! gates arbitrary CI hosts. docs/STREAMING.md specifies the SLO
//! definitions, the RTO methodology, and the JSON schema.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use incgraph_algos::IncrementalState;
use incgraph_core::audit::{AuditReport, FixpointAudit};
use incgraph_core::coalesce_batches;
use incgraph_core::engine::RunStats;
use incgraph_core::metrics::BoundednessReport;
use incgraph_durable::{recover, CrashPoint, DurableError, DurableOptions, DurableSession};
use incgraph_graph::{AppliedBatch, DynamicGraph, Update, UpdateBatch};
use incgraph_obs::Registry;
use incgraph_oracle::walcheck::{audit_wal, batch_fingerprint, AckedBatch, WalAuditFailure};
use incgraph_service::standing_states;
use incgraph_workloads::Dataset;

use crate::parbench::{field_num, field_str, fmt_ns, today_utc};
use crate::sched::{rate_schedule, FlushPolicy, Scheduler, Step};

/// Histogram name the latency probes record under (per-class scope).
pub const LATENCY_HIST: &str = "stream.latency_ns";

/// Injected kill: arm `point` on the first flush reaching `at_frac` of
/// the op stream, then recover and resume when it fires.
#[derive(Clone, Copy, Debug)]
pub struct StreamCrash {
    /// Where in the durability pipeline the kill fires.
    pub point: CrashPoint,
    /// Fraction of total ops replayed before arming (clamped so the arm
    /// always happens; checkpoint-path points still need a checkpoint to
    /// fire after arming).
    pub at_frac: f64,
}

/// Throughput-ceiling discovery: successive short real-time stages at
/// geometrically increasing rates until the deadline-miss rate exceeds
/// the threshold.
#[derive(Clone, Copy, Debug)]
pub struct RampConfig {
    /// Rate multiplier between stages.
    pub factor: f64,
    /// Maximum stages to attempt.
    pub stages: usize,
    /// A stage whose miss rate exceeds this ends the ramp.
    pub max_miss_rate: f64,
    /// Ops replayed per stage (a prefix of the history).
    pub ops_per_stage: usize,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            factor: 2.0,
            stages: 5,
            max_miss_rate: 0.05,
            ops_per_stage: 2_000,
        }
    }
}

/// Full harness configuration. [`StreamConfig::new`] supplies defaults
/// sized for a laptop smoke run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Durable store directory; must not already hold a live store.
    pub store: PathBuf,
    /// Sim-pattern seed for the standing queries (the workload topology
    /// keeps the dataset's own seed).
    pub seed: u64,
    /// Temporal windows to generate.
    pub windows: usize,
    /// Window size as percent of |G|.
    pub window_pct: f64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Target mean admission rate.
    pub rate_ops_s: f64,
    /// Flush when this many ops are pending.
    pub flush_ops: usize,
    /// Flush when the oldest pending op has waited this long.
    pub flush_wait_ms: f64,
    /// Per-op SLO: admission→completion beyond this is a deadline miss.
    pub deadline_ms: f64,
    /// Backpressure bound: when the consumer lags the next scheduled
    /// arrival by more than this, the unadmitted tail is pushed forward.
    pub max_lag_ms: f64,
    /// Deterministic virtual clock: no sleeping, scheduling decisions
    /// never read the wall clock, processing takes zero virtual time.
    pub virtual_time: bool,
    /// Automatic checkpoint cadence, in flushes.
    pub checkpoint_every: Option<u64>,
    /// Replay only the first N ops of the history.
    pub max_ops: Option<usize>,
    /// Optional injected kill + recovery measurement.
    pub crash: Option<StreamCrash>,
    /// Optional throughput-ceiling ramp (real-time stages).
    pub ramp: Option<RampConfig>,
}

impl StreamConfig {
    /// Smoke-sized defaults: three Wiki-DE windows at quarter scale,
    /// 20k ops/s, flush at 64 ops or 5 ms, 50 ms per-op SLO.
    pub fn new(store: PathBuf) -> Self {
        StreamConfig {
            store,
            seed: 0x0D15_EA5E,
            windows: 3,
            window_pct: 1.9,
            scale: 0.25,
            rate_ops_s: 20_000.0,
            flush_ops: 64,
            flush_wait_ms: 5.0,
            deadline_ms: 50.0,
            max_lag_ms: 200.0,
            virtual_time: false,
            checkpoint_every: Some(32),
            max_ops: None,
            crash: None,
            ramp: None,
        }
    }
}

/// Per-class steady-state latency stats, from the obs log₂ histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassStream {
    /// Class name (`sssp`, `cc`, …).
    pub class: String,
    /// Latency samples recorded (ops observed while probes were live).
    pub updates: u64,
    /// Median admission→completion latency.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Guarded updates that fell back to batch recompute.
    pub fallbacks: u64,
}

/// Everything one stream run measured and verified.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// UTC date the run finished.
    pub date: String,
    /// Sim-pattern seed.
    pub seed: u64,
    /// Whether the deterministic virtual clock drove scheduling.
    pub virtual_time: bool,
    /// Target mean rate.
    pub rate_ops_s: f64,
    /// Flush-size trigger.
    pub flush_ops: usize,
    /// Flush-wait trigger.
    pub flush_wait_ms: f64,
    /// Per-op SLO.
    pub deadline_ms: f64,
    /// Unit updates replayed (every one acked).
    pub ops_total: usize,
    /// Flushes applied — each exactly one WAL record.
    pub batches: usize,
    /// Effective ops cancelled by micro-batch coalescing, summed over
    /// flushes.
    pub coalesced_ops: usize,
    /// Ops whose admission→completion exceeded the SLO.
    pub deadline_misses: usize,
    /// `deadline_misses / ops_total`.
    pub miss_rate: f64,
    /// Times the backpressure rule pushed the schedule forward.
    pub backpressure_events: usize,
    /// Total schedule delay injected by backpressure.
    pub backpressure_shift_ms: f64,
    /// Highest ramp-stage rate whose miss rate stayed under the
    /// threshold (`None`: ramp disabled, or the first stage already
    /// missed).
    pub throughput_ceiling_ops_s: Option<f64>,
    /// Measured recovery time after the injected kill.
    pub rto_ms: Option<f64>,
    /// Name of the injected crash point.
    pub crash_point: Option<String>,
    /// WAL records incrementally replayed during recovery.
    pub recovered_replayed: Option<usize>,
    /// Committed-but-unacked WAL records observed at the post-crash
    /// audit (the in-flight flush whose fsync landed but whose ack never
    /// returned; adopted into the ledger afterwards).
    pub committed_unacked: usize,
    /// CRC-32 over the final graph and every standing essence, `%08x`.
    /// A pure function of `(seed, schedule)` in virtual time.
    pub digest: String,
    /// Min wall time of one full standing-query rebuild (batch
    /// recompute of every class) on the final graph — the host-speed
    /// calibration the regression gate divides by.
    pub calib_batch_ns: f64,
    /// Per-class latency stats.
    pub classes: Vec<ClassStream>,
    /// Wall time of the whole run.
    pub wall_ms: f64,
}

/// Harness-level failure.
#[derive(Debug)]
pub enum StreamError {
    /// Bad configuration.
    Config(String),
    /// The durable layer failed (or refused the store directory).
    Durable(DurableError),
    /// The exactly-once WAL audit failed — the run is *incorrect*, not
    /// merely slow.
    Audit(WalAuditFailure),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(m) => write!(f, "stream config: {m}"),
            StreamError::Durable(e) => write!(f, "stream durable: {e}"),
            StreamError::Audit(e) => write!(f, "stream audit: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DurableError> for StreamError {
    fn from(e: DurableError) -> Self {
        StreamError::Durable(e)
    }
}

impl From<WalAuditFailure> for StreamError {
    fn from(e: WalAuditFailure) -> Self {
        StreamError::Audit(e)
    }
}

// ---------------------------------------------------------------------
// Latency probes
// ---------------------------------------------------------------------

/// Shared probe context: the stream epoch (rebased to the instant the
/// replay loop starts, so store setup never counts as lateness) and the
/// admission instants of the flush currently being applied.
struct ProbeShared {
    epoch: Mutex<Instant>,
    admissions: Mutex<Vec<u64>>,
}

impl ProbeShared {
    fn now_ns(&self) -> u64 {
        self.epoch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .elapsed()
            .as_nanos() as u64
    }
}

/// Transparent [`IncrementalState`] wrapper: byte-identical behaviour to
/// the wrapped state (essence, name, checkpoints), plus it records each
/// op's admission→completion latency into the class's obs histogram the
/// moment *this class's* incremental update finishes. Classes update
/// sequentially inside [`DurableSession::apply`], so each class's
/// latency honestly includes the WAL fsync and every class ahead of it —
/// the freshness a standing-query subscriber of that class observes.
struct LatencyProbe {
    inner: Box<dyn IncrementalState>,
    shared: Arc<ProbeShared>,
}

impl IncrementalState for LatencyProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn total_vars(&self, g: &DynamicGraph) -> usize {
        self.inner.total_vars(g)
    }

    fn update(&mut self, g: &DynamicGraph, applied: &AppliedBatch) -> BoundednessReport {
        let report = self.inner.update(g, applied);
        if incgraph_obs::enabled() {
            let done = self.shared.now_ns();
            let _class = incgraph_obs::class_scope(self.inner.name());
            let admissions = self
                .shared
                .admissions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for &at in admissions.iter() {
                incgraph_obs::observe(LATENCY_HIST, done.saturating_sub(at));
            }
        }
        report
    }

    fn recompute(&mut self, g: &DynamicGraph) -> RunStats {
        self.inner.recompute(g)
    }

    fn audit(&self, g: &DynamicGraph, audit: &FixpointAudit) -> AuditReport {
        self.inner.audit(g, audit)
    }

    fn set_work_budget(&mut self, budget: Option<u64>) {
        self.inner.set_work_budget(budget);
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn load_state(
        &mut self,
        g: &DynamicGraph,
        bytes: &[u8],
    ) -> Result<(), incgraph_algos::StateLoadError> {
        self.inner.load_state(g, bytes)
    }
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

/// Scheduling clock: virtual (jumps exactly where the scheduler asks,
/// processing is instantaneous) or real (wall clock, sleep+spin waits).
enum Clock {
    Virtual { now: u64 },
    Real { epoch: Instant },
}

impl Clock {
    fn now(&self) -> u64 {
        match self {
            Clock::Virtual { now } => *now,
            Clock::Real { epoch } => epoch.elapsed().as_nanos() as u64,
        }
    }

    fn advance_to(&mut self, target: u64) {
        match self {
            Clock::Virtual { now } => *now = target.max(*now),
            Clock::Real { epoch } => loop {
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= target {
                    break;
                }
                let left = target - now;
                // Coarse sleep to within ~300µs of the target, then spin
                // for precision; low rates stay cheap on CPU.
                if left > 500_000 {
                    std::thread::sleep(std::time::Duration::from_nanos(left - 300_000));
                } else {
                    std::hint::spin_loop();
                }
            },
        }
    }
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6) as u64
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

/// Runs one sustained-stream replay per `cfg`. Pass the CLI's installed
/// `--metrics` registry to have latencies land there (and in the
/// exported metrics file); with `None` a run-local registry is installed
/// for the duration and uninstalled afterwards.
pub fn run_stream(
    cfg: &StreamConfig,
    registry: Option<Arc<Registry>>,
) -> Result<StreamReport, StreamError> {
    if let Some(c) = cfg.crash {
        if !(0.0..=1.0).contains(&c.at_frac) {
            return Err(StreamError::Config(
                "crash fraction must be in [0,1]".into(),
            ));
        }
    }
    if cfg.rate_ops_s <= 0.0 || !cfg.rate_ops_s.is_finite() {
        return Err(StreamError::Config("rate must be positive".into()));
    }
    if cfg.flush_ops == 0 {
        return Err(StreamError::Config("flush size must be positive".into()));
    }
    let wall_start = Instant::now();

    // Workload: undirected base so all seven classes register.
    let t = Dataset::WikiDe.temporal(false, cfg.windows, cfg.window_pct, cfg.scale);
    let mut ops: Vec<Update> = t
        .windows
        .iter()
        .flat_map(|w| w.updates().iter().copied())
        .collect();
    let mut ticks: Vec<u64> = t.timestamps.iter().flatten().copied().collect();
    debug_assert_eq!(ops.len(), ticks.len());
    if let Some(cap) = cfg.max_ops {
        ops.truncate(cap);
        ticks.truncate(cap);
    }
    if ops.is_empty() {
        return Err(StreamError::Config("empty op history".into()));
    }
    let total_ops = ops.len();
    let policy = FlushPolicy::new(cfg.flush_ops, ms_to_ns(cfg.flush_wait_ms));
    let mut sched = Scheduler::new(rate_schedule(&ticks, cfg.rate_ops_s), policy);

    // Store with the standing queries, each behind a latency probe.
    let shared = Arc::new(ProbeShared {
        epoch: Mutex::new(Instant::now()),
        admissions: Mutex::new(Vec::new()),
    });
    let states: Vec<Box<dyn IncrementalState>> = standing_states(&t.initial, cfg.seed)
        .into_iter()
        .map(|inner| {
            Box::new(LatencyProbe {
                inner,
                shared: shared.clone(),
            }) as Box<dyn IncrementalState>
        })
        .collect();
    let class_names: Vec<&'static str> = states.iter().map(|s| s.name()).collect();
    let durable_options = DurableOptions {
        checkpoint_every: cfg.checkpoint_every,
        micro_batch: true,
        ..DurableOptions::default()
    };
    let mut session = DurableSession::create(
        &cfg.store,
        t.initial.clone(),
        states,
        durable_options.clone(),
    )?;

    // Telemetry sink for the probes.
    let local_registry = match &registry {
        Some(r) => r.clone(),
        None => {
            let r = Arc::new(Registry::new());
            incgraph_obs::install(r.clone());
            r
        }
    };
    // On any error past this point the local install must be torn down.
    let cleanup = |registry_provided: bool| {
        if !registry_provided {
            incgraph_obs::uninstall();
        }
    };

    // Rebase the stream epoch now: standing-state construction and the
    // genesis checkpoint are setup, not lateness.
    let epoch = Instant::now();
    *shared.epoch.lock().unwrap_or_else(|e| e.into_inner()) = epoch;
    let mut clock = if cfg.virtual_time {
        Clock::Virtual { now: 0 }
    } else {
        Clock::Real { epoch }
    };
    let lag_ns = ms_to_ns(cfg.max_lag_ms);
    let deadline_ns = ms_to_ns(cfg.deadline_ms);

    // Shadow graph for coalescing accounting: replays each flush to
    // recover the effective AppliedBatch the session saw, then counts
    // what the micro-batch pass cancelled. Kept outside the latency
    // window (after miss accounting) so probes never pay for it.
    let mut shadow = t.initial.clone();

    let mut acked: Vec<AckedBatch> = Vec::new();
    let mut fallbacks: Vec<u64> = vec![0; class_names.len()];
    let mut batches = 0usize;
    let mut coalesced_ops = 0usize;
    let mut misses = 0usize;
    let mut backpressure_events = 0usize;
    let mut backpressure_shift_ns = 0u64;
    let mut pending_crash = cfg.crash;
    let mut rto_ns: Option<u64> = None;
    let mut recovered_replayed: Option<usize> = None;
    let mut committed_unacked = 0usize;

    loop {
        let step = sched.step(clock.now());
        let (start, end) = match step {
            Step::Done => break,
            Step::WaitUntil(at) => {
                clock.advance_to(at);
                continue;
            }
            Step::Flush { start, end, .. } => (start, end),
        };
        batches += 1;
        if let Some(c) = pending_crash {
            let fire_at = ((c.at_frac * total_ops as f64) as usize).min(total_ops - 1);
            if end > fire_at {
                session.arm_crash(Some(c.point));
                pending_crash = None;
            }
        }
        let batch = UpdateBatch::from_updates(ops[start..end].to_vec());
        let fingerprint = batch_fingerprint(&batch);
        {
            // Admission instants for the probes: the scheduled arrival in
            // real mode; "now" in virtual mode, where latency therefore
            // isolates pure processing cost.
            let mut adm = shared.admissions.lock().unwrap_or_else(|e| e.into_inner());
            adm.clear();
            match &clock {
                Clock::Real { .. } => adm.extend((start..end).map(|i| sched.arrival(i))),
                Clock::Virtual { .. } => {
                    let now = shared.now_ns();
                    adm.extend((start..end).map(|_| now));
                }
            }
        }
        match session.apply(&batch) {
            Ok(reports) => {
                acked.push(AckedBatch {
                    seq: session.last_seq(),
                    fingerprint,
                });
                for (i, r) in reports.iter().enumerate() {
                    fallbacks[i] += r.fell_back() as u64;
                }
            }
            Err(DurableError::InjectedCrash(_)) => {
                // The process "died" mid-flush: drop the session, recover
                // from disk, audit exactly-once, resume the stream.
                drop(session);
                let down = Instant::now();
                let (recovered, rec_report) = recover(&cfg.store, durable_options.clone())
                    .inspect_err(|_| cleanup(registry.is_some()))?;
                session = recovered;
                let audit = audit_wal(&cfg.store, &acked, 1)
                    .inspect_err(|_| cleanup(registry.is_some()))?;
                committed_unacked += audit.committed_unacked;
                let pre_crash_seq = acked.len() as u64;
                if session.last_seq() == pre_crash_seq + 1 {
                    // The in-flight flush's fsync landed before the kill:
                    // it is durable and recovery already replayed it into
                    // the states — adopt the ack, never re-apply.
                    acked.push(AckedBatch {
                        seq: pre_crash_seq + 1,
                        fingerprint,
                    });
                } else {
                    // Died before the commit point: the flush left no
                    // (complete) record — by design it was never acked —
                    // so re-apply it on the recovered session. Recovered
                    // states are bare (no probes), so nothing double-
                    // records latency.
                    match session.apply(&batch) {
                        Ok(_) => acked.push(AckedBatch {
                            seq: session.last_seq(),
                            fingerprint,
                        }),
                        Err(e) => {
                            cleanup(registry.is_some());
                            return Err(e.into());
                        }
                    }
                }
                rto_ns = Some(down.elapsed().as_nanos() as u64);
                recovered_replayed = Some(rec_report.wal_records_replayed);
                if let Clock::Real { .. } = clock {
                    // Downtime shifts the remaining schedule — the
                    // producer reconnects after the outage. Ops already
                    // admitted keep their arrivals and eat their misses.
                    sched.shift_tail(clock.now());
                }
            }
            Err(e) => {
                cleanup(registry.is_some());
                return Err(e.into());
            }
        }
        // Deadline-miss accounting at flush completion, against the
        // *original* schedule the ops were admitted under.
        let done = clock.now();
        for i in start..end {
            if done.saturating_sub(sched.arrival(i)) > deadline_ns {
                misses += 1;
            }
        }
        // Coalescing win: effective ops the micro-batch pass cancelled.
        let applied = batch.apply(&mut shadow);
        let net = coalesce_batches(shadow.is_directed(), std::iter::once(&applied));
        coalesced_ops += applied.len() - net.len();
        // Explicit backpressure: a consumer lagging the next scheduled
        // arrival beyond the bound throttles the producer instead of
        // letting the queue grow without limit.
        if let Clock::Real { .. } = clock {
            if sched.flushed() < total_ops {
                let now = clock.now();
                let next = sched.arrival(sched.flushed());
                if now > next.saturating_add(lag_ns) {
                    let shift = sched.shift_tail(now);
                    if shift > 0 {
                        backpressure_events += 1;
                        backpressure_shift_ns += shift;
                    }
                }
            }
        }
    }

    // End-of-run oracle: every acked flush exactly once, no strays.
    if let Err(e) = audit_wal(&cfg.store, &acked, 0) {
        cleanup(registry.is_some());
        return Err(e.into());
    }
    debug_assert_eq!(acked.len(), batches);

    // Per-class latency stats out of the obs histograms.
    let snapshot = local_registry.snapshot();
    cleanup(registry.is_some());
    let classes: Vec<ClassStream> = class_names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let hist = snapshot
                .hists
                .get(&((*name).to_string(), LATENCY_HIST.to_string()));
            let (updates, p50_ns, p99_ns, p999_ns, mean_ns) = match hist {
                Some(h) => (
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.mean(),
                ),
                None => (0, 0, 0, 0, 0.0),
            };
            ClassStream {
                class: (*name).to_string(),
                updates,
                p50_ns,
                p99_ns,
                p999_ns,
                mean_ns,
                fallbacks: fallbacks[i],
            }
        })
        .collect();

    // Throughput ceiling: short real-time stages at rising rates on
    // scratch stores, after the main run's telemetry is finalized (each
    // child installs and removes its own local registry).
    let mut throughput_ceiling_ops_s = None;
    if let Some(ramp) = cfg.ramp {
        let mut rate = cfg.rate_ops_s;
        for stage in 0..ramp.stages {
            let child = StreamConfig {
                store: cfg.store.join(format!("ramp-{stage}")),
                rate_ops_s: rate,
                max_ops: Some(ramp.ops_per_stage.max(cfg.flush_ops)),
                virtual_time: false,
                crash: None,
                ramp: None,
                ..cfg.clone()
            };
            let stage_report = run_stream(&child, None)?;
            let _ = std::fs::remove_dir_all(&child.store);
            if stage_report.miss_rate > ramp.max_miss_rate {
                break;
            }
            throughput_ceiling_ops_s = Some(rate);
            rate *= ramp.factor;
        }
        // The ramp children clobbered the global recorder; restore the
        // caller's registry if one was live.
        if let Some(r) = &registry {
            incgraph_obs::install(r.clone());
        }
    }

    // Host-speed calibration: min wall time of a full standing-query
    // rebuild (batch recompute of every class) on the final graph.
    let calib_batch_ns = {
        let g = session.graph();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(standing_states(g, cfg.seed));
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    };

    Ok(StreamReport {
        date: today_utc(),
        seed: cfg.seed,
        virtual_time: cfg.virtual_time,
        rate_ops_s: cfg.rate_ops_s,
        flush_ops: cfg.flush_ops,
        flush_wait_ms: cfg.flush_wait_ms,
        deadline_ms: cfg.deadline_ms,
        ops_total: total_ops,
        batches,
        coalesced_ops,
        deadline_misses: misses,
        miss_rate: misses as f64 / total_ops as f64,
        backpressure_events,
        backpressure_shift_ms: backpressure_shift_ns as f64 / 1e6,
        throughput_ceiling_ops_s,
        rto_ms: rto_ns.map(|ns| ns as f64 / 1e6),
        crash_point: cfg.crash.map(|c| c.point.name().to_string()),
        recovered_replayed,
        committed_unacked,
        digest: store_digest(&session),
        calib_batch_ns,
        classes,
        wall_ms: wall_start.elapsed().as_nanos() as f64 / 1e6,
    })
}

/// CRC-32 over the store's observable essence: directedness, node
/// count, every edge (sorted), and each standing state's `save_state`
/// bytes in registration order. Byte-identical across same-seed
/// virtual-time runs and across kill/recover (the recovered states see
/// the identical applied-flush sequence). Since the replication PR this
/// is [`DurableSession::digest`] — the same figure primary and replica
/// exchange for divergence detection — re-exported here so the pinned
/// STREAM baselines and the wire protocol can never drift apart.
pub fn store_digest(session: &DurableSession) -> String {
    session.digest()
}

// ---------------------------------------------------------------------
// JSON + regression gate
// ---------------------------------------------------------------------

/// Serializes a report as the `STREAM_<date>.json` document (schema
/// `incgraph-stream/1`; one class object per line so the line-scanning
/// baseline parser works, like the BENCH_*.json documents).
pub fn to_json(r: &StreamReport) -> String {
    let opt_num = |x: Option<f64>| match x {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "null".to_string(),
    };
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"schema\": \"incgraph-stream/1\",");
    let _ = writeln!(j, "  \"date\": \"{}\",", r.date);
    let _ = writeln!(j, "  \"seed\": {},", r.seed);
    let _ = writeln!(j, "  \"virtual_time\": {},", r.virtual_time);
    let _ = writeln!(j, "  \"rate_ops_s\": {:.1},", r.rate_ops_s);
    let _ = writeln!(j, "  \"flush_ops\": {},", r.flush_ops);
    let _ = writeln!(j, "  \"flush_wait_ms\": {:.3},", r.flush_wait_ms);
    let _ = writeln!(j, "  \"deadline_ms\": {:.3},", r.deadline_ms);
    let _ = writeln!(j, "  \"ops_total\": {},", r.ops_total);
    let _ = writeln!(j, "  \"batches\": {},", r.batches);
    let _ = writeln!(j, "  \"coalesced_ops\": {},", r.coalesced_ops);
    let _ = writeln!(j, "  \"deadline_misses\": {},", r.deadline_misses);
    let _ = writeln!(j, "  \"miss_rate\": {:.6},", r.miss_rate);
    let _ = writeln!(j, "  \"backpressure_events\": {},", r.backpressure_events);
    let _ = writeln!(
        j,
        "  \"backpressure_shift_ms\": {:.3},",
        r.backpressure_shift_ms
    );
    let _ = writeln!(
        j,
        "  \"throughput_ceiling_ops_s\": {},",
        opt_num(r.throughput_ceiling_ops_s)
    );
    let _ = writeln!(j, "  \"rto_ms\": {},", opt_num(r.rto_ms));
    let _ = writeln!(
        j,
        "  \"crash_point\": {},",
        match &r.crash_point {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(
        j,
        "  \"recovered_replayed\": {},",
        r.recovered_replayed
            .map_or_else(|| "null".to_string(), |n| n.to_string())
    );
    let _ = writeln!(j, "  \"committed_unacked\": {},", r.committed_unacked);
    let _ = writeln!(j, "  \"digest\": \"{}\",", r.digest);
    let _ = writeln!(j, "  \"calib_batch_ns\": {:.1},", r.calib_batch_ns);
    let _ = writeln!(j, "  \"wall_ms\": {:.3},", r.wall_ms);
    j.push_str("  \"classes\": [");
    for (i, c) in r.classes.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    {{ \"class\": \"{}\", \"updates\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"mean_ns\": {:.1}, \"fallbacks\": {} }}",
            c.class, c.updates, c.p50_ns, c.p99_ns, c.p999_ns, c.mean_ns, c.fallbacks
        );
    }
    j.push_str("\n  ]\n}\n");
    j
}

/// Gate rows parsed from a committed STREAM json.
struct StreamBaseline {
    ops_total: Option<f64>,
    batches: Option<f64>,
    miss_rate: Option<f64>,
    virtual_time: bool,
    calib_batch_ns: Option<f64>,
    /// `(class, p50_ns)` per class line.
    classes: Vec<(String, f64)>,
}

fn parse_stream_baseline(json: &str) -> StreamBaseline {
    let mut b = StreamBaseline {
        ops_total: None,
        batches: None,
        miss_rate: None,
        virtual_time: false,
        calib_batch_ns: None,
        classes: Vec::new(),
    };
    for line in json.lines() {
        if let Some(cls) = field_str(line, "\"class\": \"") {
            if let Some(p50) = field_num(line, "\"p50_ns\": ") {
                if !b.classes.iter().any(|(c, _)| c == cls) {
                    b.classes.push((cls.to_string(), p50));
                }
            }
            continue;
        }
        b.ops_total = b.ops_total.or_else(|| field_num(line, "\"ops_total\": "));
        b.batches = b.batches.or_else(|| field_num(line, "\"batches\": "));
        b.miss_rate = b.miss_rate.or_else(|| field_num(line, "\"miss_rate\": "));
        b.calib_batch_ns = b
            .calib_batch_ns
            .or_else(|| field_num(line, "\"calib_batch_ns\": "));
        if field_str(line, "\"virtual_time\": ").is_some_and(|v| v.trim() == "true") {
            b.virtual_time = true;
        }
    }
    b
}

/// Compares a fresh run against a committed STREAM baseline. Returns one
/// message per violated gate:
///
/// * **accounting** — when both runs are virtual-time, `ops_total` and
///   `batches` are pure functions of `(seed, rate, flush policy)`, so
///   any drift is a determinism regression (or a deliberate workload
///   change that must regenerate the baseline);
/// * **latency** — per class, `p50_ns / calib_batch_ns` against the
///   baseline's same ratio beyond `threshold` (0.5 = +50%). The rebuild
///   runs the same kernels on the same host, so the ratio cancels host
///   speed. The gate is on the *median* deliberately: per-op latency
///   includes the flush's WAL fsync, so a single disk hiccup lands in
///   p99 of every class (one slow batch holds the top ops of all of
///   them) — p99/p999 are reported for humans, but only a regression
///   broad enough to move the median fails CI. The log₂-histogram
///   quantization is why the default headroom is still wider than the
///   parbench gate's;
/// * **miss rate** — beyond baseline + 2 percentage points absolute.
pub fn stream_regressions(
    baseline_json: &str,
    report: &StreamReport,
    threshold: f64,
) -> Vec<String> {
    let base = parse_stream_baseline(baseline_json);
    let mut out = Vec::new();
    if base.virtual_time && report.virtual_time {
        if let Some(ops) = base.ops_total {
            if ops as usize != report.ops_total {
                out.push(format!(
                    "ops_total {} != baseline {} (virtual-time accounting must be exact)",
                    report.ops_total, ops as usize
                ));
            }
        }
        if let Some(batches) = base.batches {
            if batches as usize != report.batches {
                out.push(format!(
                    "batches {} != baseline {} (virtual-time flush partition must be exact)",
                    report.batches, batches as usize
                ));
            }
        }
    }
    if let Some(base_miss) = base.miss_rate {
        if report.miss_rate > base_miss + 0.02 {
            out.push(format!(
                "miss_rate {:.4} vs baseline {:.4} (+{:.2}pp, limit +2pp)",
                report.miss_rate,
                base_miss,
                (report.miss_rate - base_miss) * 100.0
            ));
        }
    }
    if let Some(base_calib) = base.calib_batch_ns.filter(|&c| c > 0.0) {
        if report.calib_batch_ns > 0.0 {
            for c in &report.classes {
                let Some((_, base_p50)) = base.classes.iter().find(|(n, _)| n == &c.class) else {
                    continue;
                };
                if *base_p50 <= 0.0 || c.p50_ns == 0 {
                    continue;
                }
                let base_ratio = base_p50 / base_calib;
                let ratio = c.p50_ns as f64 / report.calib_batch_ns;
                if ratio > base_ratio * (1.0 + threshold) {
                    out.push(format!(
                        "{}: p50/calib {:.5} vs baseline {:.5} (+{:.0}%, limit +{:.0}%)",
                        c.class,
                        ratio,
                        base_ratio,
                        (ratio / base_ratio - 1.0) * 100.0,
                        threshold * 100.0
                    ));
                }
            }
        }
    }
    out
}

/// Renders the human table printed after a run.
pub fn render_table(r: &StreamReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "stream: {} ops in {} batches @ {:.0} ops/s target ({}){}",
        r.ops_total,
        r.batches,
        r.rate_ops_s,
        if r.virtual_time {
            "virtual"
        } else {
            "real-time"
        },
        r.rto_ms
            .map_or_else(String::new, |ms| format!(", RTO {ms:.2} ms")),
    );
    let _ = writeln!(
        s,
        "deadline misses: {} ({:.3}%), coalesced: {} ops, backpressure: {} events / {:.1} ms",
        r.deadline_misses,
        r.miss_rate * 100.0,
        r.coalesced_ops,
        r.backpressure_events,
        r.backpressure_shift_ms
    );
    if let Some(c) = r.throughput_ceiling_ops_s {
        let _ = writeln!(s, "throughput ceiling: {c:.0} ops/s");
    }
    let _ = writeln!(s, "digest: {}", r.digest);
    let _ = writeln!(
        s,
        "{:<6} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "class", "updates", "p50", "p99", "p999", "fallbacks"
    );
    for c in &r.classes {
        let _ = writeln!(
            s,
            "{:<6} {:>9} {:>12} {:>12} {:>12} {:>10}",
            c.class,
            c.updates,
            fmt_ns(c.p50_ns as f64),
            fmt_ns(c.p99_ns as f64),
            fmt_ns(c.p999_ns as f64),
            c.fallbacks
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "incgraph-stream-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A tiny virtual-time config that finishes in well under a second.
    fn tiny(store: PathBuf) -> StreamConfig {
        let mut cfg = StreamConfig::new(store);
        cfg.scale = 0.05;
        cfg.virtual_time = true;
        cfg.flush_ops = 16;
        cfg.checkpoint_every = Some(4);
        cfg
    }

    /// Unit tests stay off the global obs recorder (parallel tests would
    /// race on it): passing a never-installed registry records nothing
    /// but keeps scheduling, digests, and audits fully live. The
    /// installed-recorder path is exercised single-threaded by
    /// tests/stream_determinism.rs and tests/stream_rto.rs.
    fn quiet_registry() -> Option<Arc<Registry>> {
        Some(Arc::new(Registry::new()))
    }

    #[test]
    fn virtual_replay_is_deterministic() {
        let (d1, d2) = (scratch("det-a"), scratch("det-b"));
        let a = run_stream(&tiny(d1.clone()), quiet_registry()).unwrap();
        let b = run_stream(&tiny(d2.clone()), quiet_registry()).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ops_total, b.ops_total);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.coalesced_ops, b.coalesced_ops);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert!(a.batches > 1, "partition should have several flushes");
        // Undirected base: all seven classes stand.
        assert_eq!(a.classes.len(), 7);
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    #[test]
    fn crash_and_recover_preserves_digest_and_exactly_once() {
        let clean_dir = scratch("crash-clean");
        let clean = run_stream(&tiny(clean_dir.clone()), quiet_registry()).unwrap();
        for point in [CrashPoint::WalPreFsync, CrashPoint::WalPostFsync] {
            let dir = scratch("crash");
            let mut cfg = tiny(dir.clone());
            cfg.crash = Some(StreamCrash {
                point,
                at_frac: 0.5,
            });
            let crashed = run_stream(&cfg, quiet_registry()).unwrap();
            assert!(crashed.rto_ms.is_some(), "{point:?} never fired");
            assert_eq!(
                crashed.digest, clean.digest,
                "{point:?}: kill+recover must converge to the clean digest"
            );
            assert_eq!(crashed.ops_total, clean.ops_total);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn json_roundtrip_gates_clean_against_itself() {
        let dir = scratch("json");
        let report = run_stream(&tiny(dir.clone()), quiet_registry()).unwrap();
        let json = to_json(&report);
        assert!(json.contains("\"schema\": \"incgraph-stream/1\""));
        assert!(stream_regressions(&json, &report, 0.5).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_catches_accounting_and_tail_drift() {
        let dir = scratch("gate");
        let report = run_stream(&tiny(dir.clone()), quiet_registry()).unwrap();
        let json = to_json(&report);

        let mut drifted = report.clone();
        drifted.ops_total += 1;
        drifted.batches += 2;
        let msgs = stream_regressions(&json, &drifted, 0.5);
        assert!(msgs.iter().any(|m| m.contains("ops_total")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("batches")), "{msgs:?}");

        let mut missy = report.clone();
        missy.miss_rate = report.miss_rate + 0.5;
        assert!(stream_regressions(&json, &missy, 0.5)
            .iter()
            .any(|m| m.contains("miss_rate")));

        // Latency gate needs nonzero histograms on both sides; synthesize.
        let mut base = report.clone();
        base.calib_batch_ns = 1_000_000.0;
        for c in &mut base.classes {
            c.p50_ns = 10_000;
        }
        let base_json = to_json(&base);
        let mut slow = base.clone();
        slow.classes[0].p50_ns = 100_000;
        let msgs = stream_regressions(&base_json, &slow, 0.5);
        assert!(
            msgs.iter().any(|m| m.contains(&slow.classes[0].class)),
            "{msgs:?}"
        );
        assert!(stream_regressions(&base_json, &base, 0.5).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = tiny(scratch("bad"));
        cfg.rate_ops_s = 0.0;
        assert!(matches!(
            run_stream(&cfg, quiet_registry()),
            Err(StreamError::Config(_))
        ));
        cfg.rate_ops_s = 100.0;
        cfg.max_ops = Some(0);
        assert!(matches!(
            run_stream(&cfg, quiet_registry()),
            Err(StreamError::Config(_))
        ));
    }
}
