//! Wall-clock profiling of the simulation engine itself.
//!
//! Everything else in this crate measures **sim-time** behavior of the
//! modeled pod; this module measures **wall-clock** behavior of the
//! simulator — where the host CPU actually goes while the sharded engine
//! grinds through epochs. It exists to diagnose the parallel engine's
//! synchronization tax (ROADMAP item 1): barrier waits, epoch granularity,
//! lookahead utilization, and which world pairs generate the cross-shard
//! traffic that forces the lookahead bound.
//!
//! Design constraints:
//!
//! - **Zero perturbation.** The profiler observes only the host clock and
//!   already-computed event counts; it never touches RNG state, event
//!   ordering, or telemetry. Digests must stay bit-identical with
//!   profiling on or off (golden-tested in `tests/determinism.rs`).
//! - **Off by default.** A [`Profiler`] is a cheap cloneable handle
//!   around `Option<Arc<..>>`; [`Profiler::off`] makes every probe a
//!   branch on `None`.
//! - **Lock-free accumulation.** Phase timings land in per-world slabs of
//!   relaxed [`AtomicU64`]s; the only mutexes guard per-thread slice
//!   buffers, each written by exactly one thread.
//!
//! Phase taxonomy (see DESIGN §12): [`Phase::Execute`] (running a world's
//! event loop), [`Phase::OutboxDrain`] (collecting cross-world sends),
//! [`Phase::BarrierWait`] (blocked on the epoch barrier or stalled while a
//! sibling world on the same thread runs), [`Phase::Merge`] (canonical
//! merge + delivery of cross-world batches), and [`Phase::IdleJump`]
//! (computing the next barrier, including idle-gap jumps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Histogram;

/// Number of engine phases tracked per world.
pub const PHASE_COUNT: usize = 5;

/// A wall-clock phase of the engine loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Running a world's event loop (`Sim::run_until`).
    Execute = 0,
    /// Draining a world's cross-shard outbox after execution.
    OutboxDrain = 1,
    /// Blocked on the epoch barrier (channel waits, dispatch), or stalled
    /// while a sibling world hosted on the same thread runs.
    BarrierWait = 2,
    /// Canonical merge of cross-world batches and their delivery.
    Merge = 3,
    /// Computing the next barrier, including idle-gap jumps.
    IdleJump = 4,
}

impl Phase {
    /// All phases, in slab order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Execute,
        Phase::OutboxDrain,
        Phase::BarrierWait,
        Phase::Merge,
        Phase::IdleJump,
    ];

    /// Stable snake_case name, used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::OutboxDrain => "outbox_drain",
            Phase::BarrierWait => "barrier_wait",
            Phase::Merge => "merge",
            Phase::IdleJump => "idle_jump",
        }
    }
}

/// Upper bound on shared-geometry histogram slots (covers values up to
/// ~2^29 with ≤1.6% error; larger values clamp into the last slot).
const HIST_SLOTS: usize = 1536;

/// Per-thread slice buffers stop growing past this many slices; the
/// overflow is counted in `dropped` so exports can say so.
pub const SLICE_CAP: usize = 20_000;

/// Lock-free histogram slab sharing [`Histogram`]'s bucket geometry.
struct AtomicHist {
    slots: Vec<AtomicU64>,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            slots: (0..HIST_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, v: u64) {
        let idx = (Histogram::bucket_index(v) as usize).min(HIST_SLOTS - 1);
        self.slots[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn fold(&self) -> Histogram {
        let mut h = Histogram::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let n = slot.load(Ordering::Relaxed);
            if n > 0 {
                h.record_n(Histogram::bucket_mid(idx as u64), n);
            }
        }
        h
    }
}

/// Per-world accumulation slab. All counters relaxed: each is summed
/// independently, and snapshots happen after the run quiesces.
struct WorldSlab {
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
    events: AtomicU64,
    epochs: AtomicU64,
    idle_epochs: AtomicU64,
    events_per_epoch: AtomicHist,
}

impl WorldSlab {
    fn new() -> Self {
        WorldSlab {
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            events: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            idle_epochs: AtomicU64::new(0),
            events_per_epoch: AtomicHist::new(),
        }
    }
}

/// One wall-clock slice for the Perfetto timeline.
#[derive(Debug, Clone, Copy)]
pub struct WallSlice {
    /// Which phase the thread was in.
    pub phase: Phase,
    /// World the slice is attributed to (`usize::MAX` for thread-level
    /// slices like barrier waits that span all hosted worlds).
    pub world: usize,
    /// Offset from profiler creation, nanoseconds.
    pub start_ns: u64,
    /// Slice duration, nanoseconds.
    pub dur_ns: u64,
}

/// Per-thread slice buffer (one Perfetto track).
struct TrackSlab {
    label: String,
    slices: Mutex<Vec<WallSlice>>,
    dropped: AtomicU64,
}

struct ProfInner {
    start: Instant,
    lookahead_ns: AtomicU64,
    epochs: AtomicU64,
    idle_jump_epochs: AtomicU64,
    sync_rounds: AtomicU64,
    advance_ns: AtomicU64,
    worlds: Vec<WorldSlab>,
    tracks: Mutex<Vec<Arc<TrackSlab>>>,
}

impl ProfInner {
    fn new(worlds: usize) -> Self {
        ProfInner {
            start: Instant::now(),
            lookahead_ns: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            idle_jump_epochs: AtomicU64::new(0),
            sync_rounds: AtomicU64::new(0),
            advance_ns: AtomicU64::new(0),
            worlds: (0..worlds).map(|_| WorldSlab::new()).collect(),
            tracks: Mutex::new(Vec::new()),
        }
    }
}

/// Cheap cloneable handle to the wall-clock profiler; `off()` handles are
/// inert and make every probe a branch on `None`.
///
/// The handle is `Send + Sync`: the coordinator, every worker thread, and
/// every world's network share clones of the same profiler.
#[derive(Clone)]
pub struct Profiler(Option<Arc<ProfInner>>);

impl Profiler {
    /// An inert profiler: every probe is a no-op, [`snapshot`](Self::snapshot)
    /// returns `None`.
    pub fn off() -> Self {
        Profiler(None)
    }

    /// An active profiler with `worlds` accumulation slabs.
    pub fn on(worlds: usize) -> Self {
        Profiler(Some(Arc::new(ProfInner::new(worlds))))
    }

    /// Whether probes are live (the handle is active).
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Records the engine's lookahead so snapshots can report lookahead
    /// utilization. Zero (the default) means "no lookahead" (classic path).
    pub fn set_lookahead(&self, lookahead: Duration) {
        if let Some(inner) = &self.0 {
            let ns = lookahead.as_nanos().min(u128::from(u64::MAX)) as u64;
            inner.lookahead_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// Reads the monotonic clock, or `None` when inert. Pair with
    /// [`lap`](Self::lap) to time a scope without branching at each site.
    pub fn tick(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Nanoseconds elapsed since `t` (0 for an inert tick).
    pub fn lap(&self, t: Option<Instant>) -> u64 {
        match t {
            Some(t) => saturating_ns(t.elapsed()),
            None => 0,
        }
    }

    /// Nanosecond offset of `t` from profiler creation (slice timestamps).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        match &self.0 {
            Some(inner) => saturating_ns(t.saturating_duration_since(inner.start)),
            None => 0,
        }
    }

    /// Accumulates `ns` of wall time in `world`'s `phase` slab (one call).
    pub fn phase(&self, world: usize, phase: Phase, ns: u64) {
        if let Some(inner) = &self.0 {
            if let Some(slab) = inner.worlds.get(world) {
                slab.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
                slab.phase_calls[phase as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one epoch's executed event count for `world`: feeds the
    /// events-per-epoch histogram and the idle-epoch counter.
    pub fn epoch_events(&self, world: usize, events: u64) {
        if let Some(inner) = &self.0 {
            if let Some(slab) = inner.worlds.get(world) {
                slab.events.fetch_add(events, Ordering::Relaxed);
                slab.epochs.fetch_add(1, Ordering::Relaxed);
                if events == 0 {
                    slab.idle_epochs.fetch_add(1, Ordering::Relaxed);
                }
                slab.events_per_epoch.record(events);
            }
        }
    }

    /// Records one coordinator epoch window: how far sim time advanced
    /// and whether the window was an *idle jump* — its start bound leapt
    /// more than one coalescing quantum past the previous floor, i.e. the
    /// scheduler skipped dead air instead of rolling through it.
    pub fn epoch(&self, advance: Duration, idle_jump: bool) {
        if let Some(inner) = &self.0 {
            inner.epochs.fetch_add(1, Ordering::Relaxed);
            inner
                .advance_ns
                .fetch_add(saturating_ns(advance), Ordering::Relaxed);
            if idle_jump {
                inner.idle_jump_epochs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records inner synchronization rounds executed during one epoch
    /// window (the adaptive coordinator runs several fixpoint rounds per
    /// window; the classic engine records none).
    pub fn add_sync_rounds(&self, n: u64) {
        if let Some(inner) = &self.0 {
            inner.sync_rounds.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Registers a Perfetto track for the calling thread. Each engine
    /// thread (coordinator + one per shard) registers exactly one.
    pub fn register_track(&self, label: impl Into<String>) -> ProfTrack {
        match &self.0 {
            Some(inner) => {
                let slab = Arc::new(TrackSlab {
                    label: label.into(),
                    slices: Mutex::new(Vec::new()),
                    dropped: AtomicU64::new(0),
                });
                inner.tracks.lock().unwrap().push(Arc::clone(&slab));
                ProfTrack(Some(slab))
            }
            None => ProfTrack(None),
        }
    }

    /// Snapshots all slabs into plain data, or `None` when inert.
    /// Call after the run quiesces (no worker mid-epoch).
    pub fn snapshot(&self) -> Option<ProfSnapshot> {
        let inner = self.0.as_ref()?;
        let worlds = inner
            .worlds
            .iter()
            .enumerate()
            .map(|(world, slab)| WorldProf {
                world,
                phase_ns: std::array::from_fn(|i| slab.phase_ns[i].load(Ordering::Relaxed)),
                phase_calls: std::array::from_fn(|i| slab.phase_calls[i].load(Ordering::Relaxed)),
                events: slab.events.load(Ordering::Relaxed),
                epochs: slab.epochs.load(Ordering::Relaxed),
                idle_epochs: slab.idle_epochs.load(Ordering::Relaxed),
                events_per_epoch: slab.events_per_epoch.fold(),
            })
            .collect();
        let tracks = inner
            .tracks
            .lock()
            .unwrap()
            .iter()
            .map(|t| TrackProf {
                label: t.label.clone(),
                slices: t.slices.lock().unwrap().clone(),
                dropped: t.dropped.load(Ordering::Relaxed),
            })
            .collect();
        Some(ProfSnapshot {
            lookahead_ns: inner.lookahead_ns.load(Ordering::Relaxed),
            epochs: inner.epochs.load(Ordering::Relaxed),
            idle_jump_epochs: inner.idle_jump_epochs.load(Ordering::Relaxed),
            sync_rounds: inner.sync_rounds.load(Ordering::Relaxed),
            advance_ns_total: inner.advance_ns.load(Ordering::Relaxed),
            worlds,
            tracks,
        })
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("on", &self.is_on())
            .finish()
    }
}

/// Per-thread slice recorder returned by [`Profiler::register_track`].
pub struct ProfTrack(Option<Arc<TrackSlab>>);

impl ProfTrack {
    /// An inert track (for threads of an unprofiled run).
    pub fn off() -> Self {
        ProfTrack(None)
    }

    /// Records one wall-clock slice on this thread's track. Buffers are
    /// capped at an internal limit; overflow increments a drop counter
    /// surfaced in the snapshot.
    pub fn slice(&self, phase: Phase, world: usize, start_ns: u64, dur_ns: u64) {
        if let Some(slab) = &self.0 {
            let mut slices = slab.slices.lock().unwrap();
            if slices.len() < SLICE_CAP {
                slices.push(WallSlice {
                    phase,
                    world,
                    start_ns,
                    dur_ns,
                });
            } else {
                slab.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Plain-data snapshot of one world's slab.
#[derive(Debug, Clone)]
pub struct WorldProf {
    /// World id.
    pub world: usize,
    /// Accumulated nanoseconds per [`Phase`] (indexed by `Phase as usize`).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Probe call count per phase.
    pub phase_calls: [u64; PHASE_COUNT],
    /// Total events this world executed while profiled.
    pub events: u64,
    /// Epochs this world participated in.
    pub epochs: u64,
    /// Epochs in which this world executed zero events.
    pub idle_epochs: u64,
    /// Distribution of events executed per epoch.
    pub events_per_epoch: Histogram,
}

impl WorldProf {
    /// Nanoseconds of productive work: execute + outbox drain + merge.
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns[Phase::Execute as usize]
            + self.phase_ns[Phase::OutboxDrain as usize]
            + self.phase_ns[Phase::Merge as usize]
    }

    /// Sum of all phase accumulators (should tile the measured wall time
    /// of the run window; `repro profile` reports the coverage fraction).
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of this world's accounted time spent in barrier waits.
    pub fn barrier_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.phase_ns[Phase::BarrierWait as usize] as f64 / total as f64
    }
}

/// Snapshot of one thread's Perfetto track.
#[derive(Debug, Clone)]
pub struct TrackProf {
    /// Thread label (e.g. `shard-1`, `coordinator`, `classic-engine`).
    pub label: String,
    /// Recorded slices, in recording order.
    pub slices: Vec<WallSlice>,
    /// Slices dropped after the per-track cap was hit.
    pub dropped: u64,
}

/// Full profiler snapshot: per-world phase slabs, epoch statistics, and
/// per-thread wall-clock tracks.
#[derive(Debug, Clone)]
pub struct ProfSnapshot {
    /// Engine lookahead in nanoseconds (0 for the classic path).
    pub lookahead_ns: u64,
    /// Coordinator epoch windows executed.
    pub epochs: u64,
    /// Windows whose start bound leapt more than one coalescing quantum
    /// past the previous floor (the scheduler skipped dead air).
    pub idle_jump_epochs: u64,
    /// Inner synchronization rounds executed across all windows (0 for
    /// the classic path).
    pub sync_rounds: u64,
    /// Total sim-time advanced across epochs, nanoseconds.
    pub advance_ns_total: u64,
    /// Per-world slabs, indexed by world id.
    pub worlds: Vec<WorldProf>,
    /// Per-thread wall-clock tracks.
    pub tracks: Vec<TrackProf>,
}

impl ProfSnapshot {
    /// Mean sim-time advance per epoch divided by the lookahead.
    ///
    /// 1.0 means every epoch advanced exactly one lookahead (the
    /// conservative bound); above 1.0 means idle jumps skipped dead air;
    /// `None` when no epochs ran or no lookahead was set.
    pub fn lookahead_utilization(&self) -> Option<f64> {
        if self.epochs == 0 || self.lookahead_ns == 0 {
            return None;
        }
        let mean_advance = self.advance_ns_total as f64 / self.epochs as f64;
        Some(mean_advance / self.lookahead_ns as f64)
    }

    /// Aggregate nanoseconds spent in `phase` across all worlds.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.worlds.iter().map(|w| w.phase_ns[phase as usize]).sum()
    }

    /// Total wall-clock timeline slices dropped across tracks after the
    /// per-track [`SLICE_CAP`]. Aggregates (phase sums, histograms) are
    /// unaffected — only the Perfetto timeline is truncated.
    pub fn dropped_slices(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Events-per-epoch distribution merged across all worlds.
    pub fn events_per_epoch(&self) -> Histogram {
        let mut h = Histogram::new();
        for w in &self.worlds {
            h.merge(&w.events_per_epoch);
        }
        h
    }

    /// Stable JSON form (BENCH `profile` section, `repro profile --json`).
    pub fn to_json(&self) -> Json {
        let phases = Json::obj(
            Phase::ALL.map(|p| (p.name(), Json::f64(self.phase_total_ns(p) as f64 / 1e9))),
        );
        let worlds = Json::arr(self.worlds.iter().map(|w| {
            let mut o = Json::obj([("world", Json::u64(w.world as u64))]);
            for p in Phase::ALL {
                o.insert(
                    format!("{}_seconds", p.name()),
                    Json::f64(w.phase_ns[p as usize] as f64 / 1e9),
                );
            }
            o.insert("events", Json::u64(w.events));
            o.insert("epochs", Json::u64(w.epochs));
            o.insert("idle_epochs", Json::u64(w.idle_epochs));
            o.insert("barrier_wait_fraction", Json::f64(w.barrier_fraction()));
            o.insert(
                "events_per_epoch_mean",
                Json::f64(w.events_per_epoch.mean().unwrap_or(0.0)),
            );
            o
        }));
        let epe = self.events_per_epoch();
        let mut out = Json::obj([
            ("lookahead_ns", Json::u64(self.lookahead_ns)),
            ("epochs", Json::u64(self.epochs)),
            ("idle_jump_epochs", Json::u64(self.idle_jump_epochs)),
            ("sync_rounds", Json::u64(self.sync_rounds)),
            (
                "sim_seconds_advanced",
                Json::f64(self.advance_ns_total as f64 / 1e9),
            ),
            ("phase_seconds", phases),
            ("worlds", worlds),
        ]);
        if let Some(u) = self.lookahead_utilization() {
            out.insert("lookahead_utilization", Json::f64(u));
        }
        out.insert(
            "events_per_epoch",
            Json::obj([
                ("mean", Json::f64(epe.mean().unwrap_or(0.0))),
                ("p50", Json::u64(epe.quantile(0.5).unwrap_or(0))),
                ("p99", Json::u64(epe.quantile(0.99).unwrap_or(0))),
                ("max", Json::u64(epe.max().unwrap_or(0))),
            ]),
        );
        // Timeline completeness: a reader must be able to tell a quiet
        // run from a truncated export without diffing slice counts.
        out.insert("dropped_slices", Json::u64(self.dropped_slices()));
        out.insert(
            "tracks",
            Json::arr(self.tracks.iter().map(|t| {
                Json::obj([
                    ("label", Json::str(&*t.label)),
                    ("slices", Json::u64(t.slices.len() as u64)),
                    ("dropped", Json::u64(t.dropped)),
                ])
            })),
        );
        out
    }
}

/// Coarse log2 bucketing for slack histograms: bucket 0 holds zero,
/// bucket `b >= 1` holds `[2^(b-1), 2^b)`.
fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(63)
    }
}

fn log2_bucket_mid(b: usize) -> u64 {
    match b {
        0 => 0,
        1 => 1,
        b => {
            let low = 1u64 << (b - 1);
            let high = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
            low / 2 + high / 2
        }
    }
}

/// Cross-world traffic matrix: per `(src_world, dst_world)` message
/// counts and slack histograms, recorded lock-free by every world's
/// network at send time.
///
/// Slack is `deliver_at − send_time − lookahead` — the margin by which a
/// cross-world message clears the conservative synchronization bound. A
/// pair whose *minimum* slack is large is eligible for widened per-pair
/// lookahead (fewer barriers) without risking causality.
pub struct TrafficMatrix {
    worlds: usize,
    msgs: Vec<AtomicU64>,
    slack_sum: Vec<AtomicU64>,
    slack_min: Vec<AtomicU64>,
    slack_buckets: Vec<AtomicU64>, // worlds² × 64 coarse log2 buckets
}

impl TrafficMatrix {
    /// A matrix over `worlds` worlds (ids `0..worlds`).
    pub fn new(worlds: usize) -> Self {
        let cells = worlds * worlds;
        TrafficMatrix {
            worlds,
            msgs: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            slack_sum: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            slack_min: (0..cells).map(|_| AtomicU64::new(u64::MAX)).collect(),
            slack_buckets: (0..cells * 64).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of worlds the matrix covers.
    pub fn worlds(&self) -> usize {
        self.worlds
    }

    /// Records one cross-world message with its slack in nanoseconds.
    pub fn record(&self, src: usize, dst: usize, slack_ns: u64) {
        if src >= self.worlds || dst >= self.worlds {
            return;
        }
        let cell = src * self.worlds + dst;
        self.msgs[cell].fetch_add(1, Ordering::Relaxed);
        self.slack_sum[cell].fetch_add(slack_ns, Ordering::Relaxed);
        self.slack_min[cell].fetch_min(slack_ns, Ordering::Relaxed);
        self.slack_buckets[cell * 64 + log2_bucket(slack_ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the non-empty cells.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut cells = Vec::new();
        for src in 0..self.worlds {
            for dst in 0..self.worlds {
                let cell = src * self.worlds + dst;
                let messages = self.msgs[cell].load(Ordering::Relaxed);
                if messages == 0 {
                    continue;
                }
                let mut slack = Histogram::new();
                for b in 0..64 {
                    let n = self.slack_buckets[cell * 64 + b].load(Ordering::Relaxed);
                    if n > 0 {
                        slack.record_n(log2_bucket_mid(b), n);
                    }
                }
                cells.push(TrafficCell {
                    src,
                    dst,
                    messages,
                    slack_sum_ns: self.slack_sum[cell].load(Ordering::Relaxed),
                    min_slack_ns: self.slack_min[cell].load(Ordering::Relaxed),
                    slack,
                });
            }
        }
        TrafficSnapshot {
            worlds: self.worlds,
            cells,
        }
    }
}

impl std::fmt::Debug for TrafficMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficMatrix")
            .field("worlds", &self.worlds)
            .finish()
    }
}

/// One non-empty traffic matrix cell.
#[derive(Debug, Clone)]
pub struct TrafficCell {
    /// Sending world.
    pub src: usize,
    /// Receiving world.
    pub dst: usize,
    /// Messages sent `src → dst`.
    pub messages: u64,
    /// Exact sum of slack nanoseconds (for exact means).
    pub slack_sum_ns: u64,
    /// Exact minimum slack observed (the per-pair lookahead headroom).
    pub min_slack_ns: u64,
    /// Coarse (log2-bucketed) slack distribution.
    pub slack: Histogram,
}

impl TrafficCell {
    /// Exact mean slack in nanoseconds.
    pub fn mean_slack_ns(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.slack_sum_ns as f64 / self.messages as f64
    }
}

/// Snapshot of the cross-world traffic matrix (non-empty cells only).
#[derive(Debug, Clone)]
pub struct TrafficSnapshot {
    /// Number of worlds the matrix covers.
    pub worlds: usize,
    /// Non-empty cells in `(src, dst)` order.
    pub cells: Vec<TrafficCell>,
}

impl TrafficSnapshot {
    /// Total cross-world messages.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().map(|c| c.messages).sum()
    }

    /// The busiest `(src, dst)` pair, if any traffic flowed.
    pub fn busiest(&self) -> Option<&TrafficCell> {
        self.cells.iter().max_by_key(|c| c.messages)
    }

    /// Stable JSON form: world count, totals, and per-cell rows.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("worlds", Json::u64(self.worlds as u64)),
            ("total_messages", Json::u64(self.total_messages())),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    Json::obj([
                        ("src", Json::u64(c.src as u64)),
                        ("dst", Json::u64(c.dst as u64)),
                        ("messages", Json::u64(c.messages)),
                        ("min_slack_ns", Json::u64(c.min_slack_ns)),
                        ("mean_slack_ns", Json::f64(c.mean_slack_ns())),
                        (
                            "p99_slack_ns",
                            Json::u64(c.slack.quantile(0.99).unwrap_or(0)),
                        ),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profiler_is_inert() {
        let p = Profiler::off();
        assert!(!p.is_on());
        assert!(p.tick().is_none());
        assert_eq!(p.lap(None), 0);
        p.phase(0, Phase::Execute, 123);
        p.epoch_events(0, 5);
        p.epoch(Duration::from_micros(100), false);
        assert!(p.snapshot().is_none());
        let track = p.register_track("t");
        track.slice(Phase::Execute, 0, 0, 10);
    }

    #[test]
    fn phase_accumulation_and_snapshot() {
        let p = Profiler::on(2);
        p.set_lookahead(Duration::from_micros(100));
        p.phase(0, Phase::Execute, 1_000);
        p.phase(0, Phase::Execute, 500);
        p.phase(1, Phase::BarrierWait, 2_000);
        p.epoch_events(0, 10);
        p.epoch_events(0, 0);
        p.epoch_events(1, 4);
        p.epoch(Duration::from_micros(100), false);
        p.epoch(Duration::from_micros(300), true);
        let s = p.snapshot().unwrap();
        assert_eq!(s.worlds.len(), 2);
        assert_eq!(s.worlds[0].phase_ns[Phase::Execute as usize], 1_500);
        assert_eq!(s.worlds[0].phase_calls[Phase::Execute as usize], 2);
        assert_eq!(s.worlds[1].phase_ns[Phase::BarrierWait as usize], 2_000);
        assert_eq!(s.worlds[0].epochs, 2);
        assert_eq!(s.worlds[0].idle_epochs, 1);
        assert_eq!(s.worlds[0].events, 10);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.idle_jump_epochs, 1);
        // mean advance 200µs over 100µs lookahead -> utilization 2.0
        let u = s.lookahead_utilization().unwrap();
        assert!((u - 2.0).abs() < 1e-9, "utilization {u}");
        assert_eq!(s.phase_total_ns(Phase::Execute), 1_500);
        let epe = s.events_per_epoch();
        assert_eq!(epe.count(), 3);
        assert_eq!(epe.min(), Some(0));
        // JSON renders without panicking and carries the top-level keys.
        let j = s.to_json();
        assert!(j.get("phase_seconds").is_some());
        assert!(j.get("lookahead_utilization").is_some());
    }

    #[test]
    fn tracks_record_slices_and_cap() {
        let p = Profiler::on(1);
        let t = p.register_track("worker-1");
        t.slice(Phase::Execute, 0, 100, 50);
        t.slice(Phase::BarrierWait, usize::MAX, 150, 25);
        let s = p.snapshot().unwrap();
        assert_eq!(s.tracks.len(), 1);
        assert_eq!(s.tracks[0].label, "worker-1");
        assert_eq!(s.tracks[0].slices.len(), 2);
        assert_eq!(s.tracks[0].slices[1].phase, Phase::BarrierWait);
        assert_eq!(s.tracks[0].dropped, 0);
    }

    #[test]
    fn traffic_matrix_records_and_snapshots() {
        let m = TrafficMatrix::new(3);
        m.record(0, 1, 1_000);
        m.record(0, 1, 3_000);
        m.record(2, 0, 500);
        m.record(9, 0, 1); // out of range: ignored
        let s = m.snapshot();
        assert_eq!(s.worlds, 3);
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.total_messages(), 3);
        let busiest = s.busiest().unwrap();
        assert_eq!((busiest.src, busiest.dst), (0, 1));
        assert_eq!(busiest.messages, 2);
        assert_eq!(busiest.min_slack_ns, 1_000);
        assert!((busiest.mean_slack_ns() - 2_000.0).abs() < 1e-9);
        let j = s.to_json();
        assert_eq!(j.get("total_messages").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn log2_buckets_are_sane() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(u64::MAX), 63);
        for b in 1..63usize {
            let mid = log2_bucket_mid(b);
            assert_eq!(log2_bucket(mid.max(1)), b, "mid of bucket {b}");
        }
    }
}
