//! Request-lifecycle tracing: per-IO critical-path attribution.
//!
//! Every ClientLib IO can carry a [`ReqStamp`] that follows the request
//! through clientlib → rpc/net → endpoint → disk and back, accumulating
//! typed stage intervals: client queue, Master metadata lookup, network
//! transit, endpoint queue, **spin-up wait**, seek, transfer, and retry.
//! At completion the per-request stage vector is folded into per-stage
//! histograms and a dominant-stage counter, so `repro slo` can answer
//! "where did the p99.9 read spend its time?" (ROADMAP item 4).
//!
//! Accounting model — *mark* and *absorb*:
//!
//! - [`RequestTracer::mark`] closes the residual interval since the last
//!   mark: `(now − last_mark) − absorbed_since_mark` is attributed to the
//!   given stage. Probes at natural hand-off points (dispatch, request
//!   arrival, reply, response arrival) mark the elapsed hop.
//! - [`RequestTracer::absorb`] attributes an explicitly measured
//!   sub-duration (disk seek/transfer, spin-up overlap, Master lookup)
//!   *within* the current interval; the next mark subtracts it so no
//!   nanosecond is counted twice.
//!
//! Stale-probe guard: a stamp carries the attempt number it was issued
//! for. After a client-side timeout the attempt counter advances, so
//! orphaned server-side work from the failed attempt (its disk completion,
//! its late response) is ignored instead of double-counted.
//!
//! Determinism discipline (same contract as [`crate::prof`]): the tracer
//! never draws simulation RNG, never schedules events, and keeps all of
//! its state outside the digested telemetry (`MetricsRegistry`, spans,
//! scrape series). Telemetry digests are bit-identical with tracing on or
//! off — golden-tested in `tests/determinism.rs`. All digest-relevant
//! tracer state (id allocation, completion folds, sampling) mutates only
//! from the control world, whose event order is shard-count-invariant;
//! probes from server worlds touch per-request state only.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;
use crate::metrics::Histogram;
use crate::time::SimTime;

/// Number of lifecycle stages tracked per request.
pub const STAGE_COUNT: usize = 8;

/// A typed lifecycle stage of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting in the ClientLib queue for a usable session (remount
    /// stalls; near zero when the mount is healthy).
    ClientQueue = 0,
    /// Master metadata lookup during a (re)mount, amortized over the IOs
    /// it unblocked.
    MasterLookup = 1,
    /// On the wire: request and response hops through the switched network.
    NetTransit = 2,
    /// Queued at the endpoint's disk behind other IO (excluding spin-up).
    EndpointQueue = 3,
    /// Waiting for a spun-down disk to spin up — the cold-read tax.
    SpinUpWait = 4,
    /// Head positioning (seek + rotational delay), stretched by health.
    Seek = 5,
    /// Media + bus transfer, plus unattributed server-side residue.
    Transfer = 6,
    /// Time burned by failed attempts before the one that succeeded.
    Retry = 7,
}

impl Stage {
    /// All stages, in slab order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::ClientQueue,
        Stage::MasterLookup,
        Stage::NetTransit,
        Stage::EndpointQueue,
        Stage::SpinUpWait,
        Stage::Seek,
        Stage::Transfer,
        Stage::Retry,
    ];

    /// Stable snake_case name, used in exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientQueue => "client_queue",
            Stage::MasterLookup => "master_lookup",
            Stage::NetTransit => "net_transit",
            Stage::EndpointQueue => "endpoint_queue",
            Stage::SpinUpWait => "spin_up_wait",
            Stage::Seek => "seek",
            Stage::Transfer => "transfer",
            Stage::Retry => "retry",
        }
    }
}

/// Number of request kinds tracked.
pub const KIND_COUNT: usize = 2;

/// What kind of IO a trace covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A volume read; TTFB is first-byte latency.
    Read = 0,
    /// A volume write; "TTFB" is ack latency.
    Write = 1,
}

impl ReqKind {
    /// All kinds, in slab order.
    pub const ALL: [ReqKind; KIND_COUNT] = [ReqKind::Read, ReqKind::Write];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Read => "read",
            ReqKind::Write => "write",
        }
    }
}

/// Identity of one traced request, allocated by [`RequestTracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// A trace stamp carried by in-flight messages: the request id plus the
/// attempt it was issued for. Probes presenting a stale attempt are
/// ignored (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqStamp {
    /// The traced request.
    pub id: TraceId,
    /// Attempt number the stamp was issued for (0 = first try).
    pub attempt: u32,
}

/// One attributed interval of a request's timeline (exemplar rendering).
#[derive(Debug, Clone, Copy)]
pub struct TraceSeg {
    /// Stage the interval was attributed to.
    pub stage: Stage,
    /// Interval start, nanoseconds of sim time.
    pub start_ns: u64,
    /// Interval length, nanoseconds.
    pub dur_ns: u64,
}

/// Full record of one completed request (sampled traces and exemplars).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id (allocation order = begin order).
    pub id: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// When the client issued the IO, nanoseconds of sim time.
    pub start_ns: u64,
    /// End-to-end latency (time to first byte), nanoseconds.
    pub ttfb_ns: u64,
    /// Sum of per-stage attributions, nanoseconds (≈ `ttfb_ns`).
    pub attributed_ns: u64,
    /// Dispatch attempts used (1 = no retries).
    pub attempts: u32,
    /// Whether the request hit a spun-down disk.
    pub cold: bool,
    /// Nanoseconds attributed to each stage (indexed by `Stage as usize`).
    pub stages: [u64; STAGE_COUNT],
    /// Attributed intervals in recording order.
    pub segments: Vec<TraceSeg>,
}

impl TraceRecord {
    /// The stage holding the largest share of this request's latency.
    pub fn dominant(&self) -> Stage {
        let mut best = Stage::ClientQueue;
        let mut best_ns = 0u64;
        for s in Stage::ALL {
            let ns = self.stages[s as usize];
            if ns > best_ns {
                best_ns = ns;
                best = s;
            }
        }
        best
    }
}

/// Per-request live accounting state.
struct LiveReq {
    kind: ReqKind,
    start_ns: u64,
    last_mark_ns: u64,
    absorbed_since_mark: u64,
    attempt: u32,
    attempts_used: u32,
    cold: bool,
    stages: [u64; STAGE_COUNT],
    segments: Vec<TraceSeg>,
}

/// Per-kind aggregation slab.
struct KindSlab {
    completed: u64,
    cold_completed: u64,
    e2e: Histogram,
    attributed: Histogram,
    stages: [Histogram; STAGE_COUNT],
    dominant: [u64; STAGE_COUNT],
}

impl KindSlab {
    fn new() -> Self {
        KindSlab {
            completed: 0,
            cold_completed: 0,
            e2e: Histogram::new(),
            attributed: Histogram::new(),
            stages: std::array::from_fn(|_| Histogram::new()),
            dominant: [0; STAGE_COUNT],
        }
    }
}

struct TraceInner {
    next_id: u64,
    sample_every: u64,
    sample_cap: usize,
    exemplar_k: usize,
    live: HashMap<u64, LiveReq>,
    kinds: [KindSlab; KIND_COUNT],
    master_lookup: Histogram,
    lookups_served: u64,
    lookups_unresolved: u64,
    lease_hits: u64,
    lease_misses: u64,
    annotations: Vec<(u64, String)>,
    retries: u64,
    abandoned: u64,
    cold_hits: u64,
    seen: u64,
    sample_dropped: u64,
    sampled: Vec<TraceRecord>,
    exemplars: Vec<TraceRecord>,
}

impl TraceInner {
    fn new(sample_every: u64, exemplar_k: usize, sample_cap: usize) -> Self {
        TraceInner {
            next_id: 0,
            sample_every: sample_every.max(1),
            sample_cap,
            exemplar_k,
            live: HashMap::new(),
            kinds: std::array::from_fn(|_| KindSlab::new()),
            master_lookup: Histogram::new(),
            lookups_served: 0,
            lookups_unresolved: 0,
            lease_hits: 0,
            lease_misses: 0,
            annotations: Vec::new(),
            retries: 0,
            abandoned: 0,
            cold_hits: 0,
            seen: 0,
            sample_dropped: 0,
            sampled: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    /// Closes the residual interval since the last mark as `stage`.
    fn mark(&mut self, id: TraceId, stage: Stage, now_ns: u64) {
        if let Some(req) = self.live.get_mut(&id.0) {
            let elapsed = now_ns.saturating_sub(req.last_mark_ns);
            let residual = elapsed.saturating_sub(req.absorbed_since_mark);
            if residual > 0 {
                req.stages[stage as usize] += residual;
                req.segments.push(TraceSeg {
                    stage,
                    start_ns: now_ns - residual,
                    dur_ns: residual,
                });
            }
            req.last_mark_ns = now_ns;
            req.absorbed_since_mark = 0;
        }
    }

    /// Attributes an explicit sub-duration within the current interval.
    fn absorb(&mut self, id: TraceId, stage: Stage, dur_ns: u64, at_ns: u64) {
        if dur_ns == 0 {
            return;
        }
        if let Some(req) = self.live.get_mut(&id.0) {
            req.stages[stage as usize] += dur_ns;
            req.absorbed_since_mark += dur_ns;
            req.segments.push(TraceSeg {
                stage,
                start_ns: at_ns,
                dur_ns,
            });
        }
    }

    fn stamp_ok(&self, stamp: ReqStamp) -> bool {
        self.live
            .get(&stamp.id.0)
            .is_some_and(|req| req.attempt == stamp.attempt)
    }
}

/// Default sampling stride: keep one full trace per this many completions.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
/// Default number of slowest-request exemplars retained per run.
pub const DEFAULT_EXEMPLARS: usize = 8;
/// Sampled full traces stop accumulating past this many; the overflow is
/// counted in [`TraceSnapshot::sample_dropped`] so reports can say so.
pub const SAMPLE_CAP: usize = 4_096;

/// Cluster-level annotations (watchdog escalations, failovers) stop
/// accumulating past this many.
pub const ANNOTATION_CAP: usize = 1_024;

/// Cheap cloneable handle to the request tracer; `off()` handles are
/// inert and make every probe a branch on `None`.
///
/// The handle is `Send + Sync`: in a sharded run the control world
/// (clients, masters) and every unit world share clones of one tracer.
#[derive(Clone)]
pub struct RequestTracer(Option<Arc<Mutex<TraceInner>>>);

impl RequestTracer {
    /// An inert tracer: every probe is a no-op, [`snapshot`](Self::snapshot)
    /// returns `None`.
    pub fn off() -> Self {
        RequestTracer(None)
    }

    /// An active tracer keeping one full trace per `sample_every`
    /// completions and the `exemplar_k` slowest exemplars.
    pub fn on(sample_every: u64, exemplar_k: usize) -> Self {
        RequestTracer(Some(Arc::new(Mutex::new(TraceInner::new(
            sample_every,
            exemplar_k,
            SAMPLE_CAP,
        )))))
    }

    /// An active tracer with default sampling parameters.
    pub fn on_default() -> Self {
        RequestTracer::on(DEFAULT_SAMPLE_EVERY, DEFAULT_EXEMPLARS)
    }

    /// Whether probes are live (the handle is active).
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a trace for one client IO. Returns `None` when inert.
    ///
    /// Must be called from the control world: id allocation order is the
    /// digest-determinism anchor (see module docs).
    pub fn begin(&self, kind: ReqKind, now: SimTime) -> Option<TraceId> {
        let inner = self.0.as_ref()?;
        let mut t = inner.lock().unwrap();
        let id = TraceId(t.next_id);
        t.next_id += 1;
        let now_ns = now.as_nanos();
        t.live.insert(
            id.0,
            LiveReq {
                kind,
                start_ns: now_ns,
                last_mark_ns: now_ns,
                absorbed_since_mark: 0,
                attempt: 0,
                attempts_used: 0,
                cold: false,
                stages: [0; STAGE_COUNT],
                segments: Vec::new(),
            },
        );
        Some(id)
    }

    /// Marks a dispatch from the client queue: closes the queued interval
    /// (as [`Stage::ClientQueue`] on the first attempt, [`Stage::Retry`]
    /// afterwards) and returns the stamp to ride the outgoing request.
    pub fn dispatch(&self, id: TraceId, now: SimTime) -> Option<ReqStamp> {
        let inner = self.0.as_ref()?;
        let mut t = inner.lock().unwrap();
        let attempt = {
            let req = t.live.get_mut(&id.0)?;
            req.attempts_used += 1;
            req.attempt
        };
        let stage = if attempt == 0 {
            Stage::ClientQueue
        } else {
            Stage::Retry
        };
        t.mark(id, stage, now.as_nanos());
        Some(ReqStamp { id, attempt })
    }

    /// Closes the residual interval since the last mark as `stage`.
    /// Ignored when the stamp's attempt is stale.
    pub fn mark(&self, stamp: Option<ReqStamp>, stage: Stage, now: SimTime) {
        if let (Some(inner), Some(stamp)) = (&self.0, stamp) {
            let mut t = inner.lock().unwrap();
            if t.stamp_ok(stamp) {
                t.mark(stamp.id, stage, now.as_nanos());
            }
        }
    }

    /// Attributes an explicitly measured sub-duration (starting at `at`)
    /// to `stage` within the current interval. Ignored when stale.
    pub fn absorb(&self, stamp: Option<ReqStamp>, stage: Stage, dur: Duration, at: SimTime) {
        if let (Some(inner), Some(stamp)) = (&self.0, stamp) {
            let mut t = inner.lock().unwrap();
            if t.stamp_ok(stamp) {
                t.absorb(stamp.id, stage, saturating_ns(dur), at.as_nanos());
            }
        }
    }

    /// Attributes a Master metadata lookup to a request that is queued
    /// behind a (re)mount, and feeds the lookup-latency histogram.
    pub fn absorb_lookup(&self, id: TraceId, dur: Duration, at: SimTime) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            t.absorb(id, Stage::MasterLookup, saturating_ns(dur), at.as_nanos());
        }
    }

    /// Records one Master-side lookup service time (aux histogram; not
    /// tied to a single request).
    pub fn note_master_lookup(&self, dur: Duration) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            let ns = saturating_ns(dur);
            t.master_lookup.record(ns);
        }
    }

    /// Counts one Master lookup reply: `resolved` means the Master
    /// returned a live placement, `false` covers failover windows where
    /// clients spin on NotActive / NoSuchSpace and re-poll.
    pub fn note_lookup_served(&self, resolved: bool) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            if resolved {
                t.lookups_served += 1;
            } else {
                t.lookups_unresolved += 1;
            }
        }
    }

    /// Counts one client-side location-lease consultation: `hit` means a
    /// cached `SpaceInfo` under a live lease answered the lookup (or
    /// validated an IO dispatch) without a Master round trip.
    pub fn note_lease(&self, hit: bool) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            if hit {
                t.lease_hits += 1;
            } else {
                t.lease_misses += 1;
            }
        }
    }

    /// Records a cluster-level annotation (watchdog escalation, failover
    /// start, ...) that the SLO report prints alongside slow exemplars.
    /// Capped so runaway scenarios cannot grow the trace unbounded.
    pub fn annotate(&self, label: &str, now: SimTime) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            if t.annotations.len() < ANNOTATION_CAP {
                t.annotations.push((now.as_nanos(), label.to_string()));
            }
        }
    }

    /// Flags the request as a cold hit: its target disk was in standby
    /// when the IO arrived. Ignored when stale.
    pub fn note_cold_hit(&self, stamp: Option<ReqStamp>) {
        if let (Some(inner), Some(stamp)) = (&self.0, stamp) {
            let mut t = inner.lock().unwrap();
            if t.stamp_ok(stamp) {
                t.cold_hits += 1;
                if let Some(req) = t.live.get_mut(&stamp.id.0) {
                    req.cold = true;
                }
            }
        }
    }

    /// Marks a failed attempt: closes the interval since the last mark as
    /// [`Stage::Retry`] and advances the attempt counter so probes from
    /// the orphaned attempt are ignored from here on.
    pub fn io_failed(&self, id: TraceId, now: SimTime) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            t.mark(id, Stage::Retry, now.as_nanos());
            t.retries += 1;
            if let Some(req) = t.live.get_mut(&id.0) {
                req.attempt += 1;
            }
        }
    }

    /// Completes a trace: folds the stage vector into the per-kind
    /// histograms, updates dominant-stage counts, and retains the full
    /// record if it is sampled or among the slowest exemplars.
    ///
    /// Must be called from the control world (completion order drives
    /// sampling).
    pub fn complete(&self, id: TraceId, now: SimTime) {
        let Some(inner) = &self.0 else { return };
        let mut t = inner.lock().unwrap();
        let Some(req) = t.live.remove(&id.0) else {
            return;
        };
        let now_ns = now.as_nanos();
        let ttfb = now_ns.saturating_sub(req.start_ns);
        let attributed: u64 = req.stages.iter().sum();
        let record = TraceRecord {
            id: id.0,
            kind: req.kind,
            start_ns: req.start_ns,
            ttfb_ns: ttfb,
            attributed_ns: attributed,
            attempts: req.attempts_used,
            cold: req.cold,
            stages: req.stages,
            segments: req.segments,
        };
        {
            let slab = &mut t.kinds[req.kind as usize];
            slab.completed += 1;
            if req.cold {
                slab.cold_completed += 1;
            }
            slab.e2e.record(ttfb);
            slab.attributed.record(attributed);
            for s in Stage::ALL {
                slab.stages[s as usize].record(req.stages[s as usize]);
            }
            slab.dominant[record.dominant() as usize] += 1;
        }
        let pick = t.seen % t.sample_every == 0;
        t.seen += 1;
        if pick {
            if t.sampled.len() < t.sample_cap {
                t.sampled.push(record.clone());
            } else {
                t.sample_dropped += 1;
            }
        }
        let k = t.exemplar_k;
        if k > 0 {
            t.exemplars.push(record);
            if t.exemplars.len() > k {
                t.exemplars
                    .sort_by_key(|r| (std::cmp::Reverse(r.ttfb_ns), r.id));
                t.exemplars.truncate(k);
            }
        }
    }

    /// Drops a trace that will never complete (queue drained on a failed
    /// remount deadline). Counted, not folded into latency stats.
    pub fn abandon(&self, id: TraceId) {
        if let Some(inner) = &self.0 {
            let mut t = inner.lock().unwrap();
            if t.live.remove(&id.0).is_some() {
                t.abandoned += 1;
            }
        }
    }

    /// Snapshots all slabs into plain data, or `None` when inert.
    /// Call after the run quiesces.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        let inner = self.0.as_ref()?;
        let mut t = inner.lock().unwrap();
        t.exemplars
            .sort_by_key(|r| (std::cmp::Reverse(r.ttfb_ns), r.id));
        let kinds = ReqKind::ALL
            .iter()
            .map(|&kind| {
                let slab = &t.kinds[kind as usize];
                KindStats {
                    kind,
                    completed: slab.completed,
                    cold_completed: slab.cold_completed,
                    e2e: slab.e2e.clone(),
                    attributed: slab.attributed.clone(),
                    stages: slab.stages.clone(),
                    dominant: slab.dominant,
                }
            })
            .collect();
        Some(TraceSnapshot {
            kinds,
            retries: t.retries,
            abandoned: t.abandoned,
            cold_hits: t.cold_hits,
            live_at_end: t.live.len() as u64,
            seen: t.seen,
            sample_every: t.sample_every,
            sample_dropped: t.sample_dropped,
            sampled: t.sampled.clone(),
            exemplars: t.exemplars.clone(),
            master_lookup: t.master_lookup.clone(),
            lookups_served: t.lookups_served,
            lookups_unresolved: t.lookups_unresolved,
            lease_hits: t.lease_hits,
            lease_misses: t.lease_misses,
            annotations: t.annotations.clone(),
        })
    }
}

impl std::fmt::Debug for RequestTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestTracer")
            .field("on", &self.is_on())
            .finish()
    }
}

fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Aggregated statistics for one request kind.
#[derive(Debug, Clone)]
pub struct KindStats {
    /// Read or write.
    pub kind: ReqKind,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests that hit a spun-down disk.
    pub cold_completed: u64,
    /// End-to-end latency distribution (TTFB), nanoseconds.
    pub e2e: Histogram,
    /// Per-request sum of stage attributions, nanoseconds. The coverage
    /// invariant compares this against `e2e` quantile by quantile.
    pub attributed: Histogram,
    /// Per-stage attribution distributions (indexed by `Stage as usize`,
    /// zeros included so quantiles are over all requests).
    pub stages: [Histogram; STAGE_COUNT],
    /// How many requests each stage dominated.
    pub dominant: [u64; STAGE_COUNT],
}

impl KindStats {
    /// Fraction of end-to-end latency the stage attribution explains at
    /// quantile `q` — the PR 6-style coverage invariant (≥0.95 expected
    /// for p50/p99/p99.9). `None` when no requests completed.
    pub fn coverage(&self, q: f64) -> Option<f64> {
        let e2e = self.e2e.quantile(q)?;
        let attr = self.attributed.quantile(q)?;
        if e2e == 0 {
            // Zero-latency quantile: attribution trivially covers it.
            return Some(1.0);
        }
        Some(attr as f64 / e2e as f64)
    }

    /// Mean share of total latency attributed to `stage` (0..1).
    pub fn stage_share(&self, stage: Stage) -> f64 {
        let total = self.e2e.sum();
        if total == 0 {
            return 0.0;
        }
        self.stages[stage as usize].sum() as f64 / total as f64
    }
}

/// Full tracer snapshot: per-kind stats, sampled traces, and exemplars.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Per-kind aggregates in [`ReqKind::ALL`] order.
    pub kinds: Vec<KindStats>,
    /// Failed attempts observed (each burned [`Stage::Retry`] time).
    pub retries: u64,
    /// Requests abandoned without completing (drained queues).
    pub abandoned: u64,
    /// Requests that arrived at a spun-down disk.
    pub cold_hits: u64,
    /// Requests still live when the snapshot was taken.
    pub live_at_end: u64,
    /// Completions observed (sampling denominator).
    pub seen: u64,
    /// Sampling stride: one full trace kept per this many completions.
    pub sample_every: u64,
    /// Sampled traces dropped after the cap was hit.
    pub sample_dropped: u64,
    /// Sampled full traces, in completion order.
    pub sampled: Vec<TraceRecord>,
    /// Slowest requests by TTFB, slowest first.
    pub exemplars: Vec<TraceRecord>,
    /// Master-side metadata lookup service times, nanoseconds.
    pub master_lookup: Histogram,
    /// Master lookups answered with a live placement.
    pub lookups_served: u64,
    /// Master lookups answered NotActive / NoSuchSpace (failover spin).
    pub lookups_unresolved: u64,
    /// Client-side location-lease consultations answered from cache.
    pub lease_hits: u64,
    /// Consultations that required (or triggered) a Master round trip.
    pub lease_misses: u64,
    /// Cluster-level annotations `(sim_ns, label)` in emission order,
    /// capped at [`ANNOTATION_CAP`].
    pub annotations: Vec<(u64, String)>,
}

impl TraceSnapshot {
    /// Stats for one kind.
    pub fn kind(&self, kind: ReqKind) -> &KindStats {
        &self.kinds[kind as usize]
    }

    /// The slowest completed request, if any.
    pub fn worst(&self) -> Option<&TraceRecord> {
        self.exemplars.first()
    }

    /// Fraction of lease consultations served from cache, or `None` when
    /// no leases were consulted (lease caching disabled).
    pub fn lease_hit_rate(&self) -> Option<f64> {
        let total = self.lease_hits + self.lease_misses;
        (total > 0).then(|| self.lease_hits as f64 / total as f64)
    }

    /// Minimum coverage across kinds with traffic for quantile `q`.
    pub fn min_coverage(&self, q: f64) -> Option<f64> {
        self.kinds
            .iter()
            .filter(|k| k.completed > 0)
            .filter_map(|k| k.coverage(q))
            .min_by(|a, b| a.partial_cmp(b).expect("coverage is finite"))
    }

    /// Stable JSON form (BENCH `slo` section, `repro slo --json`).
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj([
            ("completed", Json::u64(self.seen)),
            ("retries", Json::u64(self.retries)),
            ("abandoned", Json::u64(self.abandoned)),
            ("cold_hits", Json::u64(self.cold_hits)),
            ("live_at_end", Json::u64(self.live_at_end)),
            ("sample_every", Json::u64(self.sample_every)),
            ("sampled", Json::u64(self.sampled.len() as u64)),
            ("sample_dropped", Json::u64(self.sample_dropped)),
            (
                "master_lookup_p99_ns",
                Json::u64(self.master_lookup.quantile(0.99).unwrap_or(0)),
            ),
            ("lookups_served", Json::u64(self.lookups_served)),
            ("lookups_unresolved", Json::u64(self.lookups_unresolved)),
            ("lease_hits", Json::u64(self.lease_hits)),
            ("lease_misses", Json::u64(self.lease_misses)),
            ("annotations", Json::u64(self.annotations.len() as u64)),
        ]);
        for stats in &self.kinds {
            let quantiles = |h: &Histogram| {
                Json::obj([
                    ("mean_ns", Json::f64(h.mean().unwrap_or(0.0))),
                    ("p50_ns", Json::u64(h.quantile(0.5).unwrap_or(0))),
                    ("p99_ns", Json::u64(h.quantile(0.99).unwrap_or(0))),
                    ("p999_ns", Json::u64(h.quantile(0.999).unwrap_or(0))),
                    ("max_ns", Json::u64(h.max().unwrap_or(0))),
                ])
            };
            let stages = Json::arr(Stage::ALL.map(|s| {
                let h = &stats.stages[s as usize];
                let mut o = Json::obj([("stage", Json::str(s.name()))]);
                o.insert("mean_ns", Json::f64(h.mean().unwrap_or(0.0)));
                o.insert("p50_ns", Json::u64(h.quantile(0.5).unwrap_or(0)));
                o.insert("p99_ns", Json::u64(h.quantile(0.99).unwrap_or(0)));
                o.insert("p999_ns", Json::u64(h.quantile(0.999).unwrap_or(0)));
                o.insert("share", Json::f64(stats.stage_share(s)));
                o.insert("dominant", Json::u64(stats.dominant[s as usize]));
                o
            }));
            let mut k = Json::obj([
                ("completed", Json::u64(stats.completed)),
                ("cold_completed", Json::u64(stats.cold_completed)),
                ("ttfb", quantiles(&stats.e2e)),
                ("attributed", quantiles(&stats.attributed)),
                ("stages", stages),
            ]);
            let mut cov = Json::obj([] as [(&str, Json); 0]);
            for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                if let Some(c) = stats.coverage(q) {
                    cov.insert(label, Json::f64(c));
                }
            }
            k.insert("coverage", cov);
            out.insert(stats.kind.name(), k);
        }
        if let Some(w) = self.worst() {
            let mut stages = Json::obj([] as [(&str, Json); 0]);
            for s in Stage::ALL {
                if w.stages[s as usize] > 0 {
                    stages.insert(s.name(), Json::u64(w.stages[s as usize]));
                }
            }
            out.insert(
                "worst",
                Json::obj([
                    ("id", Json::u64(w.id)),
                    ("kind", Json::str(w.kind.name())),
                    ("start_ns", Json::u64(w.start_ns)),
                    ("ttfb_ns", Json::u64(w.ttfb_ns)),
                    ("attributed_ns", Json::u64(w.attributed_ns)),
                    ("attempts", Json::u64(u64::from(w.attempts))),
                    ("cold", Json::str(if w.cold { "true" } else { "false" })),
                    ("dominant", Json::str(w.dominant().name())),
                    ("stages_ns", stages),
                ]),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    #[test]
    fn off_tracer_is_inert() {
        let t = RequestTracer::off();
        assert!(!t.is_on());
        assert!(t.begin(ReqKind::Read, ns(0)).is_none());
        t.mark(None, Stage::NetTransit, ns(10));
        t.complete(TraceId(0), ns(10));
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn mark_and_absorb_attribute_without_double_counting() {
        let t = RequestTracer::on(1, 4);
        let id = t.begin(ReqKind::Read, ns(0)).unwrap();
        let stamp = t.dispatch(id, ns(100)).unwrap(); // 100ns ClientQueue
        t.mark(Some(stamp), Stage::NetTransit, ns(300)); // 200ns wire
                                                         // Server side: disk absorbs queue/seek/transfer, then reply marks
                                                         // the residual as Transfer.
        t.absorb(
            Some(stamp),
            Stage::EndpointQueue,
            Duration::from_nanos(50),
            ns(300),
        );
        t.absorb(Some(stamp), Stage::Seek, Duration::from_nanos(400), ns(350));
        t.absorb(
            Some(stamp),
            Stage::Transfer,
            Duration::from_nanos(250),
            ns(750),
        );
        t.mark(Some(stamp), Stage::Transfer, ns(1000)); // residual 0
        t.mark(Some(stamp), Stage::NetTransit, ns(1200)); // return hop
        t.complete(id, ns(1200));
        let s = t.snapshot().unwrap();
        let reads = s.kind(ReqKind::Read);
        assert_eq!(reads.completed, 1);
        let w = s.worst().unwrap();
        assert_eq!(w.ttfb_ns, 1200);
        assert_eq!(w.attributed_ns, 1200);
        assert_eq!(w.stages[Stage::ClientQueue as usize], 100);
        assert_eq!(w.stages[Stage::NetTransit as usize], 400);
        assert_eq!(w.stages[Stage::EndpointQueue as usize], 50);
        assert_eq!(w.stages[Stage::Seek as usize], 400);
        assert_eq!(w.stages[Stage::Transfer as usize], 250);
        assert_eq!(w.dominant(), Stage::NetTransit);
        assert_eq!(s.min_coverage(0.99), Some(1.0));
    }

    #[test]
    fn stale_attempt_probes_are_ignored() {
        let t = RequestTracer::on(1, 4);
        let id = t.begin(ReqKind::Write, ns(0)).unwrap();
        let stale = t.dispatch(id, ns(10)).unwrap();
        t.io_failed(id, ns(500)); // 490ns retry, attempt now 1
        let fresh = t.dispatch(id, ns(500)).unwrap();
        assert_eq!(fresh.attempt, 1);
        // Orphaned first-attempt work reports late: must not count.
        t.mark(Some(stale), Stage::Transfer, ns(900));
        t.absorb(Some(stale), Stage::Seek, Duration::from_nanos(100), ns(600));
        t.mark(Some(fresh), Stage::NetTransit, ns(700));
        t.complete(id, ns(700));
        let s = t.snapshot().unwrap();
        let w = s.worst().unwrap();
        assert_eq!(w.stages[Stage::Retry as usize], 490);
        assert_eq!(w.stages[Stage::NetTransit as usize], 200);
        assert_eq!(w.stages[Stage::Transfer as usize], 0);
        assert_eq!(w.stages[Stage::Seek as usize], 0);
        assert_eq!(w.attempts, 2);
        assert_eq!(s.retries, 1);
    }

    #[test]
    fn sampling_and_exemplars_bound_memory() {
        let t = RequestTracer::on(10, 3);
        for i in 0..100u64 {
            let id = t.begin(ReqKind::Read, ns(i * 1_000)).unwrap();
            let stamp = t.dispatch(id, ns(i * 1_000)).unwrap();
            t.mark(Some(stamp), Stage::Transfer, ns(i * 1_000 + i + 1));
            t.complete(id, ns(i * 1_000 + i + 1));
        }
        let s = t.snapshot().unwrap();
        assert_eq!(s.seen, 100);
        assert_eq!(s.sampled.len(), 10);
        assert_eq!(s.exemplars.len(), 3);
        // Slowest first: ttfb grows with i.
        assert_eq!(s.exemplars[0].ttfb_ns, 100);
        assert_eq!(s.exemplars[1].ttfb_ns, 99);
        assert_eq!(s.kind(ReqKind::Read).completed, 100);
        let j = s.to_json();
        assert!(j.get("read").is_some());
        assert!(j.get("worst").is_some());
    }

    #[test]
    fn abandoned_requests_never_pollute_latency() {
        let t = RequestTracer::on(1, 2);
        let id = t.begin(ReqKind::Read, ns(0)).unwrap();
        t.dispatch(id, ns(5));
        t.abandon(id);
        t.complete(id, ns(50)); // double-complete after abandon: no-op
        let s = t.snapshot().unwrap();
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.seen, 0);
        assert_eq!(s.kind(ReqKind::Read).completed, 0);
    }
}
