//! The UStore benchmark: three workloads driven through the public API of
//! the `ustore` crate, measured end to end and layer by layer.
//!
//! - [`Workload::ArchiveMix`]: sequential archival ingest beside scattered
//!   restore reads on the 1024-disk pod, sharded engine.
//! - [`Workload::ColdThaw`]: hours of sparse object traffic over a pod whose
//!   idle disks spin down, then a bulk restore of many cold spaces at once.
//! - [`Workload::ControlChurn`]: allocate/mount/IO/release cycles with a
//!   partitioned metadata service while unit hosts die and come back.
//!
//! Each workload generates its inputs from the seed before it builds the
//! pod, and the pod receives only those inputs. Simulated-time results are
//! therefore exact per seed; host-time results hold only on the machine
//! that measured them.

pub mod heap;
pub mod stats;
pub mod telemetry;

mod archive_mix;
mod classic;
mod cold_thaw;
mod control_churn;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;
use std::time::Instant;

use ustore::SpaceName;
use ustore_sim::{Phase, ProfSnapshot, ReqKind, Stage, TraceSnapshot};

use crate::stats::tail;
use crate::telemetry::Registry;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Data path and shard coordinator: ingest streams plus restore reads.
    ArchiveMix,
    /// Disk power path: spin-down over hours, then a bulk thaw.
    ColdThaw,
    /// Control plane: metadata churn under host failovers.
    ControlChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ArchiveMix,
        Workload::ColdThaw,
        Workload::ControlChurn,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveMix => "archive_mix",
            Workload::ColdThaw => "cold_thaw",
            Workload::ControlChurn => "control_churn",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// How big a pod and how long a window a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's shapes.
    Full,
    /// A few units and seconds of simulated time, for tests.
    Tiny,
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed of every generated input and of the pod.
    pub seed: u64,
    /// Pod and window size.
    pub scale: Scale,
    /// Attach the request tracer and wall-clock profiler.
    pub traced: bool,
}

/// Host seconds of each phase of a run, from the benchmark's own spans
/// around its calls into the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// Building the pod.
    pub build_s: f64,
    /// Settling: enumeration, master election, first heartbeats.
    pub settle_s: f64,
    /// Initial allocate/mount, until the first workload op is due.
    pub bringup_s: f64,
    /// The measured window.
    pub window_s: f64,
    /// Telemetry export and teardown.
    pub export_s: f64,
}

impl HostTimes {
    /// Set-up time: build, settle and bring-up.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.settle_s + self.bringup_s
    }

    /// Wall time: window, export and teardown.
    pub fn wall_s(&self) -> f64 {
        self.window_s + self.export_s
    }
}

/// A stopwatch over the phases of one run, which also counts the
/// allocations made from the start of settling to the end of the window
/// and the run's peak heap.
pub(crate) struct Clock {
    last: Instant,
    times: HostTimes,
    heap_base: u64,
    allocs_at_settle: u64,
    allocs: u64,
}

impl Clock {
    fn start() -> Clock {
        heap::reset_peak();
        Clock {
            last: Instant::now(),
            times: HostTimes::default(),
            heap_base: heap::live_bytes(),
            allocs_at_settle: 0,
            allocs: 0,
        }
    }

    /// Peak live heap bytes since the run started, above what was live
    /// then (earlier runs' results stay live in the same process).
    pub(crate) fn peak_heap(&self) -> u64 {
        heap::peak_bytes().saturating_sub(self.heap_base)
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        d
    }

    pub(crate) fn built(&mut self) {
        self.times.build_s = self.lap();
        self.allocs_at_settle = heap::allocations();
    }

    pub(crate) fn settled(&mut self) {
        self.times.settle_s = self.lap();
    }

    pub(crate) fn brought_up(&mut self) {
        self.times.bringup_s = self.lap();
    }

    pub(crate) fn window_done(&mut self) {
        self.times.window_s = self.lap();
        self.allocs = heap::allocations() - self.allocs_at_settle;
    }

    pub(crate) fn exported(&mut self) {
        self.times.export_s = self.lap();
    }
}

/// Everything the workload's client callbacks record.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Acked write latencies (submit or due time → ack), seconds.
    pub writes: Vec<f64>,
    /// Read latencies (due time → completion), seconds.
    pub reads: Vec<f64>,
    /// `allocate`/`mount`/`release` latencies (submit → callback), seconds.
    pub meta: Vec<f64>,
    /// Operations attempted, every kind.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong data.
    pub failed: u64,
    /// Bytes of acked writes.
    pub acked_bytes: u64,
    /// Reads whose data was checked against the written pattern.
    pub verified: u64,
    /// Reads that returned data other than the written pattern.
    pub mismatches: u64,
    /// Mount calls issued (each counts once in `client.remounts`).
    pub mounts: u64,
}

/// Shared handle to the [`OpLog`], cloned into callbacks.
#[derive(Debug, Clone, Default)]
pub(crate) struct Log(Rc<RefCell<OpLog>>);

impl Log {
    pub(crate) fn attempt(&self) {
        self.0.borrow_mut().attempted += 1;
    }

    pub(crate) fn fail(&self) {
        self.0.borrow_mut().failed += 1;
    }

    pub(crate) fn meta(&self, secs: f64, ok: bool) {
        let mut l = self.0.borrow_mut();
        if ok {
            l.meta.push(secs);
        } else {
            l.failed += 1;
        }
    }

    pub(crate) fn write(&self, secs: f64, bytes: u64) {
        let mut l = self.0.borrow_mut();
        l.writes.push(secs);
        l.acked_bytes += bytes;
    }

    /// A completed read, and whether it returned the written pattern.
    pub(crate) fn read(&self, secs: f64, matches: bool) {
        let mut l = self.0.borrow_mut();
        if matches {
            l.verified += 1;
            l.reads.push(secs);
        } else {
            l.mismatches += 1;
            l.failed += 1;
        }
    }

    pub(crate) fn mounted(&self) {
        self.0.borrow_mut().mounts += 1;
    }

    pub(crate) fn take(&self) -> OpLog {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

/// The deterministic contents of a space: every byte is a function of the
/// space's name and the byte's offset, so any read can be checked no
/// matter which write put the data there.
pub(crate) fn pattern(space: SpaceName, offset: u64, len: usize) -> Vec<u8> {
    debug_assert_eq!(offset % 8, 0, "pattern reads are word-aligned");
    let key =
        (u64::from(space.unit.0) << 40) ^ (u64::from(space.disk.0) << 20) ^ u64::from(space.space);
    let mut out = Vec::with_capacity(len);
    let mut word = offset / 8;
    while out.len() < len {
        let w = mix(key ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&w.to_le_bytes()[..take]);
        word += 1;
    }
    out
}

/// SplitMix64 finaliser.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit, the dependency-free fingerprint of telemetry exports.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One world's telemetry export, folded into the run digest.
pub(crate) fn world_digest(metrics_json: &str, spans_json: &str, csv: &str) -> u64 {
    fnv1a(metrics_json.as_bytes())
        ^ fnv1a(spans_json.as_bytes()).rotate_left(1)
        ^ fnv1a(csv.as_bytes()).rotate_left(2)
}

/// The phases of one `failover` span tree, seconds.
#[derive(Debug, Clone, Copy)]
pub struct FailoverSpan {
    /// Root span: failure injection until clients read again.
    pub total: f64,
    /// `failover.detection`.
    pub detection: f64,
    /// `failover.reconfiguration`.
    pub reconfiguration: f64,
    /// `failover.remount`.
    pub remount: f64,
}

/// Sharded-engine coordinator counters.
#[derive(Debug, Clone, Copy)]
pub struct ShardCounts {
    /// Epoch windows.
    pub epochs: u64,
    /// Synchronisation rounds.
    pub sync_rounds: u64,
    /// Envelopes routed across worlds.
    pub cross_messages: u64,
}

/// What a workload observed in one run.
#[derive(Debug)]
pub struct Observed {
    /// Client-side operation log.
    pub ops: OpLog,
    /// Length of the measured window, simulated seconds.
    pub window_s: f64,
    /// Simulated seconds of the whole run.
    pub sim_seconds: f64,
    /// Modelled disk energy over the window, joules.
    pub disk_energy_j: f64,
    /// Disks in the pod.
    pub disks: u32,
    /// USB host links in the pod.
    pub hosts: u32,
    /// Engine events over the whole run, every world.
    pub events: u64,
    /// Peak live event-queue depth of the deepest world.
    pub peak_queue_depth: f64,
    /// Metrics registries of every world.
    pub registry: Registry,
    /// Digest over the full telemetry export.
    pub digest: u64,
    /// Coordinator counters (sharded engine only).
    pub shard: Option<ShardCounts>,
    /// Wall-clock profiler snapshot (traced runs only).
    pub prof: Option<ProfSnapshot>,
    /// Request-lifecycle snapshot (traced runs only).
    pub trace: Option<TraceSnapshot>,
    /// Closed `failover` span trees.
    pub failovers: Vec<FailoverSpan>,
    /// Seconds disks spent spinning up, whole pod, whole run.
    pub spinning_up_s: f64,
    /// Share of disk time spent in standby or powered off, whole run.
    pub standby_share: f64,
    /// Longest replicated metadata log at the end of the run.
    pub max_log_len: u64,
    /// Host phase times.
    pub host: HostTimes,
    /// Peak live heap bytes over the run, above the live heap at its start.
    pub peak_heap_bytes: u64,
    /// Allocations from the start of settling to the end of the window.
    pub allocs: u64,
}

/// Runs one workload once.
pub fn run(workload: Workload, opts: RunOpts) -> Observed {
    match workload {
        Workload::ArchiveMix => archive_mix::run(opts),
        Workload::ColdThaw => cold_thaw::run(opts),
        Workload::ControlChurn => control_churn::run(opts),
    }
}

/// A fingerprint of the inputs a workload generates from `seed`, before
/// any pod is built.
pub fn inputs_fingerprint(workload: Workload, seed: u64, scale: Scale) -> u64 {
    match workload {
        Workload::ArchiveMix => archive_mix::inputs_fingerprint(seed, scale),
        Workload::ColdThaw => cold_thaw::inputs_fingerprint(seed, scale),
        Workload::ControlChurn => control_churn::inputs_fingerprint(seed, scale),
    }
}

/// An end-to-end metric as one run measured it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when the run produced no samples for it.
    pub value: Option<f64>,
    /// Samples behind the value (0 for non-sample metrics).
    pub samples: usize,
    /// Quantile reported, for percentiles.
    pub quantile: Option<f64>,
}

/// The simulated-time end-to-end metrics of a run (exact per seed).
pub fn sim_metrics(o: &Observed) -> Vec<Metric> {
    let ops = &o.ops;
    let pct = |name, samples: &[f64], q: f64, scale: f64, unit| {
        let t = tail(samples, q);
        Metric {
            name,
            unit,
            value: t.map(|t| t.value * scale),
            samples: samples.len(),
            quantile: t.map(|t| t.quantile),
        }
    };
    let plain = |name, unit, value: Option<f64>, samples| Metric {
        name,
        unit,
        value,
        samples,
        quantile: None,
    };
    let attempted = ops.attempted.max(1) as f64;
    vec![
        plain(
            "ingest_mb_s",
            "MB/s",
            (ops.acked_bytes > 0).then(|| ops.acked_bytes as f64 / 1e6 / o.window_s),
            ops.writes.len(),
        ),
        pct("write_p50_ms", &ops.writes, 0.50, 1e3, "ms"),
        pct("write_p99_ms", &ops.writes, 0.99, 1e3, "ms"),
        pct("read_ttfb_p50_ms", &ops.reads, 0.50, 1e3, "ms"),
        pct("read_ttfb_p99_ms", &ops.reads, 0.99, 1e3, "ms"),
        pct("meta_p50_ms", &ops.meta, 0.50, 1e3, "ms"),
        pct("meta_p99_ms", &ops.meta, 0.99, 1e3, "ms"),
        plain(
            "disk_avg_w",
            "W",
            Some(o.disk_energy_j / o.window_s),
            o.disks as usize,
        ),
        plain(
            "ok_ratio",
            "ratio",
            Some(1.0 - ops.failed as f64 / attempted),
            ops.attempted as usize,
        ),
    ]
}

/// The per-layer metrics of a run, read from the program's telemetry
/// snapshot, coordinator counters, span log and (when traced) the request
/// tracer and wall-clock profiler. Host-time metrics of the benchmark's
/// own spans are added by the caller.
pub fn layer_metrics(o: &Observed) -> BTreeMap<&'static str, f64> {
    let r = &o.registry;
    let ms = |ns: f64| ns / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phase_median = |f: fn(&FailoverSpan) -> f64| {
        let v: Vec<f64> = o.failovers.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let failover_tail = |q| {
        let v: Vec<f64> = o.failovers.iter().map(|f| f.total).collect();
        tail(&v, q).map_or(0.0, |t| t.value)
    };
    let host_window = o.host.settle_s + o.host.bringup_s + o.host.window_s;
    let mut m = BTreeMap::new();
    m.insert("sim.events", o.events as f64);
    m.insert(
        "sim.host_us_per_event",
        ratio(host_window * 1e6, o.events as f64),
    );
    m.insert(
        "sim.allocs_per_event",
        ratio(o.allocs as f64, o.events as f64),
    );
    m.insert(
        "sim.events_per_sim_s",
        ratio(o.events as f64, o.sim_seconds),
    );
    m.insert("sim.peak_queue_depth", o.peak_queue_depth);

    let shard = o.shard.unwrap_or(ShardCounts {
        epochs: 0,
        sync_rounds: 0,
        cross_messages: 0,
    });
    m.insert("shard.epochs", shard.epochs as f64);
    m.insert("shard.sync_rounds", shard.sync_rounds as f64);
    m.insert("shard.cross_messages", shard.cross_messages as f64);
    let (barrier, imbalance) = match &o.prof {
        Some(p) if !p.worlds.is_empty() => {
            let total: u64 = p.worlds.iter().map(|w| w.total_ns()).sum();
            let barrier = p.phase_total_ns(Phase::BarrierWait) as f64;
            let exec: Vec<f64> = p
                .worlds
                .iter()
                .map(|w| w.phase_ns[Phase::Execute as usize] as f64)
                .collect();
            let mean = exec.iter().sum::<f64>() / exec.len() as f64;
            let max = exec.iter().copied().fold(0.0, f64::max);
            (ratio(barrier, total as f64), ratio(max, mean))
        }
        _ => (0.0, 1.0),
    };
    m.insert("shard.barrier_wait_share", barrier);
    m.insert("shard.exec_imbalance", imbalance);

    m.insert("net.sent", r.gauge_sum("net.sent"));
    m.insert("net.dropped", r.gauge_sum("net.dropped"));
    m.insert("rpc.timeouts", r.counter("rpc.timeouts"));
    m.insert("rpc.rtt_p99_ms", ms(r.hist_p99("rpc.rtt_ns")));
    m.insert(
        "iscsi.bytes",
        r.counter("iscsi.read_bytes") + r.counter("iscsi.write_bytes"),
    );

    let disk_ios = r.counter("disk.reads") + r.counter("disk.writes");
    m.insert(
        "disk.seeks_per_io",
        ratio(r.counter("disk.seeks"), disk_ios),
    );
    m.insert("disk.latency_p99_ms", ms(r.hist_p99("disk.latency_ns")));
    m.insert("disk.spinning_up_s", o.spinning_up_s);
    m.insert("disk.standby_share", o.standby_share);

    let link_ns = r.counter("usb.link_out_busy_ns") + r.counter("usb.link_in_busy_ns");
    m.insert(
        "usb.link_busy_share",
        ratio(link_ns, 2.0 * f64::from(o.hosts) * o.sim_seconds * 1e9),
    );
    m.insert("usb.enumerations", r.counter("usb.enumerations"));
    m.insert("fabric.switch_flips", r.counter("fabric.switch_flips"));
    m.insert(
        "fabric.reconfig_p99_ms",
        ms(r.hist_p99("fabric.reconfig_latency_ns")),
    );

    let meta_ops = o.ops.meta.len() as f64;
    m.insert(
        "consensus.proposals_per_meta_op",
        ratio(r.counter("consensus.proposals"), meta_ops),
    );
    m.insert("consensus.max_log_len", o.max_log_len as f64);
    m.insert("consensus.elections", r.counter("consensus.elections"));

    m.insert("master.heartbeats", r.counter("master.heartbeats"));
    m.insert(
        "endpoint.heartbeats_sent",
        r.counter("endpoint.heartbeats_sent"),
    );

    let lease = o.trace.as_ref().and_then(|t| t.lease_hit_rate());
    m.insert("clientlib.lease_hit_ratio", lease.unwrap_or(0.0));
    m.insert(
        "clientlib.remounts",
        (r.counter("client.remounts") - o.ops.mounts as f64).max(0.0),
    );
    m.insert("clientlib.io_retries", r.counter("client.io_retries"));

    m.insert("failover_p50_s", failover_tail(0.5));
    m.insert("failover_p90_s", failover_tail(0.9));
    m.insert("failover.detection_s", phase_median(|f| f.detection));
    m.insert(
        "failover.reconfiguration_s",
        phase_median(|f| f.reconfiguration),
    );
    m.insert("failover.remount_s", phase_median(|f| f.remount));
    m.insert("watchdog.escalations", r.counter("watchdog.escalations"));
    m.insert(
        "failed_ratio",
        ratio(o.ops.failed as f64, o.ops.attempted as f64),
    );
    m.insert("failovers", o.failovers.len() as f64);
    m.insert("meta_ops", meta_ops);
    m.insert("readback_checked", o.ops.verified as f64);

    if let Some(t) = &o.trace {
        for stage in Stage::ALL {
            let mut h = t.kind(ReqKind::Read).stages[stage as usize].clone();
            h.merge(&t.kind(ReqKind::Write).stages[stage as usize]);
            m.insert(
                stage_metric(stage),
                ms(h.quantile(0.99).unwrap_or(0) as f64),
            );
        }
        m.insert("stage.coverage", stage_coverage(t));
    }
    m
}

/// Lowest share of end-to-end latency the stage attribution explains, over
/// both request kinds at p50 and p99 (1 when nothing completed).
fn stage_coverage(t: &TraceSnapshot) -> f64 {
    [0.5, 0.99]
        .into_iter()
        .filter_map(|q| t.min_coverage(q))
        .fold(1.0, f64::min)
}

fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::ClientQueue => "stage.client_queue_p99_ms",
        Stage::MasterLookup => "stage.master_lookup_p99_ms",
        Stage::NetTransit => "stage.net_transit_p99_ms",
        Stage::EndpointQueue => "stage.endpoint_queue_p99_ms",
        Stage::SpinUpWait => "stage.spin_up_wait_p99_ms",
        Stage::Seek => "stage.seek_p99_ms",
        Stage::Transfer => "stage.transfer_p99_ms",
        Stage::Retry => "stage.retry_p99_ms",
    }
}

/// Allocates one space of `size` per `(client, service)` pair, timing
/// each as a metadata operation, with at most `depth` in flight.
/// `advance` runs the engine; it is called in short steps until every
/// callback has fired. Returns the spaces in input order (`None` where
/// the allocation failed).
pub(crate) fn allocate_all(
    sim: &ustore_sim::Sim,
    clients: &[(ustore::UStoreClient, String)],
    size: u64,
    depth: usize,
    log: &Log,
    advance: impl FnMut(std::time::Duration),
) -> Vec<Option<ustore::SpaceInfo>> {
    let out: Rc<RefCell<Vec<Option<Option<ustore::SpaceInfo>>>>> =
        Rc::new(RefCell::new(vec![None; clients.len()]));
    let queue = Rc::new(clients.to_vec());
    for i in 0..depth.min(clients.len()) {
        allocate_next(sim, queue.clone(), i, depth, size, log.clone(), out.clone());
    }
    wait_all(out, advance)
}

fn allocate_next(
    sim: &ustore_sim::Sim,
    queue: Rc<Vec<(ustore::UStoreClient, String)>>,
    i: usize,
    depth: usize,
    size: u64,
    log: Log,
    out: Rc<RefCell<Vec<Option<Option<ustore::SpaceInfo>>>>>,
) {
    let Some((client, service)) = queue.get(i).cloned() else {
        return;
    };
    let asked = sim.now();
    log.attempt();
    client.allocate(sim, service, size, move |sim, r| {
        log.meta(secs_since(sim, asked), r.is_ok());
        out.borrow_mut()[i] = Some(r.ok());
        allocate_next(sim, queue, i + depth, depth, size, log, out);
    });
}

/// Mounts each `(client, space)` pair, timing each as a metadata
/// operation; otherwise like [`allocate_all`].
pub(crate) fn mount_all(
    sim: &ustore_sim::Sim,
    spaces: &[(ustore::UStoreClient, SpaceName)],
    log: &Log,
    advance: impl FnMut(std::time::Duration),
) -> Vec<Option<ustore::Mounted>> {
    let out: Rc<RefCell<Vec<Option<Option<ustore::Mounted>>>>> =
        Rc::new(RefCell::new(vec![None; spaces.len()]));
    for (i, (client, name)) in spaces.iter().enumerate() {
        let (out, log) = (out.clone(), log.clone());
        let asked = sim.now();
        log.attempt();
        log.mounted();
        client.mount(sim, *name, move |sim, r| {
            log.meta(secs_since(sim, asked), r.is_ok());
            out.borrow_mut()[i] = Some(r.ok());
        });
    }
    wait_all(out, advance)
}

fn wait_all<T: Clone>(
    out: Rc<RefCell<Vec<Option<Option<T>>>>>,
    mut advance: impl FnMut(std::time::Duration),
) -> Vec<Option<T>> {
    while out.borrow().iter().any(Option::is_none) {
        advance(std::time::Duration::from_millis(100));
    }
    let out = out.borrow();
    out.iter().map(|r| r.clone().flatten()).collect()
}

/// [`allocate_all`] then [`mount_all`]: the mounted spaces in input order,
/// `None` where either step failed.
pub(crate) fn bring_up(
    sim: &ustore_sim::Sim,
    clients: &[(ustore::UStoreClient, String)],
    size: u64,
    log: &Log,
    mut advance: impl FnMut(std::time::Duration),
) -> Vec<Option<(SpaceName, ustore::Mounted)>> {
    let infos = allocate_all(sim, clients, size, clients.len(), log, &mut advance);
    let (ok, pairs): (Vec<usize>, Vec<_>) = infos
        .iter()
        .enumerate()
        .filter_map(|(i, info)| Some((i, (clients[i].0.clone(), info.as_ref()?.name))))
        .unzip();
    let mounts = mount_all(sim, &pairs, log, advance);
    let mut out = vec![None; clients.len()];
    for ((i, (_, name)), m) in ok.into_iter().zip(pairs).zip(mounts) {
        out[i] = m.map(|m| (name, m));
    }
    out
}

/// Simulated seconds from `t` to now.
pub(crate) fn secs_since(sim: &ustore_sim::Sim, t: ustore_sim::SimTime) -> f64 {
    sim.now().duration_since(t).as_secs_f64()
}

/// The first whole simulated second at or after `t`.
pub(crate) fn next_second(t: ustore_sim::SimTime) -> ustore_sim::SimTime {
    let s = t.as_nanos().div_ceil(1_000_000_000);
    ustore_sim::SimTime::from_secs(s)
}

/// Every end-to-end metric with its unit, in reporting order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("ingest_mb_s", "MB/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_ttfb_p50_ms", "ms"),
    ("read_ttfb_p99_ms", "ms"),
    ("meta_p50_ms", "ms"),
    ("meta_p99_ms", "ms"),
    ("disk_avg_w", "W"),
    ("ok_ratio", "ratio"),
];

/// Every per-layer metric with its unit, in reporting order.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("bench.build_s", "s"),
    ("bench.settle_s", "s"),
    ("bench.bringup_s", "s"),
    ("bench.window_s", "s"),
    ("bench.export_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("sim.allocs_per_event", "count"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.peak_queue_depth", "count"),
    ("shard.epochs", "count"),
    ("shard.sync_rounds", "count"),
    ("shard.cross_messages", "count"),
    ("shard.barrier_wait_share", "ratio"),
    ("shard.exec_imbalance", "ratio"),
    ("net.sent", "count"),
    ("net.dropped", "count"),
    ("rpc.timeouts", "count"),
    ("rpc.rtt_p99_ms", "ms"),
    ("iscsi.bytes", "B"),
    ("disk.seeks_per_io", "ratio"),
    ("disk.latency_p99_ms", "ms"),
    ("disk.spinning_up_s", "s"),
    ("disk.standby_share", "ratio"),
    ("usb.link_busy_share", "ratio"),
    ("usb.enumerations", "count"),
    ("fabric.switch_flips", "count"),
    ("fabric.reconfig_p99_ms", "ms"),
    ("consensus.proposals_per_meta_op", "ratio"),
    ("consensus.max_log_len", "count"),
    ("consensus.elections", "count"),
    ("master.heartbeats", "count"),
    ("endpoint.heartbeats_sent", "count"),
    ("clientlib.lease_hit_ratio", "ratio"),
    ("clientlib.remounts", "count"),
    ("clientlib.io_retries", "count"),
    ("failover_p50_s", "s"),
    ("failover_p90_s", "s"),
    ("failover.detection_s", "s"),
    ("failover.reconfiguration_s", "s"),
    ("failover.remount_s", "s"),
    ("watchdog.escalations", "count"),
    ("failed_ratio", "ratio"),
    ("stage.client_queue_p99_ms", "ms"),
    ("stage.master_lookup_p99_ms", "ms"),
    ("stage.net_transit_p99_ms", "ms"),
    ("stage.endpoint_queue_p99_ms", "ms"),
    ("stage.spin_up_wait_p99_ms", "ms"),
    ("stage.seek_p99_ms", "ms"),
    ("stage.transfer_p99_ms", "ms"),
    ("stage.retry_p99_ms", "ms"),
    ("stage.coverage", "ratio"),
    ("failovers", "count"),
    ("meta_ops", "count"),
    ("readback_checked", "count"),
];
