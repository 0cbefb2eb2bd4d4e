//! `archive_mix`: closed-loop sequential ingest beside an open-loop
//! restore of scattered 4 KiB reads, on the 64-unit, 1024-disk pod
//! executed by the sharded engine on two threads.
//!
//! Chosen because the data path (ClientLib → iSCSI → EndPoint → USB →
//! disk) and the shard coordinator do nearly all the work, while spin-up,
//! consensus and the Controller stay idle: no disk idles long enough to
//! spin down and nothing fails.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use ustore::{
    Mounted, ShardedPod, ShardedPodConfig, SpaceName, SystemConfig, TelemetryPlan, TracePlan,
};
use ustore_net::BlockDevice;
use ustore_sim::{ScraperConfig, Sim, SimRng, SimTime, TraceLevel};

use crate::telemetry::{csv_deltas, Registry};
use crate::{
    bring_up, mount_all, next_second, pattern, secs_since, world_digest, Clock, Log, Observed,
    RunOpts, Scale, ShardCounts,
};

const BLOCK: u64 = 64 << 10;
const PAGE: u64 = 4 << 10;

struct Shape {
    units: u32,
    groups: u32,
    shards: usize,
    /// Ingest streams; each has its own client and space.
    streams: u32,
    /// Each stream writes sequentially through a ring of this many
    /// 64 KiB blocks, which bounds the data the disks keep in memory.
    ring_blocks: u64,
    /// Restore reads per client per second.
    reads_per_s: f64,
    /// Measured window; no new op is issued in its last `drain`.
    window: Duration,
    drain: Duration,
}

impl Shape {
    fn new(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                units: 64,
                groups: 8,
                shards: 2,
                streams: 16,
                ring_blocks: 32,
                reads_per_s: 25.0,
                window: Duration::from_secs(15),
                drain: Duration::from_secs(1),
            },
            Scale::Tiny => Shape {
                units: 4,
                groups: 2,
                shards: 2,
                streams: 4,
                ring_blocks: 8,
                reads_per_s: 10.0,
                window: Duration::from_secs(3),
                drain: Duration::from_secs(1),
            },
        }
    }
}

/// The generated inputs: per stream, its restore reads as (offset from the
/// window start, random pick of an acked page).
fn inputs(seed: u64, shape: &Shape) -> Vec<Vec<(Duration, u64)>> {
    let mut rng = SimRng::seed_from(seed);
    let interval = 1.0 / shape.reads_per_s;
    let load = (shape.window - shape.drain).as_secs_f64();
    (0..shape.streams)
        .map(|_| {
            let mut t = rng.f64() * interval;
            let mut reads = Vec::new();
            while t < load {
                reads.push((Duration::from_secs_f64(t), rng.next_u64()));
                t += interval;
            }
            reads
        })
        .collect()
}

struct Stream {
    mount: Mounted,
    restore: Mounted,
    space: SpaceName,
    /// The ring's contents, generated once so the window spends no time
    /// on it.
    blocks: Vec<Vec<u8>>,
    acked: Cell<u64>,
}

/// Fingerprint of the inputs `seed` generates.
pub(crate) fn inputs_fingerprint(seed: u64, scale: Scale) -> u64 {
    crate::fnv1a(format!("{:?}", inputs(seed, &Shape::new(scale))).as_bytes())
}

pub(crate) fn run(opts: RunOpts) -> Observed {
    let shape = Shape::new(opts.scale);
    let inputs = inputs(opts.seed, &shape);
    let names: Vec<String> = (0..shape.streams).map(|c| format!("archive-{c}")).collect();

    let mut clock = Clock::start();
    let system = SystemConfig {
        units: shape.units,
        ..SystemConfig::default()
    };
    let (disks, hosts) = (shape.units * system.disks, shape.units * system.hosts);
    let mut pod = ShardedPod::build(
        opts.seed,
        &ShardedPodConfig {
            system,
            groups: shape.groups,
            shards: shape.shards,
            clients: names.clone(),
            telemetry: Some(TelemetryPlan {
                start: SimTime::from_secs(15),
                scraper: ScraperConfig {
                    interval: Duration::from_secs(1),
                    retention: 1024,
                },
            }),
            trace_level: TraceLevel::Warn,
            profile: opts.traced,
            trace: opts.traced.then(TracePlan::default),
        },
    );
    clock.built();
    pod.run_until(SimTime::from_secs(15));
    assert!(
        pod.active_master().is_some(),
        "pod bring-up elects a master"
    );
    clock.settled();

    let sim = pod.sim.clone();
    let log = Log::default();
    let clients: Vec<_> = (0..shape.streams as usize)
        .map(|i| (pod.clients[i].clone(), format!("archive-svc-{i}")))
        .collect();
    let spaces: Vec<(SpaceName, Mounted)> =
        bring_up(&sim, &clients, 1 << 30, &log, |d| pod.run_for(d))
            .into_iter()
            .map(|s| s.expect("archive_mix bring-up serves every stream"))
            .collect();
    // The restore job opens its own session on each space.
    let again: Vec<_> = clients
        .iter()
        .zip(&spaces)
        .map(|((c, _), (space, _))| (c.clone(), *space))
        .collect();
    let restores = mount_all(&sim, &again, &log, |d| pod.run_for(d));
    let ring = shape.ring_blocks;
    let streams: Vec<Rc<Stream>> = spaces
        .into_iter()
        .zip(restores)
        .map(|((space, mount), restore)| {
            Rc::new(Stream {
                mount,
                restore: restore.expect("archive_mix bring-up mounts every restore session"),
                space,
                blocks: (0..ring)
                    .map(|k| pattern(space, k * BLOCK, BLOCK as usize))
                    .collect(),
                acked: Cell::new(0),
            })
        })
        .collect();
    let w0 = next_second(pod.now());
    pod.run_until(w0);
    clock.brought_up();

    let load_end = w0 + (shape.window - shape.drain);
    let end = w0 + shape.window;
    for (stream, reads) in streams.into_iter().zip(inputs) {
        let st = stream.clone();
        let log2 = log.clone();
        sim.schedule_at(w0, move |sim| write_next(sim, st, log2, 0, load_end));
        schedule_read(&sim, stream, log.clone(), Rc::new(reads), 0, w0);
    }
    pod.run_until(end);
    clock.window_done();

    let shard = ShardCounts {
        epochs: pod.epochs(),
        sync_rounds: pod.sync_rounds(),
        cross_messages: pod.cross_messages(),
    };
    let prof = pod.prof_snapshot();
    let trace = pod.trace_snapshot();
    let sim_seconds = pod.now().as_secs_f64();
    drop((sim, clients));
    let worlds = pod.finalize();

    let mut registry = Registry::default();
    let mut digest = 0u64;
    let (mut events, mut peak, mut max_log) = (0u64, 0f64, 0u64);
    let (mut joules, mut watched) = (0f64, 0usize);
    let (from, to) = (w0.as_secs_f64(), end.as_secs_f64());
    for w in &worlds {
        registry.add_json(&w.metrics_json);
        digest =
            digest.rotate_left(7) ^ world_digest(&w.metrics_json, &w.spans_json, &w.scrape_csv);
        events += w.events;
        peak = peak.max(w.peak_queue_depth);
        max_log = max_log.max(w.partition_logs.iter().map(|&(_, l)| l).max().unwrap_or(0));
        for (_, delta, _) in csv_deltas(&w.scrape_csv, "power.energy_j", from, to) {
            joules += delta;
            watched += 1;
        }
    }
    // Disk names repeat across the units of a world, so each world's
    // export keeps the power gauges of one unit only. Those disks stand in
    // for all of them.
    let scale = if watched > 0 {
        f64::from(disks) / watched as f64
    } else {
        0.0
    };
    let (standby, all_states) = residency_shares(&registry);
    let spinning_up = registry.gauge_sum("power.residency.spinning_up_s") * scale;
    drop(worlds);
    clock.exported();

    Observed {
        ops: log.take(),
        window_s: shape.window.as_secs_f64(),
        sim_seconds,
        disk_energy_j: joules * scale,
        disks,
        hosts,
        events,
        peak_queue_depth: peak,
        registry,
        digest,
        shard: Some(shard),
        prof,
        trace,
        failovers: Vec::new(),
        spinning_up_s: spinning_up,
        standby_share: if all_states > 0.0 {
            standby / all_states
        } else {
            0.0
        },
        max_log_len: max_log,
        host: clock.times,
        peak_heap_bytes: clock.peak_heap(),
        allocs: clock.allocs,
    }
}

/// Standby plus powered-off residency, and residency in every state, summed
/// over the disks whose gauges the export carries.
fn residency_shares(r: &Registry) -> (f64, f64) {
    let s = |n| r.gauge_sum(n);
    let standby = s("power.residency.standby_s") + s("power.residency.powered_off_s");
    let all = standby
        + s("power.residency.idle_s")
        + s("power.residency.active_s")
        + s("power.residency.spinning_up_s");
    (standby, all)
}

fn write_next(sim: &Sim, st: Rc<Stream>, log: Log, k: u64, load_end: SimTime) {
    if sim.now() >= load_end {
        return;
    }
    let ring = st.blocks.len() as u64;
    let offset = (k % ring) * BLOCK;
    let data = st.blocks[(k % ring) as usize].clone();
    let asked = sim.now();
    log.attempt();
    let st2 = st.clone();
    st.mount.write(
        sim,
        offset,
        data,
        Box::new(move |sim, r| {
            match r {
                Ok(()) => {
                    log.write(secs_since(sim, asked), BLOCK);
                    st2.acked.set(st2.acked.get().max(k + 1));
                }
                Err(_) => log.fail(),
            }
            write_next(sim, st2, log, k + 1, load_end);
        }),
    );
}

fn schedule_read(
    sim: &Sim,
    st: Rc<Stream>,
    log: Log,
    schedule: Rc<Vec<(Duration, u64)>>,
    i: usize,
    w0: SimTime,
) {
    let Some(&(at, pick)) = schedule.get(i) else {
        return;
    };
    let due = w0 + at;
    sim.schedule_at(due, move |sim| {
        let written = st.acked.get().min(st.blocks.len() as u64);
        if written > 0 {
            let offset = (pick % written) * BLOCK + ((pick >> 32) % (BLOCK / PAGE)) * PAGE;
            let expect = pattern(st.space, offset, PAGE as usize);
            let log2 = log.clone();
            log.attempt();
            st.restore.read(
                sim,
                offset,
                PAGE,
                Box::new(move |sim, r| match r {
                    Ok(data) => log2.read(secs_since(sim, due), data == expect),
                    Err(_) => log2.fail(),
                }),
            );
        }
        schedule_read(sim, st, log, schedule, i + 1, w0);
    });
}
