//! `cold_thaw`: an hour of sparse open-loop object traffic over a 16-unit,
//! 256-disk pod whose idle disks spin down after the default 300 s, then
//! a bulk restore that starts on every service's space at one instant.
//!
//! Chosen because the disk power path (spin-down, spin-up, relays) and the
//! engine's background timers do the work while the data path carries
//! little: most reads find their disk in standby and pay the spin-up, so
//! `read_ttfb_p99_ms` and `disk_avg_w` trade against each other here. The
//! thaw is shaped after bulk restores of archived data: many cold volumes
//! are wanted back at once.

use std::rc::Rc;
use std::time::Duration;

use ustore::{ClientLibConfig, Mounted, SpaceName, SystemConfig};
use ustore_net::BlockDevice;
use ustore_sim::{Sim, SimRng, SimTime};
use ustore_workload::{generate, TraceConfig, TraceOp};

use crate::classic::Classic;
use crate::{bring_up, next_second, pattern, secs_since, Clock, Log, Observed, RunOpts, Scale};

const OBJECT: u64 = 16 << 10;
const PAGE: u64 = 4 << 10;

struct Shape {
    units: u32,
    /// Services, each with one client and one space.
    services: u32,
    /// Objects per space; all are written when the window opens.
    objects_per_space: u64,
    /// Accesses per hour at peak intensity (the diurnal curve starts in
    /// its trough).
    peak_per_hour: f64,
    /// When the trace starts, after the window opens.
    trace_from: Duration,
    /// When the bulk thaw starts, after the window opens.
    thaw_at: Duration,
    /// Pages each thaw stream reads back, one after another.
    thaw_pages: u64,
    /// No new op is issued after `load`; the window ends `drain` later.
    load: Duration,
    drain: Duration,
}

impl Shape {
    fn new(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                units: 16,
                services: 32,
                objects_per_space: 4,
                peak_per_hour: 4000.0,
                trace_from: Duration::from_secs(60),
                thaw_at: Duration::from_secs(2700),
                thaw_pages: 4,
                load: Duration::from_secs(3600),
                drain: Duration::from_secs(120),
            },
            Scale::Tiny => Shape {
                units: 2,
                services: 4,
                objects_per_space: 4,
                peak_per_hour: 4000.0,
                trace_from: Duration::from_secs(10),
                thaw_at: Duration::from_secs(400),
                thaw_pages: 2,
                load: Duration::from_secs(420),
                drain: Duration::from_secs(60),
            },
        }
    }
}

/// The generated inputs: the object trace.
fn inputs(seed: u64, shape: &Shape) -> Vec<TraceOp> {
    let objects = (u64::from(shape.services) * shape.objects_per_space) as usize;
    generate(
        &TraceConfig {
            objects,
            skew: 0.9,
            peak_per_hour: shape.peak_per_hour,
            trough_ratio: 0.2,
            read_fraction: 0.7,
        },
        shape.load - shape.trace_from,
        &mut SimRng::seed_from(seed),
    )
}

/// Fingerprint of the inputs `seed` generates.
pub(crate) fn inputs_fingerprint(seed: u64, scale: Scale) -> u64 {
    crate::fnv1a(format!("{:?}", inputs(seed, &Shape::new(scale))).as_bytes())
}

pub(crate) fn run(opts: RunOpts) -> Observed {
    let shape = Shape::new(opts.scale);
    let trace = inputs(opts.seed, &shape);

    let mut clock = Clock::start();
    let pod = Classic::build(
        opts,
        SystemConfig {
            units: shape.units,
            // Cold-tier clients wait out a spin-up. With the default IO
            // timeout (800 ms) every cold read times out and remounts, and
            // its spin-up wait is attributed to retries instead.
            clientlib: ClientLibConfig {
                io_timeout: Duration::from_secs(20),
                ..ClientLibConfig::default()
            },
            ..SystemConfig::default()
        },
        Duration::from_secs(60),
        &mut clock,
    );
    let sys = &pod.system;
    let sim = sys.sim.clone();
    let log = Log::default();
    let clients: Vec<_> = (0..shape.services)
        .map(|s| (sys.client(&format!("cold-{s}")), format!("cold-svc-{s}")))
        .collect();
    let spaces = bring_up(&sim, &clients, 1 << 30, &log, |d| {
        sim.run_until(sim.now() + d);
    });
    let spaces: Vec<(SpaceName, Mounted)> = spaces
        .into_iter()
        .map(|s| s.expect("cold_thaw bring-up serves every space"))
        .collect();
    let w0 = next_second(sim.now());
    sim.run_until(w0);
    let energy_at_w0 = pod.disk_energy_j();
    clock.brought_up();

    let load_end = w0 + shape.load;
    let spaces = Rc::new(spaces);
    for s in 0..spaces.len() {
        let (spaces, log) = (spaces.clone(), log.clone());
        let n = shape.objects_per_space;
        sim.schedule_at(w0, move |sim| ingest(sim, spaces, s, 0, n, log));
    }
    let services = u64::from(shape.services);
    for TraceOp { at, object, read } in trace {
        let due = w0 + shape.trace_from + at.duration_since(SimTime::ZERO);
        let (space, mount) = spaces[object % spaces.len()].clone();
        let offset = (object as u64 / services) * OBJECT;
        let log = log.clone();
        sim.schedule_at(due, move |sim| {
            log.attempt();
            if read {
                let expect = pattern(space, offset, PAGE as usize);
                mount.read(
                    sim,
                    offset,
                    PAGE,
                    Box::new(move |sim, r| match r {
                        Ok(data) => log.read(secs_since(sim, due), data == expect),
                        Err(_) => log.fail(),
                    }),
                );
            } else {
                mount.write(
                    sim,
                    offset,
                    pattern(space, offset, OBJECT as usize),
                    Box::new(move |sim, r| match r {
                        Ok(()) => log.write(secs_since(sim, due), OBJECT),
                        Err(_) => log.fail(),
                    }),
                );
            }
        });
    }
    // The thaw: every service opens a restore session on its space and
    // reads its first pages back one after another, all starting at the
    // same instant.
    let thaw = w0 + shape.thaw_at;
    for (&(space, _), (client, _)) in spaces.iter().zip(&clients) {
        let client = client.clone();
        let (log, pages) = (log.clone(), shape.thaw_pages);
        sim.schedule_at(thaw, move |sim| {
            log.attempt();
            log.mounted();
            let asked = sim.now();
            client.mount(sim, space, move |sim, r| {
                log.meta(secs_since(sim, asked), r.is_ok());
                if let Ok(m) = r {
                    restore(sim, Rc::new(m), space, 0, pages, log);
                }
            });
        });
    }
    sim.run_until(load_end + shape.drain);
    clock.window_done();
    drop(spaces);
    pod.finish(log, w0, energy_at_w0, clock)
}

/// Writes the space's objects one after another.
fn ingest(sim: &Sim, spaces: Rc<Vec<(SpaceName, Mounted)>>, s: usize, k: u64, n: u64, log: Log) {
    if k == n {
        return;
    }
    let (space, mount) = spaces[s].clone();
    let offset = k * OBJECT;
    let asked = sim.now();
    log.attempt();
    mount.write(
        sim,
        offset,
        pattern(space, offset, OBJECT as usize),
        Box::new(move |sim, r| {
            match r {
                Ok(()) => log.write(secs_since(sim, asked), OBJECT),
                Err(_) => log.fail(),
            }
            ingest(sim, spaces, s, k + 1, n, log);
        }),
    );
}

/// Reads pages `k..n` of a thawed space back, checking each.
fn restore(sim: &Sim, mount: Rc<Mounted>, space: SpaceName, k: u64, n: u64, log: Log) {
    if k == n {
        return;
    }
    // Objects in order, every page of each.
    let offset = (k / (OBJECT / PAGE)) * OBJECT + (k % (OBJECT / PAGE)) * PAGE;
    let expect = pattern(space, offset, PAGE as usize);
    let asked = sim.now();
    log.attempt();
    let m2 = mount.clone();
    mount.read(
        sim,
        offset,
        PAGE,
        Box::new(move |sim, r| {
            match r {
                Ok(data) => log.read(secs_since(sim, asked), data == expect),
                Err(_) => log.fail(),
            }
            restore(sim, m2, space, k + 1, n, log);
        }),
    );
}
