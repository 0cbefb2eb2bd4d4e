//! `control_churn`: closed-loop clients cycle allocate → mount → write and
//! read back a few blocks → lookup refresh → release on a 16-unit pod
//! with a 2 s client location lease, while a seeded schedule kills and
//! restores unit hosts that serve mounted spaces.
//!
//! Chosen because consensus appends, the Master, the lease cache, the
//! Controller's reconfiguration, the watchdog and ClientLib remounts do
//! most of the work; metadata writes (allocate, release) run beside
//! metadata reads (lease lookups), and the data path and spin-up stay
//! light.
//!
//! The metadata service has one partition. With several, on about a third
//! of seeds some partition's replica group never serves: every allocation
//! on its units fails with `MetadataUnavailable` for the whole run, and the
//! workload collapses. Until that is fixed a partitioned run cannot give
//! steady results.
//!
//! Besides the churning clients, one sentinel client per unit keeps a
//! long-lived mount and reads it at a fixed rate. Kills hit the hosts
//! serving sentinels, and a failover's root span is closed when the
//! sentinel reads again after its remount: kill to first good read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use ustore::{ClientLibConfig, Mounted, SpaceName, SystemConfig, UStoreClient, UnitId};
use ustore_fabric::{DiskId, HostId};
use ustore_net::BlockDevice;
use ustore_sim::{Sim, SimRng, SimTime};

use crate::classic::Classic;
use crate::{
    allocate_all, mount_all, next_second, pattern, secs_since, Clock, Log, Observed, RunOpts, Scale,
};

const BLOCK: u64 = 4 << 10;

struct Shape {
    units: u32,
    churners: u32,
    /// Blocks each churn cycle writes and reads back.
    blocks: u64,
    /// Sentinel reads per second, each.
    sentinel_reads_per_s: f64,
    /// First kill, after the window opens; then one every `kill_every`.
    first_kill: Duration,
    kill_every: Duration,
    /// How long a killed host stays down, and the pause before each
    /// failback step and before its unit may fail again.
    down_for: Duration,
    calm_after: Duration,
    /// No kill after `load - quiet`; no new op after `load`; the window
    /// ends `drain` after that.
    quiet: Duration,
    load: Duration,
    drain: Duration,
}

impl Shape {
    fn new(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                units: 16,
                churners: 12,
                blocks: 4,
                sentinel_reads_per_s: 4.0,
                first_kill: Duration::from_secs(10),
                kill_every: Duration::from_millis(1200),
                down_for: Duration::from_secs(8),
                calm_after: Duration::from_secs(4),
                quiet: Duration::from_secs(20),
                load: Duration::from_secs(230),
                drain: Duration::from_secs(40),
            },
            Scale::Tiny => Shape {
                units: 2,
                churners: 2,
                blocks: 2,
                sentinel_reads_per_s: 4.0,
                first_kill: Duration::from_secs(5),
                kill_every: Duration::from_secs(20),
                down_for: Duration::from_secs(8),
                calm_after: Duration::from_secs(4),
                quiet: Duration::from_secs(20),
                load: Duration::from_secs(60),
                drain: Duration::from_secs(30),
            },
        }
    }
}

/// Generated inputs: the kill schedule as (offset from the window start,
/// random pick of the sentinel whose host dies), and per sentinel the
/// phase of its read clock.
#[derive(Debug)]
struct Inputs {
    kills: Vec<(Duration, u64)>,
    phases: Vec<f64>,
    sentinel_disks: Vec<u32>,
}

fn inputs(seed: u64, shape: &Shape, disks_per_unit: u32) -> Inputs {
    let mut rng = SimRng::seed_from(seed);
    let mut kills = Vec::new();
    let mut t = shape.first_kill;
    while t < shape.load - shape.quiet {
        // Jitter each kill inside its slot so kills fall at every phase of
        // the heartbeat and sweep clocks.
        let jitter = shape.kill_every.mul_f64(rng.f64() * 0.5);
        kills.push((t + jitter, rng.next_u64()));
        t += shape.kill_every;
    }
    let phases = (0..shape.units).map(|_| rng.f64()).collect();
    let sentinel_disks = (0..shape.units)
        .map(|_| rng.u64_below(u64::from(disks_per_unit)) as u32)
        .collect();
    Inputs {
        kills,
        phases,
        sentinel_disks,
    }
}

struct Sentinel {
    space: SpaceName,
    mount: Mounted,
}

/// Open failovers: victim label → sentinel index.
type Open = Rc<RefCell<BTreeMap<String, usize>>>;

/// Fingerprint of the inputs `seed` generates.
pub(crate) fn inputs_fingerprint(seed: u64, scale: Scale) -> u64 {
    let shape = Shape::new(scale);
    let inputs = inputs(seed, &shape, SystemConfig::default().disks);
    crate::fnv1a(format!("{inputs:?}").as_bytes())
}

pub(crate) fn run(opts: RunOpts) -> Observed {
    let shape = Shape::new(opts.scale);
    let disks_per_unit = SystemConfig::default().disks;
    let input = inputs(opts.seed, &shape, disks_per_unit);

    let mut clock = Clock::start();
    let pod = Classic::build(
        opts,
        SystemConfig {
            units: shape.units,
            clientlib: ClientLibConfig {
                location_lease: Some(Duration::from_secs(2)),
                ..ClientLibConfig::default()
            },
            ..SystemConfig::default()
        },
        Duration::from_secs(1),
        &mut clock,
    );
    let sys = &pod.system;
    let sim = sys.sim.clone();
    let log = Log::default();
    // Every disk of the pod gets a long-lived tenant space (the allocator
    // fills disks in order, so this is what spreads tenants over every
    // unit); a sentinel client per unit mounts one of that unit's spaces.
    // The tenant client allocates one space at a time: concurrent calls of
    // one client share its Master hint, and when the first Master it asks
    // is the standby, every reply flips that hint and the calls keep
    // asking the standby until they give up.
    let tenant = sys.client("tenant");
    let tenants: Vec<_> = (0..shape.units * disks_per_unit)
        .map(|t| (tenant.clone(), format!("tenant-svc-{t}")))
        .collect();
    let infos = allocate_all(&sim, &tenants, 1 << 30, 1, &log, |d| {
        sim.run_until(sim.now() + d);
    });
    // A unit where no tenant allocation succeeded gets no sentinel; failed
    // allocations count as failed operations.
    let picks: Vec<(UStoreClient, SpaceName)> = (0..shape.units)
        .filter_map(|u| {
            let on_unit: Vec<SpaceName> = infos
                .iter()
                .flatten()
                .map(|i| i.name)
                .filter(|n| n.unit == UnitId(u))
                .collect();
            let pick = input.sentinel_disks[u as usize] as usize % on_unit.len().max(1);
            let space = *on_unit.get(pick)?;
            Some((sys.client(&format!("sentinel-{u}")), space))
        })
        .collect();
    let mounts = mount_all(&sim, &picks, &log, |d| {
        sim.run_until(sim.now() + d);
    });
    let sentinels: Vec<Rc<Sentinel>> = picks
        .iter()
        .zip(mounts)
        .map(|((_, space), m)| {
            Rc::new(Sentinel {
                space: *space,
                mount: m.expect("control_churn bring-up mounts every sentinel"),
            })
        })
        .collect();
    // Sentinel data is written during bring-up so every window read can
    // be checked.
    let pending = Rc::new(RefCell::new(sentinels.len()));
    for s in &sentinels {
        let p = pending.clone();
        s.mount.write(
            &sim,
            0,
            pattern(s.space, 0, BLOCK as usize),
            Box::new(move |_, r| {
                r.expect("sentinel seed write");
                *p.borrow_mut() -= 1;
            }),
        );
    }
    while *pending.borrow() > 0 {
        sim.run_until(sim.now() + Duration::from_millis(100));
    }
    let w0 = next_second(sim.now());
    sim.run_until(w0);
    let energy_at_w0 = pod.disk_energy_j();
    clock.brought_up();

    let load_end = w0 + shape.load;
    let open: Open = Rc::default();
    let interval = 1.0 / shape.sentinel_reads_per_s;
    for (i, s) in sentinels.iter().enumerate() {
        let first = w0 + Duration::from_secs_f64(input.phases[i] * interval);
        let step = Duration::from_secs_f64(interval);
        sentinel_read(
            &sim,
            s.clone(),
            i,
            first,
            step,
            load_end,
            log.clone(),
            open.clone(),
        );
    }
    let churn_units: Rc<RefCell<Vec<UnitId>>> = Rc::default();
    for c in 0..shape.churners {
        let client = sys.client(&format!("churn-{c}"));
        let service = format!("churn-svc-{c}");
        let cycle = Rc::new(Churn {
            client,
            service,
            blocks: shape.blocks,
            load_end,
            log: log.clone(),
            busy_units: churn_units.clone(),
        });
        sim.schedule_at(w0, move |sim| cycle.start(sim));
    }
    // Kills: each picks a sentinel whose unit is calm and holds no churn
    // space (churners measure the metadata path beside failovers, not
    // inside them; sentinels measure the latter), kills the host
    // serving it and restores the host `down_for` later. Once the Master
    // sees the host back, the benchmark asks it to move the displaced
    // disks home (`Master::recover_disk`, the operator's failback), so
    // every unit can fail again. The benchmark makes these calls itself,
    // between engine runs.
    let home: BTreeMap<(UnitId, DiskId), HostId> = sys
        .runtimes
        .iter()
        .enumerate()
        .flat_map(|(u, rt)| {
            rt.disk_ids()
                .into_iter()
                .filter_map(move |d| Some(((UnitId(u as u32), d), rt.attached_host(d)?)))
        })
        .collect();
    let mut kills = input.kills.into_iter().peekable();
    let mut actions: Vec<(SimTime, Action)> = Vec::new();
    let mut busy: BTreeMap<UnitId, SimTime> = BTreeMap::new();
    loop {
        let next_kill = kills.peek().map(|&(at, _)| w0 + at);
        let next_action = actions.first().map(|a| a.0);
        let next = match (next_kill, next_action) {
            (Some(k), Some(a)) => k.min(a),
            (Some(t), None) | (None, Some(t)) => t,
            (None, None) => break,
        };
        sim.run_until(next);
        if next_action == Some(next) {
            let (_, action) = actions.remove(0);
            match action {
                Action::Restore(unit, host) => {
                    sys.restore_unit_host(unit, host);
                    schedule(
                        &mut actions,
                        next + shape.calm_after,
                        Action::Failback(unit, 0),
                    );
                }
                Action::Failback(unit, round) => {
                    let rt = &sys.runtimes[unit.0 as usize];
                    let displaced = rt
                        .disk_ids()
                        .into_iter()
                        .find(|&d| rt.attached_host(d) != home.get(&(unit, d)).copied());
                    match (displaced, sys.active_master()) {
                        (None, _) => {
                            busy.insert(unit, next + shape.calm_after);
                        }
                        (Some(d), Some(master)) if round < 5 => {
                            master.recover_disk(&sim, unit, d, |_, _| {});
                            let again = next + shape.calm_after;
                            schedule(&mut actions, again, Action::Failback(unit, round + 1));
                        }
                        // The unit stays out of the kill schedule.
                        _ => {}
                    }
                }
            }
            continue;
        }
        let (_, pick) = kills.next().expect("a kill is due");
        let Some(master) = sys.active_master() else {
            continue;
        };
        let calm = |unit: UnitId| {
            busy.get(&unit).is_none_or(|&t| t <= next)
                && !churn_units.borrow().contains(&unit)
                && home
                    .iter()
                    .filter(|((u, _), _)| *u == unit)
                    .all(|(&(u, d), &h)| {
                        sys.runtimes[u.0 as usize].attached_host(d) == Some(h)
                            && master.disk_host(u, d) == Some(h)
                            && master.host_alive(u, h)
                    })
        };
        let candidates: Vec<(usize, UnitId, HostId)> = sentinels
            .iter()
            .enumerate()
            .filter(|(_, s)| calm(s.space.unit))
            .map(|(i, s)| (i, s.space.unit, home[&(s.space.unit, s.space.disk)]))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let (i, unit, host) = candidates[(pick % candidates.len() as u64) as usize];
        open.borrow_mut().insert(format!("{unit}/{host}"), i);
        sys.kill_unit_host(unit, host);
        busy.insert(unit, SimTime::MAX);
        schedule(
            &mut actions,
            next + shape.down_for,
            Action::Restore(unit, host),
        );
    }
    sim.run_until(load_end + shape.drain);
    clock.window_done();
    drop(sentinels);
    pod.finish(log, w0, energy_at_w0, clock)
}

/// A scheduled step of the kill schedule.
#[derive(Debug, Clone, Copy)]
enum Action {
    Restore(UnitId, HostId),
    /// Move a unit's displaced disks home; the round counts attempts.
    Failback(UnitId, u32),
}

/// Inserts `action` at `at`, after any action already due then.
fn schedule(actions: &mut Vec<(SimTime, Action)>, at: SimTime, action: Action) {
    let pos = actions.partition_point(|a| a.0 <= at);
    actions.insert(pos, (at, action));
}

/// One closed-loop churn client.
struct Churn {
    client: UStoreClient,
    service: String,
    blocks: u64,
    load_end: SimTime,
    log: Log,
    /// Units holding a churn space right now, one entry per space.
    busy_units: Rc<RefCell<Vec<UnitId>>>,
}

impl Churn {
    /// Starts a cycle: allocate a space.
    fn start(self: Rc<Self>, sim: &Sim) {
        if sim.now() >= self.load_end {
            return;
        }
        let asked = sim.now();
        self.log.attempt();
        let this = self.clone();
        self.client
            .allocate(sim, self.service.clone(), 64 << 20, move |sim, r| {
                this.log.meta(secs_since(sim, asked), r.is_ok());
                match r {
                    Ok(info) => {
                        this.busy_units.borrow_mut().push(info.name.unit);
                        this.mount(sim, info.name)
                    }
                    // Back off so a refusing Master is not spun against.
                    Err(_) => {
                        sim.schedule_in(Duration::from_secs(1), move |sim| this.start(sim));
                    }
                }
            });
    }

    fn mount(self: Rc<Self>, sim: &Sim, name: SpaceName) {
        let asked = sim.now();
        self.log.attempt();
        self.log.mounted();
        let this = self.clone();
        self.client.mount(sim, name, move |sim, r| {
            this.log.meta(secs_since(sim, asked), r.is_ok());
            match r {
                Ok(m) => this.write(sim, name, Rc::new(m), 0),
                Err(_) => this.release(sim, name),
            }
        });
    }

    fn write(self: Rc<Self>, sim: &Sim, name: SpaceName, m: Rc<Mounted>, k: u64) {
        if k == self.blocks {
            return self.read(sim, name, m, 0);
        }
        let asked = sim.now();
        self.log.attempt();
        let this = self.clone();
        let m2 = m.clone();
        m.write(
            sim,
            k * BLOCK,
            pattern(name, k * BLOCK, BLOCK as usize),
            Box::new(move |sim, r| {
                match r {
                    Ok(()) => this.log.write(secs_since(sim, asked), BLOCK),
                    Err(_) => this.log.fail(),
                }
                this.write(sim, name, m2, k + 1);
            }),
        );
    }

    fn read(self: Rc<Self>, sim: &Sim, name: SpaceName, m: Rc<Mounted>, k: u64) {
        if k == self.blocks {
            return self.lookup(sim, name);
        }
        let asked = sim.now();
        self.log.attempt();
        let expect = pattern(name, k * BLOCK, BLOCK as usize);
        let this = self.clone();
        let m2 = m.clone();
        m.read(
            sim,
            k * BLOCK,
            BLOCK,
            Box::new(move |sim, r| {
                match r {
                    Ok(data) => this.log.read(secs_since(sim, asked), data == expect),
                    Err(_) => this.log.fail(),
                }
                this.read(sim, name, m2, k + 1);
            }),
        );
    }

    /// The directory refresh upper layers do before a restore job: served
    /// from the location lease while it is fresh.
    fn lookup(self: Rc<Self>, sim: &Sim, name: SpaceName) {
        self.log.attempt();
        let this = self.clone();
        self.client.lookup(sim, name, move |sim, r| {
            if r.is_err() {
                this.log.fail();
            }
            this.release(sim, name);
        });
    }

    fn release(self: Rc<Self>, sim: &Sim, name: SpaceName) {
        let asked = sim.now();
        self.log.attempt();
        let this = self.clone();
        self.client.release(sim, name, move |sim, r| {
            this.log.meta(secs_since(sim, asked), r.is_ok());
            let mut units = this.busy_units.borrow_mut();
            if let Some(i) = units.iter().position(|&u| u == name.unit) {
                units.swap_remove(i);
            }
            drop(units);
            this.start(sim);
        });
    }
}

/// Schedules sentinel `i`'s reads from `due` on, one every `step`.
#[allow(clippy::too_many_arguments)]
fn sentinel_read(
    sim: &Sim,
    s: Rc<Sentinel>,
    i: usize,
    due: SimTime,
    step: Duration,
    load_end: SimTime,
    log: Log,
    open: Open,
) {
    if due >= load_end {
        return;
    }
    sim.schedule_at(due, move |sim| {
        log.attempt();
        let expect = pattern(s.space, 0, BLOCK as usize);
        let (log2, open2) = (log.clone(), open.clone());
        s.mount.read(
            sim,
            0,
            BLOCK,
            Box::new(move |sim, r| match r {
                Ok(data) => {
                    log2.read(secs_since(sim, due), data == expect);
                    close_failovers(sim, &open2, i);
                }
                Err(_) => log2.fail(),
            }),
        );
        sentinel_read(sim, s, i, due + step, step, load_end, log, open);
    });
}

/// Closes the failover of every victim that served sentinel `i` once the
/// Master has reconfigured it: this read is the client reading again.
fn close_failovers(sim: &Sim, open: &Open, i: usize) {
    let victims: Vec<String> = open
        .borrow()
        .iter()
        .filter(|&(_, &s)| s == i)
        .map(|(v, _)| v.clone())
        .collect();
    for victim in victims {
        let Some(root) = sim.with_spans(|t| t.find_open_by("failover", "victim", &victim)) else {
            // Closed by the Master itself after a failed failover.
            open.borrow_mut().remove(&victim);
            continue;
        };
        let remount = sim.with_spans(|t| {
            t.children(root)
                .find(|c| &*c.name == "failover.remount" && c.is_open())
                .map(|c| c.id)
        });
        if let Some(remount) = remount {
            sim.span_end(remount);
            sim.span_end(root);
            open.borrow_mut().remove(&victim);
        }
    }
}
