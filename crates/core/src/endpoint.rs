//! The UStore EndPoint (§IV-B).
//!
//! One EndPoint runs on every host connected to a deploy unit. It
//! monitors the host's local USB tree and reports health through periodic
//! heartbeats to the Master, and it exposes allocated spaces over the
//! network as iSCSI targets. It also implements the default power-saving
//! policy (§IV-F): spin idle disks down, and back off when a disk cycles
//! too often.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_disk::PowerStateKind;
use ustore_fabric::{DiskId, FabricIoError, FabricRuntime, HostId};
use ustore_net::{Addr, BlockDevice, BlockError, IscsiServer, ReadCb, RpcNode, WriteCb};
use ustore_sim::{CounterHandle, Sim, SimTime};
use ustore_usb::{DeviceKind, DeviceState, UsbEvent};

use crate::ids::{SpaceName, UnitId};
use crate::messages::{DiskPowerReq, EndpointAck, ExposeReq, Heartbeat, HeartbeatAck, UnexposeReq};

/// EndPoint tunables.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Heartbeat period to the Master.
    pub heartbeat_interval: Duration,
    /// Time from a disk becoming visible to its targets being exposed
    /// (partition scan + target configuration — Figure 6 part 2).
    pub export_delay: Duration,
    /// Idle time after which a disk spins down (§IV-F).
    pub idle_spin_down: Duration,
    /// How often the idle checker runs.
    pub idle_check: Duration,
    /// Window for counting spin-up events.
    pub spin_cycle_window: Duration,
    /// Spin-ups within the window that trigger threshold doubling.
    pub spin_cycle_limit: usize,
    /// RPC timeout for heartbeats.
    pub rpc_timeout: Duration,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            heartbeat_interval: Duration::from_millis(300),
            export_delay: Duration::from_millis(900),
            idle_spin_down: Duration::from_secs(300),
            idle_check: Duration::from_secs(10),
            spin_cycle_window: Duration::from_secs(600),
            spin_cycle_limit: 3,
            rpc_timeout: Duration::from_millis(400),
        }
    }
}

struct Exposure {
    offset: u64,
    len: u64,
    exported: bool,
}

struct Ep {
    unit: UnitId,
    host: HostId,
    masters: Vec<Addr>,
    master_hint: usize,
    config: EndpointConfig,
    exposures: BTreeMap<SpaceName, Exposure>,
    activity: HashMap<DiskId, Rc<Cell<SimTime>>>,
    spin_ups: HashMap<DiskId, Vec<SimTime>>,
    idle_threshold: HashMap<DiskId, Duration>,
    seq: u64,
    paused: bool,
    /// Ready-disk list for heartbeats, cached against the USB tree's
    /// topology generation — rebuilding it means snapshotting and sorting
    /// the whole tree, which the steady state never needs.
    ready_cache: (u64, Rc<Vec<DiskId>>),
    /// Lazily-resolved heartbeat counter handle (avoids re-rendering the
    /// address label and re-hashing the metric name every beat).
    hb_counter: Option<CounterHandle>,
}

/// One EndPoint process. Shares its host's [`RpcNode`] (serving `ep.*`
/// and the iSCSI protocol).
#[derive(Clone)]
pub struct Endpoint {
    rpc: RpcNode,
    iscsi: Rc<IscsiServer>,
    runtime: FabricRuntime,
    inner: Rc<RefCell<Ep>>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ep = self.inner.borrow();
        f.debug_struct("Endpoint")
            .field("host", &ep.host)
            .field("exposures", &ep.exposures.len())
            .finish()
    }
}

impl Endpoint {
    /// Starts an EndPoint for `host` of `unit` on the host's RPC node.
    pub fn new(
        sim: &Sim,
        unit: UnitId,
        host: HostId,
        rpc: RpcNode,
        runtime: FabricRuntime,
        masters: Vec<Addr>,
        config: EndpointConfig,
    ) -> Endpoint {
        let iscsi = Rc::new(IscsiServer::new(rpc.clone()));
        let ep = Endpoint {
            rpc,
            iscsi,
            runtime: runtime.clone(),
            inner: Rc::new(RefCell::new(Ep {
                unit,
                host,
                masters,
                master_hint: 0,
                config,
                exposures: BTreeMap::new(),
                activity: HashMap::new(),
                spin_ups: HashMap::new(),
                idle_threshold: HashMap::new(),
                seq: 0,
                paused: false,
                ready_cache: (u64::MAX, Rc::new(Vec::new())),
                hb_counter: None,
            })),
        };
        ep.install_handlers();
        // USB monitor: watch the local tree (the paper's `lsusb -t` watcher).
        let e2 = ep.clone();
        runtime
            .usb_host(host)
            .subscribe(move |sim, ev| e2.on_usb_event(sim, ev));
        ep.arm_heartbeat(sim);
        ep.arm_idle_checker(sim);
        ep
    }

    /// The host this EndPoint runs on.
    pub fn host(&self) -> HostId {
        self.inner.borrow().host
    }

    /// The deploy unit this EndPoint serves.
    pub fn unit(&self) -> UnitId {
        self.inner.borrow().unit
    }

    /// The EndPoint's network address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Simulates a process crash (stops heartbeats and exports).
    pub fn pause(&self) {
        self.inner.borrow_mut().paused = true;
    }

    /// Restarts a paused EndPoint.
    pub fn resume(&self, sim: &Sim) {
        self.inner.borrow_mut().paused = false;
        self.arm_heartbeat(sim);
        self.arm_idle_checker(sim);
    }

    /// Targets currently exported.
    pub fn exported_targets(&self) -> Vec<String> {
        self.iscsi.target_names()
    }

    // ---- RPC handlers ------------------------------------------------------

    fn install_handlers(&self) {
        let e = self.clone();
        self.rpc.serve("ep.expose", move |sim, req, responder| {
            let req: &ExposeReq = req.downcast_ref().expect("ExposeReq");
            e.expose(sim, req.name, req.offset, req.len);
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
        let e = self.clone();
        self.rpc.serve("ep.unexpose", move |sim, req, responder| {
            let req: &UnexposeReq = req.downcast_ref().expect("UnexposeReq");
            e.unexpose(req.name);
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
        let e = self.clone();
        self.rpc.serve("ep.disk_power", move |sim, req, responder| {
            let req: &DiskPowerReq = req.downcast_ref().expect("DiskPowerReq");
            let disk = e.runtime.disk(req.disk);
            if req.up {
                disk.spin_up(sim);
            } else {
                disk.spin_down(sim);
            }
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
    }

    /// Records an exposure and exports it if the disk is already visible.
    fn expose(&self, sim: &Sim, name: SpaceName, offset: u64, len: u64) {
        let already = {
            let mut ep = self.inner.borrow_mut();
            let prev = ep.exposures.insert(
                name,
                Exposure {
                    offset,
                    len,
                    exported: false,
                },
            );
            prev.is_some_and(|p| p.exported)
        };
        if already {
            // Re-expose (idempotent): mark exported again.
            self.inner
                .borrow_mut()
                .exposures
                .get_mut(&name)
                .expect("present")
                .exported = true;
            return;
        }
        if self.runtime.disk_ready(name.disk)
            && self.runtime.attached_host(name.disk) == Some(self.host())
        {
            self.schedule_export(sim, name);
        }
    }

    fn unexpose(&self, name: SpaceName) {
        self.inner.borrow_mut().exposures.remove(&name);
        self.iscsi.unexpose(&name.target_name());
    }

    /// Exports after the configured delay (partition scan, tgt reload).
    fn schedule_export(&self, sim: &Sim, name: SpaceName) {
        let delay = self.inner.borrow().config.export_delay;
        // Exports after a failover are part of the remount phase (Fig. 6
        // part 2); parent under it when one is open.
        let span = match sim.find_open_span("failover.remount") {
            Some(p) => sim.span_child(p, "endpoint", "endpoint.export"),
            None => sim.span_start("endpoint", "endpoint.export"),
        };
        sim.span_attr(span, "space", name.to_string());
        let this = self.clone();
        sim.schedule_in(delay, move |sim| {
            let (offset, len, host) = {
                let ep = this.inner.borrow();
                if ep.paused {
                    sim.span_attr(span, "error", "paused");
                    sim.span_end(span);
                    return;
                }
                let Some(x) = ep.exposures.get(&name) else {
                    sim.span_attr(span, "error", "withdrawn");
                    sim.span_end(span);
                    return;
                };
                (x.offset, x.len, ep.host)
            };
            // The disk may have moved away while we waited.
            if this.runtime.attached_host(name.disk) != Some(host)
                || !this.runtime.disk_ready(name.disk)
            {
                sim.span_attr(span, "error", "moved");
                sim.span_end(span);
                return;
            }
            let activity = this.activity_cell(sim, name.disk);
            let spin_ups = this.inner.clone();
            let dev = ExposedSpace {
                runtime: this.runtime.clone(),
                disk: name.disk,
                offset,
                len,
                activity,
                on_spin_up: Box::new(move |sim| {
                    let mut ep = spin_ups.borrow_mut();
                    let now = sim.now();
                    ep.spin_ups.entry(name.disk).or_default().push(now);
                }),
            };
            this.iscsi.expose(name.target_name(), Rc::new(dev));
            if let Some(x) = this.inner.borrow_mut().exposures.get_mut(&name) {
                x.exported = true;
            }
            sim.count(&this.addr().to_string(), "endpoint.exports", 1);
            sim.span_end(span);
        });
    }

    fn activity_cell(&self, sim: &Sim, d: DiskId) -> Rc<Cell<SimTime>> {
        self.inner
            .borrow_mut()
            .activity
            .entry(d)
            .or_insert_with(|| Rc::new(Cell::new(sim.now())))
            .clone()
    }

    // ---- USB monitor --------------------------------------------------------

    fn on_usb_event(&self, sim: &Sim, ev: UsbEvent) {
        if self.inner.borrow().paused {
            return;
        }
        match ev {
            UsbEvent::Ready(dev) if dev.0 < 100_000 => {
                let d = DiskId(dev.0);
                // Export every recorded exposure for this disk.
                let names: Vec<SpaceName> = self
                    .inner
                    .borrow()
                    .exposures
                    .keys()
                    .filter(|n| n.disk == d)
                    .copied()
                    .collect();
                for n in names {
                    self.schedule_export(sim, n);
                }
            }
            UsbEvent::Detached(dev) if dev.0 < 100_000 => {
                let d = DiskId(dev.0);
                let names: Vec<SpaceName> = self
                    .inner
                    .borrow()
                    .exposures
                    .keys()
                    .filter(|n| n.disk == d)
                    .copied()
                    .collect();
                for n in names {
                    self.iscsi.unexpose(&n.target_name());
                    if let Some(x) = self.inner.borrow_mut().exposures.get_mut(&n) {
                        x.exported = false;
                    }
                }
            }
            _ => {}
        }
    }

    // ---- Heartbeats -----------------------------------------------------------

    fn arm_heartbeat(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.heartbeat_interval;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            if this.inner.borrow().paused {
                return;
            }
            this.send_heartbeat(sim);
            this.arm_heartbeat(sim);
        });
    }

    fn send_heartbeat(&self, sim: &Sim) {
        let (hb, target, timeout) = {
            let mut ep = self.inner.borrow_mut();
            ep.seq += 1;
            let host = ep.host;
            let usb = self.runtime.usb_host(host);
            let gen = usb.topology_gen();
            if ep.ready_cache.0 != gen {
                let ready: Vec<DiskId> = usb
                    .snapshot()
                    .into_iter()
                    .filter(|n| n.kind == DeviceKind::Storage && n.state == DeviceState::Ready)
                    .map(|n| DiskId(n.id.0))
                    .collect();
                ep.ready_cache = (gen, Rc::new(ready));
            }
            let hb = Heartbeat {
                unit: ep.unit,
                host,
                addr: self.rpc.addr().clone(),
                ready_disks: ep.ready_cache.1.as_ref().clone(),
                seq: ep.seq,
            };
            let target = ep.masters[ep.master_hint].clone();
            (hb, target, ep.config.rpc_timeout)
        };
        {
            let mut ep = self.inner.borrow_mut();
            if ep.hb_counter.is_none() {
                ep.hb_counter = Some(sim.counter(self.addr().as_str(), "endpoint.heartbeats_sent"));
            }
            ep.hb_counter
                .as_ref()
                .expect("hb counter initialized")
                .inc();
        }
        let this = self.clone();
        self.rpc.call::<HeartbeatAck>(
            sim,
            &target,
            "master.heartbeat",
            Arc::new(hb),
            200,
            timeout,
            move |_sim, resp| {
                let rotate = !matches!(resp.as_deref(), Ok(HeartbeatAck::Ok));
                if rotate {
                    let mut ep = this.inner.borrow_mut();
                    ep.master_hint = (ep.master_hint + 1) % ep.masters.len();
                }
            },
        );
    }

    // ---- Power management (§IV-F) ---------------------------------------------

    fn arm_idle_checker(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.idle_check;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            if this.inner.borrow().paused {
                return;
            }
            this.check_idle(sim);
            this.arm_idle_checker(sim);
        });
    }

    fn check_idle(&self, sim: &Sim) {
        let host = self.host();
        let now = sim.now();
        // Seed an activity clock for every disk visible on this host, so
        // disks that never see IO also spin down (the paper's default
        // policy covers any idle disk, not just exposed ones).
        let visible: Vec<DiskId> = self
            .runtime
            .usb_host(host)
            .snapshot()
            .into_iter()
            .filter(|n| n.kind == DeviceKind::Storage && n.state == DeviceState::Ready)
            .map(|n| DiskId(n.id.0))
            .collect();
        for d in visible {
            self.activity_cell(sim, d);
        }
        let candidates: Vec<(DiskId, Duration)> = {
            let mut ep = self.inner.borrow_mut();
            let base = ep.config.idle_spin_down;
            let window = ep.config.spin_cycle_window;
            let limit = ep.config.spin_cycle_limit;
            // Adapt thresholds for disks that churn.
            let churning: Vec<DiskId> = ep
                .spin_ups
                .iter_mut()
                .filter_map(|(d, ups)| {
                    ups.retain(|t| now.saturating_duration_since(*t) < window);
                    (ups.len() >= limit).then_some(*d)
                })
                .collect();
            for d in churning {
                let t = ep.idle_threshold.entry(d).or_insert(base);
                *t = (*t * 2).min(Duration::from_secs(7200));
                ep.spin_ups.remove(&d);
            }
            ep.activity
                .iter()
                .map(|(d, a)| {
                    let thr = ep.idle_threshold.get(d).copied().unwrap_or(base);
                    (*d, thr, a.get())
                })
                .filter(|(_, thr, last)| now.saturating_duration_since(*last) > *thr)
                .map(|(d, thr, _)| (d, thr))
                .collect()
        };
        for (d, _) in candidates {
            if self.runtime.attached_host(d) == Some(host) {
                let disk = self.runtime.disk(d);
                if disk.power_state() == PowerStateKind::Idle {
                    disk.spin_down(sim);
                }
            }
        }
    }
}

/// An exposed space: a window of a fabric-attached disk served as a
/// network block device, with activity tracking for power management.
struct ExposedSpace {
    runtime: FabricRuntime,
    disk: DiskId,
    offset: u64,
    len: u64,
    activity: Rc<Cell<SimTime>>,
    on_spin_up: Box<dyn Fn(&Sim)>,
}

impl ExposedSpace {
    fn touch(&self, sim: &Sim) {
        self.activity.set(sim.now());
        if self.runtime.disk(self.disk).power_state() == PowerStateKind::Standby {
            // Cold hit: the IO arrived at a spun-down disk. Flag the trace
            // (if one rides the ambient stamp) so the slo report can split
            // cold reads from warm ones.
            sim.reqtracer().note_cold_hit(sim.current_stamp());
            (self.on_spin_up)(sim);
        }
    }
}

fn map_err(e: FabricIoError) -> BlockError {
    match e {
        FabricIoError::NotAttached | FabricIoError::NotReady => {
            BlockError::Unavailable(e.to_string())
        }
        FabricIoError::Disk(d) => BlockError::Io(d.to_string()),
    }
}

impl BlockDevice for ExposedSpace {
    fn capacity(&self) -> u64 {
        self.len
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb) {
        if offset.saturating_add(len) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.touch(sim);
        self.runtime
            .read(sim, self.disk, self.offset + offset, len, move |sim, r| {
                cb(sim, r.map_err(map_err));
            });
    }

    fn write(&self, sim: &Sim, offset: u64, data: Vec<u8>, cb: WriteCb) {
        if offset.saturating_add(data.len() as u64) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.touch(sim);
        self.runtime
            .write(sim, self.disk, self.offset + offset, data, move |sim, r| {
                cb(sim, r.map(|_| ()).map_err(map_err));
            });
    }
}
