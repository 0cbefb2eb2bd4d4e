//! The UStore Master (§IV-A).
//!
//! A single logical Master maintains the holistic view of the system:
//! **SysConf** (static configuration, persisted in the coordination
//! service), **SysStat** (live host/disk state, kept only in memory and
//! rebuilt from heartbeats), and **StorAlloc** (storage allocations,
//! persisted synchronously). For fault tolerance it runs as active/standby
//! processes elected through the Paxos-backed coordination service
//! (§V-B), exactly like the prototype's ZooKeeper deployment.
//!
//! Failure handling (§IV-E): when heartbeats from a host stop, the Master
//! declares it dead and commands the unit's Controller to move the dead
//! host's disks to survivors; once the moved disks re-enumerate, the new
//! hosts' EndPoints re-expose their targets and ClientLibs remount.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_consensus::{
    group_addrs, ClientConfig as CoordClientConfig, CoordClient, CreateMode, Election,
};
use ustore_fabric::{DiskId, HostId};
use ustore_net::{Addr, Network, RpcNode};
use ustore_sim::{CounterHandle, FastMap, FastSet, Sim, SimTime};

use crate::alloc::{Allocator, Extent};
use crate::ids::{SpaceName, UnitId};
use crate::messages::ExposeReq;
use crate::messages::{
    AllocateReq, AllocateResp, DiskPowerReq, EndpointAck, ExecuteReq, ExecuteResp, Heartbeat,
    HeartbeatAck, LookupReq, LookupResp, MasterError, PlanReq, PlanResp, ReleaseReq, ReleaseResp,
    SpaceInfo, UnexposeReq,
};
use crate::meta::MetaRouter;

/// Static configuration of one deploy unit (part of SysConf).
#[derive(Debug, Clone)]
pub struct UnitConf {
    /// The unit's id.
    pub unit: UnitId,
    /// Hosts connected to the unit, with their network addresses.
    pub hosts: Vec<(HostId, Addr)>,
    /// Disks in the unit, with capacities.
    pub disks: Vec<(DiskId, u64)>,
    /// Addresses of the unit's (primary, backup) Controllers.
    pub controllers: Vec<Addr>,
}

/// Master tunables.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// A host missing heartbeats for this long is declared dead.
    pub heartbeat_timeout: Duration,
    /// Failure-detection sweep period.
    pub sweep_interval: Duration,
    /// RPC timeout toward EndPoints/Controllers.
    pub rpc_timeout: Duration,
    /// Timeout for Controller execute commands (enumeration takes seconds).
    pub execute_timeout: Duration,
    /// A disk unseen in heartbeats for this long (while its host lives)
    /// is treated as a fabric-device failure (§IV-E).
    pub disk_timeout: Duration,
    /// Minimum gap between recovery attempts for the same disk.
    pub disk_retry: Duration,
    /// Metadata partitions (§IV-A scaled out): StorAlloc is split into
    /// per-unit-group namespaces, each persisted in its own replicated
    /// log. Partition 0 lives in the base coordination cluster under the
    /// legacy paths; `1` (the default) is the pre-partition Master,
    /// byte-for-byte.
    pub partitions: u32,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            heartbeat_timeout: Duration::from_millis(1000),
            sweep_interval: Duration::from_millis(200),
            rpc_timeout: Duration::from_millis(500),
            execute_timeout: Duration::from_secs(40),
            disk_timeout: Duration::from_secs(8),
            disk_retry: Duration::from_secs(30),
            partitions: 1,
        }
    }
}

struct M {
    config: MasterConfig,
    active: bool,
    units: BTreeMap<UnitId, UnitConf>,
    // SysStat — memory only (§IV-A), rebuilt from heartbeats.
    host_last_hb: FastMap<(UnitId, HostId), SimTime>,
    host_alive: FastMap<(UnitId, HostId), bool>,
    host_addr: FastMap<(UnitId, HostId), Addr>,
    disk_host: FastMap<(UnitId, DiskId), HostId>,
    disk_last_seen: FastMap<(UnitId, DiskId), SimTime>,
    failover_in_progress: BTreeSet<(UnitId, HostId)>,
    /// Last path-switch attempt per disk outside a host failover: when it
    /// started (the retry clock) and why the disk was handled.
    disk_recovery_attempted: FastMap<(UnitId, DiskId), (SimTime, DiskRecovery)>,
    // StorAlloc — persisted through the coordination service.
    alloc: Allocator,
    exposures_pushed: FastSet<(SpaceName, HostId)>,
    /// Allocations whose metadata write is still in flight; not exposed
    /// until persisted (§IV-A's synchronous-persistence rule).
    pending_persist: FastSet<SpaceName>,
    /// Lazily-resolved heartbeat counter handle — the heartbeat path runs
    /// for every beat from every host, so it must not re-render the
    /// address label each time.
    hb_counter: Option<CounterHandle>,
    /// When this process became active (baseline for detecting hosts that
    /// died before ever heartbeating to this master).
    activated_at: Option<SimTime>,
}

/// Why the Master last handled a disk outside a host failover (§IV-E),
/// as read back through [`Master::disk_recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskRecovery {
    /// The missing-disk sweep found the disk gone from every live host's
    /// USB tree and switched its path.
    Swept,
    /// A caller (e.g. the health watchdog) asked for a proactive move
    /// through [`Master::recover_disk`].
    Requested,
    /// No alternative path exists: the disk is reported for replacement
    /// or repair.
    NeedsRepair,
}

/// One Master process (active or standby).
#[derive(Clone)]
pub struct Master {
    rpc: RpcNode,
    /// Partition-0 client: base cluster — election, sessions, legacy paths.
    coord: CoordClient,
    /// Clients for partitions 1.. (empty in a single-partition deployment).
    part_coords: Rc<Vec<CoordClient>>,
    router: MetaRouter,
    inner: Rc<RefCell<M>>,
    election: Rc<RefCell<Option<Rc<Election>>>>,
}

impl fmt::Debug for Master {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.inner.borrow();
        f.debug_struct("Master")
            .field("addr", self.rpc.addr())
            .field("active", &m.active)
            .finish()
    }
}

impl Master {
    /// Starts a Master process at `addr` (its coordination-client socket is
    /// `<addr>-zk`), joining the active/standby election.
    pub fn new(
        sim: &Sim,
        net: &Network,
        addr: Addr,
        coord_servers: Vec<Addr>,
        units: Vec<UnitConf>,
        config: MasterConfig,
    ) -> Master {
        let rpc = RpcNode::new(net, addr.clone());
        let router = MetaRouter::new(config.partitions, units.len() as u32);
        let coord = CoordClient::new(
            net,
            MetaRouter::coord_socket(&addr, 0),
            coord_servers.clone(),
            CoordClientConfig::default(),
        );
        // One additional session per metadata partition, against that
        // partition's own replica group. Nothing is created at
        // `partitions == 1`.
        let part_coords: Vec<CoordClient> = (1..router.partitions())
            .map(|k| {
                CoordClient::new(
                    net,
                    MetaRouter::coord_socket(&addr, k),
                    group_addrs(&coord_servers, k),
                    CoordClientConfig::default(),
                )
            })
            .collect();
        let mut alloc = Allocator::new();
        for u in &units {
            for (d, cap) in &u.disks {
                alloc.register_disk(u.unit, *d, *cap);
            }
        }
        let master = Master {
            rpc,
            coord: coord.clone(),
            part_coords: Rc::new(part_coords),
            router,
            inner: Rc::new(RefCell::new(M {
                config,
                active: false,
                units: units.into_iter().map(|u| (u.unit, u)).collect(),
                host_last_hb: FastMap::default(),
                host_alive: FastMap::default(),
                host_addr: FastMap::default(),
                disk_host: FastMap::default(),
                disk_last_seen: FastMap::default(),
                failover_in_progress: BTreeSet::new(),
                disk_recovery_attempted: FastMap::default(),
                alloc,
                exposures_pushed: FastSet::default(),
                pending_persist: FastSet::default(),
                hb_counter: None,
                activated_at: None,
            })),
            election: Rc::new(RefCell::new(None)),
        };
        master.install_handlers();
        // The election's `on_change` closure captures this Master, and the
        // Master holds the election handle back — drop it (weakly) at
        // teardown so the pair can be collected.
        let weak = Rc::downgrade(&master.election);
        sim.on_teardown(move || {
            if let Some(e) = weak.upgrade() {
                *e.borrow_mut() = None;
            }
        });
        // Connect to the coordination service and join the election.
        let m2 = master.clone();
        coord.connect(sim, move |sim, r| {
            if r.is_err() {
                return;
            }
            let m3 = m2.clone();
            let election = Election::join(
                sim,
                &m2.coord,
                "/ustore/master-election",
                move |sim, leads| {
                    if leads {
                        m3.activate(sim);
                    }
                },
            );
            *m2.election.borrow_mut() = Some(election);
        });
        // Partition sessions connect concurrently with the election: the
        // election needs several RPC round trips, so by the time this
        // process can activate and serve allocations the routed sessions
        // are already live.
        for c in master.part_coords.iter() {
            c.connect(sim, |_, _| {});
        }
        master.arm_sweeper(sim);
        master
    }

    /// The coordination client owning metadata partition `p`.
    fn coord_for(&self, p: u32) -> &CoordClient {
        if p == 0 {
            &self.coord
        } else {
            &self.part_coords[(p - 1) as usize]
        }
    }

    /// Number of metadata partitions this master routes across.
    pub fn partitions(&self) -> u32 {
        self.router.partitions()
    }

    /// Whether this process is currently the active master.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().active
    }

    /// The master's service address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Simulates a process crash: stops answering and lets the session
    /// (and election candidacy) lapse.
    pub fn pause(&self) {
        self.inner.borrow_mut().active = false;
        self.coord.stop_pinging();
        for c in self.part_coords.iter() {
            c.stop_pinging();
        }
    }

    /// SysStat view: the host a disk is believed attached to.
    pub fn disk_host(&self, unit: UnitId, d: DiskId) -> Option<HostId> {
        self.inner.borrow().disk_host.get(&(unit, d)).copied()
    }

    /// SysStat view: why the disk was last rerouted outside a host
    /// failover, or reported for repair; `None` if it never was.
    pub fn disk_recovery(&self, unit: UnitId, d: DiskId) -> Option<DiskRecovery> {
        self.inner
            .borrow()
            .disk_recovery_attempted
            .get(&(unit, d))
            .map(|(_, why)| *why)
    }

    /// SysStat view: whether a host is believed alive.
    pub fn host_alive(&self, unit: UnitId, h: HostId) -> bool {
        self.inner
            .borrow()
            .host_alive
            .get(&(unit, h))
            .copied()
            .unwrap_or(false)
    }

    // ---- Activation --------------------------------------------------------

    fn activate(&self, sim: &Sim) {
        // Load persisted StorAlloc, then start serving.
        let this = self.clone();
        self.ensure_meta_paths(sim, move |sim| {
            this.load_allocations(sim);
        });
    }

    fn ensure_meta_paths(&self, sim: &Sim, then: impl FnOnce(&Sim) + 'static) {
        // Every partition creates its namespace chain in its own log; the
        // continuation fires once all of them exist. With one partition
        // this is the legacy `/ustore` → `/ustore/alloc` chain, verbatim.
        let total = self.router.partitions();
        let remaining = Rc::new(RefCell::new(total));
        let then = Rc::new(RefCell::new(Some(then)));
        for p in 0..total {
            let coord = self.coord_for(p).clone();
            let chain = self.router.create_chain(p);
            let remaining = remaining.clone();
            let then = then.clone();
            create_chain(
                sim,
                coord,
                chain,
                0,
                Box::new(move |sim| {
                    let done = {
                        let mut r = remaining.borrow_mut();
                        *r -= 1;
                        *r == 0
                    };
                    if done {
                        if let Some(t) = then.borrow_mut().take() {
                            t(sim);
                        }
                    }
                }),
            );
        }
    }

    fn load_allocations(&self, sim: &Sim) {
        // Read <alloc-dir>/<space-name-with-escaped-slashes> from every
        // partition's log; activation completes once every partition has
        // been replayed. A metadata-store error stalls activation, exactly
        // as the single-log Master did.
        let parts_remaining = Rc::new(RefCell::new(self.router.partitions()));
        for p in 0..self.router.partitions() {
            let this = self.clone();
            let coord = self.coord_for(p).clone();
            let dir = self.router.alloc_dir(p);
            let dir2 = dir.clone();
            let parts_remaining = parts_remaining.clone();
            coord.clone().children_watch(sim, dir, None, move |sim, r| {
                let part_done = move |this: &Master, sim: &Sim| {
                    let done = {
                        let mut rem = parts_remaining.borrow_mut();
                        *rem -= 1;
                        *rem == 0
                    };
                    if done {
                        this.finish_activation(sim);
                    }
                };
                let Ok(kids) = r else {
                    return;
                };
                if kids.is_empty() {
                    part_done(&this, sim);
                    return;
                }
                let remaining = Rc::new(RefCell::new(kids.len()));
                let part_done = Rc::new(RefCell::new(Some(part_done)));
                for kid in kids {
                    let Some(name) = decode_space(&kid) else {
                        continue;
                    };
                    let this2 = this.clone();
                    let remaining = remaining.clone();
                    let part_done = part_done.clone();
                    coord.get(sim, format!("{dir2}/{kid}"), move |sim, r| {
                        if let Ok(Some((data, _))) = r {
                            if let Some(extent) = decode_extent(&data) {
                                this2.inner.borrow_mut().alloc.restore(name, extent);
                            }
                        }
                        let done = {
                            let mut rem = remaining.borrow_mut();
                            *rem -= 1;
                            *rem == 0
                        };
                        if done {
                            if let Some(pd) = part_done.borrow_mut().take() {
                                pd(&this2, sim);
                            }
                        }
                    });
                }
            });
        }
    }

    fn finish_activation(&self, sim: &Sim) {
        {
            let mut m = self.inner.borrow_mut();
            m.active = true;
            m.activated_at = Some(sim.now());
        }
    }

    // ---- RPC handlers ---------------------------------------------------------

    fn install_handlers(&self) {
        let m = self.clone();
        self.rpc
            .serve("master.heartbeat", move |sim, req, responder| {
                let hb: &Heartbeat = req.downcast_ref().expect("Heartbeat");
                let ack = m.on_heartbeat(sim, hb);
                responder.reply(sim, Arc::new(ack), 16);
            });
        let m = self.clone();
        self.rpc
            .serve("master.allocate", move |sim, req, responder| {
                let req: &AllocateReq = req.downcast_ref().expect("AllocateReq");
                m.on_allocate(sim, req.clone(), responder);
            });
        let m = self.clone();
        self.rpc.serve("master.lookup", move |sim, req, responder| {
            let req: &LookupReq = req.downcast_ref().expect("LookupReq");
            let resp: LookupResp = m.on_lookup(req.name);
            sim.reqtracer().note_lookup_served(resp.is_ok());
            responder.reply(sim, Arc::new(resp), 128);
        });
        let m = self.clone();
        self.rpc
            .serve("master.release", move |sim, req, responder| {
                let req: &ReleaseReq = req.downcast_ref().expect("ReleaseReq");
                m.on_release(sim, req.name, responder);
            });
        let m = self.clone();
        self.rpc
            .serve("master.disk_power", move |sim, req, responder| {
                let req: &DiskPowerReq = req.downcast_ref().expect("DiskPowerReq");
                m.on_disk_power(sim, req.clone(), responder);
            });
    }

    fn on_heartbeat(&self, sim: &Sim, hb: &Heartbeat) -> HeartbeatAck {
        let pushes: Vec<(Addr, ExposeReq)> = {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                return HeartbeatAck::NotActive;
            }
            let key = (hb.unit, hb.host);
            m.host_last_hb.insert(key, sim.now());
            m.host_alive.insert(key, true);
            m.host_addr.insert(key, hb.addr.clone());
            let mut pushes = Vec::new();
            let now = sim.now();
            for d in &hb.ready_disks {
                m.disk_host.insert((hb.unit, *d), hb.host);
                m.disk_last_seen.insert((hb.unit, *d), now);
                // Ensure every allocation on this disk is exposed there.
                for (name, extent) in m.alloc.spaces_on(hb.unit, *d) {
                    if m.pending_persist.contains(&name) {
                        continue;
                    }
                    if m.exposures_pushed.insert((name, hb.host)) {
                        pushes.push((
                            hb.addr.clone(),
                            ExposeReq {
                                name,
                                offset: extent.offset,
                                len: extent.len,
                            },
                        ));
                    }
                }
            }
            pushes
        };
        {
            let mut m = self.inner.borrow_mut();
            if m.hb_counter.is_none() {
                m.hb_counter = Some(sim.counter(self.rpc.addr().as_str(), "master.heartbeats"));
            }
            m.hb_counter.as_ref().expect("hb counter initialized").inc();
        }
        let timeout = self.inner.borrow().config.rpc_timeout;
        for (addr, req) in pushes {
            self.rpc.call::<EndpointAck>(
                sim,
                &addr,
                "ep.expose",
                Arc::new(req),
                64,
                timeout,
                |_, _| {},
            );
        }
        HeartbeatAck::Ok
    }

    fn on_allocate(&self, sim: &Sim, req: AllocateReq, responder: ustore_net::Responder) {
        let allocation = {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NotActive) as AllocateResp),
                    16,
                );
                return;
            }
            // Locality: map the client's hinted address to a host.
            let preferred = req.near.as_ref().and_then(|near| {
                m.host_addr
                    .iter()
                    .find(|(_, a)| *a == near)
                    .map(|((_, h), _)| *h)
            });
            let attachments: BTreeMap<(UnitId, DiskId), HostId> =
                m.disk_host.iter().map(|(k, v)| (*k, *v)).collect();
            match m
                .alloc
                .allocate(&req.service, req.size, &attachments, preferred)
            {
                Ok(a) => a,
                Err(e) => {
                    drop(m);
                    responder.reply(
                        sim,
                        Arc::new(Err(MasterError::Alloc(e)) as AllocateResp),
                        16,
                    );
                    return;
                }
            }
        };
        // Persist synchronously to the metadata store before replying
        // (§IV-A: "stored persistently in the Master synchronously") —
        // routed to the partition owning the space's unit.
        let part = self.router.partition_of_unit(allocation.name.unit);
        let znode = format!(
            "{}/{}",
            self.router.alloc_dir(part),
            encode_space(allocation.name)
        );
        let data = encode_extent(&allocation.extent);
        let this = self.clone();
        let name = allocation.name;
        let extent = allocation.extent.clone();
        self.inner.borrow_mut().pending_persist.insert(name);
        self.coord_for(part)
            .create(sim, znode, data, CreateMode::Persistent, move |sim, r| {
                this.inner.borrow_mut().pending_persist.remove(&name);
                if r.is_err() {
                    // Roll the allocation back; metadata must win.
                    let _ = this.inner.borrow_mut().alloc.release(name);
                    responder.reply(
                        sim,
                        Arc::new(Err(MasterError::MetadataUnavailable) as AllocateResp),
                        16,
                    );
                    return;
                }
                let info = this.space_info(name, &extent);
                // Proactively expose on the current host.
                if let Some(addr) = info.host_addr.clone() {
                    let timeout = this.inner.borrow().config.rpc_timeout;
                    let host = this.inner_disk_host(name);
                    this.inner
                        .borrow_mut()
                        .exposures_pushed
                        .insert((name, host));
                    this.rpc.call::<EndpointAck>(
                        sim,
                        &addr,
                        "ep.expose",
                        Arc::new(ExposeReq {
                            name,
                            offset: extent.offset,
                            len: extent.len,
                        }),
                        64,
                        timeout,
                        |_, _| {},
                    );
                }
                responder.reply(sim, Arc::new(Ok(info) as AllocateResp), 128);
            });
    }

    fn inner_disk_host(&self, name: SpaceName) -> HostId {
        self.inner
            .borrow()
            .disk_host
            .get(&(name.unit, name.disk))
            .copied()
            .unwrap_or(HostId(u32::MAX))
    }

    fn space_info(&self, name: SpaceName, extent: &Extent) -> SpaceInfo {
        let m = self.inner.borrow();
        let host_addr = m
            .disk_host
            .get(&(name.unit, name.disk))
            .filter(|h| {
                m.host_alive
                    .get(&(name.unit, **h))
                    .copied()
                    .unwrap_or(false)
            })
            .and_then(|h| m.host_addr.get(&(name.unit, *h)).cloned());
        SpaceInfo {
            name,
            size: extent.len,
            host_addr,
            target: name.target_name(),
        }
    }

    fn on_lookup(&self, name: SpaceName) -> LookupResp {
        let m = self.inner.borrow();
        if !m.active {
            return Err(MasterError::NotActive);
        }
        let extent = m
            .alloc
            .lookup(name)
            .cloned()
            .ok_or(MasterError::NoSuchSpace)?;
        drop(m);
        Ok(self.space_info(name, &extent))
    }

    fn on_release(&self, sim: &Sim, name: SpaceName, responder: ustore_net::Responder) {
        {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NotActive) as ReleaseResp),
                    16,
                );
                return;
            }
            if m.alloc.release(name).is_err() {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NoSuchSpace) as ReleaseResp),
                    16,
                );
                return;
            }
            m.exposures_pushed.retain(|(n, _)| *n != name);
        }
        // Withdraw the target and delete the metadata.
        let host = self.inner_disk_host(name);
        let addr = self
            .inner
            .borrow()
            .host_addr
            .get(&(name.unit, host))
            .cloned();
        let timeout = self.inner.borrow().config.rpc_timeout;
        if let Some(addr) = addr {
            self.rpc.call::<EndpointAck>(
                sim,
                &addr,
                "ep.unexpose",
                Arc::new(UnexposeReq { name }),
                32,
                timeout,
                |_, _| {},
            );
        }
        let part = self.router.partition_of_unit(name.unit);
        let znode = format!("{}/{}", self.router.alloc_dir(part), encode_space(name));
        self.coord_for(part)
            .delete(sim, znode, None, move |sim, r| {
                let resp: ReleaseResp = r.map_err(|_| MasterError::MetadataUnavailable);
                responder.reply(sim, Arc::new(resp), 16);
            });
    }

    fn on_disk_power(&self, sim: &Sim, req: DiskPowerReq, responder: ustore_net::Responder) {
        let target = {
            let m = self.inner.borrow();
            if !m.active {
                responder.reply(
                    sim,
                    Arc::new(Err("not active".to_owned()) as EndpointAck),
                    16,
                );
                return;
            }
            m.units
                .keys()
                .find_map(|u| m.disk_host.get(&(*u, req.disk)).map(|h| (*u, *h)))
                .and_then(|(u, h)| m.host_addr.get(&(u, h)).cloned())
        };
        let Some(addr) = target else {
            responder.reply(
                sim,
                Arc::new(Err("disk not attached".to_owned()) as EndpointAck),
                16,
            );
            return;
        };
        let timeout = self.inner.borrow().config.rpc_timeout;
        self.rpc.call::<EndpointAck>(
            sim,
            &addr,
            "ep.disk_power",
            Arc::new(req),
            32,
            timeout,
            move |sim, r| {
                let resp: EndpointAck = match r {
                    Ok(a) => (*a).clone(),
                    Err(e) => Err(e.to_string()),
                };
                responder.reply(sim, Arc::new(resp), 16);
            },
        );
    }

    // ---- Failure detection and failover (§IV-E) --------------------------------

    fn arm_sweeper(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.sweep_interval;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            this.sweep(sim);
            this.arm_sweeper(sim);
        });
    }

    fn sweep(&self, sim: &Sim) {
        let dead: Vec<(UnitId, HostId)> = {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                return;
            }
            let timeout = m.config.heartbeat_timeout;
            let now = sim.now();
            let Some(activated_at) = m.activated_at else {
                return;
            };
            // Sweep every configured host, not just those we have heard
            // from: a host that died before this master activated never
            // sends a heartbeat at all.
            let mut newly_dead: Vec<(UnitId, HostId)> = Vec::new();
            for (unit, conf) in &m.units {
                for (host, _) in &conf.hosts {
                    let key = (*unit, *host);
                    if m.failover_in_progress.contains(&key)
                        || m.host_alive.get(&key) == Some(&false)
                    {
                        continue;
                    }
                    let last = m.host_last_hb.get(&key).copied().unwrap_or(activated_at);
                    if now.saturating_duration_since(last) > timeout {
                        newly_dead.push(key);
                    }
                }
            }
            for k in &newly_dead {
                m.host_alive.insert(*k, false);
                m.failover_in_progress.insert(*k);
            }
            newly_dead
        };
        for (unit, host) in dead {
            sim.count(&self.rpc.addr().to_string(), "master.failovers", 1);
            // Join the failover span opened at failure injection, or root a
            // fresh one (failures can arise without the harness's help).
            let victim = format!("{unit}/{host}");
            let root = sim
                .with_spans(|t| t.find_open_by("failover", "victim", &victim))
                .unwrap_or_else(|| {
                    let id = sim.span_start("master", "failover");
                    sim.span_attr(id, "victim", victim.clone());
                    id
                });
            // Detection ends the moment the host is declared dead.
            match sim.with_spans(|t| {
                t.children(root)
                    .filter(|s| &*s.name == "failover.detection" && s.is_open())
                    .map(|s| s.id)
                    .next()
            }) {
                Some(det) => sim.span_end(det),
                None => {
                    let det = sim.span_child(root, "master", "failover.detection");
                    sim.span_end(det);
                }
            }
            sim.span_child(root, "master", "failover.reconfiguration");
            self.failover(sim, unit, host);
        }
        self.sweep_missing_disks(sim);
    }

    /// §IV-E fabric-device failures: a disk that stops appearing in any
    /// live host's USB tree (its hub, switch or bridge died) gets its path
    /// switched away from the failed device; if no alternative path
    /// exists, the failure is reported for repair.
    fn sweep_missing_disks(&self, sim: &Sim) {
        let now = sim.now();
        let missing: Vec<(UnitId, DiskId, Vec<HostId>, Vec<Addr>)> = {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                return;
            }
            let Some(activated_at) = m.activated_at else {
                return;
            };
            let timeout = m.config.disk_timeout;
            let retry = m.config.disk_retry;
            let mut out = Vec::new();
            let units: Vec<UnitId> = m.units.keys().copied().collect();
            for unit in units {
                // Skip while a host failover is running in this unit.
                if m.failover_in_progress.iter().any(|(u, _)| *u == unit) {
                    continue;
                }
                let conf = m.units[&unit].clone();
                let targets: Vec<HostId> = conf
                    .hosts
                    .iter()
                    .map(|(h, _)| *h)
                    .filter(|h| m.host_alive.get(&(unit, *h)).copied().unwrap_or(false))
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                for (d, _) in &conf.disks {
                    let key = (unit, *d);
                    // Only disks whose mapped host is alive: dead hosts are
                    // the host-failover path's job.
                    if let Some(h) = m.disk_host.get(&key) {
                        if m.host_alive.get(&(unit, *h)) != Some(&true) {
                            continue;
                        }
                    }
                    let last = m.disk_last_seen.get(&key).copied().unwrap_or(activated_at);
                    if now.saturating_duration_since(last) <= timeout {
                        continue;
                    }
                    if let Some((t, _)) = m.disk_recovery_attempted.get(&key) {
                        if now.saturating_duration_since(*t) < retry {
                            continue;
                        }
                    }
                    m.disk_recovery_attempted
                        .insert(key, (now, DiskRecovery::Swept));
                    out.push((unit, *d, targets.clone(), conf.controllers.clone()));
                }
            }
            out
        };
        for (unit, d, targets, controllers) in missing {
            self.reroute_disk(sim, unit, d, targets, controllers, false, |_, _| {});
        }
    }

    /// Plans and executes a path switch for one disk (§IV-E), choosing
    /// targets among the unit's live hosts *other than* the disk's current
    /// host when any exist — the entry point for proactive moves, e.g. the
    /// health watchdog escalating sustained degradation before the disk
    /// fails outright. `done` fires with `true` once the fabric
    /// reconfiguration completed and SysStat maps the disk to a new host
    /// (EndPoint re-export and client remounts follow asynchronously).
    pub fn recover_disk(
        &self,
        sim: &Sim,
        unit: UnitId,
        d: DiskId,
        done: impl FnOnce(&Sim, bool) + 'static,
    ) {
        let picked = {
            let mut m = self.inner.borrow_mut();
            if !m.active || !m.units.contains_key(&unit) {
                None
            } else {
                let conf = m.units[&unit].clone();
                let current = m.disk_host.get(&(unit, d)).copied();
                let live: Vec<HostId> = conf
                    .hosts
                    .iter()
                    .map(|(h, _)| *h)
                    .filter(|h| m.host_alive.get(&(unit, *h)).copied().unwrap_or(false))
                    .collect();
                let away: Vec<HostId> = live
                    .iter()
                    .copied()
                    .filter(|h| Some(*h) != current)
                    .collect();
                let targets = if away.is_empty() { live } else { away };
                if targets.is_empty() {
                    None
                } else {
                    m.disk_recovery_attempted
                        .insert((unit, d), (sim.now(), DiskRecovery::Requested));
                    Some((targets, conf.controllers))
                }
            }
        };
        let Some((targets, controllers)) = picked else {
            done(sim, false);
            return;
        };
        // A still-attached disk moves with its hub cohort: relocating it
        // turns switches its healthy hub-mates share.
        self.reroute_disk(sim, unit, d, targets, controllers, true, done);
    }

    /// The shared plan→execute reroute machinery behind
    /// [`sweep_missing_disks`](Self::sweep_missing_disks) and
    /// [`recover_disk`](Self::recover_disk).
    #[allow(clippy::too_many_arguments)]
    fn reroute_disk(
        &self,
        sim: &Sim,
        unit: UnitId,
        d: DiskId,
        targets: Vec<HostId>,
        controllers: Vec<Addr>,
        pull_cohort: bool,
        done: impl FnOnce(&Sim, bool) + 'static,
    ) {
        let this = self.clone();
        let rpc_timeout = self.inner.borrow().config.rpc_timeout;
        let exec_timeout = self.inner.borrow().config.execute_timeout;
        self.controller_call::<PlanResp>(
            sim,
            controllers.clone(),
            "ctl.plan",
            Arc::new(PlanReq {
                disks: vec![d],
                targets,
                pull_cohort,
            }),
            rpc_timeout,
            move |sim, plan| {
                let Some((responsive, plan)) = plan else {
                    done(sim, false);
                    return;
                };
                match plan {
                    Err(_) => {
                        // No alternative path: the paper "reports the
                        // failure to system administrator for future
                        // replacement or repair". Only the reason changes;
                        // the retry clock keeps the attempt's start.
                        if let Some((_, why)) = this
                            .inner
                            .borrow_mut()
                            .disk_recovery_attempted
                            .get_mut(&(unit, d))
                        {
                            *why = DiskRecovery::NeedsRepair;
                        }
                        done(sim, false);
                    }
                    Ok(pairs) => {
                        let mut order = vec![responsive.clone()];
                        order.extend(controllers.into_iter().filter(|a| *a != responsive));
                        let this2 = this.clone();
                        let pairs2 = pairs.clone();
                        this.controller_call::<ExecuteResp>(
                            sim,
                            order,
                            "ctl.execute",
                            Arc::new(ExecuteReq { pairs }),
                            exec_timeout,
                            move |sim, r| {
                                let ok = matches!(r, Some((_, Ok(()))));
                                if ok {
                                    let mut m = this2.inner.borrow_mut();
                                    for (d, h) in &pairs2 {
                                        m.disk_host.insert((unit, *d), *h);
                                    }
                                    m.exposures_pushed
                                        .retain(|(n, _)| !pairs2.iter().any(|(d, _)| *d == n.disk));
                                }
                                done(sim, ok);
                            },
                        );
                    }
                }
            },
        );
    }

    fn failover(&self, sim: &Sim, unit: UnitId, dead: HostId) {
        let (disks, targets, controllers) = {
            let m = self.inner.borrow();
            // The dead host's disks: mapped to it in SysStat, or not
            // claimed by any host at all (a fresh master may never have
            // seen the dead host's heartbeats).
            let conf = &m.units[&unit];
            let disks: Vec<DiskId> = conf
                .disks
                .iter()
                .map(|(d, _)| *d)
                .filter(|d| match m.disk_host.get(&(unit, *d)) {
                    Some(h) => *h == dead,
                    None => true,
                })
                .collect();
            let targets: Vec<HostId> = conf
                .hosts
                .iter()
                .map(|(h, _)| *h)
                .filter(|h| *h != dead && m.host_alive.get(&(unit, *h)).copied().unwrap_or(false))
                .collect();
            (disks, targets, conf.controllers.clone())
        };
        if disks.is_empty() || targets.is_empty() {
            self.inner
                .borrow_mut()
                .failover_in_progress
                .remove(&(unit, dead));
            let why = if disks.is_empty() {
                "no_disks"
            } else {
                "no_target"
            };
            close_failover_spans(sim, unit, dead, Some(why));
            return;
        }
        let this = self.clone();
        self.controller_call::<PlanResp>(
            sim,
            controllers.clone(),
            "ctl.plan",
            Arc::new(PlanReq {
                disks,
                targets,
                pull_cohort: false,
            }),
            self.inner.borrow().config.rpc_timeout,
            move |sim, plan| {
                let Some((responsive, Ok(pairs))) = plan else {
                    this.inner
                        .borrow_mut()
                        .failover_in_progress
                        .remove(&(unit, dead));
                    close_failover_spans(sim, unit, dead, Some("planning_failed"));
                    return;
                };
                // Prefer the controller that just answered; keep the rest
                // as fallbacks.
                let mut order = vec![responsive.clone()];
                order.extend(controllers.into_iter().filter(|a| *a != responsive));
                let this2 = this.clone();
                let pairs2 = pairs.clone();
                let exec_timeout = this.inner.borrow().config.execute_timeout;
                this.controller_call::<ExecuteResp>(
                    sim,
                    order,
                    "ctl.execute",
                    Arc::new(ExecuteReq { pairs }),
                    exec_timeout,
                    move |sim, r| {
                        let ok = matches!(r, Some((_, Ok(()))));
                        {
                            let mut m = this2.inner.borrow_mut();
                            m.failover_in_progress.remove(&(unit, dead));
                            if ok {
                                for (d, h) in &pairs2 {
                                    m.disk_host.insert((unit, *d), *h);
                                }
                                // Force re-pushing exposures to new hosts.
                                m.exposures_pushed
                                    .retain(|(n, _)| !pairs2.iter().any(|(d, _)| *d == n.disk));
                            }
                        }
                        if ok {
                            // Reconfiguration done; the remount phase runs
                            // until clients read again (the harness or the
                            // experiment closes it).
                            let victim = format!("{unit}/{dead}");
                            if let Some(root) =
                                sim.with_spans(|t| t.find_open_by("failover", "victim", &victim))
                            {
                                if let Some(rec) = sim.with_spans(|t| {
                                    t.children(root)
                                        .filter(|s| {
                                            &*s.name == "failover.reconfiguration" && s.is_open()
                                        })
                                        .map(|s| s.id)
                                        .next()
                                }) {
                                    sim.span_end(rec);
                                }
                                sim.span_child(root, "master", "failover.remount");
                            }
                            sim.count(
                                &this2.rpc.addr().to_string(),
                                "master.failovers_completed",
                                1,
                            );
                        } else {
                            close_failover_spans(sim, unit, dead, Some("execute_failed"));
                            sim.count(&this2.rpc.addr().to_string(), "master.failovers_failed", 1);
                        }
                    },
                );
            },
        );
    }

    /// Calls the unit's primary Controller, falling back to the backup on
    /// timeout (§IV-C: "Only when the primary fails will the Master send
    /// commands to the backup Controller").
    fn controller_call<R: std::any::Any + Send + Sync + Clone>(
        &self,
        sim: &Sim,
        controllers: Vec<Addr>,
        method: &'static str,
        body: ustore_net::Payload,
        timeout: Duration,
        cb: impl FnOnce(&Sim, Option<(Addr, R)>) + 'static,
    ) {
        let Some(primary) = controllers.first().cloned() else {
            cb(sim, None);
            return;
        };
        let this = self.clone();
        let rest: Vec<Addr> = controllers[1..].to_vec();
        let body2 = body.clone();
        let primary2 = primary.clone();
        self.rpc.call::<R>(
            sim,
            &primary,
            method,
            body,
            256,
            timeout,
            move |sim, r| match r {
                Ok(resp) => cb(sim, Some((primary2, (*resp).clone()))),
                Err(_) if !rest.is_empty() => {
                    this.controller_call::<R>(sim, rest, method, body2, timeout, cb);
                }
                Err(_) => cb(sim, None),
            },
        );
    }
}

/// Closes the failover span tree for `unit`/`dead` after an unsuccessful
/// outcome: any open phase child is ended, the root gets an `error`
/// attribute and is ended too.
fn close_failover_spans(sim: &Sim, unit: UnitId, dead: HostId, error: Option<&str>) {
    let victim = format!("{unit}/{dead}");
    let Some(root) = sim.with_spans(|t| t.find_open_by("failover", "victim", &victim)) else {
        return;
    };
    let open_children: Vec<ustore_sim::SpanId> = sim.with_spans(|t| {
        t.children(root)
            .filter(|s| s.is_open())
            .map(|s| s.id)
            .collect()
    });
    for c in open_children {
        sim.span_end(c);
    }
    if let Some(e) = error {
        sim.span_attr(root, "error", e);
    }
    sim.span_end(root);
}

/// Creates `paths[idx..]` in order (parents first) on `coord`, then fires
/// `then`. Already-existing nodes are fine: create errors are ignored,
/// exactly like the pre-partition bootstrap chain.
fn create_chain(
    sim: &Sim,
    coord: CoordClient,
    paths: Vec<String>,
    idx: usize,
    then: Box<dyn FnOnce(&Sim)>,
) {
    if idx >= paths.len() {
        then(sim);
        return;
    }
    let path = paths[idx].clone();
    let coord2 = coord.clone();
    coord.create(
        sim,
        path,
        Vec::new(),
        CreateMode::Persistent,
        move |sim, _| {
            create_chain(sim, coord2, paths, idx + 1, then);
        },
    );
}

/// Encodes a space name as a single znode name (slashes become dots).
fn encode_space(name: SpaceName) -> String {
    format!("{}.{}.{}", name.unit.0, name.disk.0, name.space)
}

fn decode_space(s: &str) -> Option<SpaceName> {
    let mut it = s.split('.');
    let unit = it.next()?.parse().ok()?;
    let disk = it.next()?.parse().ok()?;
    let space = it.next()?.parse().ok()?;
    it.next()
        .is_none()
        .then(|| SpaceName::new(UnitId(unit), DiskId(disk), space))
}

fn encode_extent(e: &Extent) -> Vec<u8> {
    format!("{},{},{}", e.offset, e.len, e.service).into_bytes()
}

fn decode_extent(data: &[u8]) -> Option<Extent> {
    let s = std::str::from_utf8(data).ok()?;
    let mut it = s.splitn(3, ',');
    let offset = it.next()?.parse().ok()?;
    let len = it.next()?.parse().ok()?;
    let service = it.next()?.to_owned();
    Some(Extent {
        offset,
        len,
        service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_encoding_roundtrip() {
        let n = SpaceName::new(UnitId(2), DiskId(7), 11);
        assert_eq!(encode_space(n), "2.7.11");
        assert_eq!(decode_space("2.7.11"), Some(n));
        assert_eq!(decode_space("2.7"), None);
        assert_eq!(decode_space("a.b.c"), None);
    }

    #[test]
    fn extent_encoding_roundtrip() {
        let e = Extent {
            offset: 5,
            len: 10,
            service: "svc,with,commas".into(),
        };
        let enc = encode_extent(&e);
        assert_eq!(decode_extent(&enc), Some(e));
        assert_eq!(decode_extent(b"bogus"), None);
    }
}
