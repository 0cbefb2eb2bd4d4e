//! Whole-system harness: brings up a complete UStore deployment in one
//! simulator and provides the failure-injection controls the experiments
//! need.
//!
//! A default [`UStoreSystem`] mirrors the paper's prototype (§V-B): one
//! deploy unit of 16 disks and 4 hosts (upper-switched fabric), a 5-node
//! coordination cluster, two Master processes in active/standby, an
//! EndPoint per host, and two Controllers on the first two hosts.

use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use ustore_consensus::{CoordGroup, CoordServer};
use ustore_fabric::{DiskId, FabricRuntime, HostId, RuntimeConfig, Topology};
use ustore_net::{Addr, NetConfig, Network};
use ustore_sim::{Scraper, ScraperConfig, Sim};

use crate::clientlib::{ClientLibConfig, UStoreClient};
use crate::controller::Controller;
use crate::endpoint::{Endpoint, EndpointConfig};
use crate::ids::UnitId;
use crate::master::{Master, MasterConfig, UnitConf};
use crate::watchdog::{HealthWatchdog, WatchdogConfig};
use crate::world::{
    build_world, export_world, partition_logs, start_scraper, Hosted, World, WorldTelemetry,
};

/// Deployment shape.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of deploy units (§IV: "one Master and a number of deploy
    /// units").
    pub units: u32,
    /// Hosts per deploy unit (power of two for the upper-switched fabric).
    pub hosts: u32,
    /// Disks per deploy unit.
    pub disks: u32,
    /// Hub fan-in.
    pub fanin: usize,
    /// Coordination cluster size.
    pub coord_nodes: u32,
    /// Master processes.
    pub masters: u32,
    /// Network parameters.
    pub net: NetConfig,
    /// Fabric/hardware parameters.
    pub runtime: RuntimeConfig,
    /// EndPoint parameters.
    pub endpoint: EndpointConfig,
    /// Master parameters.
    pub master: MasterConfig,
    /// ClientLib parameters for clients created by the harness.
    pub clientlib: ClientLibConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            units: 1,
            hosts: 4,
            disks: 16,
            fanin: 4,
            coord_nodes: 5,
            masters: 2,
            net: NetConfig::default(),
            runtime: RuntimeConfig::default(),
            endpoint: EndpointConfig::default(),
            master: MasterConfig::default(),
            clientlib: ClientLibConfig::default(),
        }
    }
}

/// A fully wired UStore deployment inside one simulator.
pub struct UStoreSystem {
    /// The simulator everything runs on.
    pub sim: Sim,
    /// The shared network.
    pub net: Network,
    /// The first deploy unit's hardware (compatibility accessor; see
    /// [`UStoreSystem::runtimes`] for all units).
    pub runtime: FabricRuntime,
    /// Hardware of every deploy unit, indexed by unit id.
    pub runtimes: Vec<FabricRuntime>,
    /// Coordination cluster replicas.
    pub coord: Vec<CoordServer>,
    /// Per-partition metadata replica groups (partitions 1.. of
    /// `config.master.partitions`; empty for a single-partition Master).
    pub partition_groups: Vec<CoordGroup>,
    /// Master processes (index 0 usually becomes active first).
    pub masters: Vec<Master>,
    /// EndPoints across all units.
    pub endpoints: Vec<Endpoint>,
    /// Controllers across all units (two per unit: primary, backup).
    pub controllers: Vec<Rc<Controller>>,
    config: SystemConfig,
}

impl fmt::Debug for UStoreSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UStoreSystem")
            .field("hosts", &self.endpoints.len())
            .field("masters", &self.masters.len())
            .finish()
    }
}

/// Address of host `h`'s machine (EndPoint + possibly Controller).
/// Unit 0 keeps the short `host-N` form.
pub fn host_addr(h: HostId) -> Addr {
    Addr::new(format!("host-{}", h.0))
}

/// Address of unit `u`'s host `h` machine.
pub fn unit_host_addr(u: UnitId, h: HostId) -> Addr {
    if u.0 == 0 {
        host_addr(h)
    } else {
        Addr::new(format!("u{}-host-{}", u.0, h.0))
    }
}

/// Address of master process `i`.
pub fn master_addr(i: u32) -> Addr {
    Addr::new(format!("master-{i}"))
}

/// Address of coordination replica `i`.
pub fn coord_addr(i: u32) -> Addr {
    Addr::new(format!("coord-{i}"))
}

/// Unit configuration derived purely from the deployment shape — no live
/// hardware required. Host/disk id order matches the unit's topology
/// iteration order, and disk capacity comes from the configured drive
/// profile, so this is identical to what a constructed [`FabricRuntime`]
/// reports. The world builder relies on that: in a sharded pod the
/// Masters live in a different world than the unit hardware.
pub fn unit_conf_for(unit: UnitId, config: &SystemConfig) -> UnitConf {
    let (topology, _) = Topology::upper_switched(config.hosts, config.disks, config.fanin);
    let capacity = config.runtime.disk_profile.mech.capacity_bytes;
    UnitConf {
        unit,
        hosts: topology
            .hosts()
            .map(|h| (h, unit_host_addr(unit, h)))
            .collect(),
        disks: topology.disks().map(|d| (d, capacity)).collect(),
        controllers: vec![
            unit_host_addr(unit, HostId(0)),
            unit_host_addr(unit, HostId(1)),
        ],
    }
}

impl UStoreSystem {
    /// Builds and starts a deployment. Run the simulator for a few virtual
    /// seconds ([`UStoreSystem::settle`]) before using it: enumeration and
    /// the master election take that long, as they do in reality.
    pub fn build(sim: Sim, config: SystemConfig) -> UStoreSystem {
        assert!(config.units >= 1, "need at least one deploy unit");
        let net = Network::new(config.net.clone());
        let World {
            sim,
            net,
            coord,
            coord_groups,
            runtimes,
            masters,
            endpoints,
            controllers,
        } = build_world(sim, net, &config, &Hosted::everything(&config));
        UStoreSystem {
            sim,
            net,
            runtime: runtimes[0].clone(),
            runtimes,
            coord,
            partition_groups: coord_groups,
            masters,
            endpoints,
            controllers,
            config,
        }
    }

    /// Replicated-log length of every metadata partition, in partition
    /// order (index 0 = the base cluster, which also carries elections and
    /// sessions; indices 1.. = the per-partition groups).
    pub fn partition_log_lens(&self) -> Vec<u64> {
        partition_logs(&self.coord, &self.partition_groups)
            .into_iter()
            .map(|(_, len)| len)
            .collect()
    }

    /// Builds the paper's prototype deployment with default parameters.
    pub fn prototype(seed: u64) -> UStoreSystem {
        UStoreSystem::build(Sim::new(seed), SystemConfig::default())
    }

    /// Runs the simulator until bring-up completes (enumeration + master
    /// election + first heartbeats).
    pub fn settle(&self) {
        self.sim.run_until(self.sim.now() + Duration::from_secs(15));
    }

    /// Creates a connected storage client at `name`.
    pub fn client(&self, name: &str) -> UStoreClient {
        let masters: Vec<Addr> = (0..self.config.masters).map(master_addr).collect();
        UStoreClient::new(
            &self.net,
            Addr::new(name),
            masters,
            self.config.clientlib.clone(),
        )
    }

    /// The currently active master, if any.
    pub fn active_master(&self) -> Option<&Master> {
        self.masters.iter().find(|m| m.is_active())
    }

    /// Kills a host: the machine drops off the network, its USB trees
    /// disappear, and (if it carried the active microcontroller) the
    /// control plane fails over. The Master's heartbeat sweeper will
    /// notice and evacuate its disks.
    pub fn kill_host(&self, h: HostId) {
        self.kill_unit_host(UnitId(0), h);
    }

    /// Kills a host of a specific deploy unit.
    pub fn kill_unit_host(&self, unit: UnitId, h: HostId) {
        // Open the failover span tree at the instant of failure. The
        // detection child stays open until the Master's sweeper declares
        // the host dead, so its duration is the paper's detection time.
        let root = self.sim.span_start("system", "failover");
        self.sim.span_attr(root, "victim", format!("{unit}/{h}"));
        self.sim.span_child(root, "master", "failover.detection");
        self.net.set_down(&unit_host_addr(unit, h));
        self.runtimes[unit.0 as usize].host_failed(&self.sim, h);
        if let Some(ep) = self
            .endpoints
            .iter()
            .find(|e| e.unit() == unit && e.host() == h)
        {
            ep.pause();
        }
    }

    /// Repairs a previously killed host.
    pub fn restore_host(&self, h: HostId) {
        self.restore_unit_host(UnitId(0), h);
    }

    /// Repairs a previously killed host of a specific unit.
    pub fn restore_unit_host(&self, unit: UnitId, h: HostId) {
        self.net.set_up(&unit_host_addr(unit, h));
        self.runtimes[unit.0 as usize].host_repaired(&self.sim, h);
        if let Some(ep) = self
            .endpoints
            .iter()
            .find(|e| e.unit() == unit && e.host() == h)
        {
            ep.resume(&self.sim);
        }
    }

    /// Kills a master process (service socket, coordination sessions —
    /// including its per-partition metadata sessions).
    pub fn kill_master(&self, i: usize) {
        self.net.set_down(&master_addr(i as u32));
        self.net
            .set_down(&Addr::new(format!("{}-zk", master_addr(i as u32))));
        for k in 1..self.config.master.partitions.max(1) {
            self.net
                .set_down(&Addr::new(format!("{}-zk-p{k}", master_addr(i as u32))));
        }
        self.masters[i].pause();
    }

    /// Starts the telemetry pipeline: a gauge publisher (disk residency +
    /// network counters, refreshed right before every sample) and a
    /// [`Scraper`] that records the whole registry into ring-buffered time
    /// series at `config.interval`.
    ///
    /// The publisher timer is registered *before* the scraper at the same
    /// cadence, so each scrape observes freshly published gauges (the
    /// simulator fires same-instant timers in registration order).
    pub fn start_telemetry(&self, config: ScraperConfig) -> Scraper {
        start_scraper(&self.sim, &self.net, &self.runtimes, config)
    }

    /// Exports the deployment's telemetry as world 0: disk residency
    /// gauges are published first, then the metrics snapshot, span log,
    /// `scraper`'s time series and the metadata partitions' log lengths
    /// are taken — the same export every sharded world produces.
    pub fn export(&self, scraper: Option<&Scraper>) -> WorldTelemetry {
        export_world(
            0,
            &self.sim,
            &self.runtimes,
            &self.coord,
            &self.partition_groups,
            scraper,
        )
    }

    /// Installs the Master-side health watchdog over `scraper`'s series:
    /// every disk and every host-side link of the deployment is watched
    /// for seek-latency drift, uncorrectable-read bursts, link saturation
    /// and re-enumeration storms. Returns `None` if no master is active
    /// yet (call [`UStoreSystem::settle`] first).
    ///
    /// Disk and host component names repeat across deploy units (every
    /// unit has a `disk0`); the watchdog watches the first unit that
    /// claims each name, which is exact for single-unit deployments.
    pub fn install_watchdog(
        &self,
        scraper: &Scraper,
        config: WatchdogConfig,
    ) -> Option<HealthWatchdog> {
        let master = self.active_master()?.clone();
        let mut disks = Vec::new();
        let mut seen_disks = std::collections::BTreeSet::new();
        let mut links = Vec::new();
        let mut seen_links = std::collections::BTreeSet::new();
        for (u, rt) in self.runtimes.iter().enumerate() {
            let unit = UnitId(u as u32);
            for d in rt.disk_ids() {
                let name = format!("{d}");
                if seen_disks.insert(name.clone()) {
                    disks.push((name, unit, d));
                }
            }
            for h in rt.host_ids() {
                let name = format!("{h}");
                if seen_links.insert(name.clone()) {
                    links.push(name);
                }
            }
        }
        Some(HealthWatchdog::install(
            scraper, master, disks, links, config,
        ))
    }

    /// All disks currently attached and enumerated somewhere.
    pub fn ready_disks(&self) -> Vec<DiskId> {
        self.runtime
            .disk_ids()
            .into_iter()
            .filter(|d| self.runtime.disk_ready(*d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use ustore_net::BlockDevice;
    use ustore_sim::SimTime;

    use crate::clientlib::Mounted;
    use crate::messages::SpaceInfo;

    fn run_for(s: &UStoreSystem, secs: u64) {
        s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
    }

    fn allocate_blocking(
        s: &UStoreSystem,
        client: &UStoreClient,
        service: &str,
        size: u64,
    ) -> SpaceInfo {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        client.allocate(&s.sim, service, size, move |_, r| {
            *o.borrow_mut() = Some(r.expect("allocate"));
        });
        run_for(s, 10);
        let info = out.borrow_mut().take().expect("allocation completed");
        info
    }

    fn mount_blocking(s: &UStoreSystem, client: &UStoreClient, info: &SpaceInfo) -> Mounted {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        client.mount(&s.sim, info.name, move |_, r| {
            *o.borrow_mut() = Some(r.expect("mount"));
        });
        run_for(s, 15);
        let m = out.borrow_mut().take().expect("mount completed");
        m
    }

    #[test]
    fn bring_up_elects_master_and_sees_all_disks() {
        let s = UStoreSystem::prototype(101);
        s.settle();
        assert!(s.active_master().is_some(), "one master active");
        assert_eq!(s.ready_disks().len(), 16);
        let m = s.active_master().expect("active");
        for h in s.runtime.host_ids() {
            assert!(m.host_alive(UnitId(0), h), "{h} alive via heartbeats");
        }
        for d in s.runtime.disk_ids() {
            assert_eq!(m.disk_host(UnitId(0), d), s.runtime.attached_host(d));
        }
    }

    #[test]
    fn allocate_mount_io_roundtrip() {
        let s = UStoreSystem::prototype(102);
        s.settle();
        let client = s.client("app-1");
        let info = allocate_blocking(&s, &client, "backup", 1 << 30);
        assert!(info.host_addr.is_some());
        let mounted = mount_blocking(&s, &client, &info);
        assert_eq!(mounted.capacity(), 1 << 30);
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        let m2 = mounted.clone();
        mounted.write(
            &s.sim,
            4096,
            b"frozen bits".to_vec(),
            Box::new(move |sim, r| {
                r.expect("write");
                m2.read(
                    sim,
                    4096,
                    11,
                    Box::new(move |_, r| {
                        assert_eq!(r.expect("read"), b"frozen bits".to_vec());
                        o.set(true);
                    }),
                );
            }),
        );
        run_for(&s, 10);
        assert!(ok.get());
    }

    #[test]
    fn service_affinity_and_release() {
        let s = UStoreSystem::prototype(103);
        s.settle();
        let client = s.client("app-1");
        let a = allocate_blocking(&s, &client, "hdfs", 1 << 30);
        let b = allocate_blocking(&s, &client, "hdfs", 1 << 30);
        assert_eq!(a.name.disk, b.name.disk, "same service packs on one disk");
        // Release and verify lookup fails.
        let gone = Rc::new(Cell::new(false));
        let g = gone.clone();
        let c2 = client.clone();
        let name = a.name;
        client.release(&s.sim, name, move |sim, r| {
            r.expect("release");
            c2.lookup(sim, name, move |_, r| {
                assert!(matches!(
                    r.unwrap_err(),
                    crate::ClientLibError::Master(crate::MasterError::NoSuchSpace)
                ));
                g.set(true);
            });
        });
        run_for(&s, 10);
        assert!(gone.get());
    }

    #[test]
    fn host_failure_recovers_and_io_continues() {
        let s = UStoreSystem::prototype(104);
        s.settle();
        let client = s.client("app-1");
        let info = allocate_blocking(&s, &client, "svc", 1 << 30);
        let mounted = mount_blocking(&s, &client, &info);
        // Write something before the failure.
        mounted.write(
            &s.sim,
            0,
            b"before".to_vec(),
            Box::new(|_, r| r.expect("write")),
        );
        run_for(&s, 2);
        // Kill the host currently serving the space.
        let victim = s
            .runtime
            .attached_host(info.name.disk)
            .expect("disk attached");
        let t0 = s.sim.now();
        s.kill_host(victim);
        // Issue a read immediately: it must eventually succeed via remount.
        let recovered_at = Rc::new(Cell::new(SimTime::ZERO));
        let r2 = recovered_at.clone();
        mounted.read(
            &s.sim,
            0,
            6,
            Box::new(move |sim, r| {
                assert_eq!(r.expect("read after failover"), b"before".to_vec());
                r2.set(sim.now());
            }),
        );
        run_for(&s, 40);
        let dt = recovered_at.get().saturating_duration_since(t0);
        assert!(recovered_at.get() > SimTime::ZERO, "read completed");
        assert!(
            dt > Duration::from_secs(3) && dt < Duration::from_secs(12),
            "recovery took {dt:?} (paper: 5.8 s)"
        );
        // The disk moved to a live host.
        let new_host = s.runtime.attached_host(info.name.disk).expect("reattached");
        assert_ne!(new_host, victim);
        assert!(
            mounted.remount_count() >= 2,
            "initial mount + failover remount"
        );
    }

    #[test]
    fn master_failover_preserves_metadata() {
        let s = UStoreSystem::prototype(105);
        s.settle();
        let client = s.client("app-1");
        let info = allocate_blocking(&s, &client, "svc", 1 << 30);
        let active_idx = s
            .masters
            .iter()
            .position(|m| m.is_active())
            .expect("active master");
        s.kill_master(active_idx);
        // The standby should take over (session expiry + election) and
        // still know the allocation (reloaded from the coordination
        // service).
        run_for(&s, 20);
        let standby = &s.masters[1 - active_idx];
        assert!(standby.is_active(), "standby became active");
        let found = Rc::new(Cell::new(false));
        let f = found.clone();
        client.lookup(&s.sim, info.name, move |_, r| {
            let got = r.expect("lookup after master failover");
            assert_eq!(got.size, 1 << 30);
            f.set(true);
        });
        run_for(&s, 10);
        assert!(found.get());
    }

    #[test]
    fn idle_disks_spin_down_and_io_wakes_them() {
        let mut cfg = SystemConfig::default();
        cfg.endpoint.idle_spin_down = Duration::from_secs(20);
        cfg.endpoint.idle_check = Duration::from_secs(5);
        let s = UStoreSystem::build(Sim::new(106), cfg);
        s.settle();
        let client = s.client("app-1");
        let info = allocate_blocking(&s, &client, "svc", 1 << 30);
        let mounted = mount_blocking(&s, &client, &info);
        // The disk may have spun down during the slow mount; this write
        // wakes it and resets the idle clock.
        mounted.write(
            &s.sim,
            0,
            vec![1u8; 4096],
            Box::new(|_, r| r.expect("write")),
        );
        run_for(&s, 12);
        let disk = s.runtime.disk(info.name.disk);
        assert_eq!(disk.power_state(), ustore_disk::PowerStateKind::Idle);
        // Wait past the idle threshold: the EndPoint spins it down.
        run_for(&s, 60);
        assert_eq!(
            disk.power_state(),
            ustore_disk::PowerStateKind::Standby,
            "idle disk spun down"
        );
        // IO wakes it (with spin-up latency).
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let o = done_at.clone();
        let d2 = disk.clone();
        let t0 = s.sim.now();
        mounted.read(
            &s.sim,
            0,
            16,
            Box::new(move |sim, r| {
                r.expect("read after wake");
                assert_eq!(d2.power_state(), ustore_disk::PowerStateKind::Idle);
                o.set(sim.now());
            }),
        );
        run_for(&s, 30);
        assert!(done_at.get() > SimTime::ZERO, "read completed");
        assert!(
            done_at.get().saturating_duration_since(t0) >= Duration::from_secs(7),
            "paid spin-up"
        );
    }

    #[test]
    fn service_can_spin_disks_down_remotely() {
        let s = UStoreSystem::prototype(107);
        s.settle();
        let client = s.client("app-1");
        let info = allocate_blocking(&s, &client, "svc", 1 << 30);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        client.disk_power(&s.sim, info.name.disk, false, move |_, r| {
            r.expect("spin down command");
            d.set(true);
        });
        run_for(&s, 10);
        assert!(done.get());
        assert_eq!(
            s.runtime.disk(info.name.disk).power_state(),
            ustore_disk::PowerStateKind::Standby
        );
    }
}
