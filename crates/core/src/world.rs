//! The one pod recipe: every simulation world — the classic pod's single
//! world and each world of the sharded pod — is constructed here, from
//! the deployment shape and the set of components the world hosts.
//!
//! The paper's pod is one Master and coordination service over N
//! identical deploy units (§III/§IV). A world hosts some slice of it: the
//! classic [`crate::UStoreSystem`] hosts all of it; the sharded pod's
//! control world hosts the coordination cluster and Masters, and each
//! unit-group world a contiguous range of units. Metadata-partition
//! replica groups go wherever the placement rule puts them.
//!
//! Construction order is part of the determinism contract: components
//! register timers and draw from the world's RNG as they are built, so
//! the order below is what every telemetry digest is pinned to.

use std::ops::Range;
use std::rc::Rc;

use ustore_consensus::{CoordConfig, CoordGroup, CoordServer};
use ustore_fabric::{FabricRuntime, Topology};
use ustore_net::{Addr, Network, RpcNode};
use ustore_sim::{Scraper, ScraperConfig, Sim};

use crate::controller::Controller;
use crate::endpoint::Endpoint;
use crate::ids::UnitId;
use crate::master::Master;
use crate::system::{coord_addr, master_addr, unit_conf_for, unit_host_addr, SystemConfig};

/// What one world hosts.
#[derive(Debug, Clone)]
pub(crate) struct Hosted {
    /// The coordination cluster (metadata partition 0) and the Masters.
    pub control: bool,
    /// Metadata partitions `1..` whose replica groups live here.
    pub partitions: Vec<u32>,
    /// Deploy units whose hardware, EndPoints and Controllers live here.
    pub units: Range<u32>,
}

impl Hosted {
    /// The whole pod in one world.
    pub fn everything(sys: &SystemConfig) -> Hosted {
        Hosted {
            control: true,
            partitions: (1..sys.master.partitions.max(1)).collect(),
            units: 0..sys.units,
        }
    }
}

/// The components of one constructed world.
pub(crate) struct World {
    pub sim: Sim,
    pub net: Network,
    pub coord: Vec<CoordServer>,
    pub coord_groups: Vec<CoordGroup>,
    pub runtimes: Vec<FabricRuntime>,
    pub masters: Vec<Master>,
    pub endpoints: Vec<Endpoint>,
    pub controllers: Vec<Rc<Controller>>,
}

/// Builds what `hosted` names on `sim`/`net`, in one fixed order:
/// coordination cluster → metadata-partition groups → each unit's
/// [`FabricRuntime`] → Masters → each unit's EndPoints and Controllers.
pub(crate) fn build_world(sim: Sim, net: Network, sys: &SystemConfig, hosted: &Hosted) -> World {
    // Tearing the simulator down also severs the network/RPC closure
    // tables, so repeated in-process builds don't accumulate heap.
    let net2 = net.clone();
    sim.on_teardown(move || net2.teardown());
    let coord_addrs: Vec<Addr> = (0..sys.coord_nodes).map(coord_addr).collect();
    let master_addrs: Vec<Addr> = (0..sys.masters).map(master_addr).collect();
    let coord: Vec<CoordServer> = if hosted.control {
        (0..sys.coord_nodes)
            .map(|i| CoordServer::new(&sim, &net, i, coord_addrs.clone(), CoordConfig::default()))
            .collect()
    } else {
        Vec::new()
    };
    let coord_groups: Vec<CoordGroup> = hosted
        .partitions
        .iter()
        .map(|&k| CoordGroup::new(&sim, &net, k, &coord_addrs, CoordConfig::default()))
        .collect();
    let runtimes: Vec<FabricRuntime> = hosted
        .units
        .clone()
        .map(|_| {
            let (topology, switch_config) =
                Topology::upper_switched(sys.hosts, sys.disks, sys.fanin);
            FabricRuntime::new(&sim, topology, switch_config, sys.runtime.clone())
        })
        .collect();
    // Masters manage every unit of the pod, hosted here or not: their
    // SysConf derives from the deployment shape alone.
    let masters: Vec<Master> = if hosted.control {
        let unit_confs: Vec<_> = (0..sys.units)
            .map(|u| unit_conf_for(UnitId(u), sys))
            .collect();
        master_addrs
            .iter()
            .map(|a| {
                Master::new(
                    &sim,
                    &net,
                    a.clone(),
                    coord_addrs.clone(),
                    unit_confs.clone(),
                    sys.master.clone(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    // Per-host machines: one RPC node each, serving an EndPoint (and the
    // first two per unit also serve a Controller).
    let mut endpoints = Vec::new();
    let mut controllers = Vec::new();
    for (u, runtime) in hosted.units.clone().zip(&runtimes) {
        let unit = UnitId(u);
        for h in runtime.host_ids() {
            let rpc = RpcNode::new(&net, unit_host_addr(unit, h));
            if h.0 < 2 {
                controllers.push(Controller::new(unit, rpc.clone(), runtime.clone()));
            }
            endpoints.push(Endpoint::new(
                &sim,
                unit,
                h,
                rpc,
                runtime.clone(),
                master_addrs.clone(),
                sys.endpoint.clone(),
            ));
        }
    }
    World {
        sim,
        net,
        coord,
        coord_groups,
        runtimes,
        masters,
        endpoints,
        controllers,
    }
}

/// Starts a world's telemetry pipeline now: a gauge publisher (disk
/// residency + network counters) and a [`Scraper`] over the world's
/// registry, both at `config.interval`.
///
/// The publisher timer is registered *before* the scraper at the same
/// cadence, so each scrape observes freshly published gauges (the
/// simulator fires same-instant timers in registration order).
pub(crate) fn start_scraper(
    sim: &Sim,
    net: &Network,
    runtimes: &[FabricRuntime],
    config: ScraperConfig,
) -> Scraper {
    let runtimes = runtimes.to_vec();
    let net = net.clone();
    sim.every(config.interval, config.interval, move |sim| {
        for rt in &runtimes {
            rt.publish_residency(sim);
        }
        net.publish_metrics(sim);
    });
    Scraper::start(sim, config)
}

/// Telemetry and engine statistics of one finished world.
#[derive(Debug, Clone)]
pub struct WorldTelemetry {
    /// World id (0 = the control world, or the classic pod's only world).
    pub world: usize,
    /// Metrics registry snapshot as stable JSON.
    pub metrics_json: String,
    /// Span log as stable JSON.
    pub spans_json: String,
    /// Scraped time-series CSV (empty without a scraper).
    pub scrape_csv: String,
    /// Events this world's engine processed.
    pub events: u64,
    /// Peak live event-queue depth of this world's engine.
    pub peak_queue_depth: f64,
    /// Replicated-log lengths of the metadata partitions hosted by this
    /// world, as `(partition, applied length)` pairs (partition 0 = the
    /// base cluster). Empty for worlds hosting no coordination replicas.
    pub partition_logs: Vec<(u32, u64)>,
}

/// Exports one world: residency gauges are published first so the
/// metrics snapshot is complete, then the metrics JSON, span JSON,
/// scraped CSV and partition log lengths are taken.
pub(crate) fn export_world(
    world: usize,
    sim: &Sim,
    runtimes: &[FabricRuntime],
    coord: &[CoordServer],
    coord_groups: &[CoordGroup],
    scraper: Option<&Scraper>,
) -> WorldTelemetry {
    for rt in runtimes {
        rt.publish_residency(sim);
    }
    let metrics = sim.metrics_snapshot();
    WorldTelemetry {
        world,
        metrics_json: metrics.to_json().to_string(),
        spans_json: sim.with_spans(|t| t.to_json()).to_string(),
        scrape_csv: scraper.map(Scraper::to_csv).unwrap_or_default(),
        events: sim.events_processed(),
        peak_queue_depth: metrics.gauge("sim", "queue_depth_max").unwrap_or(0.0),
        partition_logs: partition_logs(coord, coord_groups),
    }
}

/// Replicated-log lengths of the metadata partitions a world hosts, as
/// `(partition, applied length)` pairs. Partition 0, the base cluster,
/// reports its most advanced replica.
pub(crate) fn partition_logs(
    coord: &[CoordServer],
    coord_groups: &[CoordGroup],
) -> Vec<(u32, u64)> {
    let base = coord.iter().map(|s| (0, s.applied_len())).max();
    base.into_iter()
        .chain(coord_groups.iter().map(|g| (g.group(), g.log_len())))
        .collect()
}
