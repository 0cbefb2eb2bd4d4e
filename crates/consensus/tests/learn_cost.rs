//! Replication cost must not grow with the committed log.
//!
//! A settled leader's heartbeat sends each follower the chosen entries it
//! has not yet acknowledged, which is nothing, so an idle heartbeat costs
//! the same at any log length. This test counts heap allocations over 5 s
//! of idle heartbeats at two log lengths and asserts they match within
//! 10%. A heartbeat that copies the committed log again, for a follower
//! or for the leader itself, makes the count grow with the log (and the
//! total cost of a run with its square), and fails here without any
//! wall-clock noise.
//!
//! This file is its own test binary on purpose — a `#[global_allocator]`
//! is process-wide, and the single test keeps the counter honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ustore_consensus::{ClientConfig, CoordClient, CoordConfig, CoordServer, CreateMode};
use ustore_net::{Addr, NetConfig, Network};
use ustore_sim::{Sim, SimTime};

/// Delegates to the system allocator while counting allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Writes until the leader's log holds `target` entries, issuing up to 20
/// writes per 20 ms step, then lets the cluster settle for 2 s.
fn grow_log(sim: &Sim, client: &CoordClient, leader: &CoordServer, target: u64) {
    let mut issued = leader.applied_len();
    while leader.applied_len() < target {
        while issued < target && issued < leader.applied_len() + 20 {
            issued += 1;
            let data = issued.to_le_bytes().to_vec();
            client.set_data(sim, "/log", data, None, |_, r| {
                r.expect("write commits");
            });
        }
        sim.run_until(sim.now() + Duration::from_millis(20));
    }
    sim.run_until(sim.now() + Duration::from_secs(2));
    assert_eq!(leader.applied_len(), target, "log length");
}

/// Allocations made while the simulator runs `d` with no client writes.
fn idle_allocs(sim: &Sim, d: Duration) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(sim.now() + d);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn idle_heartbeat_cost_is_flat_in_log_length() {
    let sim = Sim::new(7);
    let net = Network::new(NetConfig::default());
    let addrs: Vec<Addr> = (0..5).map(|i| Addr::new(format!("coord-{i}"))).collect();
    let servers: Vec<CoordServer> = (0..5)
        .map(|i| CoordServer::new(&sim, &net, i, addrs.clone(), CoordConfig::default()))
        .collect();
    sim.run_until(SimTime::from_secs(2));
    let leader = servers
        .iter()
        .find(|s| s.is_leader())
        .expect("leader")
        .clone();

    let client = CoordClient::new(
        &net,
        Addr::new("client"),
        addrs.clone(),
        ClientConfig::default(),
    );
    let ready = Rc::new(Cell::new(false));
    let r = ready.clone();
    client.connect(&sim, move |_, id| {
        id.expect("session");
        r.set(true);
    });
    sim.run_until(sim.now() + Duration::from_secs(1));
    assert!(ready.get(), "client connected");
    let created = Rc::new(Cell::new(false));
    let c = created.clone();
    client.create(&sim, "/log", vec![], CreateMode::Persistent, move |_, r| {
        r.expect("create /log");
        c.set(true);
    });
    sim.run_until(sim.now() + Duration::from_secs(1));
    assert!(created.get(), "/log created");

    let window = Duration::from_secs(5);
    grow_log(&sim, &client, &leader, 200);
    let short = idle_allocs(&sim, window);
    grow_log(&sim, &client, &leader, 3000);
    let long = idle_allocs(&sim, window);
    assert!(leader.is_leader(), "leadership held throughout");

    let ratio = long as f64 / short as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "idle heartbeats cost {short} allocations at log length 200 but {long} at 3000 \
         ({ratio:.2}x): replication copies the committed log again"
    );
}
