//! Fault-injection tests: the failure domains of §IV-E (hosts,
//! interconnect fabric, disks) plus message-level network trouble,
//! exercised through the full stack.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use ustore::{
    DiskRecovery, HealthSignal, Mounted, SpaceInfo, SystemConfig, UStoreSystem, UnitId,
    WatchdogConfig,
};
use ustore_fabric::{Component, DiskId, HostId, HubId};
use ustore_net::{BlockDevice, NetConfig};
use ustore_sim::{ScraperConfig, Sim};

fn run_for(s: &UStoreSystem, secs: u64) {
    s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
}

fn allocate(s: &UStoreSystem, client: &ustore::UStoreClient, service: &str) -> SpaceInfo {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    client.allocate(&s.sim, service, 1 << 30, move |_, r| {
        *o.borrow_mut() = Some(r.expect("allocate"));
    });
    run_for(s, 8);
    let v = out.borrow_mut().take().expect("allocated");
    v
}

fn mount(s: &UStoreSystem, client: &ustore::UStoreClient, info: &SpaceInfo) -> Mounted {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    client.mount(&s.sim, info.name, move |_, r| {
        *o.borrow_mut() = Some(r.expect("mount"));
    });
    run_for(s, 12);
    let v = out.borrow_mut().take().expect("mounted");
    v
}

#[test]
fn system_works_over_lossy_network() {
    // 2% message loss across the whole deployment: RPC retries and
    // timeouts must absorb it.
    let cfg = SystemConfig {
        net: NetConfig {
            loss_probability: 0.02,
            ..NetConfig::default()
        },
        ..SystemConfig::default()
    };
    let s = UStoreSystem::build(Sim::new(7001), cfg);
    s.settle();
    run_for(&s, 10);
    assert!(s.active_master().is_some(), "election survives loss");
    let client = s.client("lossy");
    let info = allocate(&s, &client, "svc");
    let m = mount(&s, &client, &info);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    let m2 = m.clone();
    m.write(
        &s.sim,
        0,
        vec![9u8; 8192],
        Box::new(move |sim, r| {
            r.expect("write despite loss");
            m2.read(
                sim,
                0,
                8192,
                Box::new(move |_, r| {
                    assert_eq!(r.expect("read despite loss"), vec![9u8; 8192]);
                    o.set(true);
                }),
            );
        }),
    );
    run_for(&s, 30);
    assert!(ok.get());
}

#[test]
fn disk_medium_error_surfaces_to_the_client() {
    let s = UStoreSystem::prototype(7002);
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc");
    let m = mount(&s, &client, &info);
    // Seed data, then inject a latent sector error under it (§IV-E cites
    // LSEs as a studied failure class).
    m.write(
        &s.sim,
        0,
        vec![5u8; 4096],
        Box::new(|_, r| r.expect("write")),
    );
    run_for(&s, 2);
    // The extent's physical offset is not 0 in general; hit page 0 of the
    // *space* by injecting at the disk offset behind it. The first space
    // on a fresh disk starts at extent offset 0.
    s.runtime.disk(info.name.disk).inject_bad_page(0);
    let got = Rc::new(Cell::new(false));
    let g = got.clone();
    let m2 = m.clone();
    m.read(
        &s.sim,
        0,
        4096,
        Box::new(move |sim, r| {
            // The ClientLib retries transport-level failures but an IO error
            // is final for this op.
            assert!(r.is_err(), "medium error surfaced");
            // A full overwrite repairs the page, after which reads work.
            let g2 = g.clone();
            let m3 = m2.clone();
            m2.write(
                sim,
                0,
                vec![6u8; 4096],
                Box::new(move |sim, r| {
                    r.expect("repair write");
                    m3.read(
                        sim,
                        0,
                        4096,
                        Box::new(move |_, r| {
                            assert_eq!(r.expect("post-repair read"), vec![6u8; 4096]);
                            g2.set(true);
                        }),
                    );
                }),
            );
        }),
    );
    run_for(&s, 60);
    assert!(got.get());
}

#[test]
fn hub_failure_orphans_subtree_and_repair_restores() {
    let s = UStoreSystem::prototype(7003);
    s.settle();
    // Fail a leaf hub: its whole disk group loses its path (the hub and
    // its feeding switch are one failure unit, §IV-E).
    let leaf_hub = s.runtime.with_state(|st| {
        st.topology()
            .hubs()
            .find(|h| {
                st.topology()
                    .hub_upstream(*h)
                    .is_some_and(|up| !matches!(up, ustore_fabric::UpRef::Host(_)))
            })
            .expect("leaf hub exists")
    });
    let orphaned_before = s.runtime.with_state(|st| st.orphaned_disks().len());
    assert_eq!(orphaned_before, 0);
    s.runtime
        .with_state_mut(|st| st.fail(Component::Hub(leaf_hub)));
    let orphans = s.runtime.with_state(|st| st.orphaned_disks());
    assert!(!orphans.is_empty(), "hub failure orphans its group");
    // Repair brings the paths back.
    s.runtime
        .with_state_mut(|st| st.repair(Component::Hub(leaf_hub)));
    assert!(s.runtime.with_state(|st| st.orphaned_disks().is_empty()));
}

#[test]
fn disk_hardware_failure_is_isolated_and_reported() {
    let s = UStoreSystem::prototype(7004);
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc");
    let m = mount(&s, &client, &info);
    // Fail a *different* disk: our IO is unaffected.
    let other = DiskId((info.name.disk.0 + 5) % 16);
    s.runtime.disk(other).set_failed(&s.sim, true);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    m.write(
        &s.sim,
        0,
        vec![1u8; 512],
        Box::new(move |_, r| {
            r.expect("unrelated disk failure does not affect us");
            o.set(true);
        }),
    );
    run_for(&s, 10);
    assert!(ok.get());
    // UStore "delegates data recovery of failed disks to the upper layer"
    // (§IV-E): IO against the failed disk errors rather than hanging.
    let failed_err = Rc::new(Cell::new(false));
    let f = failed_err.clone();
    s.runtime.read(&s.sim, other, 0, 512, move |_, r| {
        assert!(r.is_err());
        f.set(true);
    });
    run_for(&s, 5);
    assert!(failed_err.get());
}

#[test]
fn control_plane_survives_both_microcontroller_hosts_cycling() {
    let s = UStoreSystem::prototype(7005);
    s.settle();
    // Host 0 (active microcontroller) dies; backup takes over.
    s.kill_host(HostId(0));
    run_for(&s, 20);
    // Disks recovered somewhere.
    for d in 0..4u32 {
        assert!(
            s.runtime.attached_host(DiskId(d)).is_some(),
            "disk{d} reattached"
        );
    }
    // Host 0 comes back; control plane remains usable afterwards.
    s.restore_host(HostId(0));
    run_for(&s, 20);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    s.runtime.execute(
        &s.sim,
        vec![
            (DiskId(4), HostId(0)),
            (DiskId(5), HostId(0)),
            (DiskId(6), HostId(0)),
            (DiskId(7), HostId(0)),
        ],
        move |_, r| {
            r.expect("reconfiguration after repair");
            o.set(true);
        },
    );
    run_for(&s, 30);
    assert!(ok.get());
    let _ = HubId(0);
}

#[test]
fn host_side_hub_failure_reroutes_disks_automatically() {
    // §IV-E: "If a device in the interconnect fabric fails, the Master
    // switches away the paths going through this device."
    let s = UStoreSystem::prototype(7006);
    s.settle();
    // Hub 0 is host 0's root hub in the prototype build order; killing it
    // makes host 0's disks vanish from every USB tree while the host
    // itself stays alive and heartbeating.
    let victim_hub = HubId(0);
    let before: Vec<DiskId> = (0..4).map(DiskId).collect();
    for d in &before {
        assert_eq!(s.runtime.attached_host(*d), Some(HostId(0)));
    }
    s.runtime.hub_failed(&s.sim, victim_hub);
    assert!(s.runtime.attached_host(DiskId(0)).is_none(), "path gone");
    // The Master notices the disks missing from heartbeats and reroutes
    // them through the surviving hubs to other hosts.
    run_for(&s, 30);
    for d in &before {
        let host = s.runtime.attached_host(*d);
        assert!(
            host.is_some() && host != Some(HostId(0)),
            "{d} rerouted: {host:?}"
        );
        assert!(s.runtime.disk_ready(*d), "{d} enumerated on its new host");
    }
}

#[test]
fn leaf_hub_failure_is_reported_as_unrecoverable() {
    let s = UStoreSystem::prototype(7007);
    s.settle();
    // A leaf hub sits on every path of its disk group: no reroute exists.
    let leaf_hub = s.runtime.with_state(|st| {
        st.topology()
            .hubs()
            .find(|h| {
                st.topology()
                    .hub_upstream(*h)
                    .is_some_and(|up| matches!(up, ustore_fabric::UpRef::Switch(_)))
            })
            .expect("leaf hub behind a switch")
    });
    s.runtime.hub_failed(&s.sim, leaf_hub);
    run_for(&s, 30);
    // The group stays dark and the master reports each of its disks to
    // the administrator for repair.
    let orphans = s.runtime.with_state(|st| st.orphaned_disks());
    assert_eq!(orphans.len(), 4, "the leaf hub's group awaits repair");
    let master = s.active_master().expect("active master");
    for d in &orphans {
        assert_eq!(
            master.disk_recovery(UnitId(0), *d),
            Some(DiskRecovery::NeedsRepair),
            "{d} reported as needing repair"
        );
    }
    // Repair restores service.
    s.runtime.hub_repaired(&s.sim, leaf_hub);
    run_for(&s, 15);
    assert!(s.runtime.with_state(|st| st.orphaned_disks().is_empty()));
}

#[test]
fn shared_hub_death_mid_read_storm_remounts_the_whole_cohort() {
    // A shared (host-root) hub dies while every disk behind it is under a
    // read storm. The master must pull the whole hub cohort over to
    // surviving hosts, the storm must resume, and the watchdog must have
    // seen the detach storm and logged it as properly-attributed spans.
    let s = UStoreSystem::prototype(7009);
    s.settle();
    let scraper = s.start_telemetry(ScraperConfig {
        interval: Duration::from_millis(250),
        retention: 8192,
    });
    let dog = s
        .install_watchdog(&scraper, WatchdogConfig::default())
        .expect("active master after settle");

    // Hub 0 is host 0's root hub in the prototype build order; its cohort
    // is disks 0-3.
    let cohort: Vec<DiskId> = (0..4).map(DiskId).collect();
    for d in &cohort {
        assert_eq!(s.runtime.attached_host(*d), Some(HostId(0)));
    }

    // Read storm: scattered 4 KiB reads against every cohort disk. Errors
    // during the outage window are expected; the counters let us assert
    // the storm was flowing before the kill and resumed after recovery.
    let oks = Rc::new(Cell::new(0u64));
    for (i, d) in cohort.iter().copied().enumerate() {
        let rt = s.runtime.clone();
        let oks = oks.clone();
        let k = Rc::new(Cell::new(0u64));
        s.sim.every(
            Duration::from_millis(23 * (i as u64 + 1)),
            Duration::from_millis(40),
            move |sim| {
                let n = k.get();
                k.set(n + 1);
                let offset = (n * 7919 % ((64 << 20) / 4096)) * 4096;
                let oks = oks.clone();
                rt.read(sim, d, offset, 4096, move |_, r| {
                    if r.is_ok() {
                        oks.set(oks.get() + 1);
                    }
                });
            },
        );
    }
    run_for(&s, 5);
    let before_kill = oks.get();
    assert!(before_kill > 0, "storm flowing before the kill");

    s.runtime.hub_failed(&s.sim, HubId(0));
    assert!(s.runtime.attached_host(DiskId(0)).is_none(), "path gone");
    run_for(&s, 30);

    // The whole cohort remounted on surviving hosts.
    for d in &cohort {
        let host = s.runtime.attached_host(*d);
        assert!(
            host.is_some() && host != Some(HostId(0)),
            "{d} pulled to a surviving host: {host:?}"
        );
        assert!(s.runtime.disk_ready(*d), "{d} enumerated on its new host");
    }
    // The master's missing-disk sweep moved them: not a watchdog request
    // (`Requested`) and not a host failover (which leaves no entry).
    let master = s.active_master().expect("active master");
    for d in &cohort {
        assert_eq!(
            master.disk_recovery(UnitId(0), *d),
            Some(DiskRecovery::Swept),
            "master attributed the loss of {d} to the fabric sweep"
        );
    }

    // The storm resumed against the remounted cohort.
    let after_recovery = oks.get();
    run_for(&s, 5);
    assert!(
        oks.get() > after_recovery,
        "reads flow again after the cohort remount"
    );

    // The watchdog saw the mass detach as an enumeration storm on host 0's
    // link and recorded it both as an event and as an attributed span.
    let events = dog.events();
    let storm = events
        .iter()
        .find(|e| e.signal == HealthSignal::EnumStorm)
        .expect("watchdog recorded the detach storm");
    s.sim.with_spans(|t| {
        let span = t
            .by_name("watchdog.event")
            .find(|sp| {
                sp.attr("signal") == Some("enum_storm")
                    && sp.attr("component") == Some(&storm.component)
            })
            .expect("enum-storm breach logged as a watchdog.event span");
        assert_eq!(&*span.component, "watchdog");
        assert!(
            span.parent.is_none(),
            "watchdog breach instants are roots, not children of client IO"
        );
        assert!(span.attr("value").is_some() && span.attr("threshold").is_some());
    });
}

#[test]
fn failover_with_nothing_to_move_closes_its_spans() {
    // A restored host holds no disks (its old ones stay on the
    // survivors), so killing it again leaves the master nothing to move.
    // That failover's span tree must still close: a stale open
    // `failover.reconfiguration` would adopt every later fabric command.
    let s = UStoreSystem::prototype(7010);
    s.settle();
    s.kill_host(HostId(0));
    run_for(&s, 30);
    s.restore_host(HostId(0));
    run_for(&s, 30);
    let master = s.active_master().expect("active master");
    assert!(master.host_alive(UnitId(0), HostId(0)), "host 0 rejoined");
    assert!(
        (0..16).all(|d| master.disk_host(UnitId(0), DiskId(d)) != Some(HostId(0))),
        "host 0 holds no disks after its restore"
    );
    s.kill_host(HostId(0));
    run_for(&s, 30);
    s.sim.with_spans(|t| {
        let second = t.by_name("failover").last().expect("second failover root");
        assert!(!second.is_open(), "second failover root closed");
        assert_eq!(second.attr("error"), Some("no_disks"));
        assert!(
            t.by_name("failover.reconfiguration").all(|r| !r.is_open()),
            "no reconfiguration phase left open"
        );
    });
}

#[test]
fn failover_emits_causally_ordered_span_tree() {
    // §I's recovery pipeline as telemetry: killing a host must produce a
    // `failover` span whose phases appear in causal order — the master
    // detects before the fabric reconfigures, and the fabric reconfigures
    // (locking before actuating its switches) before anything remounts.
    let s = UStoreSystem::prototype(7008);
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc");
    let mounted = mount(&s, &client, &info);
    mounted.write(&s.sim, 0, vec![9; 512], Box::new(|_, r| r.expect("write")));
    run_for(&s, 2);

    let victim = s.runtime.attached_host(info.name.disk).expect("attached");
    s.kill_host(victim);
    let got = Rc::new(Cell::new(false));
    let g = got.clone();
    mounted.read(
        &s.sim,
        0,
        512,
        Box::new(move |_, r| {
            r.expect("read after failover");
            g.set(true);
        }),
    );
    run_for(&s, 30);
    assert!(got.get(), "client recovered");

    s.sim.with_spans(|t| {
        let root = t.by_name("failover").last().expect("failover root span");
        let phases: Vec<&str> = t.children(root.id).map(|c| &*c.name).collect();
        assert_eq!(
            phases,
            [
                "failover.detection",
                "failover.reconfiguration",
                "failover.remount"
            ],
            "phases parented under the failover root, in order"
        );
        // Causality across components, asserted on spans rather than on
        // trace strings.
        assert!(t.all_before("failover.detection", "fabric.execute"));
        assert!(t.all_before("fabric.lock", "fabric.actuate"));
        // The reconfiguration phase owns the fabric command, and the
        // remount phase owns the re-export — and the former precedes the
        // latter (startup-time exports are outside the failover tree, so
        // the ordering is asserted within it).
        let phase_id = |n: &str| {
            t.children(root.id)
                .find(|c| &*c.name == n)
                .expect("phase")
                .id
        };
        let exec = t
            .children(phase_id("failover.reconfiguration"))
            .find(|c| &*c.name == "fabric.execute")
            .expect("fabric command nested under the reconfiguration phase");
        let export = t
            .children(phase_id("failover.remount"))
            .find(|c| &*c.name == "endpoint.export")
            .expect("re-export nested under the remount phase");
        assert!(
            exec.end.expect("execute closed") <= export.start,
            "fabric reconfigured before the endpoint re-exported"
        );
    });

    // The registry carries the same story as counters.
    let m = s.sim.metrics_snapshot();
    assert!(m.counter("fabric", "fabric.switch_flips") >= 1);
    let master_failovers: u64 = (0..3)
        .map(|i| m.counter(&format!("master-{i}"), "master.failovers"))
        .sum();
    assert!(master_failovers >= 1, "a master recorded the failover");
}
