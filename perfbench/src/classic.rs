//! The classic single-world engine, as both classic workloads use it:
//! build a [`UStoreSystem`] with production telemetry (scraper and
//! Master-side watchdog), then fold its exports into an [`Observed`].

use std::time::Duration;

use ustore::{HealthWatchdog, SystemConfig, UStoreSystem, WatchdogConfig};
use ustore_disk::PowerStateKind;
use ustore_sim::{Profiler, RequestTracer, Scraper, ScraperConfig, Sim, SimTime, TraceLevel};

use crate::telemetry::Registry;
use crate::{world_digest, Clock, FailoverSpan, Log, Observed, RunOpts};

pub(crate) struct Classic {
    pub(crate) system: UStoreSystem,
    tracer: RequestTracer,
    profiler: Profiler,
    scraper: Scraper,
    _watchdog: HealthWatchdog,
}

impl Classic {
    /// Builds and settles the pod, timing both on `clock`.
    pub(crate) fn build(
        opts: RunOpts,
        config: SystemConfig,
        scrape: Duration,
        clock: &mut Clock,
    ) -> Classic {
        let tracer = if opts.traced {
            RequestTracer::on_default()
        } else {
            RequestTracer::off()
        };
        let profiler = if opts.traced {
            Profiler::on(1)
        } else {
            Profiler::off()
        };
        let sim = Sim::new(opts.seed);
        sim.set_reqtracer(tracer.clone());
        let system = UStoreSystem::build(sim, config);
        system.sim.with_trace(|t| t.set_min_level(TraceLevel::Warn));
        system.sim.set_wallclock_prof(profiler.clone(), 0);
        clock.built();
        system.settle();
        assert!(
            system.active_master().is_some(),
            "pod bring-up elects a master"
        );
        let scraper = system.start_telemetry(ScraperConfig {
            interval: scrape,
            retention: 1024,
        });
        let watchdog = system
            .install_watchdog(&scraper, WatchdogConfig::default())
            .expect("a master is active after settling");
        clock.settled();
        Classic {
            system,
            tracer,
            profiler,
            scraper,
            _watchdog: watchdog,
        }
    }

    /// Modelled energy every disk of the pod has used so far, joules.
    pub(crate) fn disk_energy_j(&self) -> f64 {
        let sim = &self.system.sim;
        self.system
            .runtimes
            .iter()
            .flat_map(|rt| rt.disk_ids().into_iter().map(move |d| rt.disk(d)))
            .map(|d| d.energy_joules(sim))
            .sum()
    }

    /// Exports telemetry, tears the pod down and folds everything the run
    /// observed. `energy_at_w0` is [`Classic::disk_energy_j`] at `w0`.
    pub(crate) fn finish(
        self,
        log: Log,
        w0: SimTime,
        energy_at_w0: f64,
        mut clock: Clock,
    ) -> Observed {
        let sys = &self.system;
        let sim = &sys.sim;
        let end = sim.now();
        let energy = self.disk_energy_j() - energy_at_w0;
        let (mut disks, mut standby, mut all, mut spinning_up) = (0u32, 0.0, 0.0, 0.0);
        for rt in &sys.runtimes {
            for d in rt.disk_ids() {
                let disk = rt.disk(d);
                let t = |s| disk.time_in_state(sim, s).as_secs_f64();
                let off = t(PowerStateKind::Standby) + t(PowerStateKind::PoweredOff);
                let up = t(PowerStateKind::SpinningUp);
                standby += off;
                spinning_up += up;
                all += off + up + t(PowerStateKind::Idle) + t(PowerStateKind::Active);
                disks += 1;
            }
            rt.publish_residency(sim);
        }
        sys.net.publish_metrics(sim);
        let metrics_json = sim.metrics_snapshot().to_json().to_string();
        let spans_json = sim.with_spans(|t| t.to_json()).to_string();
        let digest = world_digest(&metrics_json, &spans_json, &self.scraper.to_csv());
        let mut registry = Registry::default();
        registry.add_json(&metrics_json);
        let failovers = sim.with_spans(|t| {
            t.by_name("failover")
                .filter_map(|root| {
                    let total = root.duration()?.as_secs_f64();
                    let child = |name: &str| {
                        t.children(root.id)
                            .find(|s| &*s.name == name)
                            .and_then(|s| s.duration())
                            .map_or(0.0, |d| d.as_secs_f64())
                    };
                    Some(FailoverSpan {
                        total,
                        detection: child("failover.detection"),
                        reconfiguration: child("failover.reconfiguration"),
                        remount: child("failover.remount"),
                    })
                })
                .collect()
        });
        let events = sim.events_processed();
        let max_log_len = sys.partition_log_lens().into_iter().max().unwrap_or(0);
        let hosts = sys.endpoints.len() as u32;
        let prof = self.profiler.snapshot();
        let trace = self.tracer.snapshot();
        sim.teardown();
        drop(self);
        clock.exported();
        let peak_queue_depth = registry.gauge_max("queue_depth_max").unwrap_or(0.0);
        Observed {
            ops: log.take(),
            window_s: end.duration_since(w0).as_secs_f64(),
            sim_seconds: end.as_secs_f64(),
            disk_energy_j: energy,
            disks,
            hosts,
            events,
            peak_queue_depth,
            registry,
            digest,
            shard: None,
            prof,
            trace,
            failovers,
            spinning_up_s: spinning_up,
            standby_share: if all > 0.0 { standby / all } else { 0.0 },
            max_log_len,
            host: clock.times,
            peak_heap_bytes: clock.peak_heap(),
            allocs: clock.allocs,
        }
    }
}
