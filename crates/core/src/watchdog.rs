//! Master-side health watchdog: scraped time series → proactive recovery.
//!
//! Cold-storage fleets degrade *gradually* — Gray & van Ingen's disk
//! measurements show uncorrectable-read and seek-latency drift preceding
//! outright failure — so waiting for an EndPoint to report a dead disk
//! (§IV-E) leaves a window where a dying drive serves ever-slower,
//! ever-flakier IO. The [`HealthWatchdog`] closes that window: it
//! subscribes to a [`Scraper`]'s per-component series and applies
//! threshold + EWMA rules per scrape:
//!
//! - **per-disk seek-latency drift** — the windowed mean of
//!   `disk.latency_ns` (derived from the cumulative histogram's
//!   mean/count series) against an EWMA baseline learned while healthy;
//! - **per-disk uncorrectable reads** — any `disk.uncorrectable_reads`
//!   growth in a window;
//! - **per-link saturation** — `usb.link_{in,out}_busy_ns` duty cycle
//!   over the scrape interval;
//! - **re-enumeration storms** — `usb.enumerations` + `usb.detaches`
//!   growth per window (a flapping hub re-enumerates constantly).
//!
//! Every breach becomes a typed [`HealthEvent`] recorded in the span log
//! (`watchdog.event` instants with signal/value/threshold attributes).
//! Disk-level breaches sustained for [`WatchdogConfig::sustain`]
//! consecutive scrapes escalate into the existing reconfiguration path via
//! [`Master::recover_disk`], wrapped in a `degradation` span tree
//! (`degradation.detection` → `degradation.reconfiguration` →
//! `degradation.remount`) mirroring the hard-failover taxonomy, and a
//! per-disk `watchdog.phase` gauge makes the phases readable straight from
//! the exported time series.
//!
//! Fault-injection harnesses can register ground truth
//! ([`HealthWatchdog::mark_degraded`]) so escalation accuracy is exported
//! as explicit `watchdog.false_pos_total` / `watchdog.false_neg_total`
//! counters (`ustore_watchdog_false_{pos,neg}_total` in Prometheus form):
//! an escalation on a component never marked degraded is a false positive
//! at escalation time; a marked component never escalated is a false
//! negative, tallied by the end-of-run [`HealthWatchdog::audit`].

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use ustore_fabric::DiskId;
use ustore_sim::obs::timeseries::{Scraper, TimeSeries};
use ustore_sim::{Sim, SimTime, SpanId};

use crate::ids::UnitId;
use crate::master::Master;

/// Watchdog tunables.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Windowed mean latency above `factor x` the EWMA baseline is a
    /// drift breach.
    pub latency_warn_factor: f64,
    /// Weight of each new healthy window in the EWMA baseline.
    pub ewma_alpha: f64,
    /// Consecutive breaching scrapes before escalating to recovery.
    pub sustain: u32,
    /// Healthy windows required before drift is judged at all.
    pub min_baseline_samples: u32,
    /// Per-direction link duty cycle above this is a saturation breach.
    pub link_util_warn: f64,
    /// (Re-)enumerations + detaches per window at or above this is a storm.
    pub enum_storm_warn: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            latency_warn_factor: 2.0,
            ewma_alpha: 0.3,
            sustain: 3,
            min_baseline_samples: 4,
            link_util_warn: 0.9,
            enum_storm_warn: 4,
        }
    }
}

/// What a [`HealthEvent`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// Windowed mean disk latency drifted past the baseline factor.
    SeekLatencyDrift,
    /// Uncorrectable reads appeared in the window.
    ReadErrors,
    /// A USB link direction is saturated.
    LinkSaturation,
    /// A link is re-enumerating in a storm.
    EnumStorm,
}

impl fmt::Display for HealthSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthSignal::SeekLatencyDrift => "seek_latency_drift",
            HealthSignal::ReadErrors => "read_errors",
            HealthSignal::LinkSaturation => "link_saturation",
            HealthSignal::EnumStorm => "enum_storm",
        })
    }
}

/// One detected health breach.
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// When the breaching scrape ran.
    pub at: SimTime,
    /// The affected component (disk or usb-host metric component).
    pub component: String,
    /// What rule fired.
    pub signal: HealthSignal,
    /// The observed value (ns, ratio or count, per the signal).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// Recovery phase of one watched disk, published as the `watchdog.phase`
/// gauge so exported time series show the detection → reconfiguration →
/// remount timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No breach active.
    Healthy,
    /// Breaches observed, not yet sustained long enough to act.
    Detecting,
    /// `Master::recover_disk` is rerouting the disk.
    Reconfiguring,
    /// Fabric done; waiting for clients to remount the moved disk.
    Remounting,
    /// Recovery completed end to end.
    Recovered,
}

impl Phase {
    /// The gauge encoding (0 healthy … 4 recovered).
    pub fn as_gauge(self) -> f64 {
        match self {
            Phase::Healthy => 0.0,
            Phase::Detecting => 1.0,
            Phase::Reconfiguring => 2.0,
            Phase::Remounting => 3.0,
            Phase::Recovered => 4.0,
        }
    }
}

struct DiskWatch {
    component: String,
    unit: UnitId,
    disk: DiskId,
    baseline: Option<f64>,
    healthy_windows: u32,
    breaches: u32,
    phase: Phase,
    root: Option<SpanId>,
    detection: Option<SpanId>,
    remount: Option<SpanId>,
    // Ground truth + accuracy accounting (fault-injection harnesses mark
    // genuinely degraded components; escalations are judged against it).
    truth_degraded: bool,
    escalated: bool,
    fn_counted: bool,
}

struct W {
    config: WatchdogConfig,
    disks: Vec<DiskWatch>,
    links: Vec<String>,
    events: Vec<HealthEvent>,
    escalations: u64,
    false_pos: u64,
    false_neg: u64,
    counters_registered: bool,
}

/// The health watchdog; see the module docs.
#[derive(Clone)]
pub struct HealthWatchdog {
    inner: Rc<RefCell<W>>,
}

impl fmt::Debug for HealthWatchdog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.inner.borrow();
        f.debug_struct("HealthWatchdog")
            .field("disks", &w.disks.len())
            .field("links", &w.links.len())
            .field("events", &w.events.len())
            .finish()
    }
}

/// Windowed mean over the last scrape interval, reconstructed from the
/// cumulative histogram's `mean`/`count` series: the histogram is
/// lifetime-cumulative, so `sum = mean x count` deltas recover the mean of
/// just the samples recorded between the last two scrapes.
fn window_mean(mean: &TimeSeries, count: &TimeSeries) -> Option<f64> {
    let (_, count_now) = count.last()?;
    let count_delta = count.delta()?;
    if count_delta <= 0.0 {
        return None; // no new samples this window
    }
    let (_, mean_now) = mean.last()?;
    let mean_prev = mean_now - mean.delta()?;
    let count_prev = count_now - count_delta;
    let sum_delta = mean_now * count_now - mean_prev * count_prev;
    Some(sum_delta / count_delta)
}

impl HealthWatchdog {
    /// Subscribes a watchdog to `scraper`. `disks` maps each disk's metric
    /// component name to its identity for escalation; `links` lists the
    /// usb-host component names to check for saturation/storms.
    pub fn install(
        scraper: &Scraper,
        master: Master,
        disks: Vec<(String, UnitId, DiskId)>,
        links: Vec<String>,
        config: WatchdogConfig,
    ) -> HealthWatchdog {
        let inner = Rc::new(RefCell::new(W {
            config,
            disks: disks
                .into_iter()
                .map(|(component, unit, disk)| DiskWatch {
                    component,
                    unit,
                    disk,
                    baseline: None,
                    healthy_windows: 0,
                    breaches: 0,
                    phase: Phase::Healthy,
                    root: None,
                    detection: None,
                    remount: None,
                    truth_degraded: false,
                    escalated: false,
                    fn_counted: false,
                })
                .collect(),
            links,
            events: Vec::new(),
            escalations: 0,
            false_pos: 0,
            false_neg: 0,
            counters_registered: false,
        }));
        let dog = HealthWatchdog { inner };
        let d2 = dog.clone();
        scraper.on_scrape(move |sim, sc| d2.check(sim, sc, &master));
        dog
    }

    /// All breaches seen so far, in detection order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.borrow().events.clone()
    }

    /// How many times sustained degradation escalated into recovery.
    pub fn escalations(&self) -> u64 {
        self.inner.borrow().escalations
    }

    /// Registers ground truth: `component` really is degrading (a fault
    /// injector dialled up its drift / error rate). Escalations on marked
    /// components are true positives; escalations on unmarked ones count
    /// into `watchdog.false_pos_total`.
    pub fn mark_degraded(&self, component: &str) {
        let mut w = self.inner.borrow_mut();
        if let Some(d) = w.disks.iter_mut().find(|d| d.component == component) {
            d.truth_degraded = true;
        }
    }

    /// End-of-run accuracy audit: every marked-degraded disk the watchdog
    /// never escalated counts once into `watchdog.false_neg_total`.
    /// Idempotent; returns the cumulative `(false_pos, false_neg)` totals.
    pub fn audit(&self, sim: &Sim) -> (u64, u64) {
        self.ensure_counters(sim);
        let mut misses = 0u64;
        {
            let mut w = self.inner.borrow_mut();
            for d in &mut w.disks {
                if d.truth_degraded && !d.escalated && !d.fn_counted {
                    d.fn_counted = true;
                    misses += 1;
                }
            }
            w.false_neg += misses;
        }
        if misses > 0 {
            sim.count("watchdog", "watchdog.false_neg_total", misses);
        }
        self.false_counts()
    }

    /// Cumulative `(false_pos, false_neg)` counts (false negatives only
    /// populate after [`HealthWatchdog::audit`]).
    pub fn false_counts(&self) -> (u64, u64) {
        let w = self.inner.borrow();
        (w.false_pos, w.false_neg)
    }

    /// Registers the accuracy counters at zero so the exported series
    /// (`ustore_watchdog_false_{pos,neg}_total`) exist even on clean runs.
    fn ensure_counters(&self, sim: &Sim) {
        {
            let mut w = self.inner.borrow_mut();
            if w.counters_registered {
                return;
            }
            w.counters_registered = true;
        }
        sim.count("watchdog", "watchdog.false_pos_total", 0);
        sim.count("watchdog", "watchdog.false_neg_total", 0);
    }

    /// The recovery phase of a watched disk component.
    pub fn phase(&self, component: &str) -> Option<Phase> {
        self.inner
            .borrow()
            .disks
            .iter()
            .find(|d| d.component == component)
            .map(|d| d.phase)
    }

    /// Records a breach: into the event list, the metrics registry and the
    /// span log (a zero-duration `watchdog.event` instant).
    fn emit(&self, sim: &Sim, component: &str, signal: HealthSignal, value: f64, threshold: f64) {
        sim.count("watchdog", "watchdog.events", 1);
        let span = sim.span_start("watchdog", "watchdog.event");
        sim.span_attr(span, "component", component);
        sim.span_attr(span, "signal", signal.to_string());
        sim.span_attr(span, "value", format!("{value:.1}"));
        sim.span_attr(span, "threshold", format!("{threshold:.1}"));
        sim.span_end(span);
        self.inner.borrow_mut().events.push(HealthEvent {
            at: sim.now(),
            component: component.to_owned(),
            signal,
            value,
            threshold,
        });
    }

    /// One sweep: runs every rule against the scraper's current series.
    fn check(&self, sim: &Sim, sc: &Scraper, master: &Master) {
        self.ensure_counters(sim);
        self.check_links(sim, sc);
        self.check_disks(sim, sc, master);
    }

    fn check_links(&self, sim: &Sim, sc: &Scraper) {
        let (links, util_warn, storm_warn) = {
            let w = self.inner.borrow();
            (
                w.links.clone(),
                w.config.link_util_warn,
                w.config.enum_storm_warn,
            )
        };
        let interval_ns = sc.interval().as_nanos() as f64;
        for link in &links {
            for dir in ["usb.link_in_busy_ns", "usb.link_out_busy_ns"] {
                let Some(busy) = sc.with_series(link, dir, |t| t.delta()).flatten() else {
                    continue;
                };
                let util = busy / interval_ns;
                if util > util_warn {
                    self.emit(sim, link, HealthSignal::LinkSaturation, util, util_warn);
                }
            }
            // A series with a single retained sample was born between the
            // last two scrapes, so its whole value accrued inside the
            // window — a mass detach lands entire on a fresh counter. The
            // scrapes() guard keeps the scraper's very first sweep (where
            // every series is single-sample but carries history from
            // before telemetry started) from reading as a storm.
            let windowed = |t: &TimeSeries| {
                t.delta().or_else(|| {
                    (sc.scrapes() >= 2)
                        .then(|| t.last().map(|(_, v)| v))
                        .flatten()
                })
            };
            let enums = sc
                .with_series(link, "usb.enumerations", windowed)
                .flatten()
                .unwrap_or(0.0);
            let detaches = sc
                .with_series(link, "usb.detaches", windowed)
                .flatten()
                .unwrap_or(0.0);
            let storm = enums + detaches;
            if storm >= storm_warn as f64 {
                self.emit(sim, link, HealthSignal::EnumStorm, storm, storm_warn as f64);
            }
        }
    }

    fn check_disks(&self, sim: &Sim, sc: &Scraper, master: &Master) {
        let n = self.inner.borrow().disks.len();
        for idx in 0..n {
            // Per-disk state is re-borrowed around each emit/escalate so
            // callbacks may re-enter the watchdog.
            let (component, phase) = {
                let w = self.inner.borrow();
                (w.disks[idx].component.clone(), w.disks[idx].phase)
            };
            match phase {
                Phase::Healthy | Phase::Detecting => {
                    self.judge_disk(sim, sc, master, idx, &component)
                }
                Phase::Reconfiguring => {} // waiting on the controller
                Phase::Remounting => {
                    // The remount span is closed by the client's first
                    // successful IO on the moved disk (the scenario joins
                    // it via find_open_by); once closed, recovery is done.
                    let closed = {
                        let w = self.inner.borrow();
                        w.disks[idx]
                            .remount
                            .map(|id| sim.with_spans(|t| t.get(id).is_some_and(|s| !s.is_open())))
                            .unwrap_or(true)
                    };
                    if closed {
                        let root = {
                            let mut w = self.inner.borrow_mut();
                            w.disks[idx].phase = Phase::Recovered;
                            w.disks[idx].root.take()
                        };
                        if let Some(root) = root {
                            sim.span_end(root);
                        }
                    }
                }
                Phase::Recovered => {}
            }
            let phase = self.inner.borrow().disks[idx].phase;
            sim.gauge_set(&component, "watchdog.phase", phase.as_gauge());
        }
    }

    /// Drift/error rules for one disk in Healthy/Detecting phase.
    fn judge_disk(&self, sim: &Sim, sc: &Scraper, master: &Master, idx: usize, component: &str) {
        let config = self.inner.borrow().config.clone();
        // Nested `with_series` is fine: both take shared borrows.
        let window = sc
            .with_series(component, "disk.latency_ns.mean", |m| {
                sc.with_series(component, "disk.latency_ns.count", |c| window_mean(m, c))
            })
            .flatten()
            .flatten();
        let uncorrectable = sc
            .with_series(component, "disk.uncorrectable_reads", |t| t.delta())
            .flatten()
            .unwrap_or(0.0);

        let mut breach = false;
        if uncorrectable > 0.0 {
            self.emit(sim, component, HealthSignal::ReadErrors, uncorrectable, 0.0);
            breach = true;
        }
        if let Some(wm) = window {
            let (baseline, established) = {
                let w = self.inner.borrow();
                let d = &w.disks[idx];
                (d.baseline, d.healthy_windows >= config.min_baseline_samples)
            };
            match baseline {
                Some(base) if established && wm > config.latency_warn_factor * base => {
                    self.emit(
                        sim,
                        component,
                        HealthSignal::SeekLatencyDrift,
                        wm,
                        config.latency_warn_factor * base,
                    );
                    breach = true;
                }
                _ => {
                    // Healthy (or still learning): fold into the baseline.
                    let mut w = self.inner.borrow_mut();
                    let d = &mut w.disks[idx];
                    d.baseline = Some(match d.baseline {
                        Some(b) => config.ewma_alpha * wm + (1.0 - config.ewma_alpha) * b,
                        None => wm,
                    });
                    d.healthy_windows += 1;
                }
            }
        }

        if breach {
            let escalate = {
                let mut w = self.inner.borrow_mut();
                let d = &mut w.disks[idx];
                d.breaches += 1;
                if d.phase == Phase::Healthy {
                    d.phase = Phase::Detecting;
                    let root = sim.span_start("watchdog", "degradation");
                    sim.span_attr(root, "disk", component);
                    let det = sim.span_child(root, "watchdog", "degradation.detection");
                    d.root = Some(root);
                    d.detection = Some(det);
                }
                d.breaches >= config.sustain
            };
            if escalate {
                self.escalate(sim, master, idx, component);
            }
        } else {
            // Streak broken before escalation: stand down.
            let spans = {
                let mut w = self.inner.borrow_mut();
                let d = &mut w.disks[idx];
                if d.phase != Phase::Detecting {
                    return;
                }
                d.phase = Phase::Healthy;
                d.breaches = 0;
                (d.detection.take(), d.root.take())
            };
            let (det, root) = spans;
            if let Some(det) = det {
                sim.span_end(det);
            }
            // The detection child may already be closed (a failed
            // escalation takes it); the root must close either way.
            if let Some(root) = root {
                sim.span_attr(root, "outcome", "transient");
                sim.span_end(root);
            }
        }
    }

    /// Sustained degradation: hand the disk to the Master's
    /// reconfiguration path and track the recovery phases.
    fn escalate(&self, sim: &Sim, master: &Master, idx: usize, component: &str) {
        let (unit, disk, detection, root, false_pos) = {
            let mut w = self.inner.borrow_mut();
            w.escalations += 1;
            let first = !w.disks[idx].escalated;
            let false_pos = first && !w.disks[idx].truth_degraded;
            if false_pos {
                w.false_pos += 1;
            }
            let d = &mut w.disks[idx];
            d.escalated = true;
            d.phase = Phase::Reconfiguring;
            (d.unit, d.disk, d.detection.take(), d.root, false_pos)
        };
        sim.count("watchdog", "watchdog.escalations", 1);
        if false_pos {
            sim.count("watchdog", "watchdog.false_pos_total", 1);
        }
        sim.reqtracer()
            .annotate(&format!("watchdog escalate {component}"), sim.now());
        if let Some(det) = detection {
            sim.span_end(det);
        }
        let reconf = root.map(|r| sim.span_child(r, "watchdog", "degradation.reconfiguration"));
        let this = self.clone();
        let component = component.to_owned();
        master.recover_disk(sim, unit, disk, move |sim, ok| {
            if let Some(rc) = reconf {
                sim.span_attr(rc, "ok", if ok { "true" } else { "false" });
                sim.span_end(rc);
            }
            let mut w = this.inner.borrow_mut();
            let d = &mut w.disks[idx];
            if ok {
                d.phase = Phase::Remounting;
                if let Some(root) = d.root {
                    let rm = sim.span_child(root, "watchdog", "degradation.remount");
                    sim.span_attr(rm, "disk", component.clone());
                    d.remount = Some(rm);
                }
            } else {
                // Recovery failed (no path, controller down): back to
                // detecting so the next sustained breach retries.
                d.phase = Phase::Detecting;
                d.breaches = 0;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new(64);
        for (i, v) in vals.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64), *v);
        }
        ts
    }

    #[test]
    fn window_mean_recovers_per_window_average() {
        // 10 samples averaging 100, then 5 more averaging 400:
        // cumulative mean moves 100 -> 200, window mean must say 400.
        let count = series(&[10.0, 15.0]);
        let mean = series(&[100.0, 200.0]);
        let wm = window_mean(&mean, &count).expect("window");
        assert!((wm - 400.0).abs() < 1e-9, "got {wm}");
    }

    #[test]
    fn window_mean_requires_new_samples() {
        let count = series(&[10.0, 10.0]);
        let mean = series(&[100.0, 100.0]);
        assert_eq!(window_mean(&mean, &count), None);
        assert_eq!(window_mean(&series(&[5.0]), &series(&[1.0])), None);
    }

    #[test]
    fn phase_gauge_encoding_is_ordered() {
        let phases = [
            Phase::Healthy,
            Phase::Detecting,
            Phase::Reconfiguring,
            Phase::Remounting,
            Phase::Recovered,
        ];
        for pair in phases.windows(2) {
            assert!(pair[0].as_gauge() < pair[1].as_gauge());
        }
    }
}
