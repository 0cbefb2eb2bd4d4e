//! Reporting helpers: paper-vs-measured rows, text tables, and the
//! standard-format telemetry artifacts experiments attach to their runs.

use std::fmt;

use ustore_sim::{export, Json, Scraper, Sim};

/// One measured quantity compared against the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What is being measured (e.g. `"SATA 4K-S-R"`).
    pub label: String,
    /// The paper's value (None when the paper only gives a figure/shape).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit string (e.g. `"IO/s"`, `"MB/s"`, `"W"`, `"$k"`, `"s"`).
    pub unit: &'static str,
}

impl Row {
    /// Creates a row with a paper reference value.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Row {
        Row {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit,
        }
    }

    /// Creates a row without a paper value (figure-only data).
    pub fn measured_only(label: impl Into<String>, measured: f64, unit: &'static str) -> Row {
        Row {
            label: label.into(),
            paper: None,
            measured,
            unit,
        }
    }

    /// Relative error vs the paper, if a paper value exists.
    pub fn error_pct(&self) -> Option<f64> {
        self.paper.map(|p| 100.0 * (self.measured - p) / p)
    }

    /// Stable JSON export: `{"label", "paper", "measured", "unit"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("paper", self.paper.map_or(Json::Null, Json::f64)),
            ("measured", Json::f64(self.measured)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.paper {
            Some(p) => write!(
                f,
                "{:<28} paper {:>9.1} {:<5} measured {:>9.1} {:<5} ({:+.1}%)",
                self.label,
                p,
                self.unit,
                self.measured,
                self.unit,
                self.error_pct().expect("paper value present"),
            ),
            None => write!(
                f,
                "{:<28} {:>32} measured {:>9.1} {:<5}",
                self.label, "", self.measured, self.unit
            ),
        }
    }
}

/// Standard-format telemetry exports captured from one run's simulator,
/// ready to be written to disk by the `repro` binary (`--prom-out`,
/// `--trace-out`, `--ts-out`).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryArtifacts {
    /// Prometheus exposition text of the final metrics snapshot.
    pub prometheus: String,
    /// Chrome trace-event JSON of the span log (loads in Perfetto /
    /// `chrome://tracing`).
    pub chrome_trace: String,
    /// CSV dump (`component,series,t_s,value`) of the scraped time series.
    pub timeseries_csv: String,
}

impl TelemetryArtifacts {
    /// Captures all three exports from a finished run.
    pub fn capture(sim: &Sim, scraper: &Scraper) -> TelemetryArtifacts {
        let snapshot = sim.metrics_snapshot();
        TelemetryArtifacts {
            prometheus: export::prometheus(&snapshot),
            chrome_trace: sim
                .with_spans(|t| export::chrome_trace(t, None, None))
                .to_string(),
            timeseries_csv: scraper.to_csv(),
        }
    }
}

/// A titled group of rows (one table or figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Table/figure identifier (e.g. `"Table II"`).
    pub title: String,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates a report.
    pub fn new(title: impl Into<String>, rows: Vec<Row>) -> Report {
        Report {
            title: title.into(),
            rows,
        }
    }

    /// Largest absolute relative error across rows with paper values.
    pub fn worst_error_pct(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(Row::error_pct)
            .map(f64::abs)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Stable JSON export: `{"title", "rows": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(self.title.clone())),
            ("rows", Json::arr(self.rows.iter().map(Row::to_json))),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_error_and_display() {
        let r = Row::new("x", 100.0, 95.0, "IO/s");
        assert_eq!(r.error_pct(), Some(-5.0));
        assert!(r.to_string().contains("-5.0%"));
        let m = Row::measured_only("y", 7.0, "s");
        assert_eq!(m.error_pct(), None);
        assert!(m.to_string().contains("7.0"));
    }

    #[test]
    fn report_worst_error() {
        let rep = Report::new(
            "T",
            vec![
                Row::new("a", 100.0, 90.0, "W"),
                Row::new("b", 100.0, 104.0, "W"),
                Row::measured_only("c", 1.0, "s"),
            ],
        );
        assert_eq!(rep.worst_error_pct(), Some(10.0));
        assert!(rep.to_string().starts_with("== T =="));
    }

    #[test]
    fn json_export_schema_is_stable() {
        let rep = Report::new(
            "T",
            vec![
                Row::new("a", 100.0, 90.0, "W"),
                Row::measured_only("c", 1.5, "s"),
            ],
        );
        assert_eq!(
            rep.to_json().to_string(),
            r#"{"title":"T","rows":[{"label":"a","paper":100,"measured":90,"unit":"W"},{"label":"c","paper":null,"measured":1.5,"unit":"s"}]}"#
        );
    }
}
