//! Named metrics, the printed table and the JSON record of a run.

use reset_telemetry::Json;

use crate::stats::Summary;

/// One reported quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Its unit there.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind it, for timings.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A timing reported as its quiet percentile ([`crate::stats::QUIET`]
    /// over all samples). With no samples the value is 0 and the summary
    /// absent.
    pub fn quiet(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.as_ref().map_or(0.0, |s| s.quiet),
            summary,
        }
    }

    /// A per-batch difference or ratio of two spans, reported as its
    /// median: the two spans share their batch's machine mode, and a low
    /// quantile of a difference of two noisy terms would sit below the
    /// difference of their low quantiles.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.as_ref().map_or(0.0, |s| s.p50),
            summary,
        }
    }

    /// A count, or a value derived from other metrics.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    fn json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::F64(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let Some(s) = &self.summary {
            fields.extend([
                ("n", Json::U64(s.n as u64)),
                ("p1", Json::F64(s.quiet)),
                ("p50", Json::F64(s.p50)),
                ("p99", s.p99.map_or(Json::Null, Json::F64)),
                ("spread", Json::F64(s.spread)),
            ]);
        }
        Json::obj(fields)
    }
}

/// `{name: {value, unit, n, p1, …}}` for the result file.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.json()))
            .collect(),
    )
}

/// `"<prefix><name>": {value, unit}` per metric — the fields of the
/// `metrics` object in the contract's last line.
pub fn contract_fields(metrics: &[Metric], prefix: &str) -> Vec<(String, Json)> {
    let field = |m: &Metric| {
        let body = vec![("value", Json::F64(m.value)), ("unit", Json::str(m.unit))];
        (format!("{prefix}{}", m.name), Json::obj(body))
    };
    metrics.iter().map(field).collect()
}

/// Prints one workload's metrics as an aligned table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("\n== {title}");
    println!(
        "{:<34} {:>14} {:<6} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "metric", "value", "unit", "n", "p1", "p50", "p99", "spread"
    );
    for m in metrics {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        let s = m.summary.as_ref();
        println!(
            "{:<34} {:>14.3} {:<6} {:>6} {:>12} {:>12} {:>12} {:>8}",
            m.name,
            m.value,
            m.unit,
            s.map_or("-".to_string(), |s| s.n.to_string()),
            cell(s.map(|s| s.quiet)),
            cell(s.map(|s| s.p50)),
            cell(s.and_then(|s| s.p99)),
            s.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s.spread)),
        );
    }
}
