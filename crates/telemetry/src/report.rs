//! Machine-readable JSON export of a run's telemetry.
//!
//! A report is built as a [`crate::json::Value`], with object keys in
//! insertion order (callers insert sorted names, so output is
//! deterministic). The schema is versioned via the top-level `"schema"`
//! field and validated by the CI telemetry smoke step.

use crate::json::Value;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::TraceSink;

/// A run's exported telemetry: counters, gauges, histograms with
/// percentiles, and optional trace statistics.
///
/// # Examples
///
/// ```
/// use strom_telemetry::{MetricsRegistry, TelemetryReport};
/// let reg = MetricsRegistry::default();
/// reg.counter("ops").add(3);
/// reg.histogram("lat_ps").record(1500);
/// let json = TelemetryReport::new("example")
///     .with_registry(&reg)
///     .to_value()
///     .to_string();
/// assert!(json.contains("\"schema\": \"strom-telemetry-v1\""));
/// assert!(json.contains("\"ops\": 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    source: String,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
    trace: Option<Value>,
}

fn histogram_value(h: &Histogram) -> Value {
    let q = |p: f64| Value::U64(h.quantile(p).unwrap_or(0));
    Value::obj([
        ("count", h.count().into()),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("sum", h.sum().into()),
        ("mean", h.mean().into()),
        ("p50", q(0.50)),
        ("p90", q(0.90)),
        ("p99", q(0.99)),
        ("p999", q(0.999)),
        (
            "buckets",
            h.nonzero_buckets()
                .into_iter()
                .map(|(lo, count)| Value::Arr(vec![lo.into(), count.into()]))
                .collect(),
        ),
    ])
}

impl TelemetryReport {
    /// An empty report labelled with its producing context.
    pub fn new(source: &str) -> Self {
        Self {
            source: source.to_string(),
            ..Default::default()
        }
    }

    /// Copies every metric out of `registry` (builder style).
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        let snap = registry.snapshot();
        self.counters.extend(snap.counters);
        self.gauges.extend(snap.gauges);
        self.histograms.extend(snap.histograms);
        self
    }

    /// Records the trace sink's summary statistics.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(Value::obj([
            ("emitted", sink.emitted().into()),
            ("retained", sink.records().len().into()),
            ("overwritten", sink.overwritten().into()),
            (
                "fingerprint",
                format!("{:#018x}", sink.fingerprint()).into(),
            ),
        ]));
        self
    }

    /// The report as one `strom-telemetry-v1` JSON object.
    pub fn to_value(&self) -> Value {
        let named = |entries: &[(String, u64)]| {
            Value::obj(entries.iter().map(|(k, v)| (k.as_str(), Value::U64(*v))))
        };
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.as_str(), histogram_value(h)));
        let doc = [
            ("schema", "strom-telemetry-v1".into()),
            ("source", self.source.as_str().into()),
            ("counters", named(&self.counters)),
            ("gauges", named(&self.gauges)),
            ("histograms", Value::obj(histograms)),
        ];
        Value::obj(
            doc.into_iter()
                .chain(self.trace.clone().map(|t| ("trace", t))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceSink};

    #[test]
    fn json_contains_all_sections() {
        let reg = MetricsRegistry::default();
        reg.counter("sim.events").add(42);
        reg.gauge("depth").set(7);
        reg.histogram("lat").record(1000);
        let sink = TraceSink::enabled(4);
        sink.emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        let json = TelemetryReport::new("unit \"test\"")
            .with_registry(&reg)
            .with_trace(&sink)
            .to_value()
            .to_string();
        assert!(json.contains("\"schema\": \"strom-telemetry-v1\""));
        assert!(json.contains("\"source\": \"unit \\\"test\\\"\""));
        assert!(json.contains("\"sim.events\": 42"));
        assert!(json.contains("\"depth\": 7"));
        assert!(json.contains("\"p999\": "));
        assert!(json.contains("\"emitted\": 1"));
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let json = TelemetryReport::new("empty").to_value().to_string();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(!json.contains("\"trace\""));
    }
}
