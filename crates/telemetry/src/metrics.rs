//! Metric samples and series identity.

use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A sorted label set (`BTreeMap` so identical label sets hash/compare equal
/// regardless of insertion order).
pub(crate) type Labels = BTreeMap<String, String>;

/// Whether a metric is a monotonically increasing counter or a point-in-time gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotonic counter (`*_total`); consumers use `rate()` over a window.
    Counter,
    /// Point-in-time gauge.
    Gauge,
}

/// Identity of a time series: metric name plus label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Metric name (e.g. `node_load1`).
    pub name: String,
    /// Label set (e.g. `{instance: "node-3"}`).
    pub labels: Labels,
}

impl SeriesKey {
    /// Build a key from a name and `(key, value)` label pairs.
    pub(crate) fn new(name: impl Into<String>, labels: &[(&str, &str)]) -> Self {
        SeriesKey {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// A key with a single `instance` label — the common per-node shape.
    pub fn per_node(name: impl Into<String>, instance: &str) -> Self {
        SeriesKey::new(name, &[("instance", instance)])
    }

    /// Value of one label.
    pub(crate) fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.name)?;
        let mut first = true;
        for (k, v) in &self.labels {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{k}=\"{v}\"")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// One scraped sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series identity.
    pub key: SeriesKey,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Observed value.
    pub value: f64,
    /// Scrape timestamp.
    pub(crate) timestamp: SimTime,
}

impl Sample {
    /// Construct a gauge sample.
    pub fn gauge(key: SeriesKey, value: f64, timestamp: SimTime) -> Self {
        Sample {
            key,
            kind: MetricKind::Gauge,
            value,
            timestamp,
        }
    }

    /// Construct a counter sample.
    pub fn counter(key: SeriesKey, value: f64, timestamp: SimTime) -> Self {
        Sample {
            key,
            kind: MetricKind::Counter,
            value,
            timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_key_equality_ignores_insertion_order() {
        let a = SeriesKey::new(
            "ping_rtt_seconds",
            &[("source", "node-1"), ("target", "node-2")],
        );
        let b = SeriesKey::new(
            "ping_rtt_seconds",
            &[("target", "node-2"), ("source", "node-1")],
        );
        assert_eq!(a, b);
        assert_eq!(a.label("source"), Some("node-1"));
        assert_eq!(a.label("missing"), None);
    }

    #[test]
    fn per_node_key_shape() {
        let k = SeriesKey::per_node("node_load1", "node-4");
        assert_eq!(k.label("instance"), Some("node-4"));
        assert_eq!(format!("{k}"), "node_load1{instance=\"node-4\"}");
    }

    #[test]
    fn display_with_multiple_labels() {
        let k = SeriesKey::new("m", &[("b", "2"), ("a", "1")]);
        // BTreeMap sorts keys.
        assert_eq!(format!("{k}"), "m{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn sample_constructors_set_kind() {
        let k = SeriesKey::per_node("node_load1", "node-1");
        let g = Sample::gauge(k.clone(), 1.5, SimTime::from_secs(10));
        assert_eq!(g.kind, MetricKind::Gauge);
        let c = Sample::counter(k, 100.0, SimTime::from_secs(10));
        assert_eq!(c.kind, MetricKind::Counter);
        assert_eq!(c.value, 100.0);
    }
}
