//! # telemetry — a Prometheus-like metrics substrate
//!
//! The paper's metrics server is *"a Prometheus instance configured to scrape
//! telemetry from multiple sources, including node-exporter for host-level
//! statistics and custom ping mesh exporters for inter-node network latency"*.
//! This crate rebuilds that pipeline for the simulated cluster:
//!
//! * `metrics` — metric [`Sample`]s: a name, a sorted label set, a value and a
//!   timestamp, plus the counter/gauge distinction.
//! * `store` — an append-only [`TimeSeriesStore`] with interned
//!   [`SeriesId`]s, instant queries, windowed (allocation-free) range
//!   queries, `rate()` over counters and retention-based pruning.
//! * `exporters` — the two exporters the paper deploys: a node exporter
//!   (CPU load average, available memory, cumulative tx/rx bytes) and a
//!   full-mesh ping exporter (pairwise RTT), both reading the simulated
//!   cluster and network state; [`ExporterLayout`] is the
//!   pre-interned fast path — one evaluation loop — every scrape runs.
//! * `scrape` — the [`ScrapeManager`]: drives all exporters on a grid-aligned
//!   interval and appends into the store, exactly like a Prometheus server's
//!   scrape loop.
//! * `ingest` — that same manager behind one lock shared with history
//!   readers ([`ConcurrentScrapeManager`], [`TelemetryReader`]), plus a pipelined path for whole
//!   schedules: exporter evaluation outside the lock overlapping one writer
//!   lane that commits a chunk of rounds per hold, so readers only ever
//!   observe fully-committed scrape rounds.
//! * `publish` — epoch-published immutable snapshots, **the serving
//!   interface**: the scrape managers materialize one copy-on-write, sealed
//!   [`ClusterSnapshot`] per commit and publish it behind
//!   an atomic epoch counter, so any number of
//!   [`PublishedSnapshot`] readers — the scheduler service among
//!   them — fetch consistent cluster state without touching the store or its
//!   lock.
//! * `snapshot` — the query surface the scheduler consumes: a
//!   [`ClusterSnapshot`] with per-node CPU/memory/tx/rx (densely
//!   indexed by `cluster::NodeId`) and the `(NodeId, NodeId)`-keyed RTT
//!   mesh. [`SnapshotSource`] is the store owners' history query
//!   (any instant, any rate window) — what the managers run once per commit
//!   to fill the epoch they publish, and what tests compare epochs against.

#![warn(missing_docs)]

mod exporters;
mod ingest;
mod metrics;
mod publish;
mod scrape;
mod snapshot;
mod store;

pub use exporters::ExporterLayout;
pub use ingest::{ConcurrentScrapeManager, IngestConfig, TelemetryReader};
pub use metrics::{MetricKind, Sample, SeriesKey};
pub use publish::{PublishedEpoch, PublishedSnapshot, SnapshotPublisher};
pub use scrape::{ScrapeConfig, ScrapeManager};
pub use snapshot::{ClusterSnapshot, IndexedTelemetry, NodeTelemetry, RttMesh, SnapshotSource};
pub use store::{SeriesId, TimeSeriesStore};

/// Metric name for the 1-minute load average (node exporter).
pub(crate) const METRIC_NODE_LOAD1: &str = "node_load1";
/// Metric name for available memory in bytes (node exporter).
pub(crate) const METRIC_NODE_MEM_AVAILABLE: &str = "node_memory_MemAvailable_bytes";
/// Metric name for cumulative transmitted bytes (node exporter).
pub const METRIC_NODE_TX_BYTES: &str = "node_network_transmit_bytes_total";
/// Metric name for cumulative received bytes (node exporter).
pub const METRIC_NODE_RX_BYTES: &str = "node_network_receive_bytes_total";
/// Metric name for ping-mesh round-trip time in seconds.
pub const METRIC_PING_RTT: &str = "ping_rtt_seconds";
