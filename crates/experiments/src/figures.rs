//! Figures 2, 3 and 4.
//!
//! * **Figure 2** — average latency (ms) per node across five runs of Sort.
//! * **Figure 3** — average transmit bandwidth (MB/s) per node across the same
//!   five Sort runs.
//! * **Figure 4** — the geographical cluster layout with inter-site RTTs.
//!
//! The per-node latency is the mean RTT from the node to its peers as seen by
//! the ping mesh immediately after each run; the transmit bandwidth is the
//! node's interface-counter delta over the run divided by the run duration —
//! the same quantities the paper derives from Prometheus.

use crate::fabric::{FabricTestbed, SITE_NAMES, WAN_LINKS};
use crate::world::SimWorld;
use netsched_core::JobRequest;
use simcore::{OnlineStats, SimDuration};
use simnet::BackgroundLoadConfig;
use sparksim::WorkloadKind;

/// Per-node series for Figures 2 and 3.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSeries {
    /// Node name (`node-1` ... `node-6`).
    pub node: String,
    /// Mean latency to peers in milliseconds, averaged over runs (Figure 2).
    pub(crate) avg_latency_ms: f64,
    /// Mean transmit bandwidth in MB/s, averaged over runs (Figure 3).
    pub(crate) avg_tx_bandwidth_mbps: f64,
    /// Mean receive bandwidth in MB/s (extra detail, not in the paper figure).
    pub(crate) avg_rx_bandwidth_mbps: f64,
}

/// The data behind Figures 2 and 3.
#[derive(Debug, Clone, PartialEq)]
pub struct SortTelemetryFigures {
    /// One series entry per node.
    pub per_node: Vec<NodeSeries>,
    /// Number of Sort runs aggregated (paper: 5).
    pub runs: usize,
    /// Completion time of each run, seconds.
    pub(crate) run_completions: Vec<f64>,
}

impl SortTelemetryFigures {
    /// Figure 2 series: `(node, latency_ms)` pairs.
    pub fn figure2_latency(&self) -> Vec<(String, f64)> {
        self.per_node
            .iter()
            .map(|n| (n.node.clone(), n.avg_latency_ms))
            .collect()
    }

    /// Figure 3 series: `(node, MB/s)` pairs.
    pub fn figure3_tx_bandwidth(&self) -> Vec<(String, f64)> {
        self.per_node
            .iter()
            .map(|n| (n.node.clone(), n.avg_tx_bandwidth_mbps))
            .collect()
    }
}

/// Run `runs` Sort executions (with background contention) and aggregate the
/// per-node telemetry of Figures 2 and 3.
#[expect(
    clippy::expect_used,
    reason = "node names are drawn from the same world the figure iterates over"
)]
pub fn sort_telemetry_figures(runs: usize, input_records: u64, seed: u64) -> SortTelemetryFigures {
    let mut world = SimWorld::new(FabricTestbed::paper(), seed);
    world.place_background_load(2, &BackgroundLoadConfig::default());
    world.advance_by(SimDuration::from_secs(10));

    let node_names = world.cluster.node_names();
    let mut latency: Vec<OnlineStats> = node_names.iter().map(|_| OnlineStats::new()).collect();
    let mut tx: Vec<OnlineStats> = node_names.iter().map(|_| OnlineStats::new()).collect();
    let mut rx: Vec<OnlineStats> = node_names.iter().map(|_| OnlineStats::new()).collect();
    let mut run_completions = Vec::with_capacity(runs);

    for run in 0..runs.max(1) {
        // Rotate the driver across nodes as the batch workflow does.
        let driver = &node_names[run % node_names.len()];
        let request = JobRequest::named(
            format!("sort-fig-{run}"),
            WorkloadKind::Sort,
            input_records,
            2,
        );
        // Interface counters before the run.
        let before: Vec<simnet::InterfaceCounters> = world
            .cluster
            .nodes()
            .iter()
            .map(|n| world.network.counters(n.net_id))
            .collect();
        let Some(outcome) = world.run_job(&request, driver) else {
            continue;
        };
        let duration = outcome.result.completion_seconds().max(1e-6);
        run_completions.push(duration);
        // Post-run telemetry.
        let snapshot = world.snapshot();
        for (i, name) in node_names.iter().enumerate() {
            let (mean_rtt, _, _) = snapshot.rtt_stats_from(name);
            latency[i].push(mean_rtt * 1000.0);
            let counters = world
                .network
                .counters(world.cluster.node(name).expect("node exists").net_id);
            tx[i].push((counters.tx_bytes - before[i].tx_bytes) / duration / 1e6);
            rx[i].push((counters.rx_bytes - before[i].rx_bytes) / duration / 1e6);
        }
        // A short gap between runs, as in a batch script.
        world.advance_by(SimDuration::from_secs(5));
    }

    SortTelemetryFigures {
        per_node: node_names
            .iter()
            .enumerate()
            .map(|(i, node)| NodeSeries {
                node: node.clone(),
                avg_latency_ms: latency[i].mean(),
                avg_tx_bandwidth_mbps: tx[i].mean(),
                avg_rx_bandwidth_mbps: rx[i].mean(),
            })
            .collect(),
        runs: run_completions.len(),
        run_completions,
    }
}

/// One inter-site edge of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SiteEdge {
    /// One site.
    pub a: String,
    /// The other site.
    pub b: String,
    /// Configured round-trip time in milliseconds.
    pub(crate) rtt_ms: f64,
    /// Measured (ping-mesh) round-trip time in milliseconds between
    /// representative nodes of the two sites.
    pub(crate) measured_rtt_ms: f64,
}

/// The data behind Figure 4: sites, node assignment and inter-site RTTs.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Topology {
    /// `(site, nodes)` assignment.
    pub sites: Vec<(String, Vec<String>)>,
    /// Inter-site edges with configured and measured RTTs.
    pub(crate) edges: Vec<SiteEdge>,
}

impl Figure4Topology {
    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| Site | Nodes |\n|---|---|\n");
        for (site, nodes) in &self.sites {
            out.push_str(&format!("| {} | {} |\n", site, nodes.join(", ")));
        }
        out.push_str("\n| Link | Configured RTT (ms) | Measured RTT (ms) |\n|---|---|---|\n");
        for edge in &self.edges {
            out.push_str(&format!(
                "| {} ↔ {} | {:.1} | {:.1} |\n",
                edge.a, edge.b, edge.rtt_ms, edge.measured_rtt_ms
            ));
        }
        out
    }
}

/// Build the Figure 4 description from the testbed and a quick ping-mesh probe.
pub fn figure4_topology(seed: u64) -> Figure4Topology {
    let mut world = SimWorld::new(FabricTestbed::paper(), seed);
    world.advance_by(SimDuration::from_secs(6));
    let snapshot = world.snapshot();

    let mut sites: Vec<(String, Vec<String>)> = Vec::new();
    for site in SITE_NAMES {
        let nodes: Vec<String> = world
            .cluster
            .nodes()
            .iter()
            .filter(|n| {
                n.labels
                    .get("topology.kubernetes.io/zone")
                    .map(String::as_str)
                    == Some(site)
            })
            .map(|n| n.name.clone())
            .collect();
        sites.push((site.to_string(), nodes));
    }

    // Representative node per site = first node of the site.
    let rep = |site: &str| -> String {
        sites
            .iter()
            .find(|(s, _)| s == site)
            .and_then(|(_, nodes)| nodes.first().cloned())
            .unwrap_or_default()
    };
    let measured = |a: &str, b: &str| -> f64 {
        snapshot
            .rtt_between(&rep(a), &rep(b))
            .map(|s| s * 1000.0)
            .unwrap_or(0.0)
    };

    let edges = WAN_LINKS
        .iter()
        .map(|&(a, b, rtt_ms, _)| SiteEdge {
            a: SITE_NAMES[a].into(),
            b: SITE_NAMES[b].into(),
            rtt_ms,
            measured_rtt_ms: measured(SITE_NAMES[a], SITE_NAMES[b]),
        })
        .collect();

    Figure4Topology { sites, edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_figures_aggregate_five_runs() {
        let figures = sort_telemetry_figures(3, 100_000, 21);
        assert_eq!(figures.runs, 3);
        assert_eq!(figures.per_node.len(), 6);
        assert_eq!(figures.run_completions.len(), 3);
        assert!(figures.run_completions.iter().all(|&c| c > 0.0));
        // Latency varies across nodes (geo-distributed sites) and every node
        // has a non-negative bandwidth figure.
        let latencies: Vec<f64> = figures.per_node.iter().map(|n| n.avg_latency_ms).collect();
        let min = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = latencies.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "latency must differ across nodes: {latencies:?}");
        assert!(
            max > 10.0,
            "WAN nodes see tens of milliseconds: {latencies:?}"
        );
        assert!(figures
            .per_node
            .iter()
            .all(|n| n.avg_tx_bandwidth_mbps >= 0.0));
        // Some node transmitted shuffle data.
        assert!(figures
            .per_node
            .iter()
            .any(|n| n.avg_tx_bandwidth_mbps > 0.1));
        // Figure accessors.
        assert_eq!(figures.figure2_latency().len(), 6);
        assert_eq!(figures.figure3_tx_bandwidth().len(), 6);
    }

    #[test]
    fn figure4_matches_paper_layout() {
        let fig = figure4_topology(3);
        assert_eq!(fig.sites.len(), 3);
        assert!(fig.sites.iter().all(|(_, nodes)| nodes.len() == 2));
        assert_eq!(fig.edges.len(), 3);
        let ucsd_fiu = fig
            .edges
            .iter()
            .find(|e| e.a == "UCSD" && e.b == "FIU")
            .unwrap();
        assert_eq!(ucsd_fiu.rtt_ms, 66.0);
        // Measured RTT is within jitter/congestion tolerance of the configured value.
        assert!(
            (ucsd_fiu.measured_rtt_ms - 66.0).abs() < 10.0,
            "{}",
            ucsd_fiu.measured_rtt_ms
        );
        let md = fig.to_markdown();
        assert!(md.contains("UCSD") && md.contains("Measured RTT"));
    }
}
