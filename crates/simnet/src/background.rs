//! Background contention load.
//!
//! Section 5.2 of the paper: *"Background load (a pod that repeatedly
//! downloads a 10 MB file over HTTP using curl) is placed randomly on selected
//! nodes during job execution. This simulates network and CPU contention."*
//!
//! [`BackgroundLoadGenerator`] reproduces that pod: it is assigned to a node,
//! repeatedly issues a fixed-size download from a peer node (with a small
//! think-time gap between downloads), and contributes a configurable amount of
//! CPU load to its host while active. The experiment harness places one or
//! more of these generators on randomly chosen nodes per batch run, which is
//! what creates the telemetry variation the supervised model learns from.

use crate::topology::NodeId;
use simcore::{Rng, SimDuration};

/// Memory a background-load pod pins on its host, in bytes: the curl loop
/// plus the buffer cache of the HTTP server it hammers.
pub const BACKGROUND_POD_MEMORY_BYTES: f64 = 1536.0 * 1024.0 * 1024.0;

/// Configuration of one background-load pod.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundLoadConfig {
    /// Bytes fetched per download (paper: 10 MB).
    pub transfer_bytes: f64,
    /// Mean think time between consecutive downloads.
    pub mean_gap: SimDuration,
    /// CPU load (in load-average units, i.e. runnable processes) the pod adds
    /// to its host while running.
    pub cpu_load: f64,
}

impl Default for BackgroundLoadConfig {
    fn default() -> Self {
        BackgroundLoadConfig {
            transfer_bytes: crate::megabytes(10.0),
            mean_gap: SimDuration::from_millis(200),
            // The curl loop plus the HTTP server it hammers keep a couple of
            // runnable processes on the host — that, with the pinned buffer
            // cache, is what makes the contention visible in node telemetry.
            cpu_load: 2.0,
        }
    }
}

/// One transfer request emitted by a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundTransfer {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes to move.
    pub bytes: f64,
    /// Delay (relative to the previous transfer's completion) before starting.
    pub gap: SimDuration,
}

/// A background-load pod pinned to a host, downloading from a peer.
#[derive(Debug, Clone)]
pub struct BackgroundLoadGenerator {
    /// The node the pod runs on.
    pub host: NodeId,
    /// The peer node serving the file.
    pub peer: NodeId,
    /// Pod configuration.
    pub config: BackgroundLoadConfig,
}

impl BackgroundLoadGenerator {
    /// Create a generator on `host` downloading from `peer`.
    pub(crate) fn new(host: NodeId, peer: NodeId, config: BackgroundLoadConfig) -> Self {
        BackgroundLoadGenerator { host, peer, config }
    }

    /// CPU load the pod contributes to its host.
    pub fn cpu_load(&self) -> f64 {
        self.config.cpu_load
    }

    /// Produce the next transfer. The gap before the transfer is sampled from
    /// an exponential distribution with the configured mean (plus a floor so
    /// the generator cannot busy-loop), and the transfer size gets ±10%
    /// uniform variation like a real HTTP fetch with headers/retries. The
    /// pod downloads: traffic flows from the peer to the host.
    pub fn next_transfer(&mut self, rng: &mut Rng) -> BackgroundTransfer {
        let mean_gap = self.config.mean_gap.as_secs_f64().max(1e-3);
        let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / mean_gap).min(mean_gap * 10.0));
        let bytes = self.config.transfer_bytes * rng.uniform(0.9, 1.1);
        BackgroundTransfer {
            src: self.peer,
            dst: self.host,
            bytes,
            gap,
        }
    }
}

/// Randomly place `count` background pods on distinct hosts drawn from
/// `candidates`, each downloading from a uniformly random *other* node.
/// Mirrors the paper's "placed randomly on selected nodes" procedure.
#[expect(
    clippy::expect_used,
    reason = "the node list is non-empty whenever background traffic is generated"
)]
pub fn place_random_background_load(
    candidates: &[NodeId],
    all_nodes: &[NodeId],
    count: usize,
    config: &BackgroundLoadConfig,
    rng: &mut Rng,
) -> Vec<BackgroundLoadGenerator> {
    if candidates.is_empty() || all_nodes.len() < 2 {
        return Vec::new();
    }
    let count = count.min(candidates.len());
    let host_idx = rng.sample_indices(candidates.len(), count);
    host_idx
        .into_iter()
        .map(|i| {
            let host = candidates[i];
            // Pick a peer different from the host.
            let peer = loop {
                let p = *rng.choose(all_nodes).expect("non-empty");
                if p != host {
                    break p;
                }
            };
            BackgroundLoadGenerator::new(host, peer, config.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn default_config_matches_paper() {
        let c = BackgroundLoadConfig::default();
        assert_eq!(c.transfer_bytes, 10_000_000.0);
        assert!(c.cpu_load > 0.0);
    }

    #[test]
    fn download_direction_targets_host() {
        let mut rng = Rng::seed_from_u64(1);
        let mut g =
            BackgroundLoadGenerator::new(NodeId(2), NodeId(5), BackgroundLoadConfig::default());
        let t = g.next_transfer(&mut rng);
        assert_eq!(t.dst, NodeId(2));
        assert_eq!(t.src, NodeId(5));
    }

    #[test]
    fn transfer_sizes_vary_around_nominal() {
        let mut rng = Rng::seed_from_u64(7);
        let mut g =
            BackgroundLoadGenerator::new(NodeId(0), NodeId(1), BackgroundLoadConfig::default());
        for _ in 0..200 {
            let t = g.next_transfer(&mut rng);
            assert!(
                t.bytes >= 9_000_000.0 && t.bytes <= 11_000_000.0,
                "{}",
                t.bytes
            );
            assert!(t.gap >= SimDuration::ZERO);
            assert!(t.gap <= SimDuration::from_secs(2), "gap capped at 10x mean");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = Rng::seed_from_u64(99);
        let mut r2 = Rng::seed_from_u64(99);
        let mut g1 =
            BackgroundLoadGenerator::new(NodeId(0), NodeId(1), BackgroundLoadConfig::default());
        let mut g2 =
            BackgroundLoadGenerator::new(NodeId(0), NodeId(1), BackgroundLoadConfig::default());
        for _ in 0..20 {
            assert_eq!(g1.next_transfer(&mut r1), g2.next_transfer(&mut r2));
        }
    }

    #[test]
    fn random_placement_picks_distinct_hosts_and_valid_peers() {
        let mut rng = Rng::seed_from_u64(5);
        let all = nodes(6);
        let gens =
            place_random_background_load(&all, &all, 3, &BackgroundLoadConfig::default(), &mut rng);
        assert_eq!(gens.len(), 3);
        let mut hosts: Vec<usize> = gens.iter().map(|g| g.host.0).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 3, "hosts must be distinct");
        for g in &gens {
            assert_ne!(g.host, g.peer);
        }
    }

    #[test]
    fn placement_edge_cases() {
        let mut rng = Rng::seed_from_u64(5);
        let all = nodes(6);
        // Requesting more pods than candidates clamps.
        let gens = place_random_background_load(
            &all[..2],
            &all,
            10,
            &BackgroundLoadConfig::default(),
            &mut rng,
        );
        assert_eq!(gens.len(), 2);
        // No candidates -> nothing.
        assert!(place_random_background_load(
            &[],
            &all,
            3,
            &BackgroundLoadConfig::default(),
            &mut rng
        )
        .is_empty());
        // Single node overall -> nothing (no valid peer).
        assert!(place_random_background_load(
            &all[..1],
            &all[..1],
            1,
            &BackgroundLoadConfig::default(),
            &mut rng
        )
        .is_empty());
    }
}
