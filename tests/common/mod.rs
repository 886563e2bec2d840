//! Helpers shared by the integration tests.

use netsched::simcore::SimTime;
use netsched::telemetry::ClusterSnapshot;

/// A snapshot's observable contents, bit for bit: the time, each scraped
/// node's name, id and four telemetry fields, and every RTT entry.
pub(crate) type SnapshotBits = (
    SimTime,
    Vec<(String, Option<u32>, [u64; 4])>,
    Vec<(u32, u32, u64)>,
);

/// Everything [`SnapshotBits`] lists of `snap`. Stricter than `PartialEq`,
/// which ignores id assignment, and than comparing rendered decimals, which
/// can print `-0.0` and `0.0` alike.
pub(crate) fn snapshot_bits(snap: &ClusterSnapshot) -> SnapshotBits {
    let nodes = snap
        .iter_nodes()
        .map(|(name, t)| {
            let id = snap.node_id(name).map(|id| id.0);
            let fields = [t.cpu_load, t.memory_available_bytes, t.tx_rate, t.rx_rate];
            (name.to_string(), id, fields.map(f64::to_bits))
        })
        .collect();
    let rtt = snap
        .rtt()
        .iter()
        .map(|(src, dst, rtt)| (src.0, dst.0, rtt.to_bits()))
        .collect();
    (snap.time, nodes, rtt)
}
