//! Epoch-published immutable snapshots.
//!
//! The store of [`crate::ingest`] sits behind one lock, so a history query
//! ([`crate::TelemetryReader`]) observes only whole committed scrape rounds —
//! but it waits out whatever commit is in flight, and the pipelined path
//! holds the lock for a whole chunk of rounds at a time (the
//! `telemetry.store_fetch_us` contrast span of the `ingest_64n` workload in
//! `benchmark/`). This module removes the reader/writer interplay entirely,
//! and is the **one serving interface**: `netsched-core`'s scheduler service
//! takes a [`PublishedSnapshot`] and nothing else.
//!
//! * The **writer side** ([`SnapshotPublisher`]) materializes one immutable
//!   [`ClusterSnapshot`] per commit (a scrape round, or a chunk of rounds on
//!   the pipelined path), as that commit's last step, and publishes it behind an
//!   atomically bumped epoch counter. Snapshots are built copy-on-write via
//!   [`Arc::make_mut`] over a small ring of reusable buffers: in steady state
//!   (no reader retains an epoch for more than a few publishes) the previous
//!   buffer is uniquely owned again by the time it cycles back, so publishing
//!   mutates it in place — no node-table, mesh or `String` reallocation, only
//!   the handful of values that scrape changed are rewritten. After the fill
//!   the publisher **seals** the buffer ([`ClusterSnapshot::seal`]): the RTT
//!   statistics of the source rows the fill dirtied are recomputed — once,
//!   here, instead of once per reader per burst — and the snapshot gets a
//!   process-unique `revision`. Readers key their derived views on that
//!   revision, never on the `Arc`'s address: with four recycled buffers the
//!   same address holds different contents every fourth epoch.
//! * The **reader side** ([`PublishedSnapshot`]) resolves the current epoch
//!   with one atomic load and clones the published `Arc` out of its slot —
//!   never touching the store or its lock.
//!   Any number of readers share one published snapshot; a scheduler keeps
//!   the `Arc` for a whole decision burst (or across bursts, via the epoch
//!   stamp) at zero copies.
//!
//! A reader therefore always observes a **whole committed epoch** — the exact
//! snapshot the sequential path would have assembled at that epoch's scrape
//! time — and consecutive reads observe monotonically non-decreasing epochs.

use crate::snapshot::ClusterSnapshot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of publish slots (and copy-on-write buffers). A reader is lapped —
/// and simply retries against the then-current epoch — only if the writer
/// publishes this many epochs between the reader's epoch load and its slot
/// lock, a window of a few nanoseconds.
const SLOT_COUNT: usize = 4;

/// One published epoch: a monotonically increasing epoch number (starting at
/// 1; 0 means "nothing published") and the immutable snapshot committed with
/// it. Cloning is an `Arc` bump — the snapshot itself is never copied.
#[derive(Debug, Clone)]
pub struct PublishedEpoch {
    /// The epoch number (1-based, strictly increasing per publisher).
    pub epoch: u64,
    /// The snapshot committed at this epoch. Immutable: the publisher only
    /// ever mutates a buffer it uniquely owns again.
    pub snapshot: Arc<ClusterSnapshot>,
}

/// State shared between one [`SnapshotPublisher`] and all of its
/// [`PublishedSnapshot`] handles.
#[derive(Debug)]
struct PublishShared {
    /// The latest fully published epoch (0 = none yet). Stored with release
    /// ordering *after* the slot holds the epoch, so a reader that observes
    /// epoch `e` always finds epoch `e` (never an older one) in slot
    /// `e % SLOT_COUNT`.
    epoch: AtomicU64,
    /// Publish slots, indexed by `epoch % SLOT_COUNT`. Each lock is held only
    /// for an `Option` store (writer) or an `Arc` clone (reader).
    slots: Vec<Mutex<Option<PublishedEpoch>>>,
}

impl PublishShared {
    fn new() -> Self {
        PublishShared {
            epoch: AtomicU64::new(0),
            slots: (0..SLOT_COUNT).map(|_| Mutex::new(None)).collect(),
        }
    }
}

/// The writer side: owned by whatever commits scrape rounds (the scrape
/// manager), publishing one immutable snapshot per commit.
///
/// Single-writer by construction (`publish_with` takes `&mut self`).
#[derive(Debug)]
pub struct SnapshotPublisher {
    shared: Arc<PublishShared>,
    /// Copy-on-write buffers, one per slot: buffer `e % SLOT_COUNT` is reused
    /// for epoch `e`. By the time a buffer cycles back its slot reference has
    /// been dropped, so unless a reader still retains that old epoch the
    /// buffer is uniquely owned and [`Arc::make_mut`] mutates it in place.
    buffers: Vec<Arc<ClusterSnapshot>>,
    /// The next epoch number to publish (starts at 1).
    next_epoch: u64,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotPublisher {
    /// A publisher with nothing published yet (handles read `None`).
    pub fn new() -> Self {
        SnapshotPublisher {
            shared: Arc::new(PublishShared::new()),
            buffers: (0..SLOT_COUNT)
                .map(|_| Arc::new(ClusterSnapshot::default()))
                .collect(),
            next_epoch: 1,
        }
    }

    /// The latest published epoch number (0 = none yet).
    pub fn epoch(&self) -> u64 {
        self.next_epoch - 1
    }

    /// A cheap, cloneable, thread-safe read handle over this publisher.
    pub fn handle(&self) -> PublishedSnapshot {
        PublishedSnapshot {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The latest published epoch, if any (same view the handles get).
    pub fn latest(&self) -> Option<PublishedEpoch> {
        self.handle().latest()
    }

    /// Publish the next epoch: `fill` rewrites the epoch's snapshot buffer
    /// (copy-on-write — in place unless a reader still retains the buffer
    /// from `SLOT_COUNT` epochs ago) and the buffer is sealed (dirty RTT rows
    /// resummarised, fresh revision — see [`ClusterSnapshot::seal`]); then it
    /// is installed in its slot and the epoch counter is bumped with release
    /// ordering. Returns the published epoch number.
    pub fn publish_with(&mut self, fill: impl FnOnce(&mut ClusterSnapshot)) -> u64 {
        let epoch = self.next_epoch;
        let index = (epoch as usize) % SLOT_COUNT;
        // Drop the slot's reference from SLOT_COUNT epochs ago first, so the
        // buffer below is uniquely owned again in steady state. A reader
        // holding a stale epoch load retries against the fresh epoch when it
        // finds the slot empty or mismatched.
        *self.shared.slots[index].lock() = None;
        let buffer = &mut self.buffers[index];
        let snapshot = Arc::make_mut(buffer);
        fill(snapshot);
        snapshot.seal();
        *self.shared.slots[index].lock() = Some(PublishedEpoch {
            epoch,
            snapshot: Arc::clone(buffer),
        });
        // ordering: Release makes the slot contents written above visible to
        // any reader whose Acquire load of `epoch` observes this value.
        self.shared.epoch.store(epoch, Ordering::Release);
        self.next_epoch += 1;
        epoch
    }
}

/// Cloning a publisher detaches it: the clone gets fresh shared state (its
/// own epoch counter and slots) re-publishing the latest epoch, so handles
/// taken from the original keep observing only the original. Two publishers
/// never race on one slot ring — the single-writer invariant survives
/// cloning a scrape manager.
impl Clone for SnapshotPublisher {
    fn clone(&self) -> Self {
        let mut detached = SnapshotPublisher::new();
        if let Some(published) = self.latest() {
            detached.publish_with(|snap| snap.clone_from(&published.snapshot));
        }
        detached
    }
}

/// The reader side: a cloneable, thread-safe handle resolving the latest
/// published epoch with one atomic load plus one `Arc` clone — no store
/// access, no store lock, no waiting out in-flight commits.
///
/// It serves the *latest* published state (the paper's fetcher semantics:
/// "the most recent telemetry snapshot"); queries about an earlier instant
/// or another rate window go to the store owners' [`crate::SnapshotSource`].
#[derive(Debug, Clone)]
pub struct PublishedSnapshot {
    shared: Arc<PublishShared>,
}

impl PublishedSnapshot {
    /// The latest published epoch number (one atomic load; 0 = none yet).
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `publish_with`,
        // so the slot this epoch points at is fully written before we read it.
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The latest published epoch and its immutable snapshot, or `None`
    /// before the first publish. Epochs observed by one handle across calls
    /// are monotonically non-decreasing.
    pub fn latest(&self) -> Option<PublishedEpoch> {
        loop {
            let epoch = self.epoch();
            if epoch == 0 {
                return None;
            }
            let slot = self.shared.slots[(epoch as usize) % SLOT_COUNT].lock();
            match &*slot {
                Some(published) if published.epoch == epoch => return Some(published.clone()),
                // The writer lapped this read (>= SLOT_COUNT publishes since
                // the epoch load): retry against the then-current epoch.
                _ => {
                    drop(slot);
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeTelemetry;
    use simcore::SimTime;

    fn snap_with_load(load: f64) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(load as u64));
        snap.insert_node(
            "node-1",
            NodeTelemetry {
                cpu_load: load,
                ..Default::default()
            },
        );
        snap
    }

    #[test]
    fn handle_reads_latest_epoch() {
        let mut publisher = SnapshotPublisher::new();
        let handle = publisher.handle();
        assert_eq!(publisher.epoch(), 0);
        assert_eq!(handle.epoch(), 0);
        assert!(handle.latest().is_none());

        publisher.publish_with(|snap| *snap = snap_with_load(1.0));
        publisher.publish_with(|snap| *snap = snap_with_load(2.0));
        assert_eq!(publisher.epoch(), 2);
        let latest = handle.latest().unwrap();
        assert_eq!(latest.epoch, 2);
        assert_eq!(latest.snapshot.node("node-1").unwrap().cpu_load, 2.0);
        assert_eq!(handle.epoch(), 2);
    }

    #[test]
    fn steady_state_publishing_mutates_buffers_in_place() {
        let mut publisher = SnapshotPublisher::new();
        let handle = publisher.handle();
        // Cycle far past the slot ring while a reader takes (and drops) the
        // latest epoch each round: every buffer must be uniquely owned again
        // by the time it cycles back, so make_mut never deep-copies.
        let mut last_ptr = None;
        for i in 0..20u64 {
            publisher.publish_with(|snap| *snap = snap_with_load(i as f64));
            let latest = handle.latest().unwrap();
            assert_eq!(latest.epoch, i + 1);
            last_ptr = Some(Arc::as_ptr(&latest.snapshot));
        }
        // Publishing SLOT_COUNT more epochs reuses the exact same buffer
        // allocation for the same slot index.
        let before = last_ptr.unwrap();
        for i in 20..20 + SLOT_COUNT as u64 {
            publisher.publish_with(|snap| *snap = snap_with_load(i as f64));
        }
        let after = Arc::as_ptr(&handle.latest().unwrap().snapshot);
        assert_eq!(before, after, "slot buffer must be reused, not reallocated");
    }

    #[test]
    fn every_publish_seals_with_a_distinct_revision() {
        let mut publisher = SnapshotPublisher::new();
        let handle = publisher.handle();
        let mut revisions = Vec::new();
        for i in 0..2 * SLOT_COUNT as u64 {
            publisher.publish_with(|snap| {
                if snap.is_empty() {
                    *snap = snap_with_load(0.0);
                }
                snap.node_mut("node-1").expect("scraped above").cpu_load = i as f64;
            });
            let latest = handle.latest().unwrap();
            assert_ne!(latest.snapshot.revision(), 0, "publishing seals");
            revisions.push(latest.snapshot.revision());
        }
        // Buffers (and so addresses) repeat every SLOT_COUNT epochs;
        // revisions never do.
        let mut distinct = revisions.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), revisions.len());
        // A fill that changes nothing keeps the revision: same contents.
        let before = publisher.latest().unwrap().snapshot;
        publisher.publish_with(|snap| snap.clone_from(&before));
        assert_eq!(
            publisher.latest().unwrap().snapshot.revision(),
            before.revision()
        );
    }

    #[test]
    fn retained_epoch_is_never_mutated() {
        let mut publisher = SnapshotPublisher::new();
        let handle = publisher.handle();
        publisher.publish_with(|snap| *snap = snap_with_load(1.0));
        let retained = handle.latest().unwrap();
        // Publish enough epochs to cycle back onto epoch 1's buffer while a
        // reader still holds it: copy-on-write must leave the retained
        // snapshot untouched.
        for i in 0..2 * SLOT_COUNT as u64 {
            publisher.publish_with(|snap| *snap = snap_with_load(10.0 + i as f64));
        }
        assert_eq!(retained.epoch, 1);
        assert_eq!(retained.snapshot.node("node-1").unwrap().cpu_load, 1.0);
        let latest = handle.latest().unwrap();
        assert_eq!(latest.epoch, 1 + 2 * SLOT_COUNT as u64);
        assert_ne!(
            Arc::as_ptr(&retained.snapshot),
            Arc::as_ptr(&latest.snapshot)
        );
    }

    #[test]
    fn cloned_publisher_is_detached() {
        let mut publisher = SnapshotPublisher::new();
        publisher.publish_with(|snap| *snap = snap_with_load(3.0));
        let original_handle = publisher.handle();

        let mut clone = publisher.clone();
        assert_eq!(clone.epoch(), 1);
        assert_eq!(
            clone
                .latest()
                .unwrap()
                .snapshot
                .node("node-1")
                .unwrap()
                .cpu_load,
            3.0
        );
        // Publishing on the clone is invisible to the original's handles.
        clone.publish_with(|snap| *snap = snap_with_load(4.0));
        assert_eq!(original_handle.latest().unwrap().epoch, 1);
        assert_eq!(clone.latest().unwrap().epoch, 2);

        // A never-published publisher clones to a never-published one.
        let empty = SnapshotPublisher::new().clone();
        assert_eq!(empty.epoch(), 0);
    }

    #[test]
    fn concurrent_readers_observe_monotone_epochs() {
        let mut publisher = SnapshotPublisher::new();
        let handle = publisher.handle();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let mut last = 0u64;
                        let mut observed = Vec::new();
                        while last < 500 {
                            if let Some(p) = handle.latest() {
                                observed.push(p.epoch);
                                last = p.epoch;
                            }
                        }
                        observed
                    })
                })
                .collect();
            for i in 0..500u64 {
                publisher.publish_with(|snap| *snap = snap_with_load(i as f64));
            }
            for reader in readers {
                let observed = reader.join().unwrap();
                assert!(
                    observed.windows(2).all(|w| w[0] <= w[1]),
                    "epochs must be monotone"
                );
                assert_eq!(*observed.last().unwrap(), 500);
            }
        });
    }
}
