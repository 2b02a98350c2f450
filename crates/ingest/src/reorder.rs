//! Bounded per-vehicle reorder buffer: re-sequences out-of-order arrivals
//! within a lateness horizon, drops exact duplicates, and degrades
//! gracefully (counted, state-preserving) on everything else.
//!
//! # Release rule and the equivalence guarantee
//!
//! The buffer holds arrivals sorted by their canonical key and releases an
//! item once the **watermark** — the maximum event timestamp seen so far
//! minus the horizon `L` — passes it. For any arrival sequence in which
//! every item is delayed by strictly less than `L` from its event time,
//! this yields exactly the sorted clean sequence: when an item with event
//! time `b` is released, the releasing watermark-driver arrived carrying
//! timestamp `>= b + L`, so any not-yet-arrived item with event time `t`
//! must have arrival position `> t + L - L = t >= b` — nothing earlier
//! than `b` can still be in flight. That argument is what makes the
//! engine's headline contract ("dirty stream in, byte-identical alarms
//! out") a theorem rather than a hope, and the proptests in
//! `tests/props.rs` check it mechanically.
//!
//! # Bounded memory
//!
//! `capacity` caps the buffer. On overflow the oldest item is force-
//! released (counted in [`ReorderStats::forced_releases`]); ordering can
//! then suffer, but memory cannot grow without bound — graceful
//! degradation over correctness-at-any-cost.

use navarchos_stat::{SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Canonical ordering key of a stream element: event time, then a rank
/// that puts maintenance markers before telemetry records at equal
/// timestamps (matching `replay_stream`'s event-before-record contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeqKey {
    /// Event timestamp (epoch seconds).
    pub timestamp: i64,
    /// Tie-break rank at equal timestamps (0 = maintenance, 1 = record).
    pub rank: u8,
}

/// Items a [`ReorderBuffer`] can sequence.
pub trait Sequenced {
    /// The item's canonical ordering key.
    fn key(&self) -> SeqKey;

    /// Bitwise payload equality — used to tell an exact duplicate from a
    /// conflicting rewrite of the same key. Implementations must compare
    /// floats by bit pattern (`f64::to_bits`), not `==`, so NaN payloads
    /// still deduplicate.
    fn identical(&self, other: &Self) -> bool;
}

/// What [`ReorderBuffer::push`] did with an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Stored (and possibly released downstream items). `reordered` is
    /// true when the item arrived after one with a later key.
    Accepted {
        /// True when this arrival was out of order.
        reordered: bool,
    },
    /// Exact duplicate of a buffered or recently released item; dropped.
    Duplicate,
    /// Arrived beyond the lateness horizon (its key is at or before the
    /// last released key and it is not a known duplicate); dropped
    /// without touching downstream state.
    LateDropped,
    /// Same key as a buffered item but a different payload; rejected so
    /// the buffered original wins. The caller dead-letters it.
    Conflict,
}

/// Counters accumulated by one buffer. The engine aggregates these across
/// vehicles and mirrors them into the `ingest.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Items accepted into the buffer.
    pub accepted: u64,
    /// Accepted items that arrived out of order.
    pub reordered: u64,
    /// Exact duplicates dropped.
    pub duplicates: u64,
    /// Items dropped for arriving beyond the horizon.
    pub late_dropped: u64,
    /// Same-key/different-payload rejections.
    pub conflicts: u64,
    /// Items released early because the buffer hit capacity.
    pub forced_releases: u64,
}

/// Bounded reorder buffer over one vehicle's arrival stream. See the
/// module docs for the release rule and its equivalence guarantee.
#[derive(Debug)]
pub struct ReorderBuffer<T: Sequenced> {
    horizon: i64,
    capacity: usize,
    /// Buffered items, sorted ascending by key.
    buf: VecDeque<T>,
    /// Maximum event timestamp observed (drives the watermark).
    max_ts: Option<i64>,
    /// Key of the most recently released item.
    last_released: Option<SeqKey>,
    /// Keys of recently released items, newest last, bounded by
    /// `capacity`. Classifies arrivals at or before `last_released`:
    /// in the ring ⇒ duplicate of a released item, else genuinely late.
    recent: VecDeque<SeqKey>,
    stats: ReorderStats,
}

impl<T: Sequenced> ReorderBuffer<T> {
    /// Creates a buffer with the given lateness `horizon` (seconds) and
    /// item `capacity` (≥ 1).
    pub fn new(horizon: i64, capacity: usize) -> Self {
        assert!(horizon >= 0, "lateness horizon must be non-negative");
        assert!(capacity >= 1, "capacity must hold at least one item");
        ReorderBuffer {
            horizon,
            capacity,
            buf: VecDeque::new(),
            max_ts: None,
            last_released: None,
            recent: VecDeque::new(),
            stats: ReorderStats::default(),
        }
    }

    /// Offers one arrival. Items whose watermark has passed are appended
    /// to `out` in canonical order.
    pub fn push(&mut self, item: T, out: &mut Vec<T>) -> PushOutcome {
        let key = item.key();
        if let Some(last) = self.last_released {
            if key <= last {
                // Either way the item is dropped; the ring only decides
                // which counter it lands in, so a ring miss on a true
                // duplicate (evicted entry) misclassifies a count, never
                // corrupts the released sequence.
                return if self.recent.contains(&key) {
                    self.stats.duplicates += 1;
                    PushOutcome::Duplicate
                } else {
                    self.stats.late_dropped += 1;
                    PushOutcome::LateDropped
                };
            }
        }
        match self.buf.binary_search_by(|x| x.key().cmp(&key)) {
            Ok(pos) => {
                if self.buf.get(pos).is_some_and(|held| held.identical(&item)) {
                    self.stats.duplicates += 1;
                    PushOutcome::Duplicate
                } else {
                    self.stats.conflicts += 1;
                    PushOutcome::Conflict
                }
            }
            Err(pos) => {
                let reordered = self.max_ts.is_some_and(|m| key.timestamp < m);
                self.stats.accepted += 1;
                if reordered {
                    self.stats.reordered += 1;
                }
                self.buf.insert(pos, item);
                self.max_ts = Some(self.max_ts.map_or(key.timestamp, |m| m.max(key.timestamp)));
                self.drain_ready(out);
                PushOutcome::Accepted { reordered }
            }
        }
    }

    /// Releases everything still buffered (end of stream).
    pub fn flush_into(&mut self, out: &mut Vec<T>) {
        while let Some(item) = self.buf.pop_front() {
            self.release(item, out);
        }
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// The current release watermark in event-time seconds (maximum
    /// observed timestamp minus the horizon, saturating at `i64::MIN`);
    /// `None` before any arrival. Items at or before the watermark are
    /// released by the next drain.
    pub fn watermark(&self) -> Option<i64> {
        self.max_ts.map(|m| m.saturating_sub(self.horizon))
    }

    fn drain_ready(&mut self, out: &mut Vec<T>) {
        if let Some(w) = self.watermark() {
            while self.buf.front().is_some_and(|f| f.key().timestamp <= w) {
                let Some(item) = self.buf.pop_front() else { break };
                self.release(item, out);
            }
        }
        while self.buf.len() > self.capacity {
            let Some(item) = self.buf.pop_front() else { break };
            self.stats.forced_releases += 1;
            self.release(item, out);
        }
    }

    /// Appends the buffer's full mutable state to a checkpoint writer.
    /// Items are serialised through `put_item` because the element type is
    /// the caller's (the engine wraps stream items with arrival stamps the
    /// buffer knows nothing about). `horizon` and `capacity` are config,
    /// not state: the restoring side reconstructs them and
    /// [`ReorderBuffer::read_state_with`] only fills in what evolved.
    pub fn write_state_with(
        &self,
        w: &mut SnapWriter,
        mut put_item: impl FnMut(&mut SnapWriter, &T),
    ) {
        w.put_usize(self.buf.len());
        for item in &self.buf {
            put_item(w, item);
        }
        w.put_opt_i64(self.max_ts);
        match self.last_released {
            None => w.put_bool(false),
            Some(k) => {
                w.put_bool(true);
                w.put_i64(k.timestamp);
                w.put_u8(k.rank);
            }
        }
        w.put_usize(self.recent.len());
        for k in &self.recent {
            w.put_i64(k.timestamp);
            w.put_u8(k.rank);
        }
        w.put_u64(self.stats.accepted);
        w.put_u64(self.stats.reordered);
        w.put_u64(self.stats.duplicates);
        w.put_u64(self.stats.late_dropped);
        w.put_u64(self.stats.conflicts);
        w.put_u64(self.stats.forced_releases);
    }

    /// Restores state written by [`ReorderBuffer::write_state_with`] into
    /// a freshly constructed buffer (same horizon/capacity). Errors — and
    /// leaves `self` untouched in an unspecified but valid state — on any
    /// structural mismatch; never panics.
    pub fn read_state_with(
        &mut self,
        r: &mut SnapReader<'_>,
        mut get_item: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        let n = r.get_len(1)?;
        if n > self.capacity {
            return Err(SnapError::Corrupt("reorder buffer larger than its capacity"));
        }
        let mut buf = VecDeque::with_capacity(n);
        for _ in 0..n {
            buf.push_back(get_item(r)?);
        }
        if !buf.iter().zip(buf.iter().skip(1)).all(|(a, b)| a.key() <= b.key()) {
            return Err(SnapError::Corrupt("reorder buffer items out of order"));
        }
        let max_ts = r.get_opt_i64()?;
        let last_released = if r.get_bool()? {
            Some(SeqKey { timestamp: r.get_i64()?, rank: r.get_u8()? })
        } else {
            None
        };
        let n_recent = r.get_len(9)?;
        if n_recent > self.capacity {
            return Err(SnapError::Corrupt("reorder recent-ring larger than its capacity"));
        }
        let mut recent = VecDeque::with_capacity(n_recent);
        for _ in 0..n_recent {
            recent.push_back(SeqKey { timestamp: r.get_i64()?, rank: r.get_u8()? });
        }
        let stats = ReorderStats {
            accepted: r.get_u64()?,
            reordered: r.get_u64()?,
            duplicates: r.get_u64()?,
            late_dropped: r.get_u64()?,
            conflicts: r.get_u64()?,
            forced_releases: r.get_u64()?,
        };
        self.buf = buf;
        self.max_ts = max_ts;
        self.last_released = last_released;
        self.recent = recent;
        self.stats = stats;
        Ok(())
    }

    fn release(&mut self, item: T, out: &mut Vec<T>) {
        let key = item.key();
        self.last_released = Some(key);
        self.recent.push_back(key);
        while self.recent.len() > self.capacity {
            self.recent.pop_front();
        }
        out.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Item(i64, u64);

    impl Sequenced for Item {
        fn key(&self) -> SeqKey {
            SeqKey { timestamp: self.0, rank: 1 }
        }
        fn identical(&self, other: &Self) -> bool {
            self == other
        }
    }

    fn run(buffer: &mut ReorderBuffer<Item>, arrivals: &[Item]) -> Vec<Item> {
        let mut out = Vec::new();
        for a in arrivals {
            buffer.push(a.clone(), &mut out);
        }
        buffer.flush_into(&mut out);
        out
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut b = ReorderBuffer::new(120, 16);
        let items: Vec<Item> = (0..10).map(|i| Item(i * 60, i as u64)).collect();
        let out = run(&mut b, &items);
        assert_eq!(out, items);
        assert_eq!(b.stats().reordered, 0);
        assert_eq!(b.stats().late_dropped, 0);
    }

    #[test]
    fn within_horizon_swap_is_resequenced() {
        let mut b = ReorderBuffer::new(120, 16);
        let out = run(&mut b, &[Item(0, 0), Item(120, 2), Item(60, 1), Item(180, 3)]);
        assert_eq!(out, vec![Item(0, 0), Item(60, 1), Item(120, 2), Item(180, 3)]);
        assert_eq!(b.stats().reordered, 1);
    }

    #[test]
    fn duplicate_in_buffer_and_after_release_both_drop() {
        let mut b = ReorderBuffer::new(60, 16);
        let mut out = Vec::new();
        assert_eq!(b.push(Item(0, 7), &mut out), PushOutcome::Accepted { reordered: false });
        assert_eq!(b.push(Item(0, 7), &mut out), PushOutcome::Duplicate);
        // Advance far enough to release t=0, then duplicate it again.
        b.push(Item(120, 8), &mut out);
        assert_eq!(out, vec![Item(0, 7)]);
        assert_eq!(b.push(Item(0, 7), &mut out), PushOutcome::Duplicate);
        assert_eq!(b.stats().duplicates, 2);
    }

    #[test]
    fn beyond_horizon_arrival_is_late_dropped() {
        let mut b = ReorderBuffer::new(60, 16);
        let mut out = Vec::new();
        b.push(Item(0, 0), &mut out);
        b.push(Item(120, 1), &mut out); // watermark 60 → releases t=0
        b.push(Item(240, 2), &mut out); // watermark 180 → releases t=120
        assert_eq!(out.len(), 2);
        // t=60 was never seen; t=120 is already released downstream, so
        // re-sequencing it is impossible → counted and skipped.
        assert_eq!(b.push(Item(60, 99), &mut out), PushOutcome::LateDropped);
        assert_eq!(b.stats().late_dropped, 1);
        // Released sequence is unaffected.
        b.flush_into(&mut out);
        assert_eq!(out, vec![Item(0, 0), Item(120, 1), Item(240, 2)]);
    }

    #[test]
    fn straggler_after_watermark_but_before_any_later_release_is_recovered() {
        // Watermark passing an item's time is not by itself fatal: as long
        // as nothing *later* was released, the straggler still slots in.
        let mut b = ReorderBuffer::new(60, 16);
        let mut out = Vec::new();
        b.push(Item(0, 0), &mut out);
        b.push(Item(300, 1), &mut out); // watermark 240 → releases t=0 only
        assert_eq!(
            b.push(Item(120, 2), &mut out),
            PushOutcome::Accepted { reordered: true },
            "t=120 is past the watermark but after the last release"
        );
        b.flush_into(&mut out);
        assert_eq!(out, vec![Item(0, 0), Item(120, 2), Item(300, 1)]);
    }

    #[test]
    fn conflicting_payload_is_rejected_and_original_wins() {
        let mut b = ReorderBuffer::new(600, 16);
        let mut out = Vec::new();
        b.push(Item(0, 1), &mut out);
        assert_eq!(b.push(Item(0, 2), &mut out), PushOutcome::Conflict);
        b.flush_into(&mut out);
        assert_eq!(out, vec![Item(0, 1)]);
        assert_eq!(b.stats().conflicts, 1);
    }

    #[test]
    fn capacity_forces_oldest_out() {
        let mut b = ReorderBuffer::new(i64::MAX / 2, 4);
        let items: Vec<Item> = (0..10).map(|i| Item(i, i as u64)).collect();
        let out = run(&mut b, &items);
        // Huge horizon means nothing releases by watermark; capacity must.
        assert_eq!(out, items, "in-order input stays in order even when forced");
        assert_eq!(b.stats().forced_releases, 6);
    }

    #[test]
    fn maintenance_rank_sorts_before_record_at_equal_time() {
        #[derive(Debug, Clone, PartialEq)]
        struct Ranked(i64, u8);
        impl Sequenced for Ranked {
            fn key(&self) -> SeqKey {
                SeqKey { timestamp: self.0, rank: self.1 }
            }
            fn identical(&self, other: &Self) -> bool {
                self == other
            }
        }
        let mut b = ReorderBuffer::new(60, 16);
        let mut out = Vec::new();
        b.push(Ranked(60, 1), &mut out); // record first on the wire
        b.push(Ranked(60, 0), &mut out); // maintenance same second
        b.flush_into(&mut out);
        assert_eq!(out, vec![Ranked(60, 0), Ranked(60, 1)]);
    }
}
