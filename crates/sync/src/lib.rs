//! # ulp-sync — the hardware synchronizer
//!
//! This crate models the light-weight hardware synchronizer that is the
//! core contribution of Dogan et al. (DATE 2013, Section IV-A). Together
//! with the `SINC`/`SDEC` instruction-set extension it implements check-in
//! and check-out points around data-dependent code sections, so that cores
//! leaving a section wait for their peers and resume in lockstep.
//!
//! ## Protocol
//!
//! For every synchronization point, one data-memory word at
//! `RSYNC + index` holds:
//!
//! ```text
//! bit 15..8: core counter  — cores currently inside the section
//! bit  7..0: identity flags — one bit per core that checked in
//! ```
//!
//! * **Check-in** (`SINC`): set the core's identity flag, increment the
//!   counter.
//! * **Check-out** (`SDEC`): decrement the counter, then sleep until the
//!   counter reaches zero.
//! * When a check-out drives the counter to zero, the synchronizer wakes
//!   every flagged core and clears the word, and execution continues in
//!   lockstep.
//!
//! Requests from several cores for the *same* point in the same cycle are
//! **merged** and executed in a single two-cycle read-modify-write; the
//! sync word is locked against ordinary accesses for the duration (the
//! core's *lock* output, Section IV-B-c).
//!
//! ## Example
//!
//! ```
//! use ulp_mem::{BankedMemory, BankMapping};
//! use ulp_cpu::{SyncKind, SyncRequest};
//! use ulp_sync::{sync_word, Synchronizer};
//!
//! let mut dm = BankedMemory::new(1024, 4, BankMapping::Blocked);
//! let mut sync = Synchronizer::new();
//! let req = |core, kind| (core, SyncRequest { index: 0, word_addr: 64, kind });
//!
//! // Two cores check in together: one merged 2-cycle operation.
//! let ev = sync.step(&[req(0, SyncKind::CheckIn), req(1, SyncKind::CheckIn)], &mut dm);
//! assert_eq!(ev.accepted, vec![0, 1]);
//! let ev = sync.step(&[], &mut dm);
//! assert_eq!(ev.completed.len(), 2);
//! assert_eq!(sync_word::counter(dm.peek(64)), 2);
//! ```

use std::fmt;
use ulp_cpu::{SyncKind, SyncRequest};
use ulp_mem::BankedMemory;

#[cfg(test)]
mod proptests;

/// Helpers for the layout of a synchronization word.
pub mod sync_word {
    /// Builds a sync word from identity flags and the core counter.
    pub fn make(flags: u8, counter: u8) -> u16 {
        (counter as u16) << 8 | flags as u16
    }

    /// The identity-flag byte (bit *n* set = core *n* checked in).
    pub fn flags(word: u16) -> u8 {
        (word & 0x00FF) as u8
    }

    /// The core counter (cores currently inside the section).
    pub fn counter(word: u16) -> u8 {
        (word >> 8) as u8
    }
}

/// Activity counters of the synchronizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Check-in requests received.
    pub checkin_requests: u64,
    /// Check-out requests received.
    pub checkout_requests: u64,
    /// Two-cycle read-modify-write operations performed (batches).
    pub batches: u64,
    /// Requests merged into an already-forming batch beyond the first
    /// (accesses saved by merging).
    pub merged: u64,
    /// Cores woken by barrier releases.
    pub wakeups: u64,
    /// Barrier releases (counter reached zero).
    pub releases: u64,
    /// Cycles the synchronizer was busy (drives its power share).
    pub busy_cycles: u64,
    /// Requests stalled because the synchronizer was busy or another
    /// point's batch won arbitration.
    pub stalled_requests: u64,
    /// Check-outs that found the counter already at zero (unbalanced
    /// program; clamped).
    pub underflows: u64,
}

impl SyncStats {
    /// Adds another synchronizer's counters into this one (multi-run
    /// aggregates, e.g. summing shard statistics). Kept next to the
    /// fields so a new counter cannot be forgotten here.
    pub fn merge(&mut self, other: &SyncStats) {
        self.checkin_requests += other.checkin_requests;
        self.checkout_requests += other.checkout_requests;
        self.batches += other.batches;
        self.merged += other.merged;
        self.wakeups += other.wakeups;
        self.releases += other.releases;
        self.busy_cycles += other.busy_cycles;
        self.stalled_requests += other.stalled_requests;
        self.underflows += other.underflows;
    }
}

/// Events produced by one synchronizer cycle, to be applied to the cores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncEvents {
    /// Cores whose request was accepted this cycle (they spend this cycle
    /// and the next inside the synchronizer).
    pub accepted: Vec<usize>,
    /// Cores whose operation completed at the end of this cycle, with the
    /// sleep decision (`true` = check-out must sleep and await the wake).
    pub completed: Vec<(usize, bool)>,
    /// Sleeping cores to wake (barrier released). Disjoint from
    /// `completed`.
    pub wake: Vec<usize>,
}

impl SyncEvents {
    /// True when nothing happened this cycle.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty() && self.completed.is_empty() && self.wake.is_empty()
    }
}

/// One in-flight merged read-modify-write. The merged batch itself lives
/// in [`Synchronizer::batch`], reused across operations.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    word_addr: u16,
    /// Remaining cycles (2 at accept; completes when it reaches 0).
    cycles_left: u8,
    /// Word value latched at the read cycle.
    latched: u16,
}

/// The complete mutable state of one [`Synchronizer`], exported by
/// [`Synchronizer::save`] and re-applied by
/// [`Synchronizer::load_snapshot`]. The merged batch *is* state (it
/// persists across the two-cycle read-modify-write and drives the commit),
/// so it is captured alongside the in-flight operation and the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncSnapshot {
    /// In-flight RMW as `(word_addr, cycles_left, latched)`, if any.
    pub inflight: Option<(u16, u8, u16)>,
    /// The merged `(core, check_in)` batch of the in-flight operation
    /// (`check_in` is `true` for `SINC`, `false` for `SDEC`).
    pub batch: Vec<(usize, bool)>,
    /// Aggregate activity counters.
    pub stats: SyncStats,
}

/// The hardware synchronizer (Fig. 1 of the paper).
///
/// Driven by the platform once per cycle via [`Synchronizer::step`] (or
/// the allocation-free [`Synchronizer::step_into`]); see the crate-level
/// documentation for the protocol.
#[derive(Debug, Clone, Default)]
pub struct Synchronizer {
    inflight: Option<InFlight>,
    /// The merged `(core, kind)` batch of the in-flight operation; kept on
    /// the synchronizer so its allocation is reused across operations.
    batch: Vec<(usize, SyncKind)>,
    stats: SyncStats,
}

impl fmt::Display for Synchronizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inflight {
            Some(op) => write!(
                f,
                "synchronizer busy: word {:#06x}, {} merged, {} cycles left",
                op.word_addr,
                self.batch.len(),
                op.cycles_left
            ),
            None => write!(f, "synchronizer idle"),
        }
    }
}

impl Synchronizer {
    /// Creates an idle synchronizer.
    pub fn new() -> Synchronizer {
        Synchronizer::default()
    }

    /// Whether a read-modify-write is in flight.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// Returns the synchronizer to its idle reset state (no operation in
    /// flight, statistics cleared), keeping the batch allocation.
    pub fn reset(&mut self) {
        self.inflight = None;
        self.batch.clear();
        self.stats = SyncStats::default();
    }

    /// Exports the synchronizer's complete mutable state for
    /// checkpointing — including a read-modify-write caught mid-flight.
    pub fn save(&self) -> SyncSnapshot {
        SyncSnapshot {
            inflight: self
                .inflight
                .map(|op| (op.word_addr, op.cycles_left, op.latched)),
            batch: self
                .batch
                .iter()
                .map(|&(core, kind)| (core, kind == SyncKind::CheckIn))
                .collect(),
            stats: self.stats,
        }
    }

    /// Re-applies a snapshot taken by [`Synchronizer::save`], reusing the
    /// batch allocation.
    pub fn load_snapshot(&mut self, snapshot: &SyncSnapshot) {
        self.inflight = snapshot
            .inflight
            .map(|(word_addr, cycles_left, latched)| InFlight {
                word_addr,
                cycles_left,
                latched,
            });
        self.batch.clear();
        self.batch
            .extend(snapshot.batch.iter().map(|&(core, check_in)| {
                (
                    core,
                    if check_in {
                        SyncKind::CheckIn
                    } else {
                        SyncKind::CheckOut
                    },
                )
            }));
        self.stats = snapshot.stats;
    }

    /// Advances the synchronizer by one cycle, allocating fresh event
    /// buffers. Convenience wrapper around [`Synchronizer::step_into`].
    pub fn step(
        &mut self,
        requests: &[(usize, SyncRequest)],
        dmem: &mut BankedMemory,
    ) -> SyncEvents {
        let mut events = SyncEvents::default();
        self.step_into(requests, dmem, &mut events);
        events
    }

    /// Advances the synchronizer by one cycle, writing the cycle's events
    /// into `events` (cleared first) so a caller that reuses the buffer
    /// runs allocation-free in steady state.
    ///
    /// `requests` holds the `SINC`/`SDEC` requests presented by cores this
    /// cycle (at most one per core). Cores in `accepted` consumed the cycle
    /// inside the synchronizer; requesters not accepted must record a sync
    /// stall. Completion events are edge-triggered at the end of the cycle.
    pub fn step_into(
        &mut self,
        requests: &[(usize, SyncRequest)],
        dmem: &mut BankedMemory,
        events: &mut SyncEvents,
    ) {
        events.accepted.clear();
        events.completed.clear();
        events.wake.clear();

        if let Some(op) = &mut self.inflight {
            // Busy: all new requesters stall.
            self.stats.stalled_requests += requests.len() as u64;
            self.stats.busy_cycles += 1;
            op.cycles_left -= 1;
            if op.cycles_left == 0 {
                let op = self.inflight.take().expect("checked above");
                self.commit(op, dmem, events);
            }
            return;
        }

        if requests.is_empty() {
            return;
        }

        // Idle: arbitrate. The point requested by the lowest-numbered core
        // wins; every same-cycle request for the same word merges into the
        // batch. Others stall and retry.
        let winner_addr = requests
            .iter()
            .min_by_key(|(core, _)| *core)
            .expect("non-empty")
            .1
            .word_addr;
        self.batch.clear();
        for (core, req) in requests {
            if req.word_addr == winner_addr {
                match req.kind {
                    SyncKind::CheckIn => self.stats.checkin_requests += 1,
                    SyncKind::CheckOut => self.stats.checkout_requests += 1,
                }
                self.batch.push((*core, req.kind));
            } else {
                self.stats.stalled_requests += 1;
            }
        }
        self.batch.sort_unstable_by_key(|(core, _)| *core);
        events
            .accepted
            .extend(self.batch.iter().map(|(core, _)| *core));
        self.stats.batches += 1;
        self.stats.merged += (self.batch.len() - 1) as u64;
        self.stats.busy_cycles += 1;

        // Read cycle: latch the word and lock it against ordinary traffic
        // (the cores' lock outputs are asserted).
        dmem.lock_word(winner_addr);
        let latched = dmem.read(winner_addr);
        self.inflight = Some(InFlight {
            word_addr: winner_addr,
            cycles_left: 1,
            latched,
        });
    }

    /// Write cycle: applies the merged update and produces completions.
    fn commit(&mut self, op: InFlight, dmem: &mut BankedMemory, events: &mut SyncEvents) {
        let mut flags = sync_word::flags(op.latched);
        let mut counter = sync_word::counter(op.latched) as i32;
        let mut any_checkout = false;
        for (core, kind) in &self.batch {
            match kind {
                SyncKind::CheckIn => {
                    flags |= 1u8 << (core % 8);
                    counter += 1;
                }
                SyncKind::CheckOut => {
                    any_checkout = true;
                    if counter == 0 {
                        self.stats.underflows += 1;
                    } else {
                        counter -= 1;
                    }
                }
            }
        }

        if any_checkout && counter == 0 {
            // Barrier released: wake every flagged core that is not
            // completing right now, clear the word.
            self.stats.releases += 1;
            for bit in 0..8 {
                let core = bit as usize;
                if flags & (1 << bit) != 0 && !self.batch.iter().any(|(c, _)| *c == core) {
                    events.wake.push(core);
                    self.stats.wakeups += 1;
                }
            }
            dmem.write(op.word_addr, 0);
            events
                .completed
                .extend(self.batch.iter().map(|(core, _)| (*core, false)));
        } else {
            dmem.write(op.word_addr, sync_word::make(flags, counter.min(255) as u8));
            events.completed.extend(
                self.batch
                    .iter()
                    .map(|(core, kind)| (*core, matches!(kind, SyncKind::CheckOut))),
            );
        }
        self.batch.clear();
        dmem.unlock_word(op.word_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_mem::BankMapping;

    fn dm() -> BankedMemory {
        BankedMemory::new(1024, 4, BankMapping::Blocked)
    }

    fn checkin(core: usize, addr: u16) -> (usize, SyncRequest) {
        (
            core,
            SyncRequest {
                index: (addr & 0xFF) as u8,
                word_addr: addr,
                kind: SyncKind::CheckIn,
            },
        )
    }

    fn checkout(core: usize, addr: u16) -> (usize, SyncRequest) {
        (
            core,
            SyncRequest {
                index: (addr & 0xFF) as u8,
                word_addr: addr,
                kind: SyncKind::CheckOut,
            },
        )
    }

    #[test]
    fn word_layout() {
        let w = sync_word::make(0b1010_0001, 3);
        assert_eq!(sync_word::flags(w), 0b1010_0001);
        assert_eq!(sync_word::counter(w), 3);
    }

    #[test]
    fn merged_checkin_takes_two_cycles() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        let ev = s.step(&[checkin(0, 100), checkin(1, 100), checkin(5, 100)], &mut m);
        assert_eq!(ev.accepted, vec![0, 1, 5]);
        assert!(ev.completed.is_empty());
        assert!(s.is_busy());
        assert!(m.is_locked(100), "word locked during RMW");

        let ev = s.step(&[], &mut m);
        assert_eq!(ev.completed, vec![(0, false), (1, false), (5, false)]);
        assert!(!s.is_busy());
        assert!(!m.is_locked(100));
        assert_eq!(m.peek(100), sync_word::make(0b0010_0011, 3));
        assert_eq!(s.stats().merged, 2);
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn checkout_sleeps_until_last() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        // Three cores in the section.
        s.step(&[checkin(0, 64), checkin(1, 64), checkin(2, 64)], &mut m);
        s.step(&[], &mut m);

        // Core 1 checks out first: must sleep.
        s.step(&[checkout(1, 64)], &mut m);
        let ev = s.step(&[], &mut m);
        assert_eq!(ev.completed, vec![(1, true)]);
        assert_eq!(sync_word::counter(m.peek(64)), 2);
        assert_eq!(
            sync_word::flags(m.peek(64)),
            0b0111,
            "flags persist until release"
        );

        // Cores 0 and 2 check out together: barrier releases, core 1 wakes.
        s.step(&[checkout(0, 64), checkout(2, 64)], &mut m);
        let ev = s.step(&[], &mut m);
        assert_eq!(ev.completed, vec![(0, false), (2, false)]);
        assert_eq!(ev.wake, vec![1]);
        assert_eq!(m.peek(64), 0, "word cleared at release");
        assert_eq!(s.stats().releases, 1);
        assert_eq!(s.stats().wakeups, 1);
    }

    #[test]
    fn lone_core_passes_straight_through() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        s.step(&[checkin(3, 10)], &mut m);
        s.step(&[], &mut m);
        s.step(&[checkout(3, 10)], &mut m);
        let ev = s.step(&[], &mut m);
        assert_eq!(ev.completed, vec![(3, false)], "no sleep when last out");
        assert!(ev.wake.is_empty());
        assert_eq!(m.peek(10), 0);
    }

    #[test]
    fn mixed_batch_checkin_and_checkout() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        s.step(&[checkin(0, 20)], &mut m);
        s.step(&[], &mut m);
        // Core 0 leaves while core 1 enters, same cycle, same point.
        s.step(&[checkout(0, 20), checkin(1, 20)], &mut m);
        let ev = s.step(&[], &mut m);
        // Counter: 1 - 1 + 1 = 1 -> core 0 sleeps (core 1 still inside).
        assert!(ev.completed.contains(&(0, true)));
        assert!(ev.completed.contains(&(1, false)));
        assert_eq!(sync_word::counter(m.peek(20)), 1);

        // Core 1 leaves: releases core 0.
        s.step(&[checkout(1, 20)], &mut m);
        let ev = s.step(&[], &mut m);
        assert_eq!(ev.wake, vec![0]);
    }

    #[test]
    fn busy_synchronizer_stalls_new_requests() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        let ev = s.step(&[checkin(0, 30)], &mut m);
        assert_eq!(ev.accepted, vec![0]);
        // Arrives during the write cycle: must stall and retry.
        let ev = s.step(&[checkin(1, 30)], &mut m);
        assert!(ev.accepted.is_empty());
        assert_eq!(ev.completed, vec![(0, false)]);
        assert_eq!(s.stats().stalled_requests, 1);
        // Retry is accepted now.
        let ev = s.step(&[checkin(1, 30)], &mut m);
        assert_eq!(ev.accepted, vec![1]);
    }

    #[test]
    fn distinct_points_serialize() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        let ev = s.step(&[checkin(0, 40), checkin(1, 41)], &mut m);
        assert_eq!(ev.accepted, vec![0], "lowest core's point wins");
        assert_eq!(s.stats().stalled_requests, 1);
        s.step(&[], &mut m);
        let ev = s.step(&[checkin(1, 41)], &mut m);
        assert_eq!(ev.accepted, vec![1]);
    }

    #[test]
    fn underflow_is_clamped_and_counted() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        s.step(&[checkout(0, 50)], &mut m);
        let ev = s.step(&[], &mut m);
        // Counter was already zero: release semantics, no sleep.
        assert_eq!(ev.completed, vec![(0, false)]);
        assert_eq!(s.stats().underflows, 1);
        assert_eq!(m.peek(50), 0);
    }

    #[test]
    fn dm_traffic_is_one_read_one_write_per_batch() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        s.step(
            &[
                checkin(0, 60),
                checkin(1, 60),
                checkin(2, 60),
                checkin(3, 60),
            ],
            &mut m,
        );
        s.step(&[], &mut m);
        assert_eq!(m.stats().bank_reads, 1);
        assert_eq!(m.stats().bank_writes, 1);
    }

    #[test]
    fn full_eight_core_barrier() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        let ins: Vec<_> = (0..8).map(|c| checkin(c, 70)).collect();
        s.step(&ins, &mut m);
        s.step(&[], &mut m);
        assert_eq!(sync_word::counter(m.peek(70)), 8);
        assert_eq!(sync_word::flags(m.peek(70)), 0xFF);

        // Seven check out one by one and sleep.
        for c in 0..7 {
            s.step(&[checkout(c, 70)], &mut m);
            let ev = s.step(&[], &mut m);
            assert_eq!(ev.completed, vec![(c, true)]);
        }
        // The eighth releases everyone.
        s.step(&[checkout(7, 70)], &mut m);
        let ev = s.step(&[], &mut m);
        assert_eq!(ev.completed, vec![(7, false)]);
        assert_eq!(ev.wake, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(m.peek(70), 0);
    }

    #[test]
    fn snapshot_round_trip_mid_rmw() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        // Catch the synchronizer between the read and write cycles of a
        // merged check-in.
        s.step(&[checkin(0, 90), checkin(2, 90)], &mut m);
        assert!(s.is_busy());
        let snap = s.save();
        assert_eq!(snap.batch, vec![(0, true), (2, true)]);

        let mut restored = Synchronizer::new();
        restored.load_snapshot(&snap);
        assert!(restored.is_busy());
        assert_eq!(restored.stats(), s.stats());

        // Both finish the write cycle identically.
        let ev_orig = s.step(&[], &mut m);
        let mut m2 = dm();
        m2.lock_word(90); // the word lock is memory state, restored separately
        let ev_rest = restored.step(&[], &mut m2);
        assert_eq!(ev_orig, ev_rest);
        assert_eq!(m.peek(90), m2.peek(90));
        assert_eq!(restored.save(), s.save());
    }

    #[test]
    fn display_states() {
        let mut m = dm();
        let mut s = Synchronizer::new();
        assert_eq!(s.to_string(), "synchronizer idle");
        s.step(&[checkin(0, 80)], &mut m);
        assert!(s.to_string().contains("busy"));
    }
}
