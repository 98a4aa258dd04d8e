//! Property-based tests of the crossbar arbitration invariants.

use crate::{
    Access, BankMapping, BankedMemory, DXbar, DXbarOutcome, DXbarStats, DmGrant, DmRequest, IXbar,
    IXbarStats, ImGrant, ImRequest, MemStats, ServingPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn dm() -> BankedMemory {
    BankedMemory::new(4096, 16, BankMapping::Blocked)
}

/// One D-Xbar request per core with bounded fields.
fn dm_requests() -> impl Strategy<Value = Vec<DmRequest>> {
    prop::collection::btree_set(0usize..8, 1..=8).prop_flat_map(|cores| {
        let cores: Vec<usize> = cores.into_iter().collect();
        let n = cores.len();
        (
            Just(cores),
            prop::collection::vec(0u16..64, n),      // pcs
            prop::collection::vec(0u16..4096, n),    // addrs
            prop::collection::vec(any::<bool>(), n), // write?
            prop::collection::vec(any::<u16>(), n),  // write values
        )
            .prop_map(|(cores, pcs, addrs, writes, values)| {
                cores
                    .into_iter()
                    .zip(pcs)
                    .zip(addrs)
                    .zip(writes)
                    .zip(values)
                    .map(|((((core, pc), addr), write), value)| DmRequest {
                        core,
                        pc,
                        addr,
                        access: if write {
                            Access::Write(value)
                        } else {
                            Access::Read
                        },
                    })
                    .collect()
            })
    })
}

fn granted_core(g: &DmGrant) -> usize {
    match g {
        DmGrant::Complete { core, .. } | DmGrant::Hold { core, .. } => *core,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-cycle arbitration: every grant corresponds to exactly one
    /// request, no core is granted twice, and reads broadcast consistent
    /// data.
    #[test]
    fn one_cycle_grants_are_sound(reqs in dm_requests(), sync_aware in any::<bool>()) {
        let mut mem = dm();
        for a in 0..4096u16 {
            mem.poke(a, a.wrapping_mul(7));
        }
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mut xbar = DXbar::new(16, policy);
        let out = xbar.arbitrate(&reqs, &mut mem);

        let requesters: BTreeSet<usize> = reqs.iter().map(|r| r.core).collect();
        let mut granted = BTreeSet::new();
        for g in &out.grants {
            let core = granted_core(g);
            prop_assert!(requesters.contains(&core), "grant without request");
            prop_assert!(granted.insert(core), "double grant for core {}", core);
            // Reads return the memory content of the requested address.
            let req = reqs.iter().find(|r| r.core == core).expect("requested");
            if req.access == Access::Read {
                let data = match g {
                    DmGrant::Complete { data, .. } | DmGrant::Hold { data, .. } => *data,
                };
                prop_assert_eq!(data, Some(mem.peek(req.addr)), "read data");
            }
        }
        // Nothing is released on the first cycle (nobody was held before).
        prop_assert!(out.releases.is_empty());
        // Baseline never holds.
        if !sync_aware {
            let all_complete = out
                .grants
                .iter()
                .all(|g| matches!(g, DmGrant::Complete { .. }));
            prop_assert!(all_complete, "baseline held a core");
        }
        // Per-bank exclusivity: at most one distinct address group served
        // per bank per cycle.
        let mut served_by_bank: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); 16];
        for g in &out.grants {
            let req = reqs.iter().find(|r| r.core == granted_core(g)).expect("requested");
            served_by_bank[mem.bank_of(req.addr)].insert(req.addr);
        }
        for (bank, addrs) in served_by_bank.iter().enumerate() {
            prop_assert!(addrs.len() <= 1, "bank {} served {:?}", bank, addrs);
        }
    }

    /// Liveness and conservation over repeated cycles: re-presenting the
    /// unserved requests eventually serves every core exactly once, and
    /// every held core is eventually released.
    #[test]
    fn repeated_arbitration_serves_everyone(reqs in dm_requests(), sync_aware in any::<bool>()) {
        let mut mem = dm();
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mut xbar = DXbar::new(16, policy);
        let mut pending = reqs.clone();
        let mut completed: BTreeSet<usize> = BTreeSet::new();
        let mut held: BTreeSet<usize> = BTreeSet::new();
        for _cycle in 0..64 {
            if pending.is_empty() && held.is_empty() {
                break;
            }
            let out = xbar.arbitrate(&pending, &mut mem);
            for g in &out.grants {
                let core = granted_core(g);
                pending.retain(|r| r.core != core);
                match g {
                    DmGrant::Complete { .. } => {
                        prop_assert!(completed.insert(core), "served twice");
                    }
                    DmGrant::Hold { .. } => {
                        prop_assert!(held.insert(core), "held twice");
                    }
                }
            }
            for core in &out.releases {
                prop_assert!(held.remove(core), "release without hold");
                prop_assert!(completed.insert(*core), "served twice via release");
            }
        }
        prop_assert!(pending.is_empty(), "starved requests: {:?}", pending);
        prop_assert!(held.is_empty(), "cores stuck in hold: {:?}", held);
        prop_assert_eq!(completed.len(), reqs.len());
    }

    /// The I-Xbar serves every fetch exactly once across repeated cycles,
    /// and same-address fetches always travel together (broadcast).
    #[test]
    fn ixbar_broadcast_and_liveness(
        addrs in prop::collection::vec(0u16..1024, 1..=8),
    ) {
        let mut mem = BankedMemory::new(1024, 8, BankMapping::Blocked);
        let mut xbar = IXbar::new(8);
        let mut pending: Vec<ImRequest> = addrs
            .iter()
            .enumerate()
            .map(|(core, &addr)| ImRequest { core, addr })
            .collect();
        let mut served: BTreeSet<usize> = BTreeSet::new();
        for _cycle in 0..16 {
            if pending.is_empty() {
                break;
            }
            let grants = xbar.arbitrate(&pending, &mut mem);
            // All same-address requests of a served address are granted in
            // the same cycle.
            let granted_addrs: BTreeSet<u16> = grants
                .iter()
                .map(|g| pending.iter().find(|r| r.core == g.core).expect("req").addr)
                .collect();
            for addr in &granted_addrs {
                let waiting = pending.iter().filter(|r| r.addr == *addr).count();
                let got = grants
                    .iter()
                    .filter(|g| {
                        pending.iter().any(|r| r.core == g.core && r.addr == *addr)
                    })
                    .count();
                prop_assert_eq!(waiting, got, "partial broadcast at {}", addr);
            }
            for g in &grants {
                prop_assert!(served.insert(g.core), "double fetch");
                pending.retain(|r| r.core != g.core);
            }
        }
        prop_assert!(pending.is_empty(), "starved fetches");
        prop_assert_eq!(served.len(), addrs.len());
    }
}

/// Memory geometries for the reference comparison: both mappings, power-
/// of-two and other bank sizes, the paper's 48K-word IM in 8 banks of
/// 6144 words and its 32K-word DM in 16 banks, one bank, and a memory
/// spanning the whole 16-bit address space.
const GEOMETRIES: [(usize, usize); 7] = [
    (48 * 1024, 8),
    (32 * 1024, 16),
    (1000, 5),
    (96, 6),
    (7, 7),
    (4096, 1),
    (65536, 4),
];

/// The plain address arithmetic the reciprocal mapping must reproduce.
fn ref_bank(addr: u16, words: usize, banks: usize, mapping: BankMapping) -> usize {
    let a = addr as usize % words;
    match mapping {
        BankMapping::Blocked => a / (words / banks),
        BankMapping::Interleaved => a % banks,
    }
}

/// Expected physical counters of a memory: reads, writes, broadcast
/// savings and per-bank accesses.
#[derive(Debug, PartialEq, Eq)]
struct RefCounters {
    stats: MemStats,
    per_bank: Vec<u64>,
}

/// The crossbar arbitration restated the plain way — modulo and division
/// for the mapping and the rotating priority, one filtered pass per
/// question per bank — as the reference the optimized arbiters must match.
struct RefXbar {
    words: usize,
    banks: usize,
    mapping: BankMapping,
    rr: Vec<usize>,
    held_pc: Vec<Option<u16>>,
    mem: RefCounters,
}

impl RefXbar {
    fn new(words: usize, banks: usize, mapping: BankMapping) -> RefXbar {
        RefXbar {
            words,
            banks,
            mapping,
            rr: vec![0; banks],
            held_pc: Vec::new(),
            mem: RefCounters {
                stats: MemStats::default(),
                per_bank: vec![0; banks],
            },
        }
    }

    fn bank(&self, addr: u16) -> usize {
        ref_bank(addr, self.words, self.banks, self.mapping)
    }

    fn access(&mut self, bank: usize, read: bool, requesters: usize) {
        if read {
            self.mem.stats.bank_reads += 1;
            self.mem.stats.broadcast_extra += requesters as u64 - 1;
        } else {
            self.mem.stats.bank_writes += 1;
        }
        self.mem.per_bank[bank] += 1;
    }

    /// One I-Xbar cycle: grants in ascending bank order, request order
    /// within a bank.
    fn fetch(&mut self, reqs: &[ImRequest], stats: &mut IXbarStats, image: &[u16]) -> Vec<ImGrant> {
        let mut grants = Vec::new();
        stats.requests += reqs.len() as u64;
        if reqs.is_empty() {
            return grants;
        }
        let ncores = reqs
            .iter()
            .map(|r| r.core + 1)
            .max()
            .unwrap()
            .max(self.rr.len().min(64));
        for bank in 0..self.banks {
            let in_bank: Vec<ImRequest> = reqs
                .iter()
                .copied()
                .filter(|r| self.bank(r.addr) == bank)
                .collect();
            let Some(first) = in_bank.first() else {
                continue;
            };
            if in_bank.iter().any(|r| r.addr != first.addr) {
                stats.conflict_cycles += 1;
            }
            let ptr = self.rr[bank] % ncores;
            let winner = *in_bank
                .iter()
                .min_by_key(|r| (r.core + ncores - ptr) % ncores)
                .unwrap();
            self.rr[bank] = (winner.core + 1) % ncores;
            let group: Vec<ImRequest> = in_bank
                .iter()
                .copied()
                .filter(|r| r.addr == winner.addr)
                .collect();
            self.access(bank, true, group.len());
            let word = image[winner.addr as usize % self.words];
            grants.extend(group.iter().map(|r| ImGrant { core: r.core, word }));
            stats.grants += group.len() as u64;
            stats.transfers += group.len() as u64;
            stats.stalls += (in_bank.len() - group.len()) as u64;
        }
        grants
    }

    /// One D-Xbar cycle under `policy`, writing through to `image`.
    fn data(
        &mut self,
        reqs: &[DmRequest],
        locked: &[u16],
        policy: ServingPolicy,
        stats: &mut DXbarStats,
        image: &mut [u16],
    ) -> DXbarOutcome {
        let mut out = DXbarOutcome::default();
        stats.requests += reqs.len() as u64;
        let ncores = reqs
            .iter()
            .map(|r| r.core + 1)
            .max()
            .unwrap_or(1)
            .max(self.rr.len());
        let mut serve: Vec<(DmRequest, Option<u16>)> = Vec::new();
        for bank in 0..self.banks {
            let in_bank: Vec<DmRequest> = reqs
                .iter()
                .copied()
                .filter(|r| self.bank(r.addr) == bank)
                .collect();
            if in_bank.is_empty() {
                continue;
            }
            let eligible: Vec<DmRequest> = in_bank
                .iter()
                .copied()
                .filter(|r| !locked.contains(&r.addr))
                .collect();
            let locked_out = in_bank.len() - eligible.len();
            stats.lock_stalls += locked_out as u64;
            let Some(first) = eligible.first() else {
                stats.stalls += locked_out as u64;
                continue;
            };
            if eligible.iter().any(|r| r.addr != first.addr) {
                stats.conflict_cycles += 1;
            }
            let ptr = self.rr[bank] % ncores;
            let winner = *eligible
                .iter()
                .min_by_key(|r| (r.core + ncores - ptr) % ncores)
                .unwrap();
            self.rr[bank] = (winner.core + 1) % ncores;
            let index = winner.addr as usize % self.words;
            match winner.access {
                Access::Write(value) => {
                    self.access(bank, false, 1);
                    image[index] = value;
                    serve.push((winner, None));
                    stats.stalls += (in_bank.len() - 1 - locked_out) as u64;
                }
                Access::Read => {
                    let group: Vec<DmRequest> = eligible
                        .iter()
                        .copied()
                        .filter(|r| r.addr == winner.addr && r.access == Access::Read)
                        .collect();
                    self.access(bank, true, group.len());
                    serve.extend(group.iter().map(|r| (*r, Some(image[index]))));
                    stats.stalls += (in_bank.len() - group.len() - locked_out) as u64;
                }
            }
        }
        stats.grants += serve.len() as u64;
        stats.transfers += serve.len() as u64;
        for &(r, data) in &serve {
            let core = r.core;
            if policy == ServingPolicy::Baseline {
                out.grants.push(DmGrant::Complete { core, data });
                continue;
            }
            let peers_unserved = reqs
                .iter()
                .any(|q| q.pc == r.pc && !serve.iter().any(|(s, _)| s.core == q.core));
            if peers_unserved {
                if core >= self.held_pc.len() {
                    self.held_pc.resize(core + 1, None);
                }
                self.held_pc[core] = Some(r.pc);
                stats.holds += 1;
                out.grants.push(DmGrant::Hold { core, data });
            } else {
                for (held, pc) in self.held_pc.iter_mut().enumerate() {
                    if *pc == Some(r.pc) {
                        *pc = None;
                        stats.releases += 1;
                        out.releases.push(held);
                    }
                }
                out.grants.push(DmGrant::Complete { core, data });
            }
        }
        out
    }
}

/// Per-core request material for one cycle: which cores request, and
/// random bits per core choosing the address (mostly from a small pool,
/// so same-address groups and conflicts are common), the access, the
/// written value, the PC and whether the word is locked.
fn cycles() -> impl Strategy<Value = Vec<(u16, Vec<u32>)>> {
    prop::collection::vec(
        (any::<u16>(), prop::collection::vec(any::<u32>(), 16)),
        1..=8,
    )
}

fn request_addr(bits: u32, pool: &[u16]) -> u16 {
    if bits & 0x7 == 0 {
        (bits >> 16) as u16
    } else {
        pool[(bits >> 3) as usize % pool.len()]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The I-Xbar's grants, statistics, rotating-priority pointers and
    /// memory counters equal the reference arbiter's over random request
    /// sets, cycle after cycle.
    #[test]
    fn ixbar_matches_the_reference_arbiter(
        geometry in prop::sample::select(&GEOMETRIES[..]),
        interleaved in any::<bool>(),
        pool in prop::collection::vec(any::<u16>(), 1..=5),
        cycles in cycles(),
    ) {
        let (words, banks) = geometry;
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let mut mem = BankedMemory::new(words, banks, mapping);
        let image: Vec<u16> = (0..words).map(|a| (a as u16).wrapping_mul(31) ^ 0x5A5A).collect();
        mem.load(0, &image);
        let mut xbar = IXbar::new(banks);
        let mut reference = RefXbar::new(words, banks, mapping);
        let mut ref_stats = IXbarStats::default();
        for (mask, bits) in cycles {
            let reqs: Vec<ImRequest> = (0..16)
                .filter(|core| mask & 1 << core != 0)
                .map(|core| ImRequest { core, addr: request_addr(bits[core], &pool) })
                .collect();
            let grants = xbar.arbitrate(&reqs, &mut mem);
            let want = reference.fetch(&reqs, &mut ref_stats, &image);
            prop_assert_eq!(grants, want);
            prop_assert_eq!(xbar.stats(), &ref_stats);
            prop_assert_eq!(&xbar.save().rr, &reference.rr);
            prop_assert_eq!(mem.stats(), &reference.mem.stats);
            prop_assert_eq!(mem.per_bank_accesses(), &reference.mem.per_bank[..]);
        }
    }

    /// The D-Xbar's grants, releases, statistics, pointers, held groups
    /// and memory contents and counters equal the reference arbiter's
    /// under both serving policies, with locked words, cycle after cycle
    /// (held cores present no request until released).
    #[test]
    fn dxbar_matches_the_reference_arbiter(
        geometry in prop::sample::select(&GEOMETRIES[..]),
        interleaved in any::<bool>(),
        sync_aware in any::<bool>(),
        pool in prop::collection::vec(any::<u16>(), 1..=5),
        cycles in cycles(),
    ) {
        let (words, banks) = geometry;
        let mapping = if interleaved { BankMapping::Interleaved } else { BankMapping::Blocked };
        let policy = if sync_aware { ServingPolicy::SyncAware } else { ServingPolicy::Baseline };
        let mut mem = BankedMemory::new(words, banks, mapping);
        let mut image: Vec<u16> = (0..words).map(|a| (a as u16).wrapping_mul(7)).collect();
        mem.load(0, &image);
        let mut xbar = DXbar::new(banks, policy);
        let mut reference = RefXbar::new(words, banks, mapping);
        let mut ref_stats = DXbarStats::default();
        let mut held: BTreeSet<usize> = BTreeSet::new();
        for (mask, bits) in cycles {
            let reqs: Vec<DmRequest> = (0..16)
                .filter(|core| mask & 1 << core != 0 && !held.contains(core))
                .map(|core| {
                    let b = bits[core];
                    DmRequest {
                        core,
                        pc: (b >> 8) as u16 & 3,
                        addr: request_addr(b, &pool),
                        access: if b & 0x400 != 0 { Access::Write((b >> 16) as u16) } else { Access::Read },
                    }
                })
                .collect();
            let locked: Vec<u16> = reqs
                .iter()
                .filter(|r| bits[r.core] & 0x3800 == 0)
                .map(|r| r.addr)
                .collect();
            for &addr in &locked {
                mem.lock_word(addr);
            }
            let out = xbar.arbitrate(&reqs, &mut mem);
            let want = reference.data(&reqs, &locked, policy, &mut ref_stats, &mut image);
            for &addr in &locked {
                mem.unlock_word(addr);
            }
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(xbar.stats(), &ref_stats);
            let snapshot = xbar.save();
            prop_assert_eq!(&snapshot.rr, &reference.rr);
            prop_assert_eq!(&snapshot.held_pc, &reference.held_pc);
            prop_assert_eq!(mem.stats(), &reference.mem.stats);
            prop_assert_eq!(mem.per_bank_accesses(), &reference.mem.per_bank[..]);
            prop_assert_eq!(&mem.save().words, &image);
            for g in &out.grants {
                if let DmGrant::Hold { core, .. } = g {
                    held.insert(*core);
                }
            }
            for core in &out.releases {
                held.remove(core);
            }
        }
    }
}
