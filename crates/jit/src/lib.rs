//! # ulp-jit — the compiled hot-block execution tier
//!
//! The cycle engine in `ulp_platform` is an interpreter over predecoded
//! instruction memory. This crate adds a *translation tier* on top:
//! basic blocks whose entry PC gets hot are decoded into straight-line
//! traces of pre-resolved micro-ops ([`ulp_isa::MicroOp`]) that record,
//! per offset, the run of core-local ops ahead. When every active core
//! fetches the same PC — lockstep, the paper's premise — the engine runs
//! that whole run as one batch: per op one broadcast fetch cycle and one
//! execute cycle, without per-cycle arbitration, request buffers or
//! phase scans. Every other cycle is an ordinary interpreter cycle.
//!
//! ## Fidelity
//!
//! The tier is an execution strategy, not a different machine. A batch
//! covers only [`ulp_isa::OpClass::Pure`] micro-ops; it stops before
//!
//! * synchronization instructions (`SINC`/`SDEC`), `SLEEP` and `HALT`
//!   ([`ulp_isa::OpClass::Boundary`]) — translation stops *before* them;
//! * control flow ([`ulp_isa::OpClass::Control`]) — the terminator ends
//!   the block, the successor block is resolved at run time;
//! * data-memory accesses ([`ulp_isa::OpClass::Mem`]), which the
//!   interpreter arbitrates in the D-Xbar;
//! * any cycle where an observer hook fires — runs with observers
//!   attached never enter the compiled loop at all.
//!
//! A batch records exactly the crossbar arbitration, rotating-priority
//! updates and counters of the interpreter cycles it stands for, so
//! `SimStats`, `MemStats`, lockstep width and energy accounting stay
//! bit-identical to an interpreted run.
//!
//! ## Cache lifetime
//!
//! A [`TranslationCache`] lives on the platform and **survives
//! `Platform::reset`**: the service layer resets and reloads cached
//! platforms between jobs, and reloading the same kernel must hit the
//! existing traces instead of re-translating. Validity is keyed on a
//! fingerprint of instruction memory (cores cannot write IM; only the
//! loader backdoors can), recomputed lazily when the platform marks the
//! IM dirty. Per-run counters ([`JitStats`]) are cleared on reset; the
//! traces and hotness counters are not.

use ulp_isa::{decode, MicroOp, OpClass};
use ulp_mem::BankedMemory;

/// Which execution strategy a platform uses for `run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// The cycle-accurate interpreter (the default).
    #[default]
    Interpreted,
    /// Hot basic blocks execute as pre-decoded threaded-dispatch traces;
    /// every fidelity boundary falls back to the interpreter. Results are
    /// bit-identical to [`ExecTier::Interpreted`].
    Compiled,
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecTier::Interpreted => write!(f, "interpreted"),
            ExecTier::Compiled => write!(f, "compiled"),
        }
    }
}

impl std::str::FromStr for ExecTier {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecTier, String> {
        match s {
            "interpreted" => Ok(ExecTier::Interpreted),
            "compiled" => Ok(ExecTier::Compiled),
            other => Err(format!(
                "unknown exec tier {other:?} (expected \"interpreted\" or \"compiled\")"
            )),
        }
    }
}

/// Per-run counters of the translation tier, reported in `SimStats`.
///
/// All zero for interpreted runs. For compiled runs,
/// `compiled_cycles + fallback_cycles` equals the run's total cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Basic blocks translated during this run.
    pub translations: u64,
    /// Trace entries served from the cache (a hot block dispatched
    /// without re-translation).
    pub hits: u64,
    /// Cycles executed inside uniform lockstep batches — the only cycles
    /// the compiled tier runs without the interpreter.
    pub compiled_cycles: u64,
    /// Cycles run by the interpreter (cores not in uniform lockstep,
    /// cold code, fidelity boundaries, observer-attached cycles).
    pub fallback_cycles: u64,
}

impl JitStats {
    /// Adds another run's counters into this one (multi-run aggregates,
    /// e.g. summing shard statistics). Kept next to the fields so a new
    /// counter cannot be forgotten here.
    pub fn merge(&mut self, other: &JitStats) {
        self.translations += other.translations;
        self.hits += other.hits;
        self.compiled_cycles += other.compiled_cycles;
        self.fallback_cycles += other.fallback_cycles;
    }

    /// Fraction of cycles executed by the compiled tier (0.0 for
    /// interpreted runs).
    pub fn compiled_fraction(&self) -> f64 {
        let total = self.compiled_cycles + self.fallback_cycles;
        if total == 0 {
            return 0.0;
        }
        self.compiled_cycles as f64 / total as f64
    }
}

/// One translated basic block: a straight-line trace of pre-decoded
/// micro-ops starting at `start`.
#[derive(Debug, Clone)]
pub struct Block {
    /// Entry PC (word address).
    pub start: u16,
    /// The trace. `ops[i]` is the instruction at `start + i`; the last op
    /// is either a [`OpClass::Control`] terminator or the op before a
    /// fidelity boundary / the block-length cap.
    pub ops: Vec<MicroOp>,
    /// `pure_runs[i]` is the number of consecutive [`OpClass::Pure`]
    /// micro-ops starting at offset `i` — the length of the batch a
    /// uniform-lockstep executor may run from there without touching the
    /// crossbars or the data memory.
    pub pure_runs: Vec<u16>,
}

impl Block {
    /// Number of micro-ops in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty (never true for a cached block).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of consecutive [`OpClass::Pure`] micro-ops starting at
    /// `off` (zero when `off` is out of range or sits on a memory or
    /// control op).
    pub fn pure_run(&self, off: u16) -> usize {
        self.pure_runs.get(off as usize).copied().unwrap_or(0) as usize
    }
}

/// Longest trace a single block may carry. Generous against real basic
/// blocks (the paper kernels' longest straight-line runs are well under
/// this) while bounding translation work per entry.
const MAX_BLOCK_OPS: usize = 64;

/// Sentinel index for "no translation attempted yet at this PC".
const NOT_PRESENT: u32 = u32::MAX;

/// Sentinel index for "translation attempted, nothing trace-executable
/// here" (the entry instruction is a boundary or does not decode).
const UNTRANSLATABLE: u32 = u32::MAX - 1;

/// Flag of an index slot inside a translated block that is not an entry
/// of its own: `COVERED | idx` names the covering block. Fetch probes
/// skip these words and lookups enter the covering block mid-way, so a
/// straight-line run is translated once, not once per word.
const COVERED: u32 = 1 << 31;

/// The per-platform translation cache: PC-indexed hotness counters, the
/// translated blocks, and the per-run counters.
///
/// See the crate docs for the lifetime rules. The cache is keyed by entry
/// PC; a word inside a translated block maps to that block, and an
/// entry a later block runs through keeps its own trace.
#[derive(Debug, Clone)]
pub struct TranslationCache {
    hot_threshold: u32,
    /// Execution counter per IM word address, advanced by every uniform
    /// lookup and fetch probe at that PC; sized to the IM lazily.
    counters: Vec<u32>,
    blocks: Vec<Block>,
    /// Direct-mapped entry PC → block index (one slot per IM word, sized
    /// alongside `counters`): trace dispatch happens once per block entry
    /// per core, so it must be a plain load, not a hash lookup.
    /// [`NOT_PRESENT`] = never attempted, [`UNTRANSLATABLE`] = known-dead,
    /// [`COVERED`]` | idx` = inside block `idx`.
    index: Vec<u32>,
    /// FNV-1a fingerprint of the IM contents the cached blocks were
    /// translated from.
    fingerprint: u64,
    /// Set when the platform writes IM; the next revalidation re-hashes.
    dirty: bool,
    stats: JitStats,
}

/// Default hotness threshold: a PC must be fetched this many times before
/// its block is translated. Low enough that the paper kernels' per-sample
/// loops compile within the first sample, high enough that one-shot
/// prologue code never pays translation.
pub const DEFAULT_HOT_THRESHOLD: u32 = 8;

impl Default for TranslationCache {
    fn default() -> TranslationCache {
        TranslationCache::new(DEFAULT_HOT_THRESHOLD)
    }
}

impl TranslationCache {
    /// Creates an empty cache with the given hotness threshold
    /// (`0` or `1` = translate on first sight).
    pub fn new(hot_threshold: u32) -> TranslationCache {
        TranslationCache {
            hot_threshold,
            counters: Vec::new(),
            blocks: Vec::new(),
            index: Vec::new(),
            fingerprint: 0,
            dirty: true,
            stats: JitStats::default(),
        }
    }

    /// The configured hotness threshold.
    pub fn hot_threshold(&self) -> u32 {
        self.hot_threshold
    }

    /// Replaces the hotness threshold (applies to not-yet-hot entries).
    pub fn set_hot_threshold(&mut self, threshold: u32) {
        self.hot_threshold = threshold;
    }

    /// This run's counters so far.
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// Mutable access to the per-run counters (the engine advances
    /// `compiled_cycles` / `fallback_cycles`).
    pub fn stats_mut(&mut self) -> &mut JitStats {
        &mut self.stats
    }

    /// Number of blocks currently cached.
    pub fn blocks_cached(&self) -> usize {
        self.blocks.len()
    }

    /// Starts a new run: clears the per-run counters but keeps the
    /// translated blocks and hotness counters. Called from
    /// `Platform::reset` — cache survival across resets is the point.
    pub fn begin_run(&mut self) {
        self.stats = JitStats::default();
    }

    /// Marks the instruction memory as possibly changed (loader backdoor
    /// wrote to it); the next [`TranslationCache::revalidate`] re-hashes.
    pub fn mark_im_dirty(&mut self) {
        self.dirty = true;
    }

    /// Revalidates the cache against the current IM contents: if the
    /// fingerprint changed since translation, every block and counter is
    /// dropped. Reloading an identical program keeps all traces hot.
    pub fn revalidate(&mut self, imem: &BankedMemory) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let fp = fingerprint_im(imem);
        if fp != self.fingerprint {
            self.fingerprint = fp;
            self.blocks.clear();
            self.index.fill(NOT_PRESENT);
            self.counters.fill(0);
        }
    }

    /// Looks for a trace at `pc`, advancing the PC's execution counter
    /// while it is cold. Returns `(block index, offset of pc)` when `pc`
    /// is a hot entry (offset 0) or lies inside a translated block;
    /// `None` while the entry is cold or known-untranslatable (the
    /// interpreter keeps running it).
    pub fn lookup_hot(&mut self, pc: u16, imem: &BankedMemory) -> Option<(u32, u16)> {
        self.fit(imem);
        let word = imem.index(pc);
        let found = match self.index[word] {
            NOT_PRESENT => return self.advance(word, pc, imem).map(|idx| (idx, 0)),
            UNTRANSLATABLE => return None,
            slot if slot >= COVERED => {
                let idx = slot & !COVERED;
                let off = pc.wrapping_sub(self.blocks[idx as usize].start);
                // An address aliasing the word (the IM wraps) is no way
                // into the block.
                ((off as usize) < self.blocks[idx as usize].len()).then_some((idx, off))
            }
            idx => Some((idx, 0)),
        };
        self.stats.hits += found.is_some() as u64;
        found
    }

    /// Advances the hotness of a fetch at `pc` made outside a uniform
    /// batch, translating the block entered there once it is hot. Words
    /// inside a translated block are skipped, so a run that cores mostly
    /// execute out of lockstep is translated by the time a lockstep group
    /// reaches it. Counts no hit: nothing is dispatched.
    #[inline]
    pub fn note_fetch(&mut self, pc: u16, imem: &BankedMemory) {
        self.fit(imem);
        let word = imem.index(pc);
        if self.index[word] == NOT_PRESENT {
            self.advance(word, pc, imem);
        }
    }

    /// Sizes the per-word tables to the IM.
    #[inline]
    fn fit(&mut self, imem: &BankedMemory) {
        if self.index.len() != imem.len() {
            self.index.resize(imem.len(), NOT_PRESENT);
            self.counters.resize(imem.len(), 0);
        }
    }

    /// Counts one more execution of the untranslated entry `pc` (IM word
    /// `word`) and translates it once it passes the threshold.
    fn advance(&mut self, word: usize, pc: u16, imem: &BankedMemory) -> Option<u32> {
        let slot = &mut self.counters[word];
        *slot = slot.saturating_add(1);
        if *slot <= self.hot_threshold {
            return None;
        }
        let block = translate(pc, imem);
        if block.is_empty() {
            self.index[word] = UNTRANSLATABLE;
            return None;
        }
        self.stats.translations += 1;
        Some(self.insert(word, block, imem))
    }

    /// Caches `block` as the entry at IM word `word` and marks the words
    /// after its entry as covered by it, unless they hold entries of their
    /// own. Of several blocks running through a word, the one with the
    /// greatest entry PC covers it whatever the translation order, so a
    /// restored cache maps every word as the original did.
    fn insert(&mut self, word: usize, block: Block, imem: &BankedMemory) -> u32 {
        let idx = self.blocks.len() as u32;
        for k in 1..block.len() {
            let covered = imem.index(block.start.wrapping_add(k as u16));
            let slot = self.index[covered];
            let take = slot == NOT_PRESENT
                || (COVERED..UNTRANSLATABLE).contains(&slot)
                    && self.blocks[(slot & !COVERED) as usize].start < block.start;
            if take {
                self.index[covered] = COVERED | idx;
            }
        }
        self.index[word] = idx;
        self.blocks.push(block);
        idx
    }

    /// The block behind an index returned by
    /// [`TranslationCache::lookup_hot`].
    pub fn block(&self, idx: u32) -> &Block {
        &self.blocks[idx as usize]
    }

    /// The index of the translated block entered at `pc`, if one is
    /// cached. Unlike [`TranslationCache::lookup_hot`] this is a pure
    /// read: no counter advances and no translation is attempted — it
    /// exists so a checkpoint restore can re-link trace cursors without
    /// perturbing the hotness statistics.
    pub fn block_index_at(&self, pc: u16) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let idx = self.index[pc as usize % self.index.len()];
        (idx < COVERED).then_some(idx)
    }

    /// Captures the cache state for a platform checkpoint. Translated
    /// traces are *not* serialized — they are pure functions of the IM
    /// contents (which the checkpoint carries anyway), so the snapshot
    /// records only which entry PCs were translated and re-derives the
    /// traces on restore.
    pub fn save(&self) -> JitSnapshot {
        let mut counters = Vec::new();
        for (word, &count) in self.counters.iter().enumerate() {
            if count != 0 {
                counters.push((word as u32, count));
            }
        }
        let mut translated = Vec::new();
        let mut untranslatable = Vec::new();
        for (word, &idx) in self.index.iter().enumerate() {
            match idx {
                UNTRANSLATABLE => untranslatable.push(word as u16),
                idx if idx < COVERED => translated.push(word as u16),
                _ => {}
            }
        }
        JitSnapshot {
            hot_threshold: self.hot_threshold,
            counters,
            translated,
            untranslatable,
            stats: self.stats,
        }
    }

    /// Rebuilds the cache from a checkpoint against the (already restored)
    /// instruction memory: hotness counters and per-run stats come from the
    /// snapshot, every recorded-hot entry PC is re-translated from `imem`.
    /// Because translation reads through the uncounted backdoor, the
    /// re-translation leaves `MemStats` untouched and the restored platform
    /// stays bit-identical to the original.
    ///
    /// Returns `false` (leaving the cache in a consistent but partially
    /// restored state) if a recorded-translated entry no longer yields a
    /// trace — the snapshot does not match this instruction memory.
    pub fn restore_from(&mut self, snapshot: &JitSnapshot, imem: &BankedMemory) -> bool {
        self.hot_threshold = snapshot.hot_threshold;
        self.index.clear();
        self.index.resize(imem.len(), NOT_PRESENT);
        self.counters.clear();
        self.counters.resize(imem.len(), 0);
        self.blocks.clear();
        self.stats = snapshot.stats;
        self.fingerprint = fingerprint_im(imem);
        self.dirty = false;
        for &(word, count) in &snapshot.counters {
            let Some(slot) = self.counters.get_mut(word as usize) else {
                return false;
            };
            *slot = count;
        }
        for &word in &snapshot.untranslatable {
            let Some(slot) = self.index.get_mut(word as usize) else {
                return false;
            };
            *slot = UNTRANSLATABLE;
        }
        for &word in &snapshot.translated {
            if word as usize >= self.index.len() {
                return false;
            }
            let block = translate(word, imem);
            if block.is_empty() {
                return false;
            }
            self.insert(word as usize, block, imem);
        }
        true
    }
}

/// Plain-data image of a [`TranslationCache`] for platform checkpoints:
/// sparse hotness counters, the set of translated / known-untranslatable
/// entry PCs, and the per-run counters. Traces themselves are re-derived
/// from instruction memory on restore.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JitSnapshot {
    /// The configured hotness threshold at snapshot time.
    pub hot_threshold: u32,
    /// `(im word address, execution count)` for every nonzero counter.
    pub counters: Vec<(u32, u32)>,
    /// Entry PCs (IM word addresses) holding a translated trace.
    pub translated: Vec<u16>,
    /// Entry PCs recorded as known-untranslatable.
    pub untranslatable: Vec<u16>,
    /// The per-run counters at snapshot time.
    pub stats: JitStats,
}

/// Translates the basic block entered at `pc`: decodes forward through
/// the *backdoor* (translation is a simulator artifact and must not count
/// as physical IM accesses) until a control-flow terminator, a fidelity
/// boundary, an undecodable word or the length cap.
fn translate(pc: u16, imem: &BankedMemory) -> Block {
    let mut ops = Vec::new();
    let mut addr = pc;
    while ops.len() < MAX_BLOCK_OPS {
        let Ok(instr) = decode(imem.peek(addr)) else {
            // The word faults when actually fetched; leave that cycle —
            // and the fault bookkeeping — to the interpreter.
            break;
        };
        let op = MicroOp::new(instr);
        if op.class == OpClass::Boundary {
            break;
        }
        ops.push(op);
        if op.class == OpClass::Control {
            break;
        }
        addr = addr.wrapping_add(1);
    }
    let mut pure_runs = vec![0u16; ops.len()];
    let mut run = 0u16;
    for (i, op) in ops.iter().enumerate().rev() {
        run = if op.class == OpClass::Pure {
            run + 1
        } else {
            0
        };
        pure_runs[i] = run;
    }
    Block {
        start: pc,
        ops,
        pure_runs,
    }
}

/// FNV-1a over the IM words: cheap (one pass at run start, only when the
/// loader touched IM) and collision-resistant enough for "same program
/// reloaded?".
fn fingerprint_im(imem: &BankedMemory) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for addr in 0..imem.len() {
        let w = imem.peek(addr as u16);
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::asm::assemble;
    use ulp_mem::BankMapping;

    fn imem_with(src: &str) -> BankedMemory {
        let mut m = BankedMemory::new(1024, 8, BankMapping::Blocked);
        let program = assemble(src).expect("assembles");
        for (addr, word) in program.iter() {
            m.poke(addr, word);
        }
        m
    }

    #[test]
    fn translation_stops_at_boundaries_and_control() {
        let m = imem_with(
            "       addi r0, #1
                    addi r1, #2
                    br   next
            next:   addi r2, #3
                    sinc #0
                    halt",
        );
        // Block at 0: two ADDIs + the BR terminator.
        let b = translate(0, &m);
        assert_eq!(b.len(), 3);
        assert_eq!(b.ops[2].class, OpClass::Control);
        // Block at 3: one ADDI, then stops *before* the SINC boundary.
        let b = translate(3, &m);
        assert_eq!(b.len(), 1);
        assert_eq!(b.ops[0].class, OpClass::Pure);
        // Block at the SINC itself: empty (untranslatable entry).
        assert!(translate(4, &m).is_empty());
    }

    #[test]
    fn cache_translates_only_past_the_threshold_and_then_hits() {
        let m = imem_with("loop: addi r0, #1\n br loop");
        let mut cache = TranslationCache::new(3);
        cache.revalidate(&m);
        for _ in 0..3 {
            assert!(cache.lookup_hot(0, &m).is_none(), "still cold");
        }
        let (idx, off) = cache.lookup_hot(0, &m).expect("hot now");
        assert_eq!(off, 0);
        assert_eq!(cache.stats().translations, 1);
        assert_eq!(cache.block(idx).len(), 2);
        assert_eq!(cache.lookup_hot(0, &m), Some((idx, 0)));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn covered_words_enter_their_block_and_skip_fetch_probes() {
        let m = imem_with(
            "loop: addi r0, #1
                   addi r1, #2
                   addi r2, #3
                   br   loop",
        );
        let mut cache = TranslationCache::new(1);
        cache.revalidate(&m);
        cache.note_fetch(0, &m);
        assert_eq!(cache.blocks_cached(), 0, "still cold");
        cache.note_fetch(0, &m);
        assert_eq!(cache.stats().translations, 1);
        assert_eq!(cache.stats().hits, 0, "a probe dispatches nothing");
        // Words inside the block are no entries of their own...
        cache.note_fetch(2, &m);
        cache.note_fetch(2, &m);
        assert_eq!(cache.blocks_cached(), 1);
        // ...and a lookup there enters the block mid-way.
        assert_eq!(cache.lookup_hot(2, &m), Some((0, 2)));
        assert_eq!(cache.stats().hits, 1);
        let snap = cache.save();
        assert_eq!(snap.translated, vec![0], "entries only");
        let mut restored = TranslationCache::new(0);
        assert!(restored.restore_from(&snap, &m));
        assert_eq!(restored.lookup_hot(2, &m), Some((0, 2)));
    }

    #[test]
    fn nearest_entry_covers_a_word_whatever_the_translation_order() {
        let m = imem_with(
            "loop: addi r0, #1
                   addi r1, #1
                   addi r2, #1
                   addi r3, #1
                   br   loop",
        );
        let entered = |cache: &mut TranslationCache, pc| {
            let (idx, off) = cache.lookup_hot(pc, &m).expect("hot");
            (cache.block(idx).start, off)
        };
        // A lockstep group enters at 2 before the block at 0 is hot.
        let mut cache = TranslationCache::new(0);
        cache.revalidate(&m);
        assert_eq!(entered(&mut cache, 2), (2, 0));
        assert_eq!(entered(&mut cache, 0), (0, 0));
        assert_eq!(entered(&mut cache, 1), (0, 1));
        assert_eq!(entered(&mut cache, 3), (2, 1), "the nearer entry");
        // A restore translates in address order and maps words the same.
        let mut restored = TranslationCache::new(0);
        assert!(restored.restore_from(&cache.save(), &m));
        for (pc, want) in [(1, (0, 1)), (2, (2, 0)), (3, (2, 1)), (4, (2, 2))] {
            assert_eq!(entered(&mut restored, pc), want, "pc {pc}");
        }
    }

    #[test]
    fn revalidation_keeps_blocks_for_identical_im_and_drops_on_change() {
        let mut m = imem_with("loop: addi r0, #1\n br loop");
        let mut cache = TranslationCache::new(0);
        cache.revalidate(&m);
        let idx = cache.lookup_hot(0, &m).expect("threshold 0");
        assert_eq!(cache.blocks_cached(), 1);

        // Same program "reloaded": blocks survive, lookup is a hit.
        cache.begin_run();
        cache.mark_im_dirty();
        cache.revalidate(&m);
        assert_eq!(cache.blocks_cached(), 1);
        assert_eq!(cache.lookup_hot(0, &m), Some(idx));
        assert_eq!(cache.stats().translations, 0);
        assert_eq!(cache.stats().hits, 1);

        // Different program: everything is dropped.
        m.poke(0, 0);
        cache.mark_im_dirty();
        cache.revalidate(&m);
        assert_eq!(cache.blocks_cached(), 0);
    }

    #[test]
    fn snapshot_round_trip_rebuilds_blocks_and_counters() {
        let m = imem_with(
            "loop: addi r0, #1
                   br   loop
                   sinc #0
            cold:  addi r1, #1
                   halt",
        );
        let mut cache = TranslationCache::new(2);
        cache.revalidate(&m);
        // Make the loop hot (translated), probe the SINC (untranslatable)
        // and warm the cold block below threshold.
        for _ in 0..4 {
            cache.lookup_hot(0, &m);
        }
        for _ in 0..3 {
            assert!(cache.lookup_hot(2, &m).is_none());
        }
        assert!(cache.lookup_hot(3, &m).is_none(), "one probe: still cold");
        let snap = cache.save();
        assert_eq!(snap.translated, vec![0]);
        assert_eq!(snap.untranslatable, vec![2]);

        let mut restored = TranslationCache::new(0);
        assert!(restored.restore_from(&snap, &m));
        assert_eq!(restored.hot_threshold(), 2);
        assert_eq!(restored.blocks_cached(), 1);
        assert_eq!(restored.stats(), cache.stats());
        // The hot entry hits without a fresh translation...
        let before = restored.stats().translations;
        let (idx, _) = restored.lookup_hot(0, &m).expect("still hot");
        assert_eq!(restored.stats().translations, before);
        assert_eq!(restored.block(idx).len(), 2);
        // ...the untranslatable entry stays dead, and the cold entry
        // resumes from its saved count (1 probe done, threshold 2 → one
        // more miss, then hot).
        assert!(restored.lookup_hot(2, &m).is_none());
        assert!(restored.lookup_hot(3, &m).is_none());
        assert!(restored.lookup_hot(3, &m).is_some(), "count carried over");
        // Restore and a fresh cache agree on IM validity: no revalidation
        // drop afterwards.
        restored.mark_im_dirty();
        restored.revalidate(&m);
        assert_eq!(restored.blocks_cached(), 2);
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_im() {
        let m = imem_with("loop: addi r0, #1\n br loop");
        let mut cache = TranslationCache::new(0);
        cache.revalidate(&m);
        cache.lookup_hot(0, &m).expect("threshold 0");
        let snap = cache.save();

        // An IM whose recorded-translated entry no longer decodes to a
        // trace: word 0 now holds a boundary.
        let other = imem_with("sinc #0\n halt");
        let mut restored = TranslationCache::new(0);
        assert!(!restored.restore_from(&snap, &other));
    }

    #[test]
    fn exec_tier_parses_and_displays() {
        assert_eq!("interpreted".parse(), Ok(ExecTier::Interpreted));
        assert_eq!("compiled".parse(), Ok(ExecTier::Compiled));
        assert!("native".parse::<ExecTier>().is_err());
        assert_eq!(ExecTier::Compiled.to_string(), "compiled");
    }

    #[test]
    fn jit_stats_merge_sums_every_counter() {
        let mut a = JitStats {
            translations: 1,
            hits: 2,
            compiled_cycles: 3,
            fallback_cycles: 4,
        };
        let b = JitStats {
            translations: 10,
            hits: 20,
            compiled_cycles: 30,
            fallback_cycles: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            JitStats {
                translations: 11,
                hits: 22,
                compiled_cycles: 33,
                fallback_cycles: 44,
            }
        );
        assert!((a.compiled_fraction() - 33.0 / 77.0).abs() < 1e-12);
    }
}
