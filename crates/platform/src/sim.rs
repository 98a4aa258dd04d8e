//! The deterministic cycle loop composing cores, memories, crossbars and
//! the synchronizer.

use crate::checkpoint::Checkpoint;
use crate::config::PlatformConfig;
use crate::error::{ConfigError, PlatformError, RestoreError};
use crate::observer::{LockstepWidth, Observer};
use crate::stats::SimStats;
use std::fmt;
use ulp_cpu::{Core, CoreState, MemAccess, SyncRequest, WakeReason};
use ulp_isa::asm::Program;
use ulp_isa::{decode, Instr, OpClass};
use ulp_jit::{ExecTier, TranslationCache};
use ulp_mem::{
    Access, BankedMemory, DXbar, DXbarOutcome, DmGrant, DmRequest, IXbar, ImGrant, ImRequest,
};
use ulp_sync::{SyncEvents, Synchronizer};

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycles simulated until the last core halted.
    pub cycles: u64,
}

/// Outcome of a bounded [`Platform::run_until`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProgress {
    /// Every core halted; the run is complete.
    Done(RunSummary),
    /// The cycle limit was reached with cores still active. The platform
    /// can be resumed (another `run_until` / `run`) or checkpointed; the
    /// resumed run is bit-identical to one that never paused.
    Paused,
}

impl RunProgress {
    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        matches!(self, RunProgress::Done(_))
    }

    /// The completion summary, if the run finished.
    pub fn summary(&self) -> Option<RunSummary> {
        match self {
            RunProgress::Done(s) => Some(*s),
            RunProgress::Paused => None,
        }
    }
}

/// A token identifying an observer registered through
/// [`Platform::attach`]. Pass it to [`Platform::observer_as`] /
/// [`Platform::observer_mut_as`] to inspect the observer mid-run and to
/// [`Platform::detach`] to take it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObserverHandle {
    id: u64,
}

/// Per-cycle scratch buffers of the engine, allocated once at platform
/// construction and reused every cycle, so [`Platform::step`] performs no
/// heap allocation in steady state.
#[derive(Debug, Default)]
struct CycleBuffers {
    /// Fetch requests of cores in their fetch phase.
    fetch_reqs: Vec<ImRequest>,
    /// Granted fetches (filled by the I-Xbar).
    im_grants: Vec<ImGrant>,
    /// `SINC`/`SDEC` requests of cores in their execute phase.
    sync_reqs: Vec<(usize, SyncRequest)>,
    /// Events produced by the synchronizer (filled by `step_into`).
    sync_events: SyncEvents,
    /// Data-memory requests of cores in their execute phase.
    dm_reqs: Vec<DmRequest>,
    /// Grants and releases (filled by the D-Xbar).
    dm_outcome: DXbarOutcome,
    /// Cores whose data access was granted this cycle, indexed by core
    /// (filled only for observers' [`Observer::on_dm`]).
    granted: Vec<bool>,
}

impl CycleBuffers {
    fn new(num_cores: usize) -> CycleBuffers {
        CycleBuffers {
            fetch_reqs: Vec::with_capacity(num_cores),
            im_grants: Vec::with_capacity(num_cores),
            sync_reqs: Vec::with_capacity(num_cores),
            sync_events: SyncEvents::default(),
            dm_reqs: Vec::with_capacity(num_cores),
            dm_outcome: DXbarOutcome::default(),
            granted: Vec::with_capacity(num_cores),
        }
    }
}

/// The multi-core platform simulator (Fig. 1 of the paper).
///
/// See the crate-level documentation for an example. Construction validates
/// the [`PlatformConfig`]; programs and data are loaded through backdoors
/// ([`Platform::load_program`], [`Platform::load_dm`]); [`Platform::run`]
/// advances the deterministic cycle loop until every core halts.
///
/// The engine itself carries no instrumentation: tracing and visualisation
/// hook in through [`Observer`]s passed to [`Platform::step_with`] and
/// [`Platform::run_with`]. The only built-in observer is a
/// [`LockstepWidth`] recorder, because the average lockstep width is part
/// of [`SimStats`].
pub struct Platform {
    cfg: PlatformConfig,
    cores: Vec<Core>,
    imem: BankedMemory,
    /// Instruction memory decoded once per write: `predecoded[a]` is the
    /// decoding of IM word `a` (`None` for an illegal word). It covers
    /// the words from 0 up to the highest one written since the last
    /// reset — the loaded program's extent, not the whole IM. Every IM
    /// write goes through a loader backdoor or a restore, and each of
    /// them updates the table.
    predecoded: Vec<Option<Instr>>,
    dmem: BankedMemory,
    ixbar: IXbar,
    dxbar: DXbar,
    sync: Option<Synchronizer>,
    cycle: u64,
    fault: Option<PlatformError>,
    buffers: CycleBuffers,
    lockstep: LockstepWidth,
    jit: TranslationCache,
    /// Per-core trace cursor: `(block, offset)` of the micro-op the core
    /// fetches (or is executing) inside a translated trace, left by a
    /// uniform lockstep batch. A hint — every use re-validates it against
    /// the core's PC — that lets the next batch skip the cache lookup and
    /// marks a fetch/execute pair split by a slice boundary; every
    /// interpreter cycle clears it.
    cursors: Vec<Option<(u32, u16)>>,
    /// Observers registered through [`Platform::attach`], notified on
    /// every step/run in attach order (before any `*_with` slice). Each
    /// entry keeps the id its [`ObserverHandle`] was minted with.
    attached: Vec<(u64, Box<dyn Observer>)>,
    /// Id for the next [`Platform::attach`] call.
    next_observer: u64,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("fault", &self.fault)
            .field(
                "attached",
                &self
                    .attached
                    .iter()
                    .map(|(id, o)| (*id, o.label()))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Builds a platform from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in `cfg`.
    pub fn new(cfg: PlatformConfig) -> Result<Platform, ConfigError> {
        cfg.validate()?;
        Ok(Platform {
            cores: (0..cfg.num_cores).map(|i| Core::new(i as u8)).collect(),
            imem: BankedMemory::new(cfg.im_words, cfg.im_banks, cfg.im_mapping),
            predecoded: Vec::new(),
            dmem: BankedMemory::new(cfg.dm_words, cfg.dm_banks, cfg.dm_mapping),
            ixbar: IXbar::new(cfg.im_banks),
            dxbar: DXbar::new(cfg.dm_banks, cfg.dxbar_policy),
            sync: cfg.synchronizer.then(Synchronizer::new),
            cycle: 0,
            fault: None,
            buffers: CycleBuffers::new(cfg.num_cores),
            lockstep: LockstepWidth::new(),
            jit: TranslationCache::new(cfg.jit_hot_threshold),
            cursors: vec![None; cfg.num_cores],
            attached: Vec::new(),
            next_observer: 0,
            cfg,
        })
    }

    /// Registers an owned observer with the platform. From now on every
    /// [`Platform::step`] / [`Platform::run`] notifies it (attached
    /// observers fire in attach order, before any observers passed to the
    /// legacy `*_with` slice methods), and [`Platform::snapshot`] captures
    /// its state when it implements [`Observer::save_state`].
    ///
    /// This replaces the positional observer-slice plumbing: instead of
    /// threading `&mut [&mut dyn Observer]` through every call and keeping
    /// the slice alive across the run, callers hand the observer to the
    /// platform and read it back through the returned handle
    /// ([`Platform::observer_as`], [`Platform::detach`]).
    pub fn attach(&mut self, observer: Box<dyn Observer>) -> ObserverHandle {
        let id = self.next_observer;
        self.next_observer += 1;
        self.attached.push((id, observer));
        ObserverHandle { id }
    }

    /// Removes and returns an attached observer. `None` if the handle was
    /// already detached (handles are platform-specific and single-use).
    pub fn detach(&mut self, handle: ObserverHandle) -> Option<Box<dyn Observer>> {
        let pos = self.attached.iter().position(|(id, _)| *id == handle.id)?;
        Some(self.attached.remove(pos).1)
    }

    /// Number of currently attached observers.
    pub fn attached_observers(&self) -> usize {
        self.attached.len()
    }

    /// Borrows an attached observer downcast to its concrete type.
    /// `None` if the handle is stale or `T` is not the attached type.
    pub fn observer_as<T: Observer>(&self, handle: &ObserverHandle) -> Option<&T> {
        self.attached
            .iter()
            .find(|(id, _)| *id == handle.id)
            .and_then(|(_, o)| (o.as_ref() as &dyn std::any::Any).downcast_ref::<T>())
    }

    /// Mutably borrows an attached observer downcast to its concrete type.
    pub fn observer_mut_as<T: Observer>(&mut self, handle: &ObserverHandle) -> Option<&mut T> {
        self.attached
            .iter_mut()
            .find(|(id, _)| *id == handle.id)
            .and_then(|(_, o)| (o.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>())
    }

    /// The active configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Replaces the cycle budget in place. Part of the reuse surface
    /// alongside [`Platform::reset`]: a cached platform keyed on
    /// (design, cores) can serve jobs whose workloads carry different
    /// budgets without being rebuilt.
    pub fn set_max_cycles(&mut self, budget: u64) {
        self.cfg.max_cycles = budget;
    }

    /// The configured execution tier.
    pub fn exec_tier(&self) -> ExecTier {
        self.cfg.exec_tier
    }

    /// Replaces the execution tier in place. Part of the reuse surface
    /// alongside [`Platform::set_max_cycles`]: a cached platform can serve
    /// jobs requesting either tier without being rebuilt. Takes effect on
    /// the next run.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.cfg.exec_tier = tier;
        self.cursors.fill(None);
    }

    /// The translation cache of the compiled tier (hotness counters,
    /// cached traces, per-run counters).
    pub fn translation_cache(&self) -> &TranslationCache {
        &self.jit
    }

    /// Returns the platform to its power-on state — cores reset, memories
    /// zeroed, statistics cleared — while keeping every allocation, so the
    /// instance can run another program without rebuilding. Used by the
    /// sweep runner to amortize construction across a grid of runs.
    pub fn reset(&mut self) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            *core = Core::new(i as u8);
        }
        self.imem.clear();
        self.predecoded.clear();
        self.dmem.clear();
        self.ixbar.reset();
        self.dxbar.reset();
        if let Some(sync) = &mut self.sync {
            sync.reset();
        }
        self.cycle = 0;
        self.fault = None;
        self.lockstep.reset();
        // The translation cache intentionally survives reset: reloading the
        // same kernel must hit the existing traces. Zeroing the IM above
        // made its fingerprint stale, so flag it for revalidation.
        self.jit.begin_run();
        self.jit.mark_im_dirty();
        self.cursors.fill(None);
    }

    /// Loads an assembled program into instruction memory.
    pub fn load_program(&mut self, program: &Program) {
        for (addr, word) in program.iter() {
            self.write_im(addr, word);
        }
        self.jit.mark_im_dirty();
    }

    /// Loads raw words into instruction memory at `base`.
    pub fn load_im(&mut self, base: u16, words: &[u16]) {
        for (i, &word) in words.iter().enumerate() {
            self.write_im(base.wrapping_add(i as u16), word);
        }
        self.jit.mark_im_dirty();
    }

    /// Writes one IM word through the backdoor and keeps the predecoded
    /// table in step, growing it to cover the word.
    fn write_im(&mut self, addr: u16, word: u16) {
        self.imem.poke(addr, word);
        let index = self.imem.index(addr);
        if index < self.predecoded.len() {
            self.predecoded[index] = decode(word).ok();
        } else {
            let imem = &self.imem;
            let from = self.predecoded.len();
            self.predecoded
                .extend((from..=index).map(|a| decode(imem.peek(a as u16)).ok()));
        }
    }

    /// Loads raw words into data memory at `base`.
    pub fn load_dm(&mut self, base: u16, words: &[u16]) {
        self.dmem.load(base, words);
    }

    /// Reads one data-memory word (backdoor; not counted).
    pub fn dm(&self, addr: u16) -> u16 {
        self.dmem.peek(addr)
    }

    /// Reads `len` data-memory words starting at `base` (backdoor).
    pub fn dm_slice(&self, base: u16, len: usize) -> Vec<u16> {
        (0..len)
            .map(|i| self.dmem.peek(base.wrapping_add(i as u16)))
            .collect()
    }

    /// Writes one data-memory word (backdoor; not counted).
    pub fn set_dm(&mut self, addr: u16, value: u16) {
        self.dmem.poke(addr, value);
    }

    /// Immutable access to a core (panics if out of range).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to a core (loader/test hook).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Raises the external interrupt line of core `i`.
    pub fn raise_irq(&mut self, i: usize) {
        self.cores[i].raise_irq();
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_halted())
    }

    /// Advances the platform by one clock cycle, notifying any attached
    /// observers. Equivalent to `step_with(&mut [])`.
    pub fn step(&mut self) {
        self.step_with(&mut []);
    }

    /// Advances the platform by one clock cycle, notifying attached
    /// observers and then `observers` at each hook point (after the
    /// built-in lockstep recorder).
    ///
    /// With no observers anywhere, the engine performs zero heap
    /// allocations in steady state: all per-cycle working sets live in
    /// buffers owned by the platform and its components, sized once and
    /// reused every cycle, and the unobserved cycle is a monomorphized
    /// copy with every observer hook compiled out. (Manually stepping
    /// with *attached* observers builds a small dispatch list per call;
    /// the run loops hoist it out of the cycle loop.)
    ///
    /// Borrowed observer slices are the legacy registration path — prefer
    /// [`Platform::attach`], which also integrates the observer with
    /// checkpointing.
    pub fn step_with(&mut self, observers: &mut [&mut dyn Observer]) {
        if self.attached.is_empty() {
            if observers.is_empty() {
                self.step_cycle::<false>(&mut []);
            } else {
                self.step_cycle::<true>(observers);
            }
            return;
        }
        let mut attached = std::mem::take(&mut self.attached);
        let mut refs: Vec<&mut dyn Observer> = attached
            .iter_mut()
            .map(|(_, o)| o.as_mut())
            .chain(observers.iter_mut().map(|o| &mut **o))
            .collect();
        self.step_cycle::<true>(&mut refs);
        drop(refs);
        self.attached = attached;
    }

    /// One interpreter cycle. `OBSERVED` gates every observer dispatch at
    /// compile time; the built-in lockstep recorder only implements
    /// `on_fetch`, so that is the one hook the unobserved copy keeps.
    fn step_cycle<const OBSERVED: bool>(&mut self, observers: &mut [&mut dyn Observer]) {
        self.cycle += 1;
        let cycle = self.cycle;
        let buf = &mut self.buffers;

        if OBSERVED {
            for o in observers.iter_mut() {
                o.on_cycle_start(cycle, &self.cores);
            }
        }

        // One scan over the cores polls interrupts and snapshots every
        // core's phase. Polling happens at the instruction boundary before
        // the fetch phase, so a vectoring core fetches its handler in this
        // same cycle. Each core then receives exactly one cycle-consuming
        // call below, based on where it *started* the cycle (a fetch
        // completing this cycle executes next cycle). The scan collects
        // every request list and, per waiting phase, a bit per core, so
        // the phases below never rescan cores that have nothing for them.
        buf.fetch_reqs.clear();
        buf.sync_reqs.clear();
        buf.dm_reqs.clear();
        let mut sync_issued: u32 = 0;
        let mut sleeping: u32 = 0;
        let mut held: u32 = 0;
        // Cores whose execute phase is core-local (neither memory nor
        // sync) and completes at the end of the cycle.
        let mut local_done: u32 = 0;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.poll_interrupt();
            let phase = core.state();
            if OBSERVED {
                for o in observers.iter_mut() {
                    o.on_core_phase(cycle, i, core.pc(), phase);
                }
            }
            match phase {
                CoreState::Fetch => buf.fetch_reqs.push(ImRequest {
                    core: i,
                    addr: core.pc(),
                }),
                CoreState::Execute(_) => {
                    if let Some(r) = core.sync_request() {
                        buf.sync_reqs.push((i, r));
                    } else if let Some(r) = core.mem_request() {
                        buf.dm_reqs.push(DmRequest {
                            core: i,
                            pc: core.pc(),
                            addr: r.addr,
                            access: match r.access {
                                MemAccess::Read => Access::Read,
                                MemAccess::Write(v) => Access::Write(v),
                            },
                        });
                    } else {
                        local_done |= 1 << i;
                    }
                }
                CoreState::SyncIssued(_) => sync_issued |= 1 << i,
                CoreState::Sleeping => sleeping |= 1 << i,
                CoreState::Held { .. } => held |= 1 << i,
                CoreState::Halted => {}
            }
        }

        // ---- fetch phase ----------------------------------------------
        self.lockstep.on_fetch(cycle, &buf.fetch_reqs);
        if OBSERVED {
            for o in observers.iter_mut() {
                o.on_fetch(cycle, &buf.fetch_reqs);
            }
        }

        self.ixbar
            .arbitrate_into(&buf.fetch_reqs, &mut self.imem, &mut buf.im_grants);
        let mut fetched: u32 = 0;
        for g in &buf.im_grants {
            fetched |= 1 << g.core;
            let core = &mut self.cores[g.core];
            // A granted fetch inside the predecoded extent skips decode;
            // the fetch address is the PC, and any PC below the extent is
            // its own IM index. Other words, illegal ones included, take
            // the decoding path, which raises the fault in this cycle.
            match self.predecoded.get(core.pc() as usize) {
                Some(&Some(instr)) => core.on_fetch_granted_decoded(instr),
                _ => {
                    if let Err(error) = core.on_fetch_granted(g.word) {
                        self.fault.get_or_insert(PlatformError::CoreFault {
                            core: g.core,
                            error,
                        });
                    }
                }
            }
        }
        for r in &buf.fetch_reqs {
            if fetched & 1 << r.core == 0 {
                self.cores[r.core].note_fetch_stall();
            }
        }

        // ---- execute phase: synchronization ISE ------------------------
        if let Some(sync) = &mut self.sync {
            sync.step_into(&buf.sync_reqs, &mut self.dmem, &mut buf.sync_events);
            let events = &buf.sync_events;
            for &(core, _) in &buf.sync_reqs {
                if events.accepted.contains(&core) {
                    self.cores[core].on_sync_accepted();
                } else {
                    self.cores[core].note_sync_stall();
                }
            }
            // Cores inside the in-flight RMW spend this cycle there.
            for i in bits(sync_issued) {
                self.cores[i].note_sync_active();
            }
            // Sleeping cores burn their cycle before any wake edge.
            for i in bits(sleeping) {
                self.cores[i].note_sleep();
            }
            for &(core, sleep) in &events.completed {
                self.cores[core].complete_sync(sleep);
            }
            for &core in &events.wake {
                if core < self.cores.len() {
                    self.cores[core].wake(WakeReason::Synchronizer);
                }
            }
        } else {
            // Baseline design: the ISA has no synchronization ISE, the
            // instructions degenerate to NOPs.
            for &(core, _) in &buf.sync_reqs {
                self.cores[core].skip_sync_op();
            }
            for i in bits(sleeping) {
                self.cores[i].note_sleep();
            }
        }

        // ---- execute phase: data memory --------------------------------
        // Held cores burn their cycle before any release edge.
        for i in bits(held) {
            self.cores[i].note_hold();
        }

        self.dxbar
            .arbitrate_into(&buf.dm_reqs, &mut self.dmem, &mut buf.dm_outcome);
        let mut granted: u32 = 0;
        for g in &buf.dm_outcome.grants {
            match *g {
                DmGrant::Complete { core, data } => {
                    granted |= 1 << core;
                    self.cores[core].complete_execute(data);
                }
                DmGrant::Hold { core, data } => {
                    granted |= 1 << core;
                    self.cores[core].hold_with_data(data);
                }
            }
        }
        for r in &buf.dm_reqs {
            if granted & 1 << r.core == 0 {
                self.cores[r.core].note_mem_stall();
            }
        }
        if OBSERVED {
            buf.granted.clear();
            buf.granted
                .extend((0..self.cores.len()).map(|i| granted & 1 << i != 0));
            for o in observers.iter_mut() {
                o.on_dm(cycle, &buf.dm_reqs, &buf.granted);
            }
        }
        for &core in &buf.dm_outcome.releases {
            self.cores[core].release();
        }

        // ---- execute phase: everything else -----------------------------
        for i in bits(local_done) {
            self.cores[i].complete_execute(None);
        }

        if OBSERVED {
            for o in observers.iter_mut() {
                o.on_cycle_end(cycle, &self.cores);
            }
        }
    }

    /// Runs until every core halts. Equivalent to `run_with(&mut [])`.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::CoreFault`] — a core fetched an illegal word;
    /// * [`PlatformError::Deadlock`] — every active core is asleep with the
    ///   synchronizer idle (e.g. an unbalanced check-out);
    /// * [`PlatformError::Timeout`] — the configured cycle budget ran out.
    pub fn run(&mut self) -> Result<RunSummary, PlatformError> {
        self.run_with(&mut [])
    }

    /// Runs until every core halts, notifying attached observers, then
    /// `observers`, every cycle and once more (via
    /// [`Observer::on_run_end`]) when the loop exits.
    ///
    /// Borrowed observer slices are the legacy registration path — prefer
    /// [`Platform::attach`] and plain [`Platform::run`].
    ///
    /// # Errors
    ///
    /// See [`Platform::run`].
    pub fn run_with(
        &mut self,
        observers: &mut [&mut dyn Observer],
    ) -> Result<RunSummary, PlatformError> {
        match self.run_bounded(u64::MAX, observers)? {
            RunProgress::Done(summary) => Ok(summary),
            RunProgress::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Runs until every core halts **or** the simulated cycle count
    /// reaches `limit`, whichever comes first. Attached observers are
    /// notified throughout; [`Observer::on_run_end`] fires only when the
    /// run truly completes (not on a pause).
    ///
    /// A paused platform can be resumed with another `run_until` (or
    /// `run`) and/or checkpointed via [`Platform::snapshot`]; slicing a
    /// run this way is **bit-identical** to running it in one piece —
    /// same architectural state, same [`SimStats`], on both execution
    /// tiers.
    ///
    /// # Errors
    ///
    /// See [`Platform::run`]. The configured cycle budget takes
    /// precedence: a platform at its budget reports
    /// [`PlatformError::Timeout`], never `Paused`.
    pub fn run_until(&mut self, limit: u64) -> Result<RunProgress, PlatformError> {
        self.run_bounded(limit, &mut [])
    }

    fn run_bounded(
        &mut self,
        limit: u64,
        extra: &mut [&mut dyn Observer],
    ) -> Result<RunProgress, PlatformError> {
        let observed = !extra.is_empty() || !self.attached.is_empty();
        if self.cfg.exec_tier == ExecTier::Compiled {
            if !observed {
                return self.run_compiled(limit);
            }
            // Observer hooks fire every cycle, and every observed cycle is
            // a fidelity boundary: the whole run stays on the interpreter.
            let start = self.cycle;
            let outcome = self.run_interpreted(limit, extra);
            self.jit.stats_mut().fallback_cycles += self.cycle - start;
            return outcome;
        }
        self.run_interpreted(limit, extra)
    }

    fn run_interpreted(
        &mut self,
        limit: u64,
        extra: &mut [&mut dyn Observer],
    ) -> Result<RunProgress, PlatformError> {
        if self.attached.is_empty() {
            return self.run_loop(limit, extra);
        }
        let mut attached = std::mem::take(&mut self.attached);
        let outcome = {
            let mut refs: Vec<&mut dyn Observer> = attached
                .iter_mut()
                .map(|(_, o)| o.as_mut())
                .chain(extra.iter_mut().map(|o| &mut **o))
                .collect();
            self.run_loop(limit, &mut refs)
        };
        self.attached = attached;
        outcome
    }

    fn run_loop(
        &mut self,
        limit: u64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<RunProgress, PlatformError> {
        let outcome = loop {
            if self.cycle >= self.cfg.max_cycles {
                break Err(PlatformError::Timeout {
                    budget: self.cfg.max_cycles,
                });
            }
            if self.cycle >= limit {
                // A pause is not a run end: no on_run_end, the run simply
                // has not finished yet.
                return Ok(RunProgress::Paused);
            }
            if observers.is_empty() {
                self.step_cycle::<false>(&mut []);
            } else {
                self.step_cycle::<true>(observers);
            }
            if let Some(fault) = self.fault {
                break Err(fault);
            }
            if self.all_halted() {
                break Ok(RunSummary { cycles: self.cycle });
            }
            if self.is_deadlocked() {
                break Err(PlatformError::Deadlock { cycle: self.cycle });
            }
        };
        if !observers.is_empty() {
            let stats = self.stats();
            for o in observers.iter_mut() {
                o.on_run_end(&outcome, &stats);
            }
        }
        outcome.map(RunProgress::Done)
    }

    /// The compiled-tier run loop: each iteration either runs a uniform
    /// lockstep batch or hands exactly one cycle to the interpreter
    /// (cores out of lockstep, cold code, fidelity boundaries).
    fn run_compiled(&mut self, limit: u64) -> Result<RunProgress, PlatformError> {
        self.revalidate_jit();
        loop {
            if self.cycle >= self.cfg.max_cycles {
                return Err(PlatformError::Timeout {
                    budget: self.cfg.max_cycles,
                });
            }
            if self.cycle >= limit {
                return Ok(RunProgress::Paused);
            }
            if self.step_tier_once(limit) {
                // A batch cannot fault, halt the last core or deadlock —
                // those all live behind fidelity boundaries that force
                // the interpreter path.
                continue;
            }
            if let Some(fault) = self.fault {
                return Err(fault);
            }
            if self.all_halted() {
                return Ok(RunProgress::Done(RunSummary { cycles: self.cycle }));
            }
            if self.is_deadlocked() {
                return Err(PlatformError::Deadlock { cycle: self.cycle });
            }
        }
    }

    /// Advances the simulation honoring the configured execution tier: on
    /// a compiled-tier platform a uniform lockstep batch runs whenever
    /// every core allows one, and one interpreter cycle otherwise. Returns
    /// whether a batch ran (always `false` on an interpreted-tier
    /// platform).
    ///
    /// A compiled step may advance *more than one cycle*: when every core
    /// runs the same pure-op trace in lockstep, the whole run executes as
    /// one batch (check [`Platform::cycle`] for the actual progress).
    /// External events injected between steps ([`Platform::raise_irq`])
    /// are polled at the next step, so they land on a batch boundary —
    /// step-for-step interrupt timing against the interpreter requires
    /// [`ExecTier::Interpreted`].
    pub fn step_tiered(&mut self) -> bool {
        if self.cfg.exec_tier == ExecTier::Compiled {
            if !self.attached.is_empty() {
                // Observed cycles are fidelity boundaries: hand the cycle
                // to the interpreter so every attached hook fires.
                self.step_with(&mut []);
                self.jit.stats_mut().fallback_cycles += 1;
                return false;
            }
            self.revalidate_jit();
            self.step_tier_once(u64::MAX)
        } else {
            self.step();
            false
        }
    }

    /// Revalidates the translation cache against the current IM; if the
    /// cached traces were dropped, the per-core cursors into them die too.
    fn revalidate_jit(&mut self) {
        self.jit.revalidate(&self.imem);
        if self.jit.blocks_cached() == 0 {
            self.cursors.fill(None);
        }
    }

    /// One tiered step (cache already revalidated): a uniform lockstep
    /// batch when every core allows one, otherwise a single unobserved
    /// interpreter cycle. `limit` caps how far a batch may advance the
    /// cycle count (the run-slicing boundary of [`Platform::run_until`]).
    fn step_tier_once(&mut self, limit: u64) -> bool {
        let sync_idle = !self.sync.as_ref().is_some_and(Synchronizer::is_busy);
        if sync_idle && self.try_step_uniform_batch(limit) {
            return true;
        }
        // Hotness also advances on the interpreter's cycles: each probes
        // the first fetching core's PC, so a block the cores first run
        // out of lockstep can already be translated when a lockstep
        // group reaches it.
        if let Some(core) = self.cores.iter().find(|c| c.state() == CoreState::Fetch) {
            self.jit.note_fetch(core.pc(), &self.imem);
        }
        self.cursors.fill(None);
        self.step_cycle::<false>(&mut []);
        self.jit.stats_mut().fallback_cycles += 1;
        false
    }

    /// The uniform-lockstep batch: when every non-halted core is fetching
    /// the same PC on a hot trace whose next micro-ops are a run of
    /// [`ulp_isa::OpClass::Pure`] ops, executes the whole run (capped by
    /// the cycle budget) in one call. Per op this records exactly one
    /// broadcast fetch cycle and one core-local execute cycle — identical
    /// memory, crossbar, lockstep-width and core counters to the
    /// interpreter — so architectural state and statistics stay
    /// bit-identical. Returns whether a batch (≥ 1 cycle) ran.
    ///
    /// The batch never advances past `limit`, so a sliced run pauses
    /// exactly where the interpreter would. An odd budget splits a
    /// fetch/execute pair across the slice boundary: the fetch half runs
    /// here and the cursors keep the op the group is executing, so the
    /// next call — after a pause, possibly a checkpoint and restore —
    /// completes it and carries on with the run. Every cycle counts the
    /// same whatever the slicing, so sliced runs stay bit-identical,
    /// [`ulp_jit::JitStats`] included.
    fn try_step_uniform_batch(&mut self, limit: u64) -> bool {
        let mut active = [0usize; 16];
        let mut m = 0usize;
        let mut pc = 0u16;
        let mut executing = false;
        for (i, core) in self.cores.iter_mut().enumerate() {
            // Interrupts are polled at the instruction boundary before the
            // fetch phase, exactly like the interpreter cycle; if no batch
            // runs, the interpreter re-polls, which changes nothing, and a
            // redirected core's cursor hint fails PC validation.
            core.poll_interrupt();
            // An executing core may finish in the batch only when its own
            // instruction is core-local: a cursor can outlive the cycles
            // that moved the group on (manual or observed stepping), so
            // it never vouches for the op being executed.
            let at_execute = match core.state() {
                CoreState::Halted => continue,
                CoreState::Fetch => false,
                CoreState::Execute(instr) if instr.op_class() == OpClass::Pure => true,
                _ => return false,
            };
            if m == 0 {
                (pc, executing) = (core.pc(), at_execute);
            } else if core.pc() != pc || at_execute != executing {
                return false;
            }
            active[m] = i;
            m += 1;
        }
        if m == 0 {
            return false;
        }
        // All active cores share one PC: resolve the trace through the
        // first core's cursor hint (validated) or, for a fetching group,
        // the hot-block cache. An executing group continues a trace only
        // through its cursor (a split pair, or a pure op fetched by a
        // manual step after a batch); without one the interpreter runs
        // the cycle.
        let cursor = self.cursors[active[0]].filter(|&(b, off)| {
            let block = self.jit.block(b);
            (off as usize) < block.len() && block.start.wrapping_add(off) == pc
        });
        let cursor = if executing {
            cursor
        } else {
            cursor.or_else(|| self.jit.lookup_hot(pc, &self.imem))
        };
        let Some((b, mut off)) = cursor else {
            return false;
        };
        let block = self.jit.block(b);
        // Cap the run so the batch never overshoots the cycle budget or
        // the caller's slice limit (the interpreter would stop there, one
        // cycle at a time).
        let mut budget = self.cfg.max_cycles.min(limit).saturating_sub(self.cycle);
        let start = self.cycle;
        if executing {
            if budget == 0 {
                return false;
            }
            // The execute half of the split pair.
            self.cycle += 1;
            budget -= 1;
            for &i in &active[..m] {
                self.cores[i].complete_execute(None);
            }
            off += 1;
        }
        let run = block.pure_run(off);
        let k = run.min((budget / 2) as usize);
        let split_pair = run > k && budget > 2 * k as u64;
        if self.cycle == start && k == 0 && !split_pair {
            return false;
        }

        let fetches = k + split_pair as usize;
        for step in 0..fetches {
            let op = block.ops[off as usize + step];
            let at = block.start.wrapping_add(off).wrapping_add(step as u16);
            // Fetch cycle: one broadcast read serves the whole group.
            self.cycle += 1;
            self.lockstep.note_uniform(m as u64);
            self.ixbar.serve_uniform(&active[..m], at, &mut self.imem);
            for &i in &active[..m] {
                self.cores[i].on_fetch_granted_decoded(op.instr);
            }
            if step == k {
                // The split pair's execute half waits for the next call.
                break;
            }
            // Execute cycle: pure ops complete core-locally.
            self.cycle += 1;
            for &i in &active[..m] {
                self.cores[i].complete_execute(None);
            }
        }
        // The cursor names the op the group executes next (split pair)
        // or fetches next; past the end of the trace it dies and the next
        // fetch re-enters through the cache.
        let next = off + k as u16;
        let cursor = ((next as usize) < block.len()).then_some((b, next));
        for &i in &active[..m] {
            self.cursors[i] = cursor;
        }
        self.jit.stats_mut().compiled_cycles += self.cycle - start;
        true
    }

    /// A deadlock: no core can make progress again — every non-halted core
    /// is asleep, nothing is in flight in the synchronizer, and no
    /// interrupt is pending.
    fn is_deadlocked(&self) -> bool {
        let busy_sync = self.sync.as_ref().map(|s| s.is_busy()).unwrap_or(false);
        !busy_sync
            && self.cores.iter().all(|c| c.is_halted() || c.is_sleeping())
            && self.cores.iter().any(|c| c.is_sleeping())
    }

    /// Collects the aggregated statistics of the run so far. The memory,
    /// crossbar and synchronizer counters are plain `Copy` bundles, so
    /// this clones no heap state beyond the per-core counter list.
    pub fn stats(&self) -> SimStats {
        let cores: Vec<_> = self.cores.iter().map(|c| *c.stats()).collect();
        let mut core_total = ulp_cpu::CoreStats::default();
        for c in &cores {
            core_total.merge(c);
        }
        SimStats {
            cycles: self.cycle,
            num_cores: self.cores.len(),
            cores,
            core_total,
            im: *self.imem.stats(),
            dm: *self.dmem.stats(),
            ixbar: *self.ixbar.stats(),
            dxbar: *self.dxbar.stats(),
            sync: self.sync.as_ref().map(|s| *s.stats()),
            lockstep_width_sum: self.lockstep.sum(),
            lockstep_width_cycles: self.lockstep.cycles(),
            jit: self.jit.stats(),
        }
    }

    // ---- checkpointing ---------------------------------------------------

    /// Captures the complete state of the platform between cycles: cores,
    /// both memories, crossbar arbiters, the synchronizer, the lockstep
    /// and power-relevant counters, the translation cache, and the state
    /// of every attached observer that implements
    /// [`Observer::save_state`]. Resuming from the checkpoint (on this
    /// platform or a fresh one) is bit-identical to never pausing.
    pub fn snapshot(&self) -> Checkpoint {
        // Trace cursors are stored as (entry pc, offset): block indices
        // are allocation order and do not survive the restore-time
        // retranslation, entry PCs do.
        let cursors = self
            .cursors
            .iter()
            .map(|cursor| cursor.map(|(block, off)| (self.jit.block(block).start, off)))
            .collect();
        Checkpoint {
            config: self.cfg.clone(),
            cycle: self.cycle,
            fault: self.fault,
            cores: self.cores.iter().map(Core::save).collect(),
            imem: self.imem.save(),
            dmem: self.dmem.save(),
            ixbar: self.ixbar.save(),
            dxbar: self.dxbar.save(),
            sync: self.sync.as_ref().map(Synchronizer::save),
            lockstep_sum: self.lockstep.sum(),
            lockstep_cycles: self.lockstep.cycles(),
            jit: self.jit.save(),
            cursors,
            observers: self
                .attached
                .iter()
                .filter_map(|(_, o)| o.save_state().map(|state| (o.label().to_string(), state)))
                .collect(),
        }
    }

    /// Builds a fresh platform in the checkpointed state. The platform
    /// has no attached observers — observer entries in the checkpoint are
    /// ignored here; to restore instrumented runs, build the platform,
    /// [`Platform::attach`] the observers, then [`Platform::restore_from`].
    ///
    /// # Errors
    ///
    /// See [`Platform::restore_from`].
    pub fn restore(ckpt: &Checkpoint) -> Result<Platform, RestoreError> {
        let mut platform = Platform::new(ckpt.config.clone())
            .map_err(|_| RestoreError::Corrupt { what: "config" })?;
        platform.restore_from(ckpt)?;
        Ok(platform)
    }

    /// Re-applies a checkpoint onto this platform in place, reusing every
    /// allocation — the migration path for cached platforms: a worker
    /// takes a platform keyed on the same design and adopts a partially
    /// run job's state. The checkpoint's full configuration (budget,
    /// tier, thresholds) is adopted; only the *structural* shape (cores,
    /// memory geometry, synchronizer, serving policy) must already match.
    ///
    /// Checkpointed observer state is matched against attached observers
    /// by [`Observer::label`] in attach order; entries with no attached
    /// match are ignored, so attach the observers *before* restoring.
    ///
    /// # Errors
    ///
    /// * [`RestoreError::ConfigMismatch`] — structurally different target;
    /// * [`RestoreError::Corrupt`] — internally inconsistent checkpoint;
    /// * [`RestoreError::ObserverMismatch`] — an attached observer
    ///   rejected its checkpointed state.
    ///
    /// On error the platform state is unspecified; [`Platform::reset`] it
    /// (or rebuild) before further use.
    pub fn restore_from(&mut self, ckpt: &Checkpoint) -> Result<(), RestoreError> {
        if ckpt.config.validate().is_err() {
            return Err(RestoreError::Corrupt { what: "config" });
        }
        let (a, b) = (&self.cfg, &ckpt.config);
        if a.num_cores != b.num_cores
            || a.synchronizer != b.synchronizer
            || a.dxbar_policy != b.dxbar_policy
            || a.im_mapping != b.im_mapping
            || a.dm_mapping != b.dm_mapping
            || a.im_words != b.im_words
            || a.im_banks != b.im_banks
            || a.dm_words != b.dm_words
            || a.dm_banks != b.dm_banks
        {
            return Err(RestoreError::ConfigMismatch);
        }
        if ckpt.cores.len() != self.cores.len() || ckpt.cursors.len() != self.cores.len() {
            return Err(RestoreError::Corrupt { what: "core count" });
        }
        if ckpt.sync.is_some() != self.sync.is_some() {
            return Err(RestoreError::Corrupt {
                what: "sync presence",
            });
        }
        self.cfg = ckpt.config.clone();
        for (core, snap) in self.cores.iter_mut().zip(&ckpt.cores) {
            if !core.load_snapshot(snap) {
                return Err(RestoreError::Corrupt { what: "core state" });
            }
        }
        if !self.imem.load_snapshot(&ckpt.imem) {
            return Err(RestoreError::Corrupt {
                what: "instruction memory",
            });
        }
        // Predecode the restored IM up to its last non-zero word: the
        // words past it are zero, which the fetch path decodes itself.
        let extent = ckpt
            .imem
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |a| a + 1);
        self.predecoded.clear();
        self.predecoded
            .extend(ckpt.imem.words[..extent].iter().map(|&w| decode(w).ok()));
        if !self.dmem.load_snapshot(&ckpt.dmem) {
            return Err(RestoreError::Corrupt {
                what: "data memory",
            });
        }
        if !self.ixbar.load_snapshot(&ckpt.ixbar) {
            return Err(RestoreError::Corrupt {
                what: "ixbar state",
            });
        }
        if !self.dxbar.load_snapshot(&ckpt.dxbar) {
            return Err(RestoreError::Corrupt {
                what: "dxbar state",
            });
        }
        if let (Some(sync), Some(snap)) = (&mut self.sync, &ckpt.sync) {
            sync.load_snapshot(snap);
        }
        self.cycle = ckpt.cycle;
        self.fault = ckpt.fault;
        self.lockstep
            .restore(ckpt.lockstep_sum, ckpt.lockstep_cycles);
        // The translation cache re-derives its traces from the restored
        // IM through the uncounted backdoor, so retranslation leaves the
        // memory counters untouched and statistics stay bit-identical.
        if !self.jit.restore_from(&ckpt.jit, &self.imem) {
            return Err(RestoreError::Corrupt {
                what: "translation cache",
            });
        }
        self.cursors.clear();
        for cursor in &ckpt.cursors {
            let mapped = match cursor {
                None => None,
                Some((pc, off)) => {
                    let idx = self
                        .jit
                        .block_index_at(*pc)
                        .filter(|&block| {
                            let block = self.jit.block(block);
                            block.start == *pc && (*off as usize) < block.len()
                        })
                        .ok_or(RestoreError::Corrupt {
                            what: "trace cursor",
                        })?;
                    Some((idx, *off))
                }
            };
            self.cursors.push(mapped);
        }
        let mut used = vec![false; self.attached.len()];
        for (label, state) in &ckpt.observers {
            let target = self
                .attached
                .iter_mut()
                .zip(used.iter_mut())
                .find(|((_, o), used)| !**used && o.label() == label);
            // Entries with no attached observer under this label are
            // ignored: the caller chose not to re-attach that instrument.
            if let Some(((_, observer), used_slot)) = target {
                *used_slot = true;
                if !observer.load_state(state) {
                    return Err(RestoreError::ObserverMismatch {
                        label: label.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The set bits of a per-core mask, lowest core first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests;
