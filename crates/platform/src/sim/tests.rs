use super::*;
use ulp_isa::asm::assemble;
use ulp_isa::Reg;

/// Sync array base: bank 9 of the 16-bank 64 kB DM (2048 words per bank).
const SYNC_BASE: u16 = 9 * 2048;

fn platform(with_sync: bool, src: &str) -> Platform {
    let program = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut p = Platform::new(PlatformConfig::paper(with_sync).with_max_cycles(2_000_000)).unwrap();
    p.load_program(&program);
    p
}

/// Branch-free SPMD program: each core computes in its own DM bank.
const LOCKSTEP_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11     ; r2 = id * 2048 (own bank base)
        movi r3, #7
        st   r3, [r2]
        ld   r4, [r2]
        add  r4, r4
        st   r4, [r2, #1]
        halt";

#[test]
fn branchless_spmd_stays_in_perfect_lockstep() {
    let mut p = platform(true, LOCKSTEP_SRC);
    p.run().unwrap();
    let s = p.stats();

    // Every instruction is fetched once and broadcast to all eight cores.
    assert_eq!(s.im.bank_reads, 9, "one physical IM access per instruction");
    assert_eq!(s.im.broadcast_extra, 9 * 7);
    assert!(
        (s.avg_lockstep_width() - 8.0).abs() < 1e-9,
        "width {}",
        s.avg_lockstep_width()
    );
    assert_eq!(s.ixbar.stalls, 0);
    assert_eq!(s.dxbar.stalls, 0);

    // 9 instructions x 2 cycles, fully parallel.
    assert_eq!(s.cycles, 18);
    // 8 useful ops per core (HALT is overhead) over 18 cycles.
    assert!((s.ops_per_cycle() - 64.0 / 18.0).abs() < 1e-9);

    // Results landed in each core's bank.
    for id in 0..8u16 {
        assert_eq!(p.dm(id * 2048), 7);
        assert_eq!(p.dm(id * 2048 + 1), 14);
    }
}

#[test]
fn shared_constant_read_broadcasts() {
    let src = "
        li   r5, 16384    ; shared-constants bank
        ld   r6, [r5]     ; same address on all cores -> broadcast
        halt";
    let mut p = platform(true, src);
    p.set_dm(16384, 1234);
    p.run().unwrap();
    let s = p.stats();
    assert_eq!(s.dm.bank_reads, 1, "one physical DM access for 8 readers");
    assert_eq!(s.dm.broadcast_extra, 7);
    for i in 0..8 {
        assert_eq!(p.core(i).reg(Reg::R6), 1234);
    }
}

#[test]
fn same_bank_conflict_serializes_but_syncaware_keeps_lockstep() {
    // Every iteration, all cores load *different* addresses of one shared
    // bank (an 8-way data access conflict) and then execute a long
    // straight-line body. The baseline crossbar lets served cores run
    // ahead, so the bodies execute out of phase and fight over the single
    // IM bank; the enhanced policy holds the synchronous group together
    // and keeps every fetch a broadcast.
    let src = "
        rdid r1
        li   r2, 0x100
        add  r2, r1        ; 8 distinct addresses in DM bank 0
        movi r4, #16       ; iterations
loop:   ld   r3, [r2]      ; 8-way bank conflict every iteration
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        addi r4, #-1
        bne  loop
        halt";

    let mut with = platform(true, src);
    with.run().unwrap();
    let s_with = with.stats();

    let mut without = platform(false, src);
    without.run().unwrap();
    let s_without = without.stats();

    assert!(s_with.dxbar.holds > 0, "held cores expected");
    assert!(s_with.dxbar.releases > 0);
    assert_eq!(s_without.dxbar.holds, 0, "baseline never holds");

    // The enhanced policy keeps the group in perfect lockstep...
    assert!(
        (s_with.avg_lockstep_width() - 8.0).abs() < 1e-9,
        "width {}",
        s_with.avg_lockstep_width()
    );
    assert!(s_without.avg_lockstep_width() < 6.0);

    // ...which cuts the physical IM traffic dramatically (the paper's
    // instruction-broadcast power saving; up to 60 % in Section V-B)...
    let reduction = 1.0 - s_with.im.total_accesses() as f64 / s_without.im.total_accesses() as f64;
    assert!(reduction > 0.4, "IM access reduction only {reduction:.2}");

    // ...at a bounded cycle cost: holding trades a little overlap for
    // lockstep, so it must stay within a few percent of the baseline on
    // this conflict-pipeline workload.
    assert!(
        (s_with.cycles as f64) < 1.10 * s_without.cycles as f64,
        "{} vs {}",
        s_with.cycles,
        s_without.cycles
    );
}

/// The Listing-1 pattern of the paper, repeated in a loop: a data-dependent
/// conditional section wrapped in `SINC`/`SDEC`. Each core decides from its
/// own rolling value whether to take the long path, so the group splits
/// differently every iteration — without resynchronization the cores drift
/// apart permanently.
const DIVERGENT_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11
        li   r3, 18432     ; SYNC_BASE
        wrsync r3
        mov  r4, r1        ; rolling per-core value
        movi r6, #24       ; iterations
loop:   sinc #0
        add  r4, r1
        addi r4, #3        ; evolve the per-core value
        mov  r5, r4
        movi r0, #7
        and  r5, r0        ; n = value & 7: per-core trip count
        inc  r5
spin:   addi r5, #-1       ; data-dependent loop (0..7 extra rounds)
        bne  spin
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
        add  r0, r0
skip:   sdec #0
        addi r6, #-1
        bne  loop
        movi r5, #42
        st   r5, [r2]
        halt";

#[test]
fn divergent_section_resynchronizes_at_checkout() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let s = p.stats();

    // Functional result.
    for id in 0..8u16 {
        assert_eq!(p.dm(id * 2048), 42, "core {id}");
    }
    // The barrier bookkeeping balanced and the word was cleared.
    assert_eq!(p.dm(SYNC_BASE), 0, "sync word cleared after release");
    let sync = s.sync.expect("synchronizer present");
    assert_eq!(sync.checkin_requests, 8 * 24, "8 cores x 24 iterations");
    assert_eq!(sync.checkout_requests, 8 * 24);
    assert_eq!(sync.releases, 24, "one barrier release per iteration");
    assert!(sync.wakeups > 0, "early finishers must have slept");
    assert_eq!(s.core_total.checkins, 8 * 24);
    assert_eq!(s.core_total.checkouts, 8 * 24);
}

#[test]
fn synchronizer_speeds_up_divergent_workload() {
    let mut with = platform(true, DIVERGENT_SRC);
    with.run().unwrap();
    let s_with = with.stats();

    let mut without = platform(false, DIVERGENT_SRC);
    without.run().unwrap();
    let s_without = without.stats();

    // Same functional result on the baseline design.
    for id in 0..8u16 {
        assert_eq!(without.dm(id * 2048), 42);
    }

    // The improved design finishes the run in fewer cycles, executes more
    // ops per cycle and needs fewer physical IM accesses — the paper's
    // Section V-B effects in miniature.
    assert!(
        s_with.cycles < s_without.cycles,
        "{} vs {}",
        s_with.cycles,
        s_without.cycles
    );
    assert!(s_with.ops_per_cycle() > s_without.ops_per_cycle());
    assert!(
        s_with.im.total_accesses() < s_without.im.total_accesses(),
        "broadcasting must cut IM accesses: {} vs {}",
        s_with.im.total_accesses(),
        s_without.im.total_accesses()
    );
    assert!(s_with.avg_lockstep_width() > s_without.avg_lockstep_width());

    // Baseline executed the sync instructions as NOPs.
    assert!(s_without.sync.is_none());
    assert_eq!(s_without.core_total.checkins, 0);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut p = platform(true, DIVERGENT_SRC);
        p.run().unwrap();
        p.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be fully deterministic");
}

#[test]
fn unbalanced_checkout_deadlocks_cleanly() {
    // Core 0 never checks out: the others sleep forever at the barrier.
    let src = "
        li   r3, 18432
        wrsync r3
        rdid r1
        cmpi r1, #0
        beq  stop
        sinc #1
        sdec #1
stop:   halt";
    // All cores except core 0 check in (7 cores), then check out; the
    // *last* of them releases the rest, so this actually completes.
    let mut p = platform(true, src);
    p.run().unwrap();

    // Now a real deadlock: eight check-ins but only seven check-outs.
    let src = "
        li   r3, 18432
        wrsync r3
        sinc #2
        rdid r1
        cmpi r1, #3
        beq  stop        ; core 3 leaves the section without SDEC
        sdec #2
        halt
stop:   halt";
    let mut p = platform(true, src);
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Deadlock { .. }), "{err}");
}

#[test]
fn timeout_is_reported() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(100)).unwrap();
    p.load_program(&assemble("loop: br loop").unwrap());
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::Timeout { budget: 100 }));
}

#[test]
fn illegal_instruction_faults_the_run() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync()).unwrap();
    p.load_im(0, &[0xF800]);
    let err = p.run().unwrap_err();
    assert!(matches!(err, PlatformError::CoreFault { .. }));
}

#[test]
fn interrupt_wakes_sleeping_core() {
    let src = "
        br   main
        br   isr
main:   ei
        sleep
        movi r2, #2
        halt
isr:    movi r3, #3
        iret";
    let mut p = platform(true, src);
    // Run until all cores sleep.
    for _ in 0..200 {
        p.step();
    }
    assert!((0..8).all(|i| p.core(i).is_sleeping()));
    p.raise_irq(5);
    for _ in 0..200 {
        p.step();
    }
    assert!(p.core(5).is_halted());
    assert_eq!(p.core(5).reg(Reg::R2), 2);
    assert_eq!(p.core(5).reg(Reg::R3), 3);
    assert!(p.core(0).is_sleeping(), "others still asleep");
}

#[test]
fn single_core_platform_works() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_cores(1)).unwrap();
    p.load_program(
        &assemble(
            "   li   r3, 18432
                wrsync r3
                sinc #0
                movi r1, #9
                sdec #0
                halt",
        )
        .unwrap(),
    );
    p.run().unwrap();
    assert_eq!(p.core(0).reg(Reg::R1), 9);
    assert_eq!(p.dm(SYNC_BASE), 0);
}

#[test]
fn pc_trace_records_fetches() {
    let mut p = platform(true, LOCKSTEP_SRC);
    let mut trace = crate::PcTrace::new(6);
    p.run_with(&mut [&mut trace]).unwrap();
    let trace = trace.rows();
    assert_eq!(trace.len(), 6);
    // Cycle 1: every core fetches address 0.
    assert!(trace[0].iter().all(|pc| *pc == Some(0)));
    // Cycle 2: execute phase, nobody fetches.
    assert!(trace[1].iter().all(|pc| pc.is_none()));
    // Cycle 3: every core fetches address 1.
    assert!(trace[2].iter().all(|pc| *pc == Some(1)));
}

/// A probe overriding every hook, counting what it sees.
#[derive(Default)]
struct CountingObserver {
    cycle_starts: u64,
    core_phases: u64,
    fetch_cycles: u64,
    cycle_ends: u64,
    run_ends: u64,
    last_outcome_ok: Option<bool>,
}

impl crate::Observer for CountingObserver {
    fn on_cycle_start(&mut self, _cycle: u64, _cores: &[ulp_cpu::Core]) {
        self.cycle_starts += 1;
    }
    fn on_core_phase(&mut self, _cycle: u64, _core: usize, _pc: u16, _phase: CoreState) {
        self.core_phases += 1;
    }
    fn on_fetch(&mut self, _cycle: u64, fetch_reqs: &[ulp_mem::ImRequest]) {
        if !fetch_reqs.is_empty() {
            self.fetch_cycles += 1;
        }
    }
    fn on_cycle_end(&mut self, _cycle: u64, _cores: &[ulp_cpu::Core]) {
        self.cycle_ends += 1;
    }
    fn on_run_end(&mut self, outcome: &Result<RunSummary, PlatformError>, stats: &SimStats) {
        self.run_ends += 1;
        self.last_outcome_ok = Some(outcome.is_ok());
        assert!(stats.cycles > 0);
    }
}

#[test]
fn observed_run_is_bit_identical_to_bare_run() {
    let mut bare = platform(true, DIVERGENT_SRC);
    bare.run().unwrap();
    let bare_stats = bare.stats();

    let mut observed = platform(true, DIVERGENT_SRC);
    let mut counting = CountingObserver::default();
    let mut trace = crate::PcTrace::new(128);
    let mut vcd = crate::VcdTracer::new(&observed);
    let mut width = crate::LockstepWidth::new();
    observed
        .run_with(&mut [&mut counting, &mut trace, &mut vcd, &mut width])
        .unwrap();
    let observed_stats = observed.stats();

    assert_eq!(
        bare_stats, observed_stats,
        "observers must not perturb the run"
    );
    for id in 0..8u16 {
        assert_eq!(observed.dm(id * 2048), 42);
    }

    // The probes actually saw the run.
    assert_eq!(counting.cycle_starts, observed_stats.cycles);
    assert_eq!(counting.cycle_ends, observed_stats.cycles);
    assert_eq!(counting.core_phases, observed_stats.cycles * 8);
    assert_eq!(counting.run_ends, 1);
    assert_eq!(counting.last_outcome_ok, Some(true));
    assert_eq!(trace.rows().len(), 128);
    assert_eq!(vcd.samples(), observed_stats.cycles);
    // The standalone width recorder sees the same fetches as the built-in.
    assert_eq!(width.sum(), observed_stats.lockstep_width_sum);
    assert_eq!(width.cycles(), observed_stats.lockstep_width_cycles);
    assert!(counting.fetch_cycles == width.cycles());
}

#[test]
fn deadlock_still_fires_with_observers_attached() {
    let src = "
        li   r3, 18432
        wrsync r3
        sinc #2
        rdid r1
        cmpi r1, #3
        beq  stop        ; core 3 leaves the section without SDEC
        sdec #2
        halt
stop:   halt";
    let mut p = platform(true, src);
    let mut counting = CountingObserver::default();
    let mut vcd = crate::VcdTracer::new(&p);
    let err = p.run_with(&mut [&mut counting, &mut vcd]).unwrap_err();
    assert!(matches!(err, PlatformError::Deadlock { .. }), "{err}");
    assert_eq!(counting.run_ends, 1);
    assert_eq!(counting.last_outcome_ok, Some(false));
}

#[test]
fn timeout_still_fires_with_observers_attached() {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_max_cycles(100)).unwrap();
    p.load_program(&assemble("loop: br loop").unwrap());
    let mut counting = CountingObserver::default();
    let err = p.run_with(&mut [&mut counting]).unwrap_err();
    assert!(matches!(err, PlatformError::Timeout { budget: 100 }));
    assert_eq!(counting.cycle_starts, 100, "ran exactly the budget");
    assert_eq!(counting.last_outcome_ok, Some(false));
}

#[test]
fn reset_reuses_a_platform_for_a_fresh_run() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let first = p.stats();

    p.reset();
    assert_eq!(p.cycle(), 0);
    assert_eq!(p.stats().im.total_accesses(), 0);
    assert_eq!(p.dm(SYNC_BASE), 0);

    // Re-load and re-run: bit-identical statistics.
    let program = assemble(DIVERGENT_SRC).unwrap();
    p.load_program(&program);
    p.run().unwrap();
    assert_eq!(p.stats(), first, "reset platform must replay identically");

    // Reset also clears loaded state: a fresh run of a different program
    // must not see the old image.
    p.reset();
    p.load_program(&assemble("movi r1, #5\nhalt").unwrap());
    p.run().unwrap();
    assert_eq!(p.core(0).reg(Reg::R1), 5);
    assert_eq!(p.dm(0), 0, "old data memory contents cleared");
}

#[test]
fn stats_include_all_components() {
    let mut p = platform(true, DIVERGENT_SRC);
    p.run().unwrap();
    let s = p.stats();
    assert_eq!(s.num_cores, 8);
    assert_eq!(s.cores.len(), 8);
    assert!(s.cycles > 0);
    assert!(s.im.total_accesses() > 0);
    assert!(s.dm.total_accesses() > 0);
    assert!(s.ixbar.grants > 0);
    assert!(s.dxbar.grants > 0);
    assert!(s.sync.unwrap().batches > 0);
    let per_core_retired: u64 = s.cores.iter().map(|c| c.retired).sum();
    assert_eq!(per_core_retired, s.core_total.retired);
}

#[test]
fn run_summary_matches_cycle_count() {
    let mut p = platform(true, LOCKSTEP_SRC);
    let summary = p.run().unwrap();
    assert_eq!(summary.cycles, p.cycle());
    assert!(p.all_halted());
}

/// A divergent SPMD loop with a barrier: every core spins a data-dependent
/// number of rounds, checks out, stores its result and halts.
const BARRIER_LOOP_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11
        li   r3, 18432
        wrsync r3
        movi r4, #5
outer:  sinc #0
        mov  r5, r1
        inc  r5
spin:   addi r5, #-1
        bne  spin
        add  r6, r4
        sdec #0
        addi r4, #-1
        bne  outer
        st   r6, [r2]
        halt";

/// A different, shorter kernel at the same addresses.
const OTHER_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11
        movi r3, #9
        add  r3, r1
        st   r3, [r2, #1]
        halt";

/// Everything a run leaves behind: its outcome (a fault carries the
/// core, PC and word), the final cycle, the statistics and the cores'
/// data banks.
type RunEnd = (Result<RunSummary, PlatformError>, u64, SimStats, Vec<u16>);

fn run_to_end(p: &mut Platform) -> RunEnd {
    let outcome = p.run();
    (outcome, p.cycle(), p.stats(), p.dm_slice(0, 8 * 2048))
}

/// The same run interpreted, decoding every fetched word: with the
/// predecoded table emptied, every fetch takes the decoding path. The
/// compiled tier's counters are cleared (a restored run carries them).
fn run_decoding_every_fetch(p: &mut Platform) -> RunEnd {
    p.set_exec_tier(ExecTier::Interpreted);
    p.predecoded.clear();
    p.pure_runs.clear();
    without_jit(run_to_end(p))
}

/// A run's end with the compiled tier's counters cleared: what must not
/// differ between tiers.
fn without_jit(mut end: RunEnd) -> RunEnd {
    end.2.jit = JitStats::default();
    end
}

const TIERS: [ExecTier; 2] = [ExecTier::Interpreted, ExecTier::Compiled];

fn words(src: &str) -> Vec<u16> {
    let program = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut image = vec![0u16; program.iter().map(|(a, _)| a as usize + 1).max().unwrap()];
    for (addr, word) in program.iter() {
        image[addr as usize] = word;
    }
    image
}

#[test]
fn predecode_follows_load_im_over_a_loaded_program() {
    for tier in TIERS {
        let build = || {
            let mut p = platform(true, BARRIER_LOOP_SRC);
            p.set_exec_tier(tier);
            p.load_im(0, &words(OTHER_SRC));
            p
        };
        let mut p = build();
        assert_eq!(p.predecoded.len(), words(BARRIER_LOOP_SRC).len());
        let end = run_to_end(&mut p);
        assert!(end.0.is_ok());
        assert_eq!(end.3[1], 9, "core 0 ran the overwriting kernel");
        assert_eq!(without_jit(end), run_decoding_every_fetch(&mut build()));
    }
}

#[test]
fn pure_runs_end_at_memory_control_and_boundary_ops() {
    let mut p = platform(
        true,
        "       addi r0, #1
                ld   r1, [r2]
                addi r0, #1
                addi r0, #1
                br   next
        next:   addi r0, #1
                sinc #0
                addi r0, #1
                halt",
    );
    p.load_im(9, &[0x0001, 0x0000]);
    assert_eq!(p.predecoded[9], None, "an illegal word");
    assert_eq!(p.pure_runs, [1, 0, 2, 1, 0, 1, 0, 1, 0, 0, 1]);
}

#[test]
fn pure_runs_follow_load_im_inside_a_run() {
    // Word 5 (`add r5, r3`) sits inside the loop's pure run. Overwriting
    // it with a load must end the batch there; writing it back must
    // restore the run.
    let original = words(PURE_THEN_MEM_SRC);
    let load = words("ld r5, [r2]")[0];
    for (word, pure) in [(load, false), (original[5], true)] {
        for tier in TIERS {
            let build = || {
                let mut p = platform(false, PURE_THEN_MEM_SRC);
                p.set_exec_tier(tier);
                p.load_im(5, &[load]);
                p.load_im(5, &[word]);
                p
            };
            let mut p = build();
            assert_eq!(p.pure_runs[4], if pure { 3 } else { 1 });
            let end = run_to_end(&mut p);
            assert!(end.0.is_ok());
            if tier == ExecTier::Compiled {
                assert!(end.2.jit.compiled_cycles > 0, "{:?}", end.2.jit);
            }
            assert_eq!(without_jit(end), run_decoding_every_fetch(&mut build()));
        }
    }
}

#[test]
fn predecode_is_rebuilt_on_restore_onto_a_platform_that_ran_another_kernel() {
    for tier in TIERS {
        let mut recycled = platform(true, BARRIER_LOOP_SRC);
        recycled.set_exec_tier(tier);
        recycled.run().unwrap();

        let mut source = platform(true, OTHER_SRC);
        source.set_exec_tier(tier);
        assert!(!source.run_until(6).unwrap().is_done());
        let ckpt = source.snapshot();

        recycled.restore_from(&ckpt).unwrap();
        assert_eq!(recycled.predecoded.len(), words(OTHER_SRC).len());
        assert_eq!(recycled.pure_runs.len(), words(OTHER_SRC).len());
        let end = run_to_end(&mut recycled);
        assert!(end.0.is_ok());
        assert_eq!(end, run_to_end(&mut source), "resumes like the original");
        let mut oracle = Platform::restore(&ckpt).unwrap();
        assert_eq!(without_jit(end), run_decoding_every_fetch(&mut oracle));
    }
}

#[test]
fn illegal_word_beyond_the_extent_faults_like_decoding_every_fetch() {
    // The jump lands on an illegal word written far past the program (the
    // table grows across the gap), then on the same word through an
    // address that aliases it past the end of the IM.
    let im_words = PlatformConfig::paper_with_sync().im_words as u16;
    for target in [300u16, im_words + 300] {
        let src = format!("li r1, {target}\n jr r1");
        let build = || {
            let mut p = platform(true, &src);
            p.load_im(300, &[0x0001]);
            p
        };
        let mut p = build();
        assert_eq!(p.predecoded.len(), 301);
        assert_eq!(p.predecoded[300], None);
        let end = run_to_end(&mut p);
        let Err(PlatformError::CoreFault { error, .. }) = end.0 else {
            panic!("expected a core fault, got {:?}", end.0);
        };
        assert_eq!(
            error,
            ulp_cpu::CoreError::IllegalInstruction {
                pc: target,
                word: 0x0001
            }
        );
        assert_eq!(end, run_decoding_every_fetch(&mut build()));
    }
}

/// A lockstep loop whose pure runs end just before a load and a store:
/// every core works in its own DM bank, so the group never diverges.
const PURE_THEN_MEM_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11
        movi r4, #40
loop:   addi r3, #1
        add  r5, r3
        addi r6, #2
        ld   r7, [r2]
        add  r7, r5
        add  r7, r6
        st   r7, [r2]
        addi r4, #-1
        bne  loop
        halt";

/// Manual steps between compiled slices: a compiled slice may pause right
/// after a batch, with the group about to fetch the op after its pure run
/// (a load, a store or another pure op). A manual `step` then fetches that
/// op, and the next compiled run must finish it exactly like the
/// interpreter — a memory op through the D-Xbar, never inside a batch.
#[test]
fn manual_step_after_a_compiled_slice_matches_the_interpreter() {
    let golden = {
        let mut p = platform(false, PURE_THEN_MEM_SRC);
        run_to_end(&mut p)
    };
    assert!(golden.0.is_ok());
    let (ld_pc, st_pc) = (7u16, 10u16);
    let mut paused_on_mem = [false; 2];
    for limit in 1..400 {
        let mut p = platform(false, PURE_THEN_MEM_SRC);
        p.set_exec_tier(ExecTier::Compiled);
        if p.run_until(limit).unwrap().is_done() {
            break;
        }
        let group_fetches = |at: u16| {
            (0..p.num_cores())
                .all(|i| p.core(i).state() == CoreState::Fetch && p.core(i).pc() == at)
        };
        paused_on_mem[0] |= group_fetches(ld_pc);
        paused_on_mem[1] |= group_fetches(st_pc);
        p.step();
        let end = without_jit(run_to_end(&mut p));
        assert_eq!(end, golden, "paused at cycle {limit}");
    }
    assert_eq!(paused_on_mem, [true, true], "a slice paused before each");
}

/// Runs `src` on two cores whose interrupt line is raised before the run,
/// in `tier`; returns the run's end and each core's `r3`.
fn run_with_irq_raised(src: &str, tier: ExecTier) -> (RunEnd, Vec<u16>) {
    let mut p = Platform::new(PlatformConfig::paper_with_sync().with_cores(2)).unwrap();
    p.set_exec_tier(tier);
    p.load_program(&assemble(src).unwrap());
    p.raise_irq(0);
    p.raise_irq(1);
    let end = run_to_end(&mut p);
    (end, (0..2).map(|i| p.core(i).reg(Reg::R3)).collect())
}

/// A pending interrupt unmasked by a pure op (`EI`, `WRSR`) is taken at
/// the next instruction boundary on both tiers: a batch must not run
/// past it.
#[test]
fn interrupt_unmasked_by_a_pure_op_is_taken_at_the_next_boundary() {
    for unmask in ["ei", "movi r2, #16\n wrsr r2"] {
        let src = format!(
            "       br   main
                    br   isr
            main:   movi r1, #0
                    {unmask}
                    addi r1, #1
                    addi r1, #1
                    addi r1, #1
                    addi r1, #1
                    halt
            isr:    add  r3, r1
                    iret"
        );
        let (interpreted, isr_saw) = run_with_irq_raised(&src, ExecTier::Interpreted);
        assert!(interpreted.0.is_ok());
        assert_eq!(interpreted.2.core_total.interrupts, 2);
        assert_eq!(isr_saw, [0, 0], "taken right after {unmask}");
        let (compiled, compiled_isr_saw) = run_with_irq_raised(&src, ExecTier::Compiled);
        assert!(compiled.2.jit.compiled_cycles > 0, "{unmask}");
        assert_eq!(without_jit(compiled), interpreted, "{unmask}");
        assert_eq!(compiled_isr_saw, isr_saw, "{unmask}");
    }
}
