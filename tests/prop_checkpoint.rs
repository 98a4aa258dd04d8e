//! Differential testing of platform checkpoints: pausing a run at an
//! arbitrary cycle, snapshotting, round-tripping the snapshot through its
//! byte encoding, restoring into a *fresh* platform (or in place into a
//! recycled one) and running to completion must be bit-identical to the
//! golden uninterrupted run — registers, flags, PCs, the whole data
//! memory, cycle counts, every [`SimStats`] counter *including* the JIT
//! tier counters, and attached-observer artifacts.

use proptest::prelude::*;
use ulp_lockstep::isa::{encode, AluOp, Cond, CsrOp, Instr, Reg, ShiftKind, UnaryOp};
use ulp_lockstep::platform::{
    BankHeatMap, Checkpoint, ExecTier, PcTrace, Platform, PlatformConfig, RestoreError,
    RunProgress, SimStats,
};

/// Strategy: one instruction of an SPMD body — same shape as the exec-tier
/// differential suite (forward-only skips so every program terminates,
/// loads/stores confined to the core's private DM bank through `r2`).
fn body_instr() -> impl Strategy<Value = Instr> {
    let reg = || prop::sample::select(&[Reg::R0, Reg::R1, Reg::R3, Reg::R4, Reg::R5][..]);
    prop_oneof![
        (prop::sample::select(&AluOp::ALL[..]), reg(), reg()).prop_map(|(op, rd, rs)| Instr::Alu {
            op,
            rd,
            rs
        }),
        (reg(), -16i8..=15).prop_map(|(rd, imm)| Instr::AddI { rd, imm }),
        (reg(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovI { rd, imm }),
        (prop::sample::select(&ShiftKind::ALL[..]), reg(), 0u8..=15)
            .prop_map(|(kind, rd, amount)| Instr::Shift { kind, rd, amount }),
        (prop::sample::select(&UnaryOp::ALL[..]), reg())
            .prop_map(|(op, rd)| Instr::Unary { op, rd }),
        (reg(), 0i8..=15).prop_map(|(rd, offset)| Instr::Ld {
            rd,
            base: Reg::R2,
            offset
        }),
        (reg(), 0i8..=15).prop_map(|(rs, offset)| Instr::St {
            rs,
            base: Reg::R2,
            offset
        }),
        (prop::sample::select(&Cond::ALL[..]), 0i16..=1)
            .prop_map(|(cond, offset)| Instr::Branch { cond, offset }),
        Just(Instr::Nop),
    ]
}

/// Prologue `r2 = id << 11`, body, HALT (with a NOP landing pad).
fn build_program(body: &[Instr]) -> Vec<u16> {
    let mut words = Vec::with_capacity(body.len() + 5);
    for i in [
        Instr::Csr {
            op: CsrOp::RdId,
            rd: Reg::R2,
        },
        Instr::Shift {
            kind: ShiftKind::Shl,
            rd: Reg::R2,
            amount: 11,
        },
    ] {
        words.push(encode(i).expect("prologue encodes"));
    }
    for i in body {
        words.push(encode(*i).expect("body encodes"));
    }
    words.push(encode(Instr::Halt).expect("halt encodes"));
    words.push(encode(Instr::Nop).expect("nop encodes"));
    words.push(encode(Instr::Halt).expect("halt encodes"));
    words
}

/// Full machine state after a run. Unlike the cross-tier suite, both runs
/// here use the *same* tier, so even the JIT counters must match bit for
/// bit.
#[derive(Debug, PartialEq)]
struct MachineState {
    cycles: u64,
    stats: SimStats,
    regs: Vec<Vec<u16>>,
    pcs: Vec<u16>,
    flags: Vec<ulp_lockstep::isa::Flags>,
    dm: Vec<u16>,
}

fn capture(p: &Platform) -> MachineState {
    let cores = p.config().num_cores;
    MachineState {
        cycles: p.cycle(),
        regs: (0..cores)
            .map(|i| Reg::ALL.iter().map(|&r| p.core(i).reg(r)).collect())
            .collect(),
        pcs: (0..cores).map(|i| p.core(i).pc()).collect(),
        flags: (0..cores).map(|i| p.core(i).flags()).collect(),
        dm: p.dm_slice(0, p.config().dm_words),
        stats: p.stats(),
    }
}

fn config(tier: ExecTier, cores: usize) -> PlatformConfig {
    PlatformConfig::paper(true)
        .with_cores(cores)
        .with_max_cycles(2_000_000)
        .with_exec_tier(tier)
}

/// Golden uninterrupted run of `words`.
fn golden(words: &[u16], tier: ExecTier, cores: usize) -> MachineState {
    let mut p = Platform::new(config(tier, cores)).expect("valid config");
    p.load_im(0, words);
    p.run().expect("terminates");
    capture(&p)
}

/// Runs `words` to the pause point, snapshots through the byte encoding,
/// restores into a fresh platform and finishes the run there.
fn paused_and_migrated(words: &[u16], tier: ExecTier, cores: usize, pause: u64) -> MachineState {
    let mut p = Platform::new(config(tier, cores)).expect("valid config");
    p.load_im(0, words);
    match p.run_until(pause).expect("first slice runs") {
        RunProgress::Done(_) => capture(&p),
        RunProgress::Paused => {
            assert_eq!(p.cycle(), pause, "pause lands exactly on the limit");
            let blob = p.snapshot().to_bytes();
            let ckpt = Checkpoint::from_bytes(&blob).expect("blob round-trips");
            let mut q = Platform::restore(&ckpt).expect("restore succeeds");
            q.run().expect("resumed run terminates");
            capture(&q)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Restore-at-an-arbitrary-cycle is bit-identical to never pausing,
    /// on both execution tiers, at 2, 4 and 8 cores.
    #[test]
    fn restore_mid_run_is_bit_identical(
        body in prop::collection::vec(body_instr(), 1..48),
        pause_seed in any::<u64>(),
    ) {
        let words = build_program(&body);
        for tier in [ExecTier::Interpreted, ExecTier::Compiled] {
            for cores in [2usize, 4, 8] {
                let reference = golden(&words, tier, cores);
                let pause = 1 + pause_seed % reference.cycles.max(1);
                let resumed = paused_and_migrated(&words, tier, cores, pause);
                prop_assert_eq!(
                    &reference, &resumed,
                    "tier {:?} cores {} pause {}", tier, cores, pause
                );
            }
        }
    }
}

/// A lockstep loop checkpointed at *every* cycle of its run: the compiled
/// tier's counters and fetch/execute pairs split by the pause survive
/// snapshot/restore bit-exactly.
#[test]
fn compiled_loop_survives_checkpoint_at_every_cycle() {
    let src = "
        rdid r2
        movi r0, #11
    loop: addi r0, #-1
        sinc #0
        bne loop
        halt
    ";
    let program = ulp_lockstep::isa::asm::assemble(src).expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync().with_exec_tier(ExecTier::Compiled);

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&program);
    p.run().expect("terminates");
    let reference = capture(&p);
    assert!(
        reference.stats.jit.compiled_cycles > 0,
        "loop runs compiled"
    );

    for pause in 1..reference.cycles {
        let mut q = Platform::new(cfg.clone()).expect("valid config");
        q.load_program(&program);
        assert!(matches!(
            q.run_until(pause).expect("first slice"),
            RunProgress::Paused
        ));
        let ckpt = q.snapshot();
        let mut r = Platform::restore(&ckpt).expect("restore succeeds");
        r.run().expect("resumed run terminates");
        assert_eq!(reference, capture(&r), "diverged after pause at {pause}");
    }
}

/// The in-place [`Platform::restore_from`] path — a *recycled* platform
/// (mid-way through a different program) adopts a checkpoint and finishes
/// the run bit-identically. This is the service's migration fast path.
#[test]
fn restore_in_place_onto_recycled_platform() {
    let job = ulp_lockstep::isa::asm::assemble(
        "
        rdid r2
        movi r0, #40
    loop: addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let other = ulp_lockstep::isa::asm::assemble(
        "
        movi r5, #7
        movi r6, #9
        add r5, r6
        halt
    ",
    )
    .expect("valid asm");

    let cfg = PlatformConfig::paper_with_sync().with_exec_tier(ExecTier::Compiled);

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&job);
    p.run().expect("terminates");
    let reference = capture(&p);

    let mut q = Platform::new(cfg.clone()).expect("valid config");
    q.load_program(&job);
    assert!(matches!(
        q.run_until(reference.cycles / 2).expect("first slice"),
        RunProgress::Paused
    ));
    let ckpt = q.snapshot();

    // The adopting platform has run something else.
    let mut r = Platform::new(cfg).expect("valid config");
    r.load_program(&other);
    r.run().expect("other program terminates");
    r.reset();
    r.restore_from(&ckpt).expect("in-place restore succeeds");
    r.run().expect("resumed run terminates");
    assert_eq!(reference, capture(&r));
}

/// Attached observers checkpoint with the platform: a PC trace and a DM
/// bank heat map restored mid-run end up with exactly the artifacts of an
/// uninterrupted instrumented run.
#[test]
fn attached_observers_round_trip_through_checkpoints() {
    let program = ulp_lockstep::isa::asm::assemble(
        "
        rdid r2
        movi r0, #25
    loop: st r0, [r2]
        addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync();

    let mut p = Platform::new(cfg.clone()).expect("valid config");
    let trace = p.attach(Box::new(PcTrace::new(4096)));
    let heat = p.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    p.load_program(&program);
    p.run().expect("terminates");
    let reference = capture(&p);
    let reference_rows: Vec<_> = p
        .observer_as::<PcTrace>(&trace)
        .expect("trace attached")
        .rows()
        .to_vec();
    let reference_heat: Vec<_> = p
        .observer_as::<BankHeatMap>(&heat)
        .expect("heat map attached")
        .rows()
        .to_vec();
    assert!(!reference_rows.is_empty(), "trace recorded rows");

    let mut q = Platform::new(cfg.clone()).expect("valid config");
    q.attach(Box::new(PcTrace::new(4096)));
    q.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    q.load_program(&program);
    assert!(matches!(
        q.run_until(reference.cycles / 3).expect("first slice"),
        RunProgress::Paused
    ));
    let blob = q.snapshot().to_bytes();
    let ckpt = Checkpoint::from_bytes(&blob).expect("blob round-trips");
    assert_eq!(ckpt.observers.len(), 2, "both observers checkpointed");

    // Observers must be attached *before* the restore so the checkpointed
    // state has somewhere to land.
    let mut r = Platform::new(cfg.clone()).expect("valid config");
    let trace = r.attach(Box::new(PcTrace::new(4096)));
    let heat = r.attach(Box::new(BankHeatMap::for_dm(&cfg, 16)));
    r.restore_from(&ckpt).expect("restore succeeds");
    r.run().expect("resumed run terminates");
    assert_eq!(reference, capture(&r));
    assert_eq!(
        reference_rows,
        r.observer_as::<PcTrace>(&trace).expect("attached").rows(),
        "PC trace artifacts identical"
    );
    assert_eq!(
        reference_heat,
        r.observer_as::<BankHeatMap>(&heat)
            .expect("attached")
            .rows(),
        "heat-map artifacts identical"
    );

    // Restoring into a platform whose observer has different geometry is
    // a typed failure, not silent drift.
    let mut bad = Platform::new(cfg.clone()).expect("valid config");
    bad.attach(Box::new(BankHeatMap::for_dm(&cfg, 999)));
    assert_eq!(
        bad.restore_from(&ckpt),
        Err(RestoreError::ObserverMismatch {
            label: "bank-heat-map".into()
        })
    );
}

/// Structural config mismatches are rejected with a typed error; the
/// adopted (non-structural) run parameters come from the checkpoint.
#[test]
fn restore_rejects_structural_mismatch_and_adopts_run_parameters() {
    let program = ulp_lockstep::isa::asm::assemble(
        "
        movi r0, #30
    loop: addi r0, #-1
        bne loop
        halt
    ",
    )
    .expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync()
        .with_max_cycles(123_456)
        .with_exec_tier(ExecTier::Compiled);
    let mut p = Platform::new(cfg.clone()).expect("valid config");
    p.load_program(&program);
    assert!(matches!(
        p.run_until(10).expect("first slice"),
        RunProgress::Paused
    ));
    let ckpt = p.snapshot();

    // Fewer cores: structurally different.
    let mut small =
        Platform::new(PlatformConfig::paper_with_sync().with_cores(4)).expect("valid config");
    assert_eq!(small.restore_from(&ckpt), Err(RestoreError::ConfigMismatch));

    // Same structure, different budget/tier: adopted from the checkpoint.
    let mut q = Platform::new(
        PlatformConfig::paper_with_sync()
            .with_max_cycles(50)
            .with_exec_tier(ExecTier::Interpreted),
    )
    .expect("valid config");
    q.restore_from(&ckpt).expect("restore succeeds");
    assert_eq!(q.config().max_cycles, 123_456);
    assert_eq!(q.config().exec_tier, ExecTier::Compiled);
    q.run().expect("resumed run terminates");
}
