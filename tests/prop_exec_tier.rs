//! Differential testing of the compiled execution tier: for arbitrary
//! programs and for the paper's three kernels, a platform running with
//! [`ExecTier::Compiled`] must produce *bit-identical* architectural
//! state and statistics to the interpreter — registers, flags, PCs, the
//! whole data memory, cycle counts, and every SimStats counter except the
//! `jit` field itself (which describes the host execution strategy, not
//! the simulated machine).

use proptest::prelude::*;
use ulp_lockstep::isa::{encode, AluOp, Cond, CsrOp, Instr, Reg, ShiftKind, UnaryOp};
use ulp_lockstep::kernels::{run_benchmark_on, Benchmark, WorkloadConfig};
use ulp_lockstep::platform::{ExecTier, Platform, PlatformConfig, SimStats};

/// Strategy: one instruction of an SPMD body. Only forward skips (offset
/// 0 or 1) so every program terminates; loads and stores go through `r2`,
/// which the prologue points at the core's private DM bank.
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
        (reg(), any::<u8>()).prop_map(|(rd, imm)| Instr::MovHi { rd, imm }),
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
        // Forward-only conditional skips give the cores data-dependent
        // divergence — the exact situation where compiled traces must
        // keep falling back without drifting from the interpreter.
        (prop::sample::select(&Cond::ALL[..]), 0i16..=1)
            .prop_map(|(cond, offset)| Instr::Branch { cond, offset }),
        Just(Instr::Nop),
    ]
}

/// Prologue `r2 = id << 11` (private bank base), then the body, then HALT.
/// The trailing NOP guarantees a skip over HALT still lands on code.
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

/// Full machine state after a run, captured for bit-exact comparison.
#[derive(Debug, PartialEq)]
struct MachineState {
    cycles: u64,
    stats: SimStats,
    regs: Vec<Vec<u16>>,
    pcs: Vec<u16>,
    flags: Vec<ulp_lockstep::isa::Flags>,
    dm: Vec<u16>,
}

fn run_tier(words: &[u16], tier: ExecTier, cores: usize, with_sync: bool) -> MachineState {
    let cfg = PlatformConfig::paper(with_sync)
        .with_cores(cores)
        .with_max_cycles(2_000_000)
        .with_exec_tier(tier);
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_im(0, words);
    p.run().expect("terminates");
    let mut stats = p.stats();
    // The jit counters are the one field allowed to differ between tiers.
    stats.jit = Default::default();
    MachineState {
        cycles: p.cycle(),
        regs: (0..cores)
            .map(|i| Reg::ALL.iter().map(|&r| p.core(i).reg(r)).collect())
            .collect(),
        pcs: (0..cores).map(|i| p.core(i).pc()).collect(),
        flags: (0..cores).map(|i| p.core(i).flags()).collect(),
        dm: p.dm_slice(0, p.config().dm_words),
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary SPMD programs (private-bank memory traffic, forward
    /// skips) are bit-identical across tiers at 2, 4 and 8 cores, on both
    /// designs.
    #[test]
    fn compiled_tier_is_bit_identical(body in prop::collection::vec(body_instr(), 1..60)) {
        let words = build_program(&body);
        for cores in [2usize, 4, 8] {
            for with_sync in [true, false] {
                let interpreted = run_tier(&words, ExecTier::Interpreted, cores, with_sync);
                let compiled = run_tier(&words, ExecTier::Compiled, cores, with_sync);
                prop_assert_eq!(&interpreted, &compiled, "cores {} sync {}", cores, with_sync);
            }
        }
    }
}

/// A lockstep spin loop must actually execute in the compiled tier (not
/// just match it through fallback): a non-zero compiled-cycle count.
#[test]
fn lockstep_program_executes_compiled_cycles() {
    let src = "
        rdid r2
        movi r0, #13
    loop: addi r0, #-1
        bne loop
        halt
    ";
    let program = ulp_lockstep::isa::asm::assemble(src).expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync().with_exec_tier(ExecTier::Compiled);
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_program(&program);
    p.run().expect("terminates");
    let jit = p.stats().jit;
    assert!(jit.compiled_cycles > 0, "cycles ran compiled: {jit:?}");
    assert!(jit.fallback_cycles > 0, "boundaries fell back: {jit:?}");
}

/// A reset compiled-tier platform re-runs the same program with
/// identical statistics, `jit` counters included: nothing the compiled
/// tier keeps outlives the run.
#[test]
fn reset_platform_reruns_with_identical_stats() {
    let src = "
        movi r0, #9
    loop: addi r0, #-1
        bne loop
        halt
    ";
    let program = ulp_lockstep::isa::asm::assemble(src).expect("valid asm");
    let cfg = PlatformConfig::paper_with_sync().with_exec_tier(ExecTier::Compiled);
    let mut p = Platform::new(cfg).expect("valid config");
    p.load_program(&program);
    p.run().expect("terminates");
    let first = p.stats();
    assert!(first.jit.compiled_cycles > 0, "{:?}", first.jit);
    for run in [2, 3] {
        p.reset();
        p.load_program(&program);
        p.run().expect("terminates");
        assert_eq!(p.stats(), first, "run {run}");
    }
}

/// The paper's three kernels, golden-checked compiled-vs-interpreted at
/// 2, 4 and 8 cores: identical outputs (matching the golden model) and
/// identical statistics modulo the jit field.
#[test]
fn paper_kernels_bit_identical_across_tiers() {
    let workload = WorkloadConfig::quick_test();
    let mut compiled_cycles_total = 0u64;
    for benchmark in Benchmark::ALL {
        for cores in [2usize, 4, 8] {
            let cfg = |tier| {
                PlatformConfig::paper(true)
                    .with_cores(cores)
                    .with_max_cycles(workload.max_cycles)
                    .with_exec_tier(tier)
            };
            let interpreted = run_benchmark_on(benchmark, cfg(ExecTier::Interpreted), &workload)
                .expect("interpreted run");
            let compiled = run_benchmark_on(benchmark, cfg(ExecTier::Compiled), &workload)
                .expect("compiled run");
            interpreted.verify().expect("interpreted matches golden");
            compiled.verify().expect("compiled matches golden");
            assert_eq!(
                interpreted.outputs, compiled.outputs,
                "{benchmark:?} at {cores} cores: outputs diverge"
            );
            let mut a = interpreted.stats.clone();
            let mut b = compiled.stats.clone();
            compiled_cycles_total += b.jit.compiled_cycles;
            a.jit = Default::default();
            b.jit = Default::default();
            assert_eq!(a, b, "{benchmark:?} at {cores} cores: stats diverge");
        }
    }
    assert!(
        compiled_cycles_total > 0,
        "at least some kernel cycles ran through the compiled tier"
    );
}
