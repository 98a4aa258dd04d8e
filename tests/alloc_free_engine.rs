//! Proof that the cycle engine is allocation-free in steady state: wrap
//! the global allocator in a counter, warm a platform past its buffer
//! growth phase, then step it for thousands of cycles — through fetches,
//! bank conflicts, synchronizer barriers, sleeps and wakes — and assert
//! the allocation count does not move.
//!
//! This file holds exactly one test, so no concurrent test can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use ulp_lockstep::isa::asm::assemble;
use ulp_lockstep::platform::{ExecTier, Platform, PlatformConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An endless SPMD workload touching every engine phase: per-core
/// data-dependent spins, a shared `SINC`/`SDEC` barrier (sleep + wake),
/// loads, stores and an 8-way data bank conflict.
const SPIN_SRC: &str = "
        rdid r1
        mov  r2, r1
        shl  r2, #11       ; private bank base
        li   r3, 18432     ; sync array base
        wrsync r3
        mov  r4, r1
loop:   sinc #0
        add  r4, r1
        addi r4, #3
        mov  r5, r4
        movi r0, #7
        and  r5, r0
        inc  r5
spin:   addi r5, #-1       ; data-dependent 1..8 rounds
        bne  spin
        st   r4, [r2]
        ld   r0, [r2]
        ld   r6, [r1]      ; 8 distinct addresses, one bank: conflict
        sdec #0
        br   loop";

#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    let program = assemble(SPIN_SRC).expect("program assembles");
    let cfg = PlatformConfig::paper_with_sync().with_max_cycles(u64::MAX);
    let mut platform = Platform::new(cfg).expect("valid config");
    platform.load_program(&program);

    // Warm-up: let every scratch buffer reach its steady capacity.
    for _ in 0..2_000 {
        platform.step();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        platform.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::step allocated in steady state"
    );

    // The empty-observer fast path: `step_with(&mut [])` takes the same
    // observer-free engine as `step()` and must be just as allocation-free.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        platform.step_with(&mut []);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::step_with(&mut []) allocated in steady state"
    );

    // Sanity: the measured window really exercised the machine.
    let stats = platform.stats();
    assert!(stats.cycles >= 22_000);
    assert!(stats.sync.expect("synchronizer present").batches > 0);
    assert!(stats.dxbar.conflict_cycles > 0, "conflicts exercised");
    assert!(
        stats.core_total.sleep_cycles > 0,
        "barrier sleeps exercised"
    );

    // Past the warm-up, tiered stepping is also allocation-free — both
    // its uniform lockstep batches and its interpreter fallback cycles.
    let cfg = PlatformConfig::paper_with_sync()
        .with_max_cycles(u64::MAX)
        .with_exec_tier(ExecTier::Compiled);
    let mut platform = Platform::new(cfg).expect("valid config");
    platform.load_program(&program);
    for _ in 0..2_000 {
        platform.step_tiered();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut compiled = 0u64;
    for _ in 0..10_000 {
        compiled += platform.step_tiered() as u64;
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Platform::step_tiered allocated in steady state"
    );
    assert!(compiled > 0, "the window replayed compiled cycles");
}
