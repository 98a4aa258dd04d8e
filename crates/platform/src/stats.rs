//! Aggregated simulation statistics — the inputs to the power model.

use ulp_cpu::CoreStats;
use ulp_mem::{DXbarStats, IXbarStats, MemStats};
use ulp_sync::SyncStats;

/// Per-run counters of the compiled tier, reported in [`SimStats::jit`].
///
/// All zero for interpreted runs. For compiled runs,
/// `compiled_cycles + fallback_cycles` equals the run's total cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Always 0: the compiled tier has no translation cache. Kept while
    /// the repository benchmark still reports it.
    pub translations: u64,
    /// Always 0, like [`JitStats::translations`].
    pub hits: u64,
    /// Cycles executed inside uniform lockstep batches — the only cycles
    /// the compiled tier runs without the interpreter.
    pub compiled_cycles: u64,
    /// Cycles run by the interpreter (cores not in uniform lockstep,
    /// fidelity boundaries, observer-attached cycles).
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

/// Everything the power model and the experiment harness need to know
/// about one simulation run.
///
/// Produced by [`crate::Platform::stats`]. All cycle counts are platform
/// clock cycles; all event counts are totals over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Platform cycles simulated.
    pub cycles: u64,
    /// Number of cores.
    pub num_cores: usize,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Sum of the per-core counters.
    pub core_total: CoreStats,
    /// Instruction-memory physical access counters.
    pub im: MemStats,
    /// Data-memory physical access counters (includes the synchronizer's
    /// read-modify-write traffic).
    pub dm: MemStats,
    /// Instruction crossbar counters.
    pub ixbar: IXbarStats,
    /// Data crossbar counters.
    pub dxbar: DXbarStats,
    /// Synchronizer counters (`None` for the design without it).
    pub sync: Option<SyncStats>,
    /// Per fetch-cycle sum of the size of the largest same-PC fetch group
    /// (lockstep-width numerator; see [`SimStats::avg_lockstep_width`]).
    pub lockstep_width_sum: u64,
    /// Number of cycles with at least one fetch request (denominator).
    pub lockstep_width_cycles: u64,
    /// Compiled-tier counters (all zero on interpreted runs). These
    /// describe the *host execution strategy*, not the simulated machine:
    /// they are the one field allowed to differ between tiers.
    pub jit: JitStats,
}

impl SimStats {
    /// Useful operations per cycle — the paper's Ops/cycle metric
    /// (Section V-B reports 2.5–4.0 with the synchronizer and 1.1–2.0
    /// without, for 8 cores).
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.core_total.useful_ops as f64 / self.cycles as f64
    }

    /// Total retired instructions per cycle (includes sync overhead ops).
    pub fn retired_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.core_total.retired as f64 / self.cycles as f64
    }

    /// Total useful operations of the run.
    pub fn useful_ops(&self) -> u64 {
        self.core_total.useful_ops
    }

    /// Physical IM bank accesses per useful operation — the quantity the
    /// paper's improved design reduces by up to 60 %.
    pub fn im_accesses_per_op(&self) -> f64 {
        if self.core_total.useful_ops == 0 {
            return 0.0;
        }
        self.im.total_accesses() as f64 / self.core_total.useful_ops as f64
    }

    /// Physical DM bank accesses per useful operation (grows by < 10 % in
    /// the paper due to the sync-word traffic).
    pub fn dm_accesses_per_op(&self) -> f64 {
        if self.core_total.useful_ops == 0 {
            return 0.0;
        }
        self.dm.total_accesses() as f64 / self.core_total.useful_ops as f64
    }

    /// Average width of the largest same-PC fetch group over the cycles
    /// that had fetch activity: 8.0 means perfect lockstep on an 8-core
    /// platform, 1.0 means fully divergent execution.
    pub fn avg_lockstep_width(&self) -> f64 {
        if self.lockstep_width_cycles == 0 {
            return 0.0;
        }
        self.lockstep_width_sum as f64 / self.lockstep_width_cycles as f64
    }

    /// Fraction of core-cycles spent clock-gated (stalled or held) or
    /// asleep rather than active.
    pub fn gated_fraction(&self) -> f64 {
        let total = self.core_total.total_cycles();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.core_total.active_cycles as f64 / total as f64
    }

    /// Events per useful operation for an arbitrary counter — helper for
    /// the power model's activity vectors.
    pub fn per_op(&self, events: u64) -> f64 {
        if self.core_total.useful_ops == 0 {
            return 0.0;
        }
        events as f64 / self.core_total.useful_ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        let core_total = CoreStats {
            useful_ops: 400,
            retired: 500,
            active_cycles: 900,
            sleep_cycles: 100,
            ..Default::default()
        };
        let im = MemStats {
            bank_reads: 200,
            ..Default::default()
        };
        let dm = MemStats {
            bank_reads: 30,
            bank_writes: 10,
            ..Default::default()
        };
        SimStats {
            cycles: 250,
            num_cores: 8,
            cores: vec![CoreStats::default(); 8],
            core_total,
            im,
            dm,
            ixbar: IXbarStats::default(),
            dxbar: DXbarStats::default(),
            sync: None,
            lockstep_width_sum: 600,
            lockstep_width_cycles: 100,
            jit: JitStats::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert!((s.ops_per_cycle() - 1.6).abs() < 1e-12);
        assert!((s.retired_per_cycle() - 2.0).abs() < 1e-12);
        assert!((s.im_accesses_per_op() - 0.5).abs() < 1e-12);
        assert!((s.dm_accesses_per_op() - 0.1).abs() < 1e-12);
        assert!((s.avg_lockstep_width() - 6.0).abs() < 1e-12);
        assert!((s.gated_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(s.useful_ops(), 400);
    }

    #[test]
    fn zero_guards() {
        let mut s = stats();
        s.cycles = 0;
        s.core_total = CoreStats::default();
        s.lockstep_width_cycles = 0;
        assert_eq!(s.ops_per_cycle(), 0.0);
        assert_eq!(s.im_accesses_per_op(), 0.0);
        assert_eq!(s.avg_lockstep_width(), 0.0);
        assert_eq!(s.gated_fraction(), 0.0);
    }
}
