//! `paper_interp` and `paper_compiled`: the paper's six runs — 8 cores,
//! n = 256, {MRPFLTR, MRPDLN, SQRT32} × {sync, nosync} — back to back on
//! one thread, on one execution tier.

use crate::report::{median, Failure, FailureKind, Rng, Tally};
use crate::trace::Tracer;
use crate::{count_metrics, run_label, simulated_only, typical_ms, Bench, Phase};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;
use ulp_isa::asm::assemble;
use ulp_kernels::{
    golden_outputs, kernel_source, run_benchmark_checkpointed, run_benchmark_reusing, Benchmark,
    BenchmarkRun, CheckpointControl, RunnerError, WorkloadConfig,
};
use ulp_platform::{Checkpoint, ExecTier, Platform, PlatformConfig, SimStats};

/// Cores of every paper run.
pub const CORES: usize = 8;

/// Client threads running the suite side by side, each on its own
/// platforms. One client would leave the second host CPU idle, and on a
/// shared 2-CPU host whatever then runs beside it swings the suite's speed
/// by up to 1.5× from minute to minute; two clients keep the host busy and
/// the figures steady.
pub const CLIENTS: usize = 2;

/// Repetitions of each probe call; the probe reports their median.
const PROBE_REPS: usize = 5;

/// Interpreted/compiled pairs per run for `jit.speedup`.
const SPEEDUP_PAIRS: usize = 3;

/// The paper workload with its ECG seeds drawn from `seed`.
pub fn paper_workload(seed: u64) -> WorkloadConfig {
    let mut workload = WorkloadConfig::paper();
    seed_ecg(&mut workload, seed);
    workload
}

/// Sets the workload's ECG beat-grid and noise seeds from `seed`.
pub fn seed_ecg(workload: &mut WorkloadConfig, seed: u64) {
    let mut rng = Rng::new(seed, 0xEC6);
    workload.ecg.seed = rng.next_u64();
    workload.ecg.noise_seed = rng.next_u64();
}

/// One of the six runs: its platform (reused across passes), the golden
/// outputs and the interpreted reference statistics.
pub struct PaperRun {
    /// The kernel.
    pub benchmark: Benchmark,
    /// Whether the design has the synchronizer.
    pub with_sync: bool,
    /// The platform every pass of this run reuses.
    pub platform: Platform,
    /// Golden-model outputs, one vector per core.
    pub expected: Vec<Vec<u16>>,
    /// `SimStats` of the interpreted run, jit counters cleared.
    pub reference: Option<SimStats>,
    /// Statistics of the latest timed run.
    pub last: Option<SimStats>,
}

impl PaperRun {
    /// Runs the kernel once on the reused platform.
    pub fn execute(&mut self, workload: &WorkloadConfig) -> Result<BenchmarkRun, RunnerError> {
        run_benchmark_reusing(self.benchmark, &mut self.platform, workload)
    }

    /// Checks one run's result against the golden outputs and the
    /// interpreted reference. Returns the run's core-cycles when every
    /// check passed.
    pub fn check(
        &mut self,
        result: Result<BenchmarkRun, RunnerError>,
        failures: &mut Vec<Failure>,
    ) -> Option<u64> {
        let label = run_label(self.benchmark, self.with_sync);
        let failed_before = failures.len();
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                failures.push(Failure::new(
                    FailureKind::RunnerError,
                    format!("{label}: {e}"),
                ));
                return None;
            }
        };
        if let Some((core, index)) = first_mismatch(&run.outputs, &self.expected) {
            failures.push(Failure::new(
                FailureKind::GoldenMismatch,
                format!("{label}: core {core} differs from the golden model at sample {index}"),
            ));
        }
        match &self.reference {
            Some(reference) if simulated_only(&run.stats) == *reference => {}
            Some(_) => failures.push(Failure::new(
                FailureKind::StatsMismatch,
                format!("{label}: SimStats differ from the interpreted reference"),
            )),
            None => failures.push(Failure::new(
                FailureKind::StatsMismatch,
                format!("{label}: no interpreted reference"),
            )),
        }
        let core_cycles = run.stats.cycles * run.stats.num_cores as u64;
        self.last = Some(run.stats);
        (failures.len() == failed_before).then_some(core_cycles)
    }
}

/// The first `(core, sample)` where `got` differs from `want`.
pub fn first_mismatch(got: &[Vec<u16>], want: &[Vec<u16>]) -> Option<(usize, usize)> {
    if got.len() != want.len() {
        return Some((got.len().min(want.len()), 0));
    }
    got.iter().zip(want).enumerate().find_map(|(core, (g, w))| {
        (g != w).then(|| {
            let index = g.iter().zip(w).position(|(a, b)| a != b);
            (core, index.unwrap_or(g.len().min(w.len())))
        })
    })
}

/// The paper workload on the interpreter (`COMPILED = false`) or the
/// compiled tier (`COMPILED = true`).
pub struct Paper<const COMPILED: bool> {
    /// The seeded paper workload.
    pub workload: WorkloadConfig,
    /// The six runs, in [`crate::run_labels`] order.
    pub runs: Vec<PaperRun>,
}

impl<const COMPILED: bool> Paper<COMPILED> {
    fn tier() -> ExecTier {
        if COMPILED {
            ExecTier::Compiled
        } else {
            ExecTier::Interpreted
        }
    }

    /// Median duration per run of the traced phase's
    /// `kernels.run_benchmark_reusing` spans (they repeat in run order).
    fn traced_run_ms(&self, traced: &Tracer) -> Vec<f64> {
        let all = traced.durations_ms("kernels.run_benchmark_reusing");
        (0..self.runs.len())
            .map(|i| {
                let own: Vec<f64> = all
                    .iter()
                    .skip(i)
                    .step_by(self.runs.len())
                    .copied()
                    .collect();
                median(&own)
            })
            .collect()
    }
}

impl<const COMPILED: bool> Bench for Paper<COMPILED> {
    fn setup(seed: u64, tally: &mut Tally) -> Self {
        let workload = paper_workload(seed);
        let mut failures = Vec::new();
        let mut runs = Vec::new();
        for benchmark in Benchmark::ALL {
            for with_sync in [true, false] {
                let config = PlatformConfig::paper(with_sync).with_max_cycles(workload.max_cycles);
                let platform = Platform::new(config).expect("the paper platform config is valid");
                let mut run = PaperRun {
                    benchmark,
                    with_sync,
                    platform,
                    expected: golden_outputs(benchmark, &workload, CORES),
                    reference: None,
                    last: None,
                };
                // The interpreted run is the reference every timed run is
                // compared against; on the interpreter it is also the
                // warm-up. The compiled tier then warms its translation
                // cache with one checked run.
                let reference = run.execute(&workload);
                if let Ok(r) = &reference {
                    run.reference = Some(simulated_only(&r.stats));
                }
                run.check(reference, &mut failures);
                if COMPILED {
                    run.platform.set_exec_tier(ExecTier::Compiled);
                    let warm = run.execute(&workload);
                    run.check(warm, &mut failures);
                }
                runs.push(run);
            }
        }
        tally.record(failures);
        Paper { workload, runs }
    }

    fn timed(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        let samples_per_run = (CORES * self.workload.n) as u64;
        let start = Instant::now();
        loop {
            tracer.set_op(phase.ops);
            let pass_start = Instant::now();
            let mut failures = Vec::new();
            for run in &mut self.runs {
                let result = tracer.span("kernels.run_benchmark_reusing", |_| {
                    run.execute(&self.workload)
                });
                let checked = tracer.span("bench.check", |_| run.check(result, &mut failures));
                if let Some(core_cycles) = checked {
                    phase.core_cycles += core_cycles;
                    phase.samples += samples_per_run;
                }
            }
            phase
                .latencies_ms
                .push(pass_start.elapsed().as_secs_f64() * 1e3);
            phase.ops += 1;
            phase.tally.record(failures);
            phase.cut_slice(start.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    fn layers(&mut self, traced: &Tracer, out: &mut BTreeMap<String, f64>, tally: &mut Tally) {
        let reference: Vec<&SimStats> = self
            .runs
            .iter()
            .filter_map(|r| r.reference.as_ref())
            .collect();
        count_metrics(&reference, out);
        // The jit counters come from the timed runs (the reference ran on
        // the interpreter), so read them before the probes below run.
        let mut timed = BTreeMap::new();
        let last: Vec<&SimStats> = self.runs.iter().filter_map(|r| r.last.as_ref()).collect();
        count_metrics(&last, &mut timed);
        for (name, value) in timed {
            if name.starts_with("jit.") {
                out.insert(name, value);
            }
        }
        let workload = &self.workload;
        // Probes on the same inputs: the three calls run_benchmark_reusing
        // makes besides the platform run.
        let mut channels = Vec::new();
        let mut golden = Vec::new();
        let mut asm = Vec::new();
        for run in &self.runs {
            channels.push(time_ms(PROBE_REPS, || workload.channels(CORES)));
            asm.push(time_ms(PROBE_REPS, || {
                let source = kernel_source(run.benchmark, workload, run.with_sync);
                assemble(&source).expect("paper kernels assemble")
            }));
            // golden_outputs regenerates the channels; the run reuses the
            // ones it loaded, so the golden model's own cost is the
            // difference.
            let total = time_ms(PROBE_REPS, || {
                golden_outputs(run.benchmark, workload, CORES)
            });
            let gen = median(channels.last().expect("pushed above"));
            golden.push(vec![(median(&total) - gen).max(0.0)]);
        }
        out.insert("biosignal.channels_ms".into(), typical_ms(&channels));
        out.insert("biosignal.golden_ms".into(), typical_ms(&golden));
        out.insert("isa.assemble_ms".into(), typical_ms(&asm));
        let build: Vec<f64> = [true, false]
            .into_iter()
            .flat_map(|sync| {
                let config = PlatformConfig::paper(sync).with_exec_tier(Self::tier());
                time_ms(PROBE_REPS, || Platform::new(config.clone()))
            })
            .collect();
        out.insert("platform.build_ms".into(), median(&build));

        let run_ms = self.traced_run_ms(traced);
        for (i, run) in self.runs.iter().enumerate() {
            let label = run_label(run.benchmark, run.with_sync);
            let platform_ms =
                (run_ms[i] - median(&channels[i]) - median(&asm[i]) - median(&golden[i])).max(0.0);
            out.insert(format!("platform.run_ms.{label}"), platform_ms);
            let core_cycles = run
                .reference
                .as_ref()
                .map_or(0, |s| s.cycles * s.num_cores as u64);
            out.insert(
                format!("platform.ns_per_core_cycle.{label}"),
                platform_ms * 1e6 / core_cycles.max(1) as f64,
            );
        }

        if COMPILED {
            // Paired ratios: each compiled run is followed by the same run
            // on the interpreter, on the same platform, so both sides
            // share the machine's state of the moment.
            let mut failures = Vec::new();
            for run in &mut self.runs {
                let mut ratios = Vec::new();
                for _ in 0..SPEEDUP_PAIRS {
                    let start = Instant::now();
                    let compiled = run.execute(workload);
                    let compiled_s = start.elapsed().as_secs_f64();
                    run.check(compiled, &mut failures);
                    run.platform.set_exec_tier(ExecTier::Interpreted);
                    let start = Instant::now();
                    let interpreted = run.execute(workload);
                    let interpreted_s = start.elapsed().as_secs_f64();
                    run.platform.set_exec_tier(ExecTier::Compiled);
                    run.check(interpreted, &mut failures);
                    ratios.push(interpreted_s / compiled_s);
                }
                let label = run_label(run.benchmark, run.with_sync);
                out.insert(format!("jit.speedup.{label}"), median(&ratios));
            }
            tally.record(failures);
        }

        for pair in self.runs.chunks(2) {
            if let [sync, nosync] = pair {
                if let (Some(s), Some(n)) = (&sync.reference, &nosync.reference) {
                    out.insert(
                        format!("model.speedup.{}", sync.benchmark.name()),
                        n.cycles as f64 / s.cycles.max(1) as f64,
                    );
                }
            }
        }

        let mut probes = CheckpointProbe::default();
        let mut failures = Vec::new();
        for run in &mut self.runs {
            let every = run.reference.as_ref().map_or(1, |s| (s.cycles / 2).max(1));
            probes.measure(
                run.benchmark,
                &mut run.platform,
                workload,
                every,
                &mut failures,
            );
        }
        tally.record(failures);
        probes.report(out);
    }
}

/// Times `f` `reps` times; returns the durations in milliseconds.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Costs of checkpointing a platform paused mid-run.
#[derive(Debug, Default)]
pub struct CheckpointProbe {
    snapshot: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    restore: Vec<f64>,
    bytes: Vec<f64>,
}

impl CheckpointProbe {
    /// Runs `benchmark` on `platform` up to cycle `every`, parks it there
    /// and times snapshot, `to_bytes`, `from_bytes` and `restore_from` on
    /// that state. A run that fails, or finishes before cycle `every`,
    /// is reported in `failures`.
    pub fn measure(
        &mut self,
        benchmark: Benchmark,
        platform: &mut Platform,
        workload: &WorkloadConfig,
        every: u64,
        failures: &mut Vec<Failure>,
    ) {
        let parked = run_benchmark_checkpointed(benchmark, platform, workload, every, |_| {
            CheckpointControl::Park
        });
        match parked {
            Ok(None) => {}
            Ok(Some(_)) => {
                failures.push(Failure::new(
                    FailureKind::RunnerError,
                    format!("{benchmark}: run ended before the checkpoint at cycle {every}"),
                ));
                return;
            }
            Err(e) => {
                failures.push(Failure::new(
                    FailureKind::RunnerError,
                    format!("{benchmark}: {e}"),
                ));
                return;
            }
        }
        let start = Instant::now();
        let ckpt = platform.snapshot();
        self.snapshot.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let bytes = ckpt.to_bytes();
        self.encode.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let decoded = Checkpoint::from_bytes(&bytes);
        self.decode.push(start.elapsed().as_secs_f64() * 1e3);
        self.bytes.push(bytes.len() as f64);
        let restored = decoded.and_then(|decoded| {
            let start = Instant::now();
            let restored = platform.restore_from(&decoded);
            self.restore.push(start.elapsed().as_secs_f64() * 1e3);
            restored
        });
        if let Err(e) = restored {
            failures.push(Failure::new(
                FailureKind::RunnerError,
                format!("{benchmark}: checkpoint round trip failed: {e}"),
            ));
        }
    }

    /// Writes the `checkpoint.*` metrics.
    pub fn report(&self, out: &mut BTreeMap<String, f64>) {
        out.insert("checkpoint.snapshot_ms".into(), median(&self.snapshot));
        out.insert("checkpoint.encode_ms".into(), median(&self.encode));
        out.insert("checkpoint.decode_ms".into(), median(&self.decode));
        out.insert("checkpoint.restore_ms".into(), median(&self.restore));
        out.insert("checkpoint.bytes".into(), median(&self.bytes));
    }
}

/// The paper workload run by [`CLIENTS`] independent clients at once: the
/// calling thread's client plus client threads. Each client builds and
/// keeps its own platforms (a `Platform` cannot move between threads).
/// The traced run traces, and probes, the calling thread's client.
pub struct PaperClients<const COMPILED: bool> {
    /// The client on the calling thread.
    pub local: Paper<COMPILED>,
    remotes: Vec<Remote>,
}

/// A client thread: it sets up its own suite, then runs one timed phase
/// per command until the command channel closes.
struct Remote {
    commands: Option<mpsc::Sender<f64>>,
    phases: mpsc::Receiver<Phase>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Remote {
    /// Starts a client thread; the receiver yields its set-up tally.
    fn spawn<const COMPILED: bool>(seed: u64) -> (Remote, mpsc::Receiver<Tally>) {
        let (command_tx, command_rx) = mpsc::channel::<f64>();
        let (phase_tx, phase_rx) = mpsc::channel();
        let (setup_tx, setup_rx) = mpsc::channel();
        let thread = thread::spawn(move || {
            let mut tally = Tally::default();
            let mut paper = Paper::<COMPILED>::setup(seed, &mut tally);
            if setup_tx.send(tally).is_err() {
                return;
            }
            for seconds in command_rx {
                let phase = paper.timed(seconds, &mut Tracer::disabled());
                if phase_tx.send(phase).is_err() {
                    return;
                }
            }
        });
        let remote = Remote {
            commands: Some(command_tx),
            phases: phase_rx,
            thread: Some(thread),
        };
        (remote, setup_rx)
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        // Closing the channel ends the client's loop. A panic in the client
        // already surfaced as a failed receive in `timed`.
        self.commands.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<const COMPILED: bool> Bench for PaperClients<COMPILED> {
    fn setup(seed: u64, tally: &mut Tally) -> Self {
        let (remotes, setups): (Vec<Remote>, Vec<_>) = (1..CLIENTS)
            .map(|_| Remote::spawn::<COMPILED>(seed))
            .unzip();
        let local = Paper::setup(seed, tally);
        for setup in setups {
            tally.absorb(setup.recv().expect("a paper client thread died in set-up"));
        }
        PaperClients { local, remotes }
    }

    fn timed(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        for remote in &self.remotes {
            let commands = remote.commands.as_ref().expect("open until drop");
            commands.send(seconds).expect("a paper client thread died");
        }
        let mut phase = self.local.timed(seconds, tracer);
        for remote in &self.remotes {
            let other = remote.phases.recv().expect("a paper client thread died");
            phase.absorb_client(other);
        }
        phase
    }

    fn layers(&mut self, traced: &Tracer, out: &mut BTreeMap<String, f64>, tally: &mut Tally) {
        self.local.layers(traced, out, tally);
    }
}
