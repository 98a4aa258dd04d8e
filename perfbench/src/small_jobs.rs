//! `small_jobs`: a closed loop from one client thread keeping a fixed
//! number of small seeded jobs outstanding against a 2-worker service.

use crate::paper::{first_mismatch, seed_ecg, time_ms};
use crate::report::{median, Failure, FailureKind, Rng, Tally};
use crate::sharded::service_counters;
use crate::trace::Tracer;
use crate::{count_metrics, typical_ms, Bench, Phase};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use ulp_isa::asm::assemble;
use ulp_kernels::{golden_outputs, kernel_source, Benchmark, WorkloadConfig};
use ulp_platform::{Platform, PlatformConfig, SimStats};
use ulp_service::{JobId, JobSpec, ServiceConfig, SimService, TenantId, TenantPolicy};

/// Service workers.
pub const WORKERS: usize = 2;
/// Jobs the client keeps outstanding.
pub const OUTSTANDING: usize = 4;
/// Bands the job length range is split into; every (kernel, design,
/// cores) combination has one template per band.
pub const N_BANDS: usize = 4;
/// Distinct seeded jobs the stream draws from.
pub const TEMPLATES: usize = Benchmark::ALL.len() * 2 * CORE_CHOICES.len() * N_BANDS;
/// Shortest and longest job, in samples.
pub const N_RANGE: (usize, usize) = (16, 48);
/// The two equal-weight tenants.
pub const TENANTS: [TenantId; 2] = [TenantId(1), TenantId(2)];
/// Core counts a job may ask for.
pub const CORE_CHOICES: [usize; 3] = [2, 4, 8];

/// Completed jobs per throughput slice.
const SLICE_JOBS: u64 = 64;

/// Repetitions of each probe call.
const PROBE_REPS: usize = 3;

/// One seeded job and its golden outputs.
pub struct Template {
    /// The kernel.
    pub benchmark: Benchmark,
    /// Whether the design has the synchronizer.
    pub with_sync: bool,
    /// Cores.
    pub cores: usize,
    /// The job's inputs.
    pub workload: Arc<WorkloadConfig>,
    /// Golden-model outputs, one vector per core.
    pub expected: Vec<Vec<u16>>,
}

impl Template {
    /// Job `index` of the template set for `seed`, with the quick-test
    /// filters. The set holds every (kernel, design, cores) combination
    /// once per band of [`N_RANGE`], so a job drawn from it uniformly has
    /// a uniform kernel, design, core count and n. The seed draws n within
    /// its band and the ECG inputs. With a fully random set of this size
    /// the mean job cost, and so `jobs_per_s`, depended on the seed.
    pub fn new(seed: u64, index: usize) -> Template {
        let mut rng = Rng::new(seed, 0x10B + index as u64);
        let benchmark = Benchmark::ALL[index % Benchmark::ALL.len()];
        let rest = index / Benchmark::ALL.len();
        let with_sync = rest.is_multiple_of(2);
        let rest = rest / 2;
        let cores = CORE_CHOICES[rest % CORE_CHOICES.len()];
        let lengths = n_band(rest / CORE_CHOICES.len());
        let mut workload = WorkloadConfig::quick_test();
        workload.n = lengths.start + rng.below(lengths.len() as u64) as usize;
        seed_ecg(&mut workload, rng.next_u64());
        let expected = golden_outputs(benchmark, &workload, cores);
        Template {
            benchmark,
            with_sync,
            cores,
            workload: Arc::new(workload),
            expected,
        }
    }

    /// The job spec for `tenant`.
    pub fn spec(&self, tenant: TenantId) -> JobSpec {
        JobSpec::new(self.benchmark, self.cores, self.workload.clone())
            .with_sync(self.with_sync)
            .tenant(tenant)
    }
}

/// The job lengths in band `band` of [`N_RANGE`].
pub fn n_band(band: usize) -> std::ops::Range<usize> {
    let (lo, hi) = N_RANGE;
    let span = hi + 1 - lo;
    lo + span * band / N_BANDS..lo + span * (band + 1) / N_BANDS
}

/// Latencies of one completed job, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct JobTimes {
    client: f64,
    queue_wait: f64,
    run: f64,
    service: f64,
}

/// The small-jobs workload.
pub struct SmallJobs {
    /// The job templates.
    pub templates: Vec<Template>,
    /// The pool.
    pub service: SimService,
    /// Draws the next job's template and tenant.
    rng: Rng,
    /// Statistics of the warm-up run of every template.
    warm_stats: Vec<SimStats>,
    /// Per-job times of the latest timed phase.
    times: Vec<JobTimes>,
    /// Service counters of the latest timed phase.
    counters: BTreeMap<String, f64>,
}

impl SmallJobs {
    /// Submits the next job of the stream; returns its id and template.
    fn submit_next(
        &mut self,
        tracer: &mut Tracer,
        failures: &mut Vec<Failure>,
    ) -> Option<(JobId, usize)> {
        let template = self.rng.below(TEMPLATES as u64) as usize;
        let tenant = TENANTS[self.rng.below(TENANTS.len() as u64) as usize];
        let spec = self.templates[template].spec(tenant);
        let service = &mut self.service;
        match tracer.span("service.submit", |_| service.submit(spec)) {
            Ok(id) => Some((id, template)),
            Err(e) => {
                failures.push(Failure::new(FailureKind::SubmitError, e));
                None
            }
        }
    }

    /// The closed loop: keeps [`OUTSTANDING`] jobs in flight until
    /// `seconds` have passed, then drains them.
    fn closed_loop(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut phase = Phase::default();
        self.times.clear();
        let mut in_flight: HashMap<JobId, (Instant, usize)> = HashMap::new();
        let mut submitted = 0;
        let start = Instant::now();
        let keep_going =
            |submitted: usize| submitted < OUTSTANDING || start.elapsed().as_secs_f64() < seconds;
        while in_flight.len() < OUTSTANDING && keep_going(submitted) {
            let mut failures = Vec::new();
            let sent = Instant::now();
            submitted += 1;
            match self.submit_next(tracer, &mut failures) {
                Some((id, template)) => {
                    in_flight.insert(id, (sent, template));
                }
                None => phase.tally.record(failures),
            }
        }
        while !in_flight.is_empty() {
            let service = &mut self.service;
            let received = tracer.span("service.recv", |_| service.checked_recv());
            let mut failures = Vec::new();
            let result = match received {
                Ok(Some(result)) => result,
                Ok(None) | Err(_) => {
                    for _ in 0..in_flight.len() {
                        phase.tally.record(vec![Failure::new(
                            FailureKind::JobError,
                            "the service pool died with jobs outstanding",
                        )]);
                    }
                    break;
                }
            };
            let Some((sent, template)) = in_flight.remove(&result.id) else {
                continue;
            };
            tracer.set_op(result.id);
            let client_ms = sent.elapsed().as_secs_f64() * 1e3;
            phase.latencies_ms.push(client_ms);
            let t = &self.templates[template];
            tracer.span("bench.check", |_| match &result.outcome {
                Err(e) => failures.push(Failure::new(FailureKind::JobError, e)),
                Ok(out) => {
                    if let Some((core, sample)) = first_mismatch(&out.run.outputs, &t.expected) {
                        failures.push(Failure::new(
                            FailureKind::GoldenMismatch,
                            format!(
                                "job {} ({} on {} cores): core {core} differs from the golden model at sample {sample}",
                                result.id, t.benchmark, t.cores
                            ),
                        ));
                    } else {
                        phase.core_cycles += out.run.stats.cycles * t.cores as u64;
                        phase.samples += (t.cores * t.workload.n) as u64;
                    }
                }
            });
            self.times.push(JobTimes {
                client: client_ms,
                queue_wait: result.queue_wait.as_secs_f64() * 1e3,
                run: result.run_time.as_secs_f64() * 1e3,
                service: result.latency().as_secs_f64() * 1e3,
            });
            phase.ops += 1;
            phase.tally.record(failures);
            if phase.ops_in_slice() == SLICE_JOBS {
                phase.cut_slice(start.elapsed().as_secs_f64());
            }
            if keep_going(submitted) {
                let mut failures = Vec::new();
                let sent = Instant::now();
                submitted += 1;
                match self.submit_next(tracer, &mut failures) {
                    Some((id, template)) => {
                        in_flight.insert(id, (sent, template));
                    }
                    None => phase.tally.record(failures),
                }
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        if phase.slices.is_empty() {
            phase.cut_slice(phase.wall_s);
        }
        phase
    }
}

impl Bench for SmallJobs {
    fn setup(seed: u64, tally: &mut Tally) -> Self {
        let templates = (0..TEMPLATES).map(|i| Template::new(seed, i)).collect();
        let mut config = ServiceConfig::builder().workers(WORKERS);
        for tenant in TENANTS {
            config = config.tenant(tenant, TenantPolicy::default());
        }
        let mut state = SmallJobs {
            templates,
            service: SimService::start(config.build()),
            rng: Rng::new(seed, 0x5EED),
            warm_stats: Vec::new(),
            times: Vec::new(),
            counters: BTreeMap::new(),
        };
        // Warm-up: every template once, in order, checked, so each
        // worker builds its platforms before the timed phase.
        let mut warm = Vec::new();
        for (i, t) in state.templates.iter().enumerate() {
            let spec = t.spec(TENANTS[i % TENANTS.len()]);
            match state.service.submit(spec) {
                Ok(id) => warm.push((id, i)),
                Err(e) => tally.record(vec![Failure::new(FailureKind::SubmitError, e)]),
            }
        }
        let mut stats: Vec<Option<SimStats>> = vec![None; TEMPLATES];
        for _ in 0..warm.len() {
            let Ok(Some(result)) = state.service.checked_recv() else {
                tally.record(vec![Failure::new(
                    FailureKind::JobError,
                    "the service pool died during warm-up",
                )]);
                break;
            };
            let Some(&(_, i)) = warm.iter().find(|(id, _)| *id == result.id) else {
                continue;
            };
            let mut failures = Vec::new();
            match result.outcome {
                Err(e) => failures.push(Failure::new(FailureKind::JobError, e)),
                Ok(out) => {
                    if first_mismatch(&out.run.outputs, &state.templates[i].expected).is_some() {
                        failures.push(Failure::new(
                            FailureKind::GoldenMismatch,
                            format!("warm-up job {i} differs from the golden model"),
                        ));
                    }
                    stats[i] = Some(out.run.stats);
                }
            }
            tally.record(failures);
        }
        state.warm_stats = stats.into_iter().flatten().collect();
        state
    }

    fn timed(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let before = self.service.stats();
        let phase = self.closed_loop(seconds, tracer);
        self.counters = service_counters(&before, &self.service.stats(), phase.ops);
        phase
    }

    fn layers(&mut self, _traced: &Tracer, out: &mut BTreeMap<String, f64>, _tally: &mut Tally) {
        let mut channels = Vec::new();
        let mut golden = Vec::new();
        let mut asm = Vec::new();
        for t in &self.templates {
            let gen = time_ms(PROBE_REPS, || t.workload.channels(t.cores));
            let total = time_ms(PROBE_REPS, || {
                golden_outputs(t.benchmark, &t.workload, t.cores)
            });
            golden.push(vec![(median(&total) - median(&gen)).max(0.0)]);
            channels.push(gen);
            asm.push(time_ms(PROBE_REPS, || {
                assemble(&kernel_source(t.benchmark, &t.workload, t.with_sync))
                    .expect("kernels assemble")
            }));
        }
        out.insert("biosignal.channels_ms".into(), typical_ms(&channels));
        out.insert("biosignal.golden_ms".into(), typical_ms(&golden));
        out.insert("isa.assemble_ms".into(), typical_ms(&asm));
        let mut build = Vec::new();
        for cores in CORE_CHOICES {
            for sync in [true, false] {
                build.push(time_ms(PROBE_REPS, || {
                    Platform::new(PlatformConfig::paper(sync).with_cores(cores))
                }));
            }
        }
        out.insert("platform.build_ms".into(), typical_ms(&build));
        let pick = |f: fn(&JobTimes) -> f64| median(&self.times.iter().map(f).collect::<Vec<_>>());
        out.insert("service.queue_wait_ms_p50".into(), pick(|t| t.queue_wait));
        out.insert("service.run_ms_p50".into(), pick(|t| t.run));
        out.insert(
            "service.client_gap_ms_p50".into(),
            pick(|t| t.client - t.service),
        );
        out.extend(self.counters.clone());
        let warm: Vec<&SimStats> = self.warm_stats.iter().collect();
        count_metrics(&warm, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_cover_every_combination_once_per_band() {
        let templates: Vec<Template> = (0..TEMPLATES).map(|i| Template::new(9, i)).collect();
        let mut seen = std::collections::BTreeSet::new();
        assert_eq!(n_band(0).start, N_RANGE.0);
        assert_eq!(n_band(N_BANDS - 1).end, N_RANGE.1 + 1);
        for t in &templates {
            let band = (0..N_BANDS)
                .position(|b| n_band(b).contains(&t.workload.n))
                .expect("n lies in a band");
            assert!(seen.insert((t.benchmark.name(), t.with_sync, t.cores, band)));
        }
        assert_eq!(seen.len(), TEMPLATES);
    }
}
