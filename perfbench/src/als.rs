//! The `als-native` and `als-dist` workloads: repeated fixed-sweep CP-ALS
//! fits of one synthetic 128×128×128 tensor at R = 32 through
//! `mttkrp_als::cp_als_with_hooks`, on the native backend (2 threads) or
//! the sharded dist backend (P = 2 ranks over in-process channels).

use crate::stats::{median, ms, percentile, summary, tail_percentile, us};
use crate::trace::Recorder;
use crate::{relative_error, Checks, Layers, Measured, Run};
use mttkrp_als::{cp_als_with_hooks, AlsConfig, AlsRun, BackendChoice, CancelFlag};
use mttkrp_core::arith::atomic_kernel_flops;
use mttkrp_core::bounds::par_best_mi;
use mttkrp_core::kernels::local_mttkrp;
use mttkrp_core::Problem;
use mttkrp_dist::layout::shard_alg3;
use mttkrp_dist::runtime::TransportKind;
use mttkrp_dist::{mttkrp_dist_stationary_on, DistBackend};
use mttkrp_exec::{
    execute_observed, Algorithm, Backend, MachineSpec, NativeBackend, Plan, PlanCache, Planner,
    DEFAULT_CACHE_WORDS,
};
use mttkrp_netsim::schedule::alg3_schedule;
use mttkrp_tensor::{mttkrp_reference, solve_spd_ridge, DenseTensor, KruskalTensor, Matrix, Shape};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 128;
const RANK: usize = 32;
/// Sweeps per fit. Sweep 1 of every fit is excluded from `sweep_s`.
const SWEEPS: usize = 6;
/// Noise added to the rank-32 signal, so the fit stays well below 1 and
/// the engine's normal-equations fit is not lost to cancellation.
const NOISE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Layer replays in a traced run; each per-layer value is their median.
const REPLAYS: usize = 2;
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Native,
    Dist,
}

impl Engine {
    fn machine(self) -> MachineSpec {
        match self {
            Engine::Native => MachineSpec::shared(2, DEFAULT_CACHE_WORDS),
            Engine::Dist => MachineSpec::cluster(2, 1, DEFAULT_CACHE_WORDS),
        }
    }

    fn config(self, seed: u64) -> AlsConfig {
        AlsConfig::new(RANK)
            .with_machine(self.machine())
            .with_backend(match self {
                Engine::Native => BackendChoice::Native,
                Engine::Dist => BackendChoice::Dist,
            })
            .with_sweeps(SWEEPS)
            .with_tol(0.0)
            .with_seed(seed.wrapping_add(1000))
    }

    /// The backend the engine itself builds for this machine.
    fn backend(self) -> Box<dyn Backend> {
        let m = self.machine();
        match self {
            Engine::Native => Box::new(NativeBackend::new(m.threads, m.fast_memory_words)),
            Engine::Dist => Box::new(DistBackend::new()),
        }
    }

    fn other(self) -> Engine {
        match self {
            Engine::Native => Engine::Dist,
            Engine::Dist => Engine::Native,
        }
    }
}

/// A rank-32 signal plus uniform noise, both from `seed`.
fn tensor(seed: u64) -> DenseTensor {
    let shape = Shape::new(&[DIM; 3]);
    let mut x = KruskalTensor::random(&shape, RANK, seed).full();
    let noise = DenseTensor::random(shape, seed ^ 0x9e37_79b9_7f4a_7c15);
    for (v, n) in x.data_mut().iter_mut().zip(noise.data()) {
        *v += NOISE * n;
    }
    x
}

struct Setup {
    x: DenseTensor,
    cfg: AlsConfig,
    cache: PlanCache,
}

/// Data generation, engine plan cache, and a one-sweep warm-up fit that
/// plans every mode and touches every operand.
fn setup(engine: Engine, seed: u64) -> Setup {
    let x = tensor(seed);
    let cfg = engine.config(seed);
    let cache = PlanCache::new(16);
    let warm = cfg.clone().with_sweeps(1);
    let _ = cp_als_with_hooks(&x, &warm, &cache, &mut |_| {}, &CancelFlag::new());
    Setup { x, cfg, cache }
}

struct Closed {
    sweep_s: Vec<f64>,
    mttkrp_us: Vec<f64>,
    fit_s: Vec<f64>,
    mttkrps: u64,
    wall: Duration,
    last: AlsRun,
}

/// Back-to-back fits for `window` (at least two). With a recorder, each
/// fit and each of its sweeps becomes a span.
fn closed_loop(
    s: &Setup,
    window: Duration,
    trace: Option<(&Recorder, u64)>,
    checks: &mut Checks,
) -> Closed {
    let start = Instant::now();
    let (mut sweep_s, mut mttkrp_us, mut fit_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_fit = None;
    let mut mttkrps = 0u64;
    loop {
        let t0 = Instant::now();
        let fit_span = trace.map(|(rec, parent)| rec.open("als.cp_als_with_hooks", Some(parent)));
        let run = cp_als_with_hooks(
            &s.x,
            &s.cfg,
            &s.cache,
            &mut |sweep| {
                if let (Some((rec, _)), Some(id)) = (trace, fit_span) {
                    let end = Instant::now();
                    rec.record("als.sweep", Some(id), end - sweep.elapsed, end);
                }
            },
            &CancelFlag::new(),
        );
        if let (Some((rec, _)), Some(id)) = (trace, fit_span) {
            rec.close(id);
        }
        fit_s.push(t0.elapsed().as_secs_f64());
        for sweep in run.trace.iter().skip(1) {
            sweep_s.push(sweep.elapsed.as_secs_f64());
            for (plan, exec) in sweep.mode_plan_times.iter().zip(&sweep.mode_exec_times) {
                mttkrp_us.push(us(*plan + *exec));
            }
        }
        mttkrps += run
            .trace
            .iter()
            .map(|s| s.mode_exec_times.len() as u64)
            .sum::<u64>();
        let first = *first_fit.get_or_insert(run.fit());
        checks.op(
            run.sweeps() == SWEEPS && (run.fit() - first).abs() <= 1e-9,
            || {
                format!(
                    "fit {} after {} sweeps differs from the first fit {first}",
                    run.fit(),
                    run.sweeps()
                )
            },
        );
        if start.elapsed() >= window && fit_s.len() >= 2 {
            return Closed {
                sweep_s,
                mttkrp_us,
                fit_s,
                mttkrps,
                wall: start.elapsed(),
                last: run,
            };
        }
    }
}

/// Per-layer timings of one replayed steady sweep.
#[derive(Default)]
struct Replay {
    plan_us: Vec<f64>,
    native_ms: [f64; 3],
    native_1t_ms: f64,
    native_flops: f64,
    native_bytes: f64,
    gram_solve_ms: f64,
    mttkrp_ms: f64,
    shard_ms: f64,
    local_max_ms: f64,
    local_flops: f64,
    local_sum_ms: f64,
    words: f64,
}

/// Replays one steady sweep's layer calls on the workload's own operands
/// — `Planner::plan_cached`, the MTTKRP (`NativeBackend` on the plan, or
/// `shard_alg3` + per-rank `local_mttkrp` + `mttkrp_dist_stationary_on`),
/// then the Gram-Hadamard and `solve_spd_ridge` — as spans under `parent`.
fn replay(
    engine: Engine,
    s: &Setup,
    start_factors: &[Matrix],
    rec: &Recorder,
    parent: u64,
    checks: &mut Checks,
) -> Replay {
    let machine = engine.machine();
    let planner = Planner::new(machine.clone());
    let problem = Problem::from_shape(s.x.shape(), RANK);
    let native2 = NativeBackend::new(2, DEFAULT_CACHE_WORDS);
    let native1 = NativeBackend::new(1, DEFAULT_CACHE_WORDS);
    let mut factors = start_factors.to_vec();
    let mut grams: Vec<Matrix> = factors.iter().map(Matrix::gram).collect();
    let mut out = Replay::default();
    let sweep = rec.open("replay.sweep", Some(parent));
    for n in 0..factors.len() {
        let t = Instant::now();
        let plan = rec.time("exec.planner.plan_cached", Some(sweep), || {
            planner.plan_cached(&problem, n, &s.cache)
        });
        out.plan_us.push(us(t.elapsed()));
        let refs: Vec<&Matrix> = factors.iter().collect();
        let t = Instant::now();
        let b = match (engine, &plan.algorithm) {
            (Engine::Native, _) => {
                let b = rec.time("exec.native.execute", Some(sweep), || {
                    native2.execute(&plan, &s.x, &refs).output
                });
                out.native_ms[n] = ms(t.elapsed());
                out.mttkrp_ms += out.native_ms[n];
                let t1 = Instant::now();
                rec.time("exec.native.execute_1thread", Some(sweep), || {
                    native1.execute(&plan, &s.x, &refs)
                });
                out.native_1t_ms += ms(t1.elapsed());
                let (mul, add) = atomic_kernel_flops(s.x.num_entries() as u64, RANK as u64, 3);
                out.native_flops += (mul + add) as f64;
                // Computed, not measured: one pass over X, the N−1 input
                // factors, and the output.
                let factor_words: usize = (0..3)
                    .filter(|&k| k != n)
                    .map(|k| factors[k].data().len())
                    .sum();
                out.native_bytes +=
                    8.0 * (s.x.num_entries() + factor_words + b.data().len()) as f64;
                b
            }
            (Engine::Dist, Algorithm::ParStationary { grid }) => {
                let t0 = Instant::now();
                let shards = rec.time("dist.layout.shard_alg3", Some(sweep), || {
                    shard_alg3(&s.x, &refs, n, grid)
                });
                out.shard_ms += ms(t0.elapsed());
                let mut slowest = 0.0f64;
                for shard in &shards {
                    let blocks: Vec<Matrix> = (0..factors.len())
                        .map(|k| factors[k].row_block(shard.ranges[k].0, shard.ranges[k].1))
                        .collect();
                    let block_refs: Vec<&Matrix> = blocks.iter().collect();
                    let tk = Instant::now();
                    rec.time("core.kernels.local_mttkrp", Some(sweep), || {
                        local_mttkrp(&shard.x_local, &block_refs, n)
                    });
                    let k_ms = ms(tk.elapsed());
                    slowest = slowest.max(k_ms);
                    out.local_sum_ms += k_ms;
                    let (mul, add) =
                        atomic_kernel_flops(shard.x_local.num_entries() as u64, RANK as u64, 3);
                    out.local_flops += (mul + add) as f64;
                }
                drop(shards);
                out.local_max_ms += slowest;
                let t1 = Instant::now();
                let run = rec.time(
                    "dist.runtime.mttkrp_dist_stationary_on",
                    Some(sweep),
                    || mttkrp_dist_stationary_on(TransportKind::Channel, &s.x, &refs, n, grid),
                );
                out.mttkrp_ms += ms(t1.elapsed());
                out.words += run.max_recv_words() as f64;
                let predicted = alg3_schedule(s.x.shape().dims(), RANK, n, grid);
                let exact = run.ledgers.len() == predicted.ranks.len()
                    && run
                        .ledgers
                        .iter()
                        .zip(&predicted.ranks)
                        .all(|(ledger, rank)| ledger.matches(&rank.phases));
                checks.op(exact, || {
                    format!("mode-{n} dist ledgers differ from the alg3 schedule prediction")
                });
                run.output
            }
            (Engine::Dist, other) => {
                checks.op(false, || {
                    format!(
                        "mode-{n} dist plan is {}, the replay covers alg3 only",
                        other.label()
                    )
                });
                DistBackend::new().execute(&plan, &s.x, &refs).output
            }
        };
        let t = Instant::now();
        rec.time("tensor.linalg.gram_solve", Some(sweep), || {
            let mut v = Matrix::from_fn(RANK, RANK, |_, _| 1.0);
            for (k, g) in grams.iter().enumerate() {
                if k != n {
                    v = v.hadamard(g);
                }
            }
            let mut a = solve_spd_ridge(&v, &b.transpose(), s.cfg.ridge)
                .expect("ridge keeps the normal equations solvable")
                .transpose();
            a.normalize_cols();
            grams[n] = a.gram();
            factors[n] = a;
        });
        out.gram_solve_ms += ms(t.elapsed());
    }
    rec.close(sweep);
    out
}

pub fn run(engine: Engine, run: &Run, rec: &Recorder) -> Measured {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(engine, run.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");

    let closed = closed_loop(&s, run.window(1.0), None, &mut checks);

    // Checks on the last fit: the reported fit against one recomputed from
    // the returned model, and against the same fit on the other backend.
    let recomputed = closed.last.model.fit_to(&s.x);
    checks.op((recomputed - closed.last.fit()).abs() <= 1e-9, || {
        format!(
            "reported fit {} but the returned model fits {recomputed}",
            closed.last.fit()
        )
    });
    let other_cfg = engine.other().config(run.seed);
    let other = cp_als_with_hooks(
        &s.x,
        &other_cfg,
        &PlanCache::new(16),
        &mut |_| {},
        &CancelFlag::new(),
    );
    checks.op((other.fit() - closed.last.fit()).abs() <= 1e-9, || {
        format!(
            "{engine:?} fit {} but {:?} fit {}",
            closed.last.fit(),
            engine.other(),
            other.fit()
        )
    });

    // Kernel checks on the fitted factors: on dist, every mode's rank
    // ledgers against the netsim schedule; on both, one seed-chosen mode's
    // output against the sequential oracle.
    let factors = closed.last.model.factors.clone();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let planner = Planner::new(engine.machine());
    let problem = Problem::from_shape(s.x.shape(), RANK);
    let plans: Vec<Arc<Plan>> = (0..3)
        .map(|n| planner.plan_cached(&problem, n, &s.cache))
        .collect();
    if engine == Engine::Dist {
        for (n, plan) in plans.iter().enumerate() {
            let run = DistBackend::new().run_instrumented(plan, &s.x, &refs);
            let exact = DistBackend::predicted_schedule(plan).is_some_and(|predicted| {
                run.ledgers.len() == predicted.ranks.len()
                    && run
                        .ledgers
                        .iter()
                        .zip(&predicted.ranks)
                        .all(|(ledger, rank)| ledger.matches(&rank.phases))
            });
            checks.op(exact, || {
                format!("mode-{n} dist ledgers differ from the netsim schedule")
            });
        }
    }
    let sampled = (run.seed % 3) as usize;
    let output = execute_observed(engine.backend().as_ref(), &plans[sampled], &s.x, &refs).output;
    let err = relative_error(&output, &mttkrp_reference(&s.x, &refs, sampled));
    checks.op(err <= 1e-10, || {
        format!("mode-{sampled} kernel output is {err:e} (relative) off the reference")
    });

    let sweep_s = median(&closed.sweep_s);
    let mut notes = vec![
        format!(
            "closed loop: {} fits of {SWEEPS} sweeps, {} steady MTTKRPs per fit",
            closed.fit_s.len(),
            closed.mttkrp_us.len() / closed.fit_s.len()
        ),
        format!("sweep_s: {}", summary(&closed.sweep_s)),
        format!(
            "mttkrp_us: {} (highest percentile with >= 10 beyond: {:?})",
            summary(&closed.mttkrp_us),
            tail_percentile(closed.mttkrp_us.len())
        ),
        format!(
            "final fit {:.12}, plans {:?}",
            closed.last.fit(),
            plans
                .iter()
                .map(|p| p.algorithm.label())
                .collect::<Vec<_>>()
        ),
    ];
    let e2e = vec![
        ("setup_s", median(&setups)),
        ("sweep_s", sweep_s),
        ("mttkrp_p50_us", median(&closed.mttkrp_us)),
        ("remote_factorize_s", median(&closed.fit_s)),
    ];

    let mut layers: Layers = Vec::new();
    if run.trace {
        let root = rec.open("bench.traced_closed_loop", None);
        let traced = closed_loop(&s, run.window(0.35), Some((rec, root)), &mut checks);
        rec.close(root);
        let root = rec.open("bench.replay", None);
        let replays: Vec<Replay> = (0..REPLAYS)
            .map(|_| replay(engine, &s, &factors, rec, root, &mut checks))
            .collect();
        rec.close(root);
        let med = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        let modes = 3.0;
        let sweep_ms = sweep_s * 1e3;
        let plan_ms = med(&|r| r.plan_us.iter().sum::<f64>() / 1e3);
        let mttkrp_ms = med(&|r| r.mttkrp_ms);
        let gram_ms = med(&|r| r.gram_solve_ms);
        let cache = s.cache.stats();
        layers.extend([
            ("exec.planner.plan_cached_us", med(&|r| median(&r.plan_us))),
            ("exec.plan_cache.hit_ratio", cache.hit_rate().unwrap_or(0.0)),
            ("tensor.linalg.gram_solve_ms", gram_ms),
            ("als.mttkrp_share", mttkrp_ms / sweep_ms),
            (
                "als.unattributed_share",
                1.0 - (plan_ms + mttkrp_ms + gram_ms) / sweep_ms,
            ),
            ("obs.trace_overhead", median(&traced.sweep_s) / sweep_s),
            (
                "bench.mttkrp_rps",
                closed.mttkrps as f64 / closed.wall.as_secs_f64(),
            ),
            ("bench.mttkrp_p99_us", percentile(&closed.mttkrp_us, 99.0)),
        ]);
        match engine {
            Engine::Native => layers.extend([
                ("exec.native.mode0_ms", med(&|r| r.native_ms[0])),
                ("exec.native.mode1_ms", med(&|r| r.native_ms[1])),
                ("exec.native.mode2_ms", med(&|r| r.native_ms[2])),
                (
                    "exec.native.gflops",
                    med(&|r| r.native_flops / (r.native_ms.iter().sum::<f64>() * 1e6)),
                ),
                (
                    "exec.native.flop_per_byte",
                    med(&|r| r.native_flops / r.native_bytes),
                ),
                (
                    "exec.native.t2_over_t1",
                    med(&|r| r.native_ms.iter().sum::<f64>() / r.native_1t_ms),
                ),
            ]),
            Engine::Dist => {
                let words = med(&|r| r.words);
                let bound = modes * par_best_mi(&problem, engine.machine().ranks as u64);
                layers.extend([
                    ("core.kernels.local_ms", med(&|r| r.local_max_ms / modes)),
                    (
                        "core.kernels.gflops",
                        med(&|r| r.local_flops / (r.local_sum_ms * 1e6)),
                    ),
                    ("dist.layout.shard_ms", med(&|r| r.shard_ms / modes)),
                    ("dist.runtime.mttkrp_ms", med(&|r| r.mttkrp_ms / modes)),
                    (
                        "dist.runtime.other_ms",
                        med(&|r| (r.mttkrp_ms - r.shard_ms - r.local_max_ms) / modes),
                    ),
                    ("dist.words_per_sweep", words),
                    ("dist.words_over_bound", words / bound),
                ]);
            }
        }
        notes.push(format!(
            "replay: {REPLAYS} steady sweeps replayed, {} spans recorded; engine sweep {sweep_ms:.3} ms",
            rec.len()
        ));
    }
    Measured {
        checks,
        e2e,
        layers,
        notes,
    }
}
