//! The repository benchmark: one command, three workloads, correctness
//! checked on every run.
//!
//! ```text
//! perfbench --workload <als-native|als-dist|serve-socket> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload, then a traced repeat and a replay of each layer's calls, and
//! prints every per-layer metric instead. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! check makes the exit code nonzero. See `README.md` for the workloads and
//! what each metric means.

mod als;
mod meta;
mod serve;
mod stats;
mod trace;

use mttkrp_tensor::Matrix;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: name, unit. Every workload reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("sweep_s", "s"),
    ("mttkrp_p50_us", "us"),
    ("remote_factorize_s", "s"),
];

/// Per-layer metrics: name, unit. A workload whose calls never enter a
/// layer reports 0 for it (see `README.md` for which workload moves which).
const PER_LAYER: [(&str, &str); 33] = [
    ("exec.native.mode0_ms", "ms"),
    ("exec.native.mode1_ms", "ms"),
    ("exec.native.mode2_ms", "ms"),
    ("exec.native.gflops", "GF/s"),
    ("exec.native.flop_per_byte", "flop/B"),
    ("exec.native.t2_over_t1", "ratio"),
    ("exec.native.small_call_us", "us"),
    ("exec.planner.plan_cached_us", "us"),
    ("exec.plan_cache.hit_ratio", "ratio"),
    ("tensor.linalg.gram_solve_ms", "ms"),
    ("als.mttkrp_share", "ratio"),
    ("als.unattributed_share", "ratio"),
    ("core.kernels.local_ms", "ms"),
    ("core.kernels.gflops", "GF/s"),
    ("dist.layout.shard_ms", "ms"),
    ("dist.runtime.mttkrp_ms", "ms"),
    ("dist.runtime.other_ms", "ms"),
    ("dist.words_per_sweep", "words"),
    ("dist.words_over_bound", "ratio"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.bytes_per_request", "B"),
    ("serve.server.call_p50_us", "us"),
    ("serve.net.overhead_p50_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.net.shed_ratio", "ratio"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.mttkrp_rps", "req/s"),
    ("bench.mttkrp_p99_us", "us"),
    ("bench.open_p50_us", "us"),
    ("bench.open_p99_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

/// One run's arguments.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// A share of the measured window.
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }
}

/// Operations attempted and failed. Every check is one operation; a
/// shed, refused or wrong operation is a failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

pub type Layers = Vec<(&'static str, f64)>;

/// What a workload measured. `ok_ratio` and `peak_rss_mb` are added here.
pub struct Measured {
    pub checks: Checks,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Layers,
    pub notes: Vec<String>,
}

/// `max |a − b| / max |reference|`.
pub fn relative_error(a: &Matrix, reference: &Matrix) -> f64 {
    let scale = reference.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    a.max_abs_diff(reference) / scale.max(f64::MIN_POSITIVE)
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is neither 0 nor 1")),
    };
    Ok((
        workload,
        Run {
            seed: seed.unwrap_or(1),
            seconds,
            trace,
        },
    ))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = meta::metadata_json(&workload, run.seed, run.seconds, run.trace);
    let rec = trace::Recorder::new(run.seed);
    let measured = match workload.as_str() {
        "als-native" => als::run(als::Engine::Native, &run, &rec),
        "als-dist" => als::run(als::Engine::Dist, &run, &rec),
        "serve-socket" => serve::run(&run, &rec),
        other => {
            eprintln!("error: unknown workload {other} (als-native, als-dist, serve-socket)");
            return ExitCode::from(2);
        }
    };
    let Measured {
        checks,
        e2e,
        layers,
        notes,
    } = measured;

    let mut values: BTreeMap<&str, f64> = e2e.into_iter().collect();
    values.insert(
        "ok_ratio",
        1.0 - stats::fail_ratio(checks.attempted, checks.failed),
    );
    values.insert("peak_rss_mb", meta::peak_rss_mb());
    let layers: BTreeMap<&str, f64> = layers.into_iter().collect();
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let source = if run.trace { &layers } else { &values };
    for name in source.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the metric table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = if run.trace {
                layers.get(name).copied().unwrap_or(0.0)
            } else {
                *values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"))
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                meta::json_str(name),
                json_number(v),
                meta::json_str(unit)
            )
        })
        .collect();
    let correct = checks.failed == 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(",")
    );

    println!("# meta {meta}");
    for note in &notes {
        println!("# {note}");
    }
    for failure in &checks.failures {
        println!("# FAILED: {failure}");
        eprintln!("check failed: {failure}");
    }
    if let Err(e) = write_outputs(&workload, &run, &meta, &result, &notes, &rec) {
        eprintln!("warning: could not write .bench_out: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keeps each run's metadata next to its numbers (and, for a traced run,
/// its spans as JSONL) under `.bench_out/` in the working directory.
fn write_outputs(
    workload: &str,
    run: &Run,
    meta: &str,
    result: &str,
    notes: &[String],
    rec: &trace::Recorder,
) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let stem = format!(
        ".bench_out/{workload}-seed{}-trace{}",
        run.seed,
        u8::from(run.trace)
    );
    let notes: Vec<String> = notes.iter().map(|n| meta::json_str(n)).collect();
    std::fs::write(
        format!("{stem}.json"),
        format!(
            "{{\"meta\":{meta},\"result\":{result},\"notes\":[{}]}}\n",
            notes.join(",")
        ),
    )?;
    if run.trace {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(format!("{stem}.spans.jsonl"))?);
        rec.write_jsonl(&mut out)?;
        out.flush()?;
    }
    Ok(())
}
