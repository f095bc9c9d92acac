//! qsyn's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release -q --manifest-path qbench/Cargo.toml -- \
//!     --workload <paper-bdd|paper-sat|batch-permuted|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run sets up several times (the
//! median is `setup_s`), then repeats whole rounds of the workload's
//! operations until `--seconds` have passed, checks every answer, and
//! prints one JSON object as its last line. `--trace 0` reports the
//! end-to-end metrics with no tracing; `--trace 1` records spans around
//! the calls into each layer and reports the per-layer metrics. See
//! `qbench/README.md`.

mod check;
mod inputs;
mod serve;
mod synth;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// What one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Values by metric name; units come from `END_TO_END`/`PER_LAYER`.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed answer check.
    pub fn wrong(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "req/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
];

/// The per-layer metrics, printed by every `--trace 1` run (zero where a
/// workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("bdd_engine.build_s", "s"),
    ("bdd_engine.solve_s", "s"),
    ("bdd_engine.last_depth_s", "s"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.cache_evictions", "count"),
    ("bdd.gc_runs", "count"),
    ("solutions.count", "count"),
    ("solutions.rank_s", "s"),
    ("sat_engine.build_s", "s"),
    ("sat_engine.solve_s", "s"),
    ("sat.depth_queries", "count"),
    ("sat.clauses_added", "count"),
    ("sat.learnt_reused", "count"),
    ("sat.conflicts", "count"),
    ("permuted.search_s", "s"),
    ("permuted.classes", "count"),
    ("permuted.engines_built", "count"),
    ("permuted.probes_run", "count"),
    ("permuted.floor_skips", "count"),
    ("session.managers", "count"),
    ("session.peak_live_nodes", "count"),
    ("scheduler.queue_wait_s", "s"),
    ("scheduler.worker_idle_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.canonicalize_us", "us"),
    ("store.open_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_ms", "ms"),
    ("store.records", "count"),
    ("store.file_bytes", "B"),
    ("serve.request_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.engine_invocations", "count"),
    ("serve.inflight_dedup", "count"),
    ("serve.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// SplitMix64: a small seeded generator, so the inputs of a run follow
/// from `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Quantile `q` of `values`, interpolating between the two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * q;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of a process, in MB (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch directory for this run's files, inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".qbench")
}

/// Runs `round` until `seconds` have passed, always finishing the round
/// in progress and running at least `min_rounds`.
pub fn timed_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(n);
        n += 1;
    }
}

/// Times `f` `SETUPS` times and returns the median and the last value.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous set-up's state is dropped before the next starts.
        drop(last.take());
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one set-up"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("qbench: {}: {e}", work_dir().display());
        std::process::exit(2);
    }
    // `serve-mixed` runs the daemon binary; every workload builds it, so
    // the first run in a checkout builds everything.
    let built = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "qsyn",
        ])
        .status();
    if !built.is_ok_and(|s| s.success()) {
        eprintln!("qbench: could not build the qsyn binary");
        std::process::exit(2);
    }
    let report = match args.workload.as_str() {
        "paper-bdd" => synth::paper(&args, qsyn_core::Engine::Bdd),
        "paper-sat" => synth::paper(&args, qsyn_core::Engine::Sat),
        "batch-permuted" => synth::batch(&args),
        "serve-mixed" => serve::run(&args),
        w => {
            eprintln!("qbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for e in &report.errors {
        eprintln!("qbench: wrong answer: {e}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map_or(0.0, |m| m.1);
            // JSON has no NaN or infinity.
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
