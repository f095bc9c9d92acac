//! The in-process workloads: `paper-bdd`, `paper-sat` (plain exact
//! synthesis on one worker) and `batch-permuted` (`qsyn batch`'s default
//! search: output permutation and the canonical-spec cache, on one worker).

use crate::check::{self, Brute, Lib};
use crate::inputs::{named, relabel, rows, shuffled_lines};
use crate::trace::{self, Tracer};
use crate::{median, peak_rss_mb, quantile, repeated_setup, timed_rounds, Args, Report, Rng};
use qsyn_core::permuted::{
    synthesize_with_output_permutation_in, PermutedSearchStats, PermutedSynthesisResult,
};
use qsyn_core::{
    depth_lower_bound, synthesize_in, BddEngine, DepthSolver, Engine, GateLibrary,
    IncrementalSolveStats, SatEngine, SolutionSet, Spec, SynthesisError, SynthesisOptions,
    SynthesisSession,
};
use qsyn_portfolio::{canonicalize, run_batch, BatchConfig, SpecCache};
use qsyn_revlogic::real::write_real;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Table 1 functions under MCT that the BDD engine finishes in under a
/// second each, plus `alu-v0` (2 s, 6,648 minimal circuits). With an odd
/// job count the median job time is one job's time.
const PAPER_BDD_MCT: [&str; 12] = [
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
    "mod5-v0",
    "mod5-v1",
    "mod5mils",
    "mod5d1",
    "alu-v0",
];
/// Table 3 rows under MCT+P.
const PAPER_BDD_MCTP: [&str; 3] = ["3_17", "rd32-v1", "decod24-v3"];
/// Jobs at the head of each paper list run once during set-up.
const WARM_UP: usize = 3;
/// Table 1 functions the SAT engine finishes in under three seconds.
const PAPER_SAT: [&str; 9] = [
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
    "mod5mils",
    "mod5-v0",
];
/// Jobs whose minimum and solution count are re-derived by brute force
/// (library with Peres gates or not). Under SAT only the depth is checked.
const BRUTE: [(&str, bool); 5] = [
    ("3_17", false),
    ("3_17", true),
    ("rd32-v0", false),
    ("rd32-v1", false),
    ("rd32-v1", true),
];
/// Shared functions solved by the other engine after the timed region.
const CROSS_SAT: [&str; 4] = ["3_17", "rd32-v0", "rd32-v1", "decod24-v2"];

/// `batch-permuted`, in submission order. The functions whose
/// output-relabelled repeats close the list come first; with one worker
/// they finish before their repeats are taken, so the cache's hit count
/// does not depend on timing.
const BATCH: [&str; 13] = [
    "3_17",
    "rd32-v0",
    "decod24-v0",
    "decod24-v2",
    "alu-v1",
    "alu-v2",
    "alu-v0",
    "mod5mils",
    "mod5-v1",
    "mod5-v0",
    "decod24-v1",
    "decod24-v3",
    "rd32-v1",
];
const REPEATABLE: [&str; 4] = ["3_17", "rd32-v0", "decod24-v0", "decod24-v2"];
const REPEATS: usize = 3;
/// Functions whose plain MCT depth bounds their permuted depth from above.
const PLAIN_BOUND: [&str; 10] = [
    "3_17",
    "rd32-v0",
    "rd32-v1",
    "decod24-v0",
    "decod24-v1",
    "decod24-v2",
    "decod24-v3",
    "mod5-v0",
    "mod5-v1",
    "mod5mils",
];

struct Job {
    name: String,
    spec: Spec,
    rows: Vec<(u32, u32)>,
    library: GateLibrary,
    lib: Lib,
}

fn job(name: &str, peres: bool) -> Job {
    let spec = named(name);
    Job {
        name: name.to_string(),
        rows: rows(&spec),
        spec,
        library: if peres {
            GateLibrary::mct_peres()
        } else {
            GateLibrary::mct()
        },
        lib: Lib { peres },
    }
}

fn paper_jobs(engine: Engine) -> Vec<Job> {
    match engine {
        Engine::Sat => PAPER_SAT.iter().map(|n| job(n, false)).collect(),
        _ => PAPER_BDD_MCT
            .iter()
            .map(|n| job(n, false))
            .chain(PAPER_BDD_MCTP.iter().map(|n| job(n, true)))
            .collect(),
    }
}

fn label(job: &Job) -> String {
    format!(
        "{} ({})",
        job.name,
        if job.lib.peres { "MCT+P" } else { "MCT" }
    )
}

/// Layer counters summed over the traced rounds.
#[derive(Default)]
struct Counters {
    bdd_peak: usize,
    bdd_hits: u64,
    bdd_lookups: u64,
    bdd_evictions: u64,
    gc_runs: u64,
    solutions: f64,
    sat: IncrementalSolveStats,
    permuted: PermutedSearchStats,
    managers: u64,
    session_peak: usize,
    cache_hits: u64,
    cache_misses: u64,
    queue_wait: f64,
    worker_idle: f64,
}

/// A minimal-depth answer with its quantum-cost ranking.
struct Answer {
    depth: u32,
    solutions: SolutionSet,
    best: qsyn_core::Circuit,
    range: (u64, u64),
}

/// Iterative deepening exactly as `qsyn_core::synthesize_in` runs it, with
/// a span around each depth query.
fn deepen<S: DepthSolver>(
    engine: &mut S,
    job: &Job,
    opts: &SynthesisOptions,
    tr: &Tracer,
    parent: u64,
    id: u64,
    span: &'static str,
) -> Result<(u32, SolutionSet), SynthesisError> {
    let first = if opts.start_at_lower_bound {
        depth_lower_bound(&job.spec, opts).min(opts.max_depth)
    } else {
        0
    };
    for d in first..=opts.max_depth {
        let _s = tr.span(span, parent, id);
        if let Some(sol) = engine.solve_depth(d)? {
            return Ok((d, sol));
        }
    }
    Err(SynthesisError::DepthLimitReached {
        max_depth: opts.max_depth,
    })
}

/// One plain synthesis job: `synthesize_in` when `tr` is off; the same
/// engine calls with spans around build, each depth and ranking when it
/// is on.
fn solve(
    job: &Job,
    engine: Engine,
    session: &mut SynthesisSession,
    tr: &Tracer,
    parent: u64,
    id: u64,
    counters: &mut Counters,
) -> Result<Answer, SynthesisError> {
    let opts = SynthesisOptions::new(job.library, engine);
    let (depth, solutions) = if !tr.enabled() {
        let r = synthesize_in(&job.spec, &opts, session)?;
        (r.depth(), r.solutions().clone())
    } else {
        session.begin_job();
        match engine {
            Engine::Sat => {
                let mut e = {
                    let _s = tr.span("sat_engine.build", parent, id);
                    SatEngine::new_in(&job.spec, &opts, session)
                };
                let out = deepen(&mut e, job, &opts, tr, parent, id, "sat_engine.solve_depth");
                if let Some(s) = DepthSolver::incremental_stats(&e) {
                    counters.sat.absorb(&s);
                }
                session.note_incremental(DepthSolver::incremental_stats(&e));
                out?
            }
            _ => {
                let mut e = {
                    let _s = tr.span("bdd_engine.build", parent, id);
                    BddEngine::new_in(&job.spec, &opts, session)
                };
                let out = deepen(&mut e, job, &opts, tr, parent, id, "bdd_engine.solve_depth");
                let m = e.manager_stats();
                counters.bdd_peak = counters.bdd_peak.max(m.peak_live);
                counters.bdd_hits += m.cache_hits;
                counters.bdd_lookups += m.cache_hits + m.cache_misses;
                counters.bdd_evictions += m.cache_evictions;
                counters.gc_runs += m.gc_runs;
                out?
            }
        }
    };
    let _s = tr.span("solutions.rank", parent, id);
    if tr.enabled() {
        counters.solutions += solutions.count() as f64;
    }
    let best = solutions.best_by_quantum_cost().clone();
    let range = solutions.quantum_cost_range();
    Ok(Answer {
        depth,
        solutions,
        best,
        range,
    })
}

/// Checks every circuit of an answer with the independent evaluator:
/// gate count, library, function (under `perm`), quantum-cost range and
/// the best circuit at its low end. Returns the problem, if any.
fn check_answer(
    job: &Job,
    depth: u32,
    solutions: &SolutionSet,
    best: Option<&qsyn_core::Circuit>,
    range: (u64, u64),
    perm: &[u32],
) -> Result<(), String> {
    let mut costs = (u64::MAX, 0);
    let mut seen = std::collections::HashSet::new();
    for c in solutions.circuits() {
        let text = write_real(c);
        let net = check::parse_real(&text)?;
        if net.gates.len() != depth as usize {
            return Err(format!(
                "{} gates at reported depth {depth}",
                net.gates.len()
            ));
        }
        if !net.gates.iter().all(|&g| job.lib.admits(g)) {
            return Err("gate outside the library".into());
        }
        if !check::realizes(&net, &job.rows, perm) {
            return Err(format!("circuit does not realize the function:\n{text}"));
        }
        let qc = check::quantum_cost(&net);
        costs = (costs.0.min(qc), costs.1.max(qc));
        if !seen.insert(text) {
            return Err("the same circuit is listed twice".into());
        }
    }
    if costs != range {
        return Err(format!("quantum costs span {costs:?}, reported {range:?}"));
    }
    if let Some(b) = best {
        let qc = check::quantum_cost(&check::parse_real(&write_real(b))?);
        if qc != range.0 {
            return Err(format!("best circuit costs {qc}, low end is {}", range.0));
        }
    }
    if solutions.count() < solutions.circuits().len() as u128 {
        return Err("count below the circuits listed".into());
    }
    if solutions.is_exhaustive() && solutions.count() != solutions.circuits().len() as u128 {
        return Err("exhaustive set whose count differs from its circuits".into());
    }
    Ok(())
}

/// Per-layer metrics shared by the in-process workloads.
fn layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    c: &Counters,
    rounds: f64,
    traced_wall: f64,
    untraced_wall: f64,
) {
    let spans = tr.spans();
    let own = trace::self_times(&spans);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0) / rounds;
    // The last depth a job queried is its satisfiable one.
    let mut last: HashMap<u64, (u64, f64)> = HashMap::new();
    for sp in spans
        .iter()
        .filter(|sp| sp.name == "bdd_engine.solve_depth")
    {
        let e = last.entry(sp.job).or_insert((0, 0.0));
        if sp.start >= e.0 {
            *e = (sp.start, (sp.end - sp.start) as f64 / 1e9);
        }
    }
    let last_depth: f64 = last.values().map(|v| v.1).sum::<f64>() / rounds;
    let canon = trace::totals(&spans)
        .get("cache.canonicalize")
        .copied()
        .unwrap_or(0.0);
    let canon_calls = spans
        .iter()
        .filter(|sp| sp.name == "cache.canonicalize")
        .count()
        .max(1);
    let per = |v: f64| v / rounds;
    report.metric("bdd_engine.build_s", s("bdd_engine.build"));
    report.metric("bdd_engine.solve_s", s("bdd_engine.solve_depth"));
    report.metric("bdd_engine.last_depth_s", last_depth);
    report.metric("bdd.peak_live_nodes", c.bdd_peak as f64);
    let rate = if c.bdd_lookups == 0 {
        0.0
    } else {
        c.bdd_hits as f64 / c.bdd_lookups as f64
    };
    report.metric("bdd.cache_hit_rate", rate);
    report.metric("bdd.cache_evictions", per(c.bdd_evictions as f64));
    report.metric("bdd.gc_runs", per(c.gc_runs as f64));
    report.metric("solutions.count", per(c.solutions));
    report.metric("solutions.rank_s", s("solutions.rank"));
    report.metric("sat_engine.build_s", s("sat_engine.build"));
    report.metric("sat_engine.solve_s", s("sat_engine.solve_depth"));
    report.metric("sat.depth_queries", per(c.sat.depths as f64));
    report.metric("sat.clauses_added", per(c.sat.clauses_added as f64));
    report.metric("sat.learnt_reused", per(c.sat.learnt_reused as f64));
    report.metric("sat.conflicts", per(c.sat.conflicts as f64));
    report.metric("permuted.search_s", s("permuted.search"));
    report.metric("permuted.classes", per(c.permuted.classes as f64));
    report.metric(
        "permuted.engines_built",
        per(c.permuted.engines_built as f64),
    );
    report.metric("permuted.probes_run", per(c.permuted.probes_run as f64));
    report.metric(
        "permuted.floor_skips",
        per(c.permuted.depth_floor_skips as f64),
    );
    report.metric("session.managers", per(c.managers as f64));
    report.metric("session.peak_live_nodes", c.session_peak as f64);
    report.metric("scheduler.queue_wait_s", per(c.queue_wait));
    report.metric("scheduler.worker_idle_s", per(c.worker_idle));
    report.metric("cache.hits", per(c.cache_hits as f64));
    report.metric("cache.misses", per(c.cache_misses as f64));
    report.metric("cache.canonicalize_us", canon * 1e6 / canon_calls as f64);
    report.metric("trace.wall_s", traced_wall);
    report.metric("trace.overhead_s", traced_wall - untraced_wall);
    // Time inside a round or a job span that no layer span covers.
    report.metric("trace.unattributed_s", s("round") + s("job"));
    let path = crate::work_dir().join("trace.jsonl");
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("qbench: {}: {e}", path.display());
    }
}

/// Timing results of the rounds, split by whether the round was traced.
#[derive(Default)]
struct Walls {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Walls {
    fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .push(secs);
    }
}

/// End-to-end metrics of an in-process workload. `job_times[i]` holds job
/// `i`'s time in each untraced round, and `miss_times[i]` its time in the
/// rounds where it ran an engine. The latency quantiles are taken over
/// the jobs' medians, so they do not depend on how many rounds fit in a
/// run.
fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    walls: &Walls,
    job_times: &[Vec<f64>],
    miss_times: &[Vec<f64>],
    rss: f64,
) {
    let busy: f64 = walls.untraced.iter().sum();
    let ops: usize = job_times.iter().map(Vec::len).sum();
    let per_job: Vec<f64> = job_times.iter().map(|t| median(t)).collect();
    let per_miss: Vec<f64> = miss_times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    report.metric("setup_s", setup_s);
    report.metric("wall_s", median(&walls.untraced));
    report.metric("peak_rss_mb", rss);
    report.metric("req_per_s", ops as f64 / busy);
    report.metric("op_p50_ms", quantile(&per_job, 0.5) * 1e3);
    report.metric("op_p90_ms", quantile(&per_job, 0.9) * 1e3);
    report.metric("miss_p50_ms", median(&per_miss) * 1e3);
}

/// `paper-bdd` and `paper-sat`.
pub fn paper(args: &Args, engine: Engine) -> Result<Report, String> {
    let mut report = Report::default();
    let off = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut counters = Counters::default();
    let (setup_s, jobs) = repeated_setup(|| {
        let jobs = paper_jobs(engine);
        // Warm-up: the first few jobs, each well under 0.1 s.
        let mut session = SynthesisSession::new();
        for j in &jobs[..WARM_UP] {
            let _ = solve(
                j,
                engine,
                &mut session,
                &off,
                0,
                0,
                &mut Counters::default(),
            );
        }
        jobs
    });
    let mut walls = Walls::default();
    let mut job_times = vec![Vec::new(); jobs.len()];
    let mut rss = 0.0;
    // (depth, count) per job, which must not change from round to round.
    let mut seen: HashMap<usize, (u32, u128)> = HashMap::new();
    let mut next_id = 1u64;
    // With --trace 1, rounds alternate untraced and traced, for the overhead.
    timed_rounds(args.seconds, 1 + usize::from(args.trace), |round| {
        // Each round is one batch on a fresh session, in table order.
        let mut session = SynthesisSession::new();
        let traced = args.trace && round % 2 == 1;
        let tr = if traced { &tracer } else { &off };
        let mut answers = Vec::new();
        let start = Instant::now();
        let root = tr.span("round", 0, 0);
        for (i, job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let job_span = tr.span("job", root.id(), next_id);
            let out = solve(
                job,
                engine,
                &mut session,
                tr,
                job_span.id(),
                next_id,
                &mut counters,
            );
            drop(job_span);
            next_id += 1;
            if !traced {
                job_times[i].push(t.elapsed().as_secs_f64());
            }
            match out {
                Ok(a) => answers.push((i, a)),
                Err(e) => {
                    report.failed += 1;
                    eprintln!("qbench: {} failed: {e}", label(job));
                }
            }
        }
        drop(root);
        walls.push(traced, start.elapsed().as_secs_f64());
        // The first round has run every job; later rounds repeat them, so
        // the high-water mark is read here and not after a round count
        // that depends on speed.
        if round == 0 {
            rss = peak_rss_mb(None);
        }
        report.attempted += jobs.len() as u64;
        for (i, a) in answers {
            let job = &jobs[i];
            let ident: Vec<u32> = (0..job.spec.lines()).collect();
            if let Err(e) = check_answer(job, a.depth, &a.solutions, Some(&a.best), a.range, &ident)
            {
                report.wrong(format!("{}: {e}", label(job)));
            }
            let key = (a.depth, a.solutions.count());
            if *seen.entry(i).or_insert(key) != key {
                report.wrong(format!("{}: answer changed between rounds", label(job)));
            }
        }
    });

    // After the timed region: minimality and counts by brute force, then
    // the other engine on shared functions.
    let find = |name: &str, peres: bool| {
        jobs.iter()
            .position(|j| j.name == name && j.lib.peres == peres)
            .and_then(|i| seen.get(&i).copied())
    };
    for (name, peres) in BRUTE {
        let Some((depth, count)) = find(name, peres) else {
            continue;
        };
        let j = job(name, peres);
        let brute = Brute::new(j.spec.lines(), &j.rows, j.lib, false).minimum(depth);
        let exact = engine == Engine::Bdd;
        match brute {
            Some((d, n)) if d == depth && (!exact || u128::from(n) == count) => {}
            other => report.wrong(format!(
                "{}: reported depth {depth} with {count} circuits, brute force finds {other:?}",
                label(&j)
            )),
        }
    }
    let (other, names): (Engine, Vec<&str>) = match engine {
        Engine::Sat => (Engine::Bdd, PAPER_SAT.to_vec()),
        _ => (Engine::Sat, CROSS_SAT.to_vec()),
    };
    let mut session = SynthesisSession::new();
    for name in names {
        let Some((depth, _)) = find(name, false) else {
            continue;
        };
        let r = synthesize_in(
            &named(name),
            &SynthesisOptions::new(GateLibrary::mct(), other),
            &mut session,
        );
        match r {
            Ok(r) if r.depth() == depth => {}
            Ok(r) => report.wrong(format!(
                "{name}: depth {depth}, the {other:?} engine finds {}",
                r.depth()
            )),
            Err(e) => report.wrong(format!("{name}: cross-check under {other:?} failed: {e}")),
        }
    }

    if args.trace {
        let rounds = walls.traced.len().max(1) as f64;
        layer_metrics(
            &mut report,
            &tracer,
            &counters,
            rounds,
            median(&walls.traced),
            median(&walls.untraced),
        );
    } else {
        // Every paper job runs an engine.
        end_to_end(&mut report, setup_s, &walls, &job_times, &job_times, rss);
    }
    Ok(report)
}

struct BatchJob {
    id: u64,
    spec: Spec,
    /// Index into the job list of the function this is a relabelling of.
    origin: usize,
}

/// `batch-permuted`.
pub fn batch(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let off = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut counters = Counters::default();
    let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
    // One worker: with two, both vCPUs of a 2-vCPU host are busy and a
    // round's time follows the host's placement of them (see README).
    let config = BatchConfig {
        workers: 1,
        ..BatchConfig::default()
    };
    let (setup_s, jobs) = repeated_setup(|| {
        let mut rng = Rng::new(args.seed, 2);
        let mut jobs: Vec<Job> = BATCH.iter().map(|n| job(n, false)).collect();
        let mut picks: Vec<&str> = REPEATABLE.to_vec();
        rng.shuffle(&mut picks);
        for name in &picks[..REPEATS] {
            let j = job(name, false);
            let n = j.spec.lines();
            let sigma: Vec<u32> = (0..n).collect();
            let spec = relabel(&j.spec, &sigma, &shuffled_lines(&mut rng, n));
            jobs.push(Job {
                name: format!("{name}~"),
                rows: rows(&spec),
                spec,
                ..j
            });
        }
        // Warm-up: the three smallest jobs through the same scheduler and
        // cache.
        let cache = SpecCache::new();
        let warm: Vec<(String, Spec)> = jobs[..3]
            .iter()
            .map(|j| (j.name.clone(), j.spec.clone()))
            .collect();
        run_batch(warm, &config, None, |spec: &Spec, token, session, _| {
            let opts = options.clone().with_cancel_token(token.clone());
            cache.get_or_compute(spec, |s| {
                synthesize_with_output_permutation_in(s, &opts, session)
            })
        });
        jobs
    });
    let origin = |j: &Job| {
        BATCH
            .iter()
            .position(|n| j.name.trim_end_matches('~') == *n)
            .expect("listed")
    };

    let mut walls = Walls::default();
    let mut job_times = vec![Vec::new(); jobs.len()];
    let mut miss_times = vec![Vec::new(); jobs.len()];
    let mut rss = 0.0;
    let mut depths: HashMap<usize, u32> = HashMap::new();
    let mut next_id = 1u64;
    // With --trace 1, rounds alternate untraced and traced, for the overhead.
    timed_rounds(args.seconds, 1 + usize::from(args.trace), |round| {
        let traced = args.trace && round % 2 == 1;
        let tr = if traced { &tracer } else { &off };
        let batch: Vec<(String, BatchJob)> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                next_id += 1;
                (
                    j.name.clone(),
                    BatchJob {
                        id: next_id,
                        spec: j.spec.clone(),
                        origin: i,
                    },
                )
            })
            .collect();
        let cache = SpecCache::new();
        let fresh: Mutex<Vec<PermutedSearchStats>> = Mutex::new(Vec::new());
        let entries: Mutex<Vec<(std::thread::ThreadId, Instant, Instant)>> = Mutex::new(Vec::new());
        let start = Instant::now();
        let root = tr.span("round", 0, 0);
        let root_id = root.id();
        let outcome = run_batch(batch, &config, None, |job: &BatchJob, token, session, _| {
            let entered = Instant::now();
            let span = tr.span("job", root_id, job.id);
            if traced {
                let _c = tr.span("cache.canonicalize", span.id(), job.id);
                std::hint::black_box(canonicalize(&job.spec));
            }
            let opts = options.clone().with_cancel_token(token.clone());
            let mut ran = false;
            let out = cache.get_or_compute(&job.spec, |s| {
                ran = true;
                let _s = tr.span("permuted.search", span.id(), job.id);
                let r = synthesize_with_output_permutation_in(s, &opts, session);
                if let Ok(r) = &r {
                    fresh.lock().expect("stats lock").push(r.stats);
                }
                r
            });
            drop(span);
            entries.lock().expect("entries lock").push((
                std::thread::current().id(),
                entered,
                Instant::now(),
            ));
            out.map(|r| (job.origin, r, ran))
        });
        drop(root);
        let wall = start.elapsed();
        walls.push(traced, wall.as_secs_f64());
        if round == 0 {
            rss = peak_rss_mb(None);
        }
        if traced {
            let (hits, misses) = cache.stats();
            counters.cache_hits += hits;
            counters.cache_misses += misses;
            for s in fresh.into_inner().expect("stats lock") {
                counters.permuted.classes += s.classes;
                counters.permuted.engines_built += s.engines_built;
                counters.permuted.probes_run += s.probes_run;
                counters.permuted.depth_floor_skips += s.depth_floor_skips;
            }
            let st = &outcome.session_stats;
            counters.managers += st.managers;
            counters.session_peak = counters.session_peak.max(st.peak_live);
            counters.bdd_peak = counters.bdd_peak.max(st.peak_live);
            counters.bdd_hits += st.cache_hits;
            counters.bdd_lookups += st.cache_hits + st.cache_misses;
            counters.bdd_evictions += st.cache_evictions;
            counters.gc_runs += st.gc_runs;
            let mut busy: HashMap<std::thread::ThreadId, Duration> = HashMap::new();
            for (thread, entered, left) in entries.into_inner().expect("entries lock") {
                counters.queue_wait += (entered - start).as_secs_f64();
                *busy.entry(thread).or_default() += left - entered;
            }
            counters.worker_idle += busy
                .values()
                .map(|b| (wall - *b).as_secs_f64())
                .sum::<f64>();
        }
        report.attempted += outcome.reports.len() as u64;
        // Reports come back in submission order.
        for (j, r) in outcome.reports.iter().enumerate() {
            let Some((i, p, ran)) = r.status.result() else {
                report.failed += 1;
                eprintln!("qbench: {} failed", r.name);
                continue;
            };
            if !traced {
                job_times[j].push(r.elapsed.as_secs_f64());
                if *ran {
                    miss_times[j].push(r.elapsed.as_secs_f64());
                }
            }
            check_permuted(&jobs[*i], p, &mut report);
            counters.solutions += if traced {
                p.result.solutions().count() as f64
            } else {
                0.0
            };
            let depth = p.result.depth();
            // A relabelled repeat has its function's permuted depth.
            let key = origin(&jobs[*i]);
            if *depths.entry(key).or_insert(depth) != depth {
                report.wrong(format!("{}: depth {depth} differs from its class", r.name));
            }
        }
    });

    // A permuted depth never exceeds the plain depth of the same function.
    let mut session = SynthesisSession::new();
    for name in PLAIN_BOUND {
        let Some(&depth) = BATCH
            .iter()
            .position(|n| *n == name)
            .and_then(|i| depths.get(&i))
        else {
            continue;
        };
        match synthesize_in(&named(name), &options, &mut session) {
            Ok(r) if depth <= r.depth() => {}
            Ok(r) => report.wrong(format!(
                "{name}: permuted depth {depth} above plain depth {}",
                r.depth()
            )),
            Err(e) => report.wrong(format!("{name}: plain synthesis failed: {e}")),
        }
    }
    // Minimality over every output order, by brute force.
    for name in ["3_17", "rd32-v0"] {
        let Some(&depth) = BATCH
            .iter()
            .position(|n| *n == name)
            .and_then(|i| depths.get(&i))
        else {
            continue;
        };
        let j = job(name, false);
        match Brute::new(j.spec.lines(), &j.rows, j.lib, true).minimum(depth) {
            Some((d, _)) if d == depth => {}
            other => report.wrong(format!(
                "{name}: permuted depth {depth}, brute force finds {other:?}"
            )),
        }
    }

    if args.trace {
        let rounds = walls.traced.len().max(1) as f64;
        layer_metrics(
            &mut report,
            &tracer,
            &counters,
            rounds,
            median(&walls.traced),
            median(&walls.untraced),
        );
    } else {
        end_to_end(&mut report, setup_s, &walls, &job_times, &miss_times, rss);
    }
    Ok(report)
}

fn check_permuted(job: &Job, p: &PermutedSynthesisResult, report: &mut Report) {
    let sol = p.result.solutions();
    let out = check_answer(
        job,
        p.result.depth(),
        sol,
        None,
        sol.quantum_cost_range(),
        &p.permutation,
    );
    if let Err(e) = out {
        report.wrong(format!("{}: {e}", job.name));
    }
}
