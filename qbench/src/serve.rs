//! `serve-mixed`: the `qsyn serve` daemon over loopback TCP, driven by two
//! closed-loop client connections.
//!
//! Each set-up starts a daemon on a fresh store, fills the store through
//! `--preload` with fixed functions, and warms both connections with one
//! request each. A round is ten requests per client: six output-relabelled
//! variants of stored functions (store hits), two input-and-output
//! relabelled variants (misses: the hit path canonicalizes under output
//! permutation only) and two fresh random specs on three and four lines
//! (misses that append to the store). The client is a plain blocking line
//! reader with no socket options set, so the daemon is measured as its
//! clients see it. Hit and miss latencies are reported apart, so the
//! shares of the mix set how many samples each kind gets, not which kind a
//! latency figure describes.
//!
//! With `--trace 1` the same stream is also replayed in-process against
//! `ServeCore::request`, with spans around the store, the request and the
//! protocol code, so the client's hit latency splits into request,
//! protocol and transport time.

use crate::check::{self, Lib};
use crate::inputs::{random_cascade, relabel, rows, shuffled_lines};
use crate::trace::{self, Tracer};
use crate::{median, peak_rss_mb, quantile, repeated_setup, Args, Report, Rng};
use qsyn_core::{Engine, GateLibrary, Spec};
use qsyn_revlogic::spec_format::{parse_spec, write_spec};
use qsyn_serve::protocol::{self, SynthReply};
use qsyn_serve::{ServeConfig, ServeCore, Source};
use qsyn_store::Store;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Functions stored during set-up, by line count.
const FILL: [(u32, usize); 2] = [(3, 4), (4, 8)];
const CLIENTS: u64 = 2;
/// One client's round: six hits, two relabelled misses, two fresh misses.
/// The shares are assumed, not taken from observed traffic. Hits are the
/// majority so a run holds a few hundred of them for `op_p90_ms`, and
/// each kind of miss recurs twice a round.
const ROUND: [Kind; 10] = [
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Relabelled,
    Kind::Relabelled,
    Kind::Fresh(3),
    Kind::Fresh(4),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hit,
    /// An input-and-output relabelled four-line stored function (three
    /// lines allow too few input relabellings to last a run).
    Relabelled,
    Fresh(u32),
}

/// Gates of the random cascades behind stored and fresh functions on `n`
/// lines. These sizes keep one engine run near 10 ms on three lines and
/// 30 ms on four, with little spread between functions; a five-gate
/// four-line cascade ranges from 5 to 300 ms, which no seed-independent
/// latency figure survives.
fn gates(n: u32) -> u32 {
    if n == 3 {
        6
    } else {
        4
    }
}

/// The functions the store is filled with. They are the same for every
/// seed, so set-up does the same work on every run; the seed picks the
/// requests.
fn fill_set() -> Vec<Spec> {
    let mut rng = Rng::new(0, 10);
    FILL.iter()
        .flat_map(|&(n, count)| vec![n; count])
        .map(|n| random_cascade(&mut rng, n, gates(n)))
        .collect()
}

/// One client's request stream: `next` yields the spec of each request.
struct Stream<'a> {
    rng: Rng,
    fill: &'a [Spec],
    /// (stored function, input relabelling) pairs in seeded order, taken
    /// one after another so a relabelled variant is not requested twice.
    pairs: Vec<(usize, Vec<u32>)>,
    next: usize,
}

impl<'a> Stream<'a> {
    fn new(seed: u64, client: u64, fill: &'a [Spec]) -> Stream<'a> {
        let mut rng = Rng::new(seed, 20 + client);
        let mut pairs: Vec<(usize, Vec<u32>)> = Vec::new();
        for (i, f) in fill.iter().enumerate() {
            for sigma in check::permutations(f.lines()) {
                // The two clients draw from disjoint halves.
                let moved = sigma.iter().enumerate().any(|(j, &v)| j as u32 != v);
                if f.lines() == 4 && moved && (i as u64 % CLIENTS) == client {
                    pairs.push((i, sigma));
                }
            }
        }
        rng.shuffle(&mut pairs);
        Stream {
            rng,
            fill,
            pairs,
            next: 0,
        }
    }

    fn round(&mut self) -> Vec<(Kind, Spec)> {
        let mut kinds = ROUND.to_vec();
        self.rng.shuffle(&mut kinds);
        kinds.into_iter().map(|k| (k, self.spec(k))).collect()
    }

    fn spec(&mut self, kind: Kind) -> Spec {
        match kind {
            Kind::Hit => {
                let f = &self.fill[self.rng.below(self.fill.len() as u64) as usize];
                let ident: Vec<u32> = (0..f.lines()).collect();
                let tau = shuffled_lines(&mut self.rng, f.lines());
                relabel(f, &ident, &tau)
            }
            Kind::Relabelled => {
                // A run longer than the pool lasts starts over; repeats then hit.
                self.next += 1;
                let (i, sigma) = &self.pairs[(self.next - 1) % self.pairs.len()];
                let sigma = sigma.clone();
                let f = &self.fill[*i];
                let tau = shuffled_lines(&mut self.rng, f.lines());
                relabel(f, &sigma, &tau)
            }
            Kind::Fresh(n) => random_cascade(&mut self.rng, n, gates(n)),
        }
    }
}

/// Checks one reply against its request: the circuit has only gates of
/// the daemon's library (MCT, positive controls) and, wired through the
/// reply's permutation, realizes the spec; its gate count is the depth;
/// its quantum cost is the one reported; the depth is within the cascade
/// the spec came from.
fn check_reply(spec: &Spec, r: &SynthReply) -> Result<(), String> {
    let net = check::parse_real(&r.circuit)?;
    if !net.gates.iter().all(|&g| Lib { peres: false }.admits(g)) {
        return Err(format!("served gate outside MCT:\n{}", r.circuit));
    }
    if !check::realizes(&net, &rows(spec), &r.permutation) {
        return Err(format!(
            "served circuit does not realize the request:\n{}",
            r.circuit
        ));
    }
    if net.gates.len() != r.depth as usize || r.depth > gates(spec.lines()) {
        return Err(format!("{} gates, depth {}", net.gates.len(), r.depth));
    }
    if check::quantum_cost(&net) != r.quantum_cost {
        return Err(format!(
            "quantum cost {} reported as {}",
            check::quantum_cost(&net),
            r.quantum_cost
        ));
    }
    Ok(())
}

/// A running `qsyn serve` child process.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(qsyn: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(qsyn)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(dir.join("circuits.store"))
            .args(["--jobs", "2", "--preload-permute", "--preload"])
            .arg(dir.join("fill"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", qsyn.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the daemon exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return Ok(Daemon {
                    addr: addr.to_string(),
                    child,
                    _stdout: stdout,
                });
            }
        }
    }
}

impl Drop for Daemon {
    /// Asks the daemon to shut down, and kills it if it has not exited
    /// within ten seconds.
    fn drop(&mut self) {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = writeln!(s, "{}", protocol::render_verb_request("shutdown"));
            let _ = BufReader::new(s).read_line(&mut String::new());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A blocking client connection.
struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let write = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let read = BufReader::new(write.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { write, read })
    }

    /// Sends one synth request and reads the whole reply line.
    fn synth(&mut self, name: &str, spec: &Spec) -> Result<String, String> {
        let line = protocol::render_synth_request(Some(name), Some(&write_spec(spec)), None);
        self.write
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.read.read_line(&mut reply).map_err(|e| e.to_string())?;
        Ok(reply)
    }
}

/// The `qsyn` binary, built from this checkout.
fn qsyn_binary() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("release").join("qsyn")
}

/// Writes the fill set as `.spec` files for `--preload`.
fn write_fill(dir: &Path, fill: &[Spec]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("fill")).map_err(|e| e.to_string())?;
    for (i, f) in fill.iter().enumerate() {
        std::fs::write(
            dir.join("fill").join(format!("f{i:02}.spec")),
            write_spec(f),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What the clients saw.
#[derive(Default)]
struct Seen {
    rounds: Vec<f64>,
    /// Latencies of correct replies from the store and from an engine.
    hits: Vec<f64>,
    misses: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Drives `clients` until `seconds` have passed, each finishing its round
/// in progress. `send` makes one request and returns the parsed reply; an
/// error that starts with `failed:` is a refused request, any other error
/// a wrong answer.
fn drive<C: Send>(
    streams: &mut [Stream<'_>],
    clients: Vec<C>,
    seconds: f64,
    send: impl Fn(&mut C, &str, &Spec) -> Result<SynthReply, String> + Sync,
) -> Seen {
    let seen = Mutex::new(Seen::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (stream, mut client) in streams.iter_mut().zip(clients) {
            let (seen, send) = (&seen, &send);
            scope.spawn(move || {
                let mut n = 0;
                while start.elapsed().as_secs_f64() < seconds {
                    let round = stream.round();
                    let t = Instant::now();
                    let mut lat = Vec::new();
                    let mut out = Vec::new();
                    for (k, (kind, spec)) in round.iter().enumerate() {
                        let t = Instant::now();
                        let reply = send(&mut client, &format!("{kind:?}-{n}-{k}"), spec);
                        lat.push(t.elapsed().as_secs_f64());
                        out.push(reply);
                    }
                    let wall = t.elapsed().as_secs_f64();
                    n += 1;
                    let mut s = seen.lock().expect("seen lock");
                    s.rounds.push(wall);
                    s.attempted += round.len() as u64;
                    for (((_, spec), reply), l) in round.iter().zip(out).zip(lat) {
                        match reply.and_then(|r| check_reply(spec, &r).map(|()| r)) {
                            Ok(r) if r.source == Source::Store.as_str() => s.hits.push(l),
                            Ok(_) => s.misses.push(l),
                            Err(e) if e.starts_with("failed:") => s.failed += 1,
                            Err(e) => s.errors.push(e),
                        }
                    }
                }
            });
        }
    });
    seen.into_inner().expect("seen lock")
}

fn parse_reply(line: &str) -> Result<SynthReply, String> {
    protocol::parse_synth_reply(line.trim()).ok_or_else(|| format!("failed: {}", line.trim()))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let qsyn = qsyn_binary();
    let base = crate::work_dir().join(format!("serve-{}", std::process::id()));
    let fill = fill_set();
    let streams = || {
        (0..CLIENTS)
            .map(|c| Stream::new(args.seed, c, &fill))
            .collect::<Vec<_>>()
    };
    let mut setup_no = 0;
    let (setup_s, (clients, daemon)) = {
        // Clients come first in the tuple so they close before the daemon
        // is asked to shut down (a daemon drains open connections).
        let mut attempt = || -> Result<(Vec<Client>, Daemon), String> {
            setup_no += 1;
            let dir = base.join(format!("setup-{setup_no}"));
            write_fill(&dir, &fill)?;
            let daemon = Daemon::start(&qsyn, &dir)?;
            let mut clients = Vec::new();
            let mut warm = streams();
            for w in &mut warm {
                let mut c = Client::connect(&daemon.addr)?;
                let spec = w.spec(Kind::Hit);
                check_reply(&spec, &parse_reply(&c.synth("warm-up", &spec)?)?)?;
                clients.push(c);
            }
            Ok((clients, daemon))
        };
        let (s, r) = repeated_setup(&mut attempt);
        (s, r?)
    };

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let seen = drive(&mut streams(), clients, seconds, |c, name, spec| {
        parse_reply(&c.synth(name, spec)?)
    });
    let timed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb(Some(daemon.child.id()));
    drop(daemon);
    report.attempted += seen.attempted;
    report.failed += seen.failed;
    for e in &seen.errors {
        report.wrong(e.clone());
    }

    if args.trace {
        replay(args, &fill, &base, quantile(&seen.hits, 0.5), &mut report)?;
    } else {
        report.metric("setup_s", setup_s);
        report.metric("wall_s", median(&seen.rounds));
        report.metric("peak_rss_mb", rss);
        let served = seen.hits.len() + seen.misses.len();
        report.metric("req_per_s", served as f64 / timed);
        report.metric("op_p50_ms", quantile(&seen.hits, 0.5) * 1e3);
        report.metric("op_p90_ms", quantile(&seen.hits, 0.9) * 1e3);
        report.metric("miss_p50_ms", median(&seen.misses) * 1e3);
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(report)
}

/// The traced half of a `--trace 1` run: the same stream in-process
/// against `ServeCore`, then the store on its own.
fn replay(
    args: &Args,
    fill: &[Spec],
    base: &Path,
    client_hit_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let tr = &tracer;
    let dir = base.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("circuits.store");
    let store = Store::open(&path).map_err(|e| e.to_string())?;
    let config = ServeConfig {
        workers: 2,
        library: GateLibrary::mct(),
        engine: Engine::Bdd,
        preload_permute: true,
        ..ServeConfig::default()
    };
    let core = ServeCore::start(&config, Some(store));
    let named: Vec<(String, Spec)> = fill
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("f{i:02}"), f.clone()))
        .collect();
    core.preload(&named);
    // An untraced pass first, for the overhead. The traced pass continues
    // the same streams, so its misses are misses too.
    let off = Tracer::new(false);
    let quarter = args.seconds / 4.0;
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(args.seed, c, fill))
        .collect();
    let plain = replay_pass(&core, &off, &mut streams, quarter);
    let before = core.snapshot();
    let traced = replay_pass(&core, tr, &mut streams, quarter);
    let after = core.stop();
    for seen in [&plain.seen, &traced.seen] {
        for e in &seen.errors {
            report.wrong(e.clone());
        }
        report.attempted += seen.attempted;
        report.failed += seen.failed;
    }
    let seen = &traced.seen;
    let rounds = (seen.rounds.len() as f64 / CLIENTS as f64).max(1.0);
    let per = |a: u64, b: u64| (a - b) as f64 / rounds;
    let request_us = median(&traced.hit_request) * 1e6;
    let protocol_us = median(&traced.protocol) * 1e6;
    report.metric("serve.request_us", request_us);
    report.metric("serve.protocol_us", protocol_us);
    report.metric(
        "serve.transport_us",
        client_hit_s * 1e6 - request_us - protocol_us,
    );
    report.metric("serve.hits", per(after.hits, before.hits));
    report.metric("serve.misses", per(after.misses, before.misses));
    report.metric(
        "serve.engine_invocations",
        per(after.engine_invocations, before.engine_invocations),
    );
    report.metric(
        "serve.inflight_dedup",
        per(after.inflight_dedup, before.inflight_dedup),
    );
    report.metric("serve.rejected", per(after.rejected, before.rejected));
    drop(core);

    // The store on its own: reopen what the replay wrote (the timed
    // open), look every record up, and append each to a second store.
    let store = {
        let _s = tr.span("store.open", 0, 0);
        Store::open(&path).map_err(|e| e.to_string())?
    };
    let records: Vec<_> = store.records().cloned().collect();
    for r in &records {
        let spec = Spec::new_incomplete(
            r.lines,
            r.rows
                .iter()
                .map(|&(value, care)| qsyn_revlogic::SpecRow { value, care })
                .collect(),
        )
        .map_err(|e| e.to_string())?;
        let _s = tr.span("store.get", 0, 0);
        if store
            .get(&spec, &r.config)
            .map_err(|e| e.to_string())?
            .is_none()
        {
            report.wrong(format!("stored record {} does not read back", r.name));
        }
    }
    let mut copy = Store::open(&dir.join("copy.store")).map_err(|e| e.to_string())?;
    for r in &records {
        let _s = tr.span("store.put", 0, 0);
        copy.put(r.clone()).map_err(|e| e.to_string())?;
    }
    let spans = tracer.spans();
    let each = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .collect();
        median(&v)
    };
    report.metric("store.open_ms", each("store.open") * 1e3);
    report.metric("store.get_us", each("store.get") * 1e6);
    report.metric("store.put_ms", each("store.put") * 1e3);
    report.metric("store.records", store.len() as f64);
    report.metric("store.file_bytes", store.file_bytes() as f64);
    let traced_round = median(&seen.rounds);
    report.metric("trace.wall_s", traced_round);
    report.metric(
        "trace.overhead_s",
        traced_round - median(&plain.seen.rounds),
    );
    let own = trace::self_times(&spans);
    report.metric(
        "trace.unattributed_s",
        own.get("op").copied().unwrap_or(0.0) / rounds,
    );
    let path = crate::work_dir().join("trace.jsonl");
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("qbench: {}: {e}", path.display());
    }
    Ok(())
}

/// One in-process pass over a request stream.
struct Pass {
    seen: Seen,
    /// `ServeCore::request` times of store hits, in seconds.
    hit_request: Vec<f64>,
    /// Protocol time per request (parse the line and spec, render the reply).
    protocol: Vec<f64>,
}

/// Replays a seeded stream against `core`, doing per request line what
/// the daemon does, minus the socket.
fn replay_pass(core: &ServeCore, tr: &Tracer, streams: &mut [Stream], seconds: f64) -> Pass {
    let hit_request = Mutex::new(Vec::new());
    let protocol_time = Mutex::new(Vec::new());
    let ids = std::sync::atomic::AtomicU64::new(1);
    let seen = drive(
        streams,
        vec![(); CLIENTS as usize],
        seconds,
        |_, name, spec| {
            let id = ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let op = tr.span("op", 0, id);
            let line = protocol::render_synth_request(Some(name), Some(&write_spec(spec)), None);
            let t = Instant::now();
            let parsed = {
                let _s = tr.span("serve.protocol", op.id(), id);
                match protocol::parse_request(&line) {
                    Ok(protocol::Request::Synth {
                        spec: Some(text), ..
                    }) => parse_spec(&text).map_err(|e| e.to_string())?,
                    other => return Err(format!("request did not parse back: {other:?}")),
                }
            };
            let mut proto = t.elapsed();
            let served = {
                let _s = tr.span("serve.request", op.id(), id);
                let t = Instant::now();
                let r = core
                    .request(name, &parsed)
                    .map_err(|e| format!("failed: {e}"))?;
                if r.source == Source::Store {
                    hit_request
                        .lock()
                        .expect("lock")
                        .push(t.elapsed().as_secs_f64());
                }
                r
            };
            let t = Instant::now();
            let reply = {
                let _s = tr.span("serve.protocol", op.id(), id);
                protocol::render_synth_reply(&SynthReply {
                    source: served.source.as_str().to_string(),
                    name: name.to_string(),
                    depth: served.record.depth,
                    solutions: served.record.count_display(),
                    quantum_cost: served.record.quantum_cost,
                    permutation: served.permutation.clone(),
                    circuit: served.record.circuit.clone(),
                    elapsed_us: served.elapsed.as_micros() as u64,
                })
            };
            proto += t.elapsed();
            protocol_time
                .lock()
                .expect("lock")
                .push(proto.as_secs_f64());
            parse_reply(&reply)
        },
    );
    Pass {
        seen,
        hit_request: hit_request.into_inner().expect("lock"),
        protocol: protocol_time.into_inner().expect("lock"),
    }
}
