//! The `serve_mixed` workload — a closed loop of NDJSON `explore` lines
//! against an in-process `mhla_serve::Server` — and the serve-layer
//! probes every traced run reports.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mhla_core::explore::{try_sweep_grid_run, SweepOptions};
use mhla_core::fingerprint::{platform_fingerprint, program_fingerprint};
use mhla_core::MhlaConfig;
use mhla_hierarchy::Platform;
use mhla_ir::serdes::{program_value, Json};
use mhla_serve::protocol::{result_body, ExploreRequest};
use mhla_serve::{Client, Request, Response, Server, ServerOptions, Service, ServiceOptions};

use crate::engine::{Call, Engine};
use crate::inputs::{self, Expect, ExploreSpec, Mix, KINDS};
use crate::offline::{engine_layers, warm_up};
use crate::stats::{median, percentile, Metric};
use crate::{peak_rss_mb, RunOutput, SETUPS};

/// Lines per pass of the mix.
const MIX_LEN: usize = 120;
/// Programs per mix: one variant of each kernel (below the server's
/// 32-entry analysis cache, so analysis misses are exactly first sights).
const POOL: usize = 9;
/// Result-cache budget: below the mix's distinct-result working set, so
/// inserts and evictions run beside hits.
const CACHE_BYTES: usize = 48 * 1024;
/// Client connections of the closed loop.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The server options of `serve_mixed`: one worker per core, the default
/// queue, the reduced cache.
pub fn mix_options() -> ServerOptions {
    ServerOptions {
        workers: clients(),
        cache_bytes: CACHE_BYTES,
        ..ServerOptions::default()
    }
}

/// The server options of the serve-layer probe on offline inputs: the
/// defaults, one worker per core.
pub fn probe_options() -> ServerOptions {
    ServerOptions {
        workers: clients(),
        ..ServerOptions::default()
    }
}

fn settings(opts: &ServerOptions, pool: &[inputs::Variant], len: usize) -> Vec<(String, Json)> {
    vec![
        (
            "server".into(),
            Json::Obj(vec![
                ("workers".into(), Json::from_u64(opts.workers as u64)),
                ("queue".into(), Json::from_u64(opts.queue as u64)),
                (
                    "cache_bytes".into(),
                    Json::from_u64(opts.cache_bytes as u64),
                ),
                (
                    "analysis_entries".into(),
                    Json::from_u64(ServiceOptions::default().analysis_entries as u64),
                ),
            ]),
        ),
        (
            "client_connections".into(),
            Json::from_u64(clients() as u64),
        ),
        ("loop".into(), Json::Str("closed".into())),
        ("engine".into(), Json::Str(Engine::Exhaustive.name().into())),
        (
            "parallel".into(),
            Json::Bool(SweepOptions::default().parallel),
        ),
        (
            "engine_threads".into(),
            Json::from_u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("mix_lines".into(), Json::from_u64(len as u64)),
        (
            "mix".into(),
            Json::Str("a fresh seeded mix and a fresh server per pass".into()),
        ),
        (
            "first_pass_programs".into(),
            Json::Arr(
                pool.iter()
                    .map(|v| Json::Str(format!("{} {}", v.app, v.params)))
                    .collect(),
            ),
        ),
    ]
}

/// How a response line came back.
enum Answer<'a> {
    Body { cached: bool, body: &'a str },
    Error(String),
    Garbled,
}

fn answer(line: &str) -> Answer<'_> {
    for (prefix, cached) in [
        ("{\"ok\":true,\"cached\":true,\"result\":", true),
        ("{\"ok\":true,\"cached\":false,\"result\":", false),
    ] {
        if let Some(rest) = line.strip_prefix(prefix) {
            return match rest.strip_suffix('}') {
                Some(body) => Answer::Body { cached, body },
                None => Answer::Garbled,
            };
        }
    }
    match Response::parse(line) {
        Ok(Response::Error(e)) => Answer::Error(e.class),
        _ => Answer::Garbled,
    }
}

/// The body an in-process engine run renders for `req` — what the
/// server's answer must equal byte for byte.
fn oracle_body(req: &ExploreRequest) -> Result<String, String> {
    let config = MhlaConfig {
        objective: req.objective,
        ..MhlaConfig::default()
    };
    let axes = req.axes.clone().ok_or("request without axes")?;
    let run = try_sweep_grid_run(
        &req.program,
        &req.platform,
        &axes,
        &config,
        &SweepOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(result_body(
        &run,
        program_fingerprint(&req.program),
        platform_fingerprint(&req.platform),
    ))
}

fn parse_explore(line: &str) -> Option<ExploreRequest> {
    match Request::parse(line) {
        Ok(Request::Explore(req)) => Some(*req),
        _ => None,
    }
}

/// Server counters from a `status` response.
#[derive(Default)]
struct Status {
    requests: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    runs: u64,
    points_evaluated: u64,
    programs_analyzed: u64,
}

fn status(client: &mut Client) -> Status {
    let line = client
        .roundtrip("{\"op\":\"status\"}")
        .expect("status round trip");
    let doc = Json::parse(&line).expect("status response is JSON");
    let get = |path: &[&str]| -> u64 {
        let mut v = &doc;
        for key in path {
            let fields = v.as_object("status").expect("status object");
            v = mhla_ir::serdes::field(fields, key, "status").expect("status field");
        }
        v.as_u64("status counter").expect("status counter")
    };
    Status {
        requests: get(&["result", "requests"]),
        hits: get(&["result", "cache", "hits"]),
        misses: get(&["result", "cache", "misses"]),
        evictions: get(&["result", "cache", "evictions"]),
        runs: get(&["result", "engine", "runs"]),
        points_evaluated: get(&["result", "engine", "points_evaluated"]),
        programs_analyzed: get(&["result", "engine", "programs_analyzed"]),
    }
}

/// Drains the server (connections close once idle) and joins every
/// thread it started.
fn shutdown(server: Server) {
    server.service().begin_shutdown();
    server.join();
}

fn grid_points(spec: &ExploreSpec) -> u64 {
    spec.axes
        .iter()
        .map(|a| {
            let mut c = a.capacities.clone();
            c.sort_unstable();
            c.dedup();
            c.len() as u64
        })
        .product()
}

/// One request of a pass: which mix line, its latency, the response.
struct Sample {
    line: usize,
    ms: f64,
    response: String,
}

/// The serve workload's set-up: draw the pass's mix, warm the engine up
/// on the mix's programs, bind the server and warm its service up with
/// one in-process `status` request. Connecting is not part of it: the
/// accept loop polls every 50 ms, so a connection made right after
/// binding waits 0 or ~50 ms by a race.
fn timed_setup(seed: u64, pass: u64, opts: ServerOptions) -> (Mix, Server, f64) {
    let t = Instant::now();
    let mix = inputs::mix(seed, pass, POOL, MIX_LEN);
    // In kernel order, whatever order the mix introduces them in, so the
    // warm-up splits the same way over the cores in every pass.
    let mut programs: Vec<_> = mix.pool.iter().collect();
    programs.sort_by_key(|v| inputs::APPS.iter().position(|&a| a == v.app));
    warm_up(&programs.iter().map(|v| &v.program).collect::<Vec<_>>());
    let server = Server::bind("127.0.0.1:0", opts).expect("bind an ephemeral port");
    std::hint::black_box(server.service().handle_line("{\"op\":\"status\"}"));
    let s = t.elapsed().as_secs_f64();
    (mix, server, s)
}

/// Opens the client connections, each answered once before the pass;
/// returns them and the milliseconds until each first answer.
fn connect(server: &Server) -> (Vec<Client>, Vec<f64>) {
    let mut conns = Vec::new();
    let mut ms = Vec::new();
    for _ in 0..clients() {
        let t = Instant::now();
        let mut c = Client::connect(server.addr()).expect("connect");
        c.roundtrip("{\"op\":\"status\"}")
            .expect("first round trip");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        conns.push(c);
    }
    (conns, ms)
}

/// Sends every mix line through the connections, each a closed loop
/// taking the next unsent line.
fn closed_loop(mix: &Mix, conns: &mut [Client]) -> (f64, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(mix.lines.len()));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(line) = mix.lines.get(i) else { break };
                let t = Instant::now();
                let response = conn.roundtrip(&line.line).unwrap_or_default();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                samples.lock().expect("sample lock").push(Sample {
                    line: i,
                    ms,
                    response,
                });
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    (wall, samples.into_inner().expect("sample lock"))
}

/// Checks every answer of a pass, outside the timed region: each explore
/// body must be byte-identical to the in-process rendering of its line
/// (repeats included), each malformed line must get its class. Returns
/// the failures.
fn check_pass(mix: &Mix, samples: &[Sample]) -> u64 {
    let mut oracle: HashMap<&str, Result<String, String>> = HashMap::new();
    let mut failed = 0;
    for s in samples {
        let line = &mix.lines[s.line];
        let ok = match (&line.expect, answer(&s.response)) {
            (Expect::Explore(_), Answer::Body { body, .. }) => {
                let expected = oracle.entry(line.line.as_str()).or_insert_with(|| {
                    parse_explore(&line.line)
                        .ok_or_else(|| "unparseable explore line".to_string())
                        .and_then(|req| oracle_body(&req))
                });
                expected.as_deref() == Ok(body)
            }
            (Expect::Error(class), Answer::Error(got)) => *class == got,
            _ => false,
        };
        if !ok {
            eprintln!(
                "line {} ({:?}): unexpected answer: {:.200}",
                s.line, line.kind, s.response
            );
            failed += 1;
        }
    }
    failed
}

/// The traffic one pass put on the server, per mix line, from its
/// `status` after the pass: result-cache hits, engine runs (misses that
/// completed), error answers and evictions.
fn served_shares(st: &Status) -> [f64; 4] {
    // Status requests besides the mix: the set-up's, one per connection
    // and the final one (counted before it renders).
    let lines = st.requests.saturating_sub(2 + clients() as u64);
    let share = |n: u64| n as f64 / lines.max(1) as f64;
    [
        share(st.hits),
        share(st.runs),
        share(lines.saturating_sub(st.hits + st.runs)),
        share(st.evictions),
    ]
}

/// The untraced run: passes of a fresh seeded mix, each on a fresh
/// server, until `seconds` have been measured. `setup_s` is the median of
/// [`SETUPS`] set-ups, of the mixes of the first [`SETUPS`] passes, made
/// before the timed passes: a set-up's cost depends on its mix's
/// programs.
pub fn run(seed: u64, seconds: f64) -> RunOutput {
    let opts = mix_options();
    let mut setups = Vec::with_capacity(SETUPS);
    for pass in 0..SETUPS as u64 {
        let (_, server, s) = timed_setup(seed, pass, opts);
        setups.push(s);
        shutdown(server);
    }
    let mut walls = Vec::new();
    let mut all_ms = Vec::new();
    let (mut hit_ms, mut miss_ms, mut connect_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut certified = Vec::new();
    let mut failed = 0u64;
    let mut drawn: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut served: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut pool_desc = Vec::new();
    let mut measured = 0.0;
    let mut rss: f64 = 0.0;
    while walls.len() < 3 || measured < seconds {
        let pass = walls.len() as u64;
        let (mix, server, _) = timed_setup(seed, pass, opts);
        let (mut conns, ms) = connect(&server);
        connect_ms.extend(ms);
        let (wall, samples) = closed_loop(&mix, &mut conns);
        measured += wall;
        walls.push(wall);
        let st = status(&mut conns[0]);
        shutdown(server);
        for (slot, share) in served.iter_mut().zip(served_shares(&st)) {
            slot.push(share);
        }
        for (slot, kind) in drawn.iter_mut().zip(KINDS) {
            let n = mix.lines.iter().filter(|l| l.kind == kind).count();
            slot.push(n as f64 / mix.lines.len() as f64);
        }
        rss = rss.max(peak_rss_mb());

        let mut points = 0u64;
        for s in &samples {
            all_ms.push(s.ms);
            if let Answer::Body { cached, .. } = answer(&s.response) {
                if cached {
                    hit_ms.push(s.ms);
                } else {
                    miss_ms.push(s.ms);
                }
                if let Expect::Explore(spec) = &mix.lines[s.line].expect {
                    points += grid_points(spec);
                }
            }
        }
        certified.push(points as f64 / wall);
        failed += check_pass(&mix, &samples);
        if pool_desc.is_empty() {
            pool_desc = settings(&opts, &mix.pool, mix.lines.len());
        }
    }

    let attempted = all_ms.len() as u64;
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups), setups),
        Metric::new("explore_s", "s", median(&walls), walls.clone()),
        Metric::new(
            "certified_points_per_s",
            "1/s",
            median(&certified),
            certified,
        ),
        Metric::new(
            "requests_per_s",
            "1/s",
            MIX_LEN as f64 / median(&walls),
            walls.iter().map(|w| MIX_LEN as f64 / w).collect(),
        ),
        Metric::exact("peak_rss_mb", "MB", rss),
    ];
    let mut extra = crate::offline::request_percentiles(all_ms);
    extra.extend([
        Metric::new("hit_p50_ms", "ms", percentile(&hit_ms, 0.5), hit_ms),
        Metric::new("miss_p50_ms", "ms", percentile(&miss_ms, 0.5), miss_ms),
        Metric::exact(
            "error_rate",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
        Metric::new("connect_ms", "ms", median(&connect_ms), connect_ms),
    ]);
    // The traffic each figure rests on: the line kinds the seed drew and
    // what the server did with them, medians over passes.
    const DRAWN: [&str; 4] = [
        "mix.drawn.repeat_share",
        "mix.drawn.new_axes_share",
        "mix.drawn.new_program_share",
        "mix.drawn.malformed_share",
    ];
    const SERVED: [&str; 4] = [
        "mix.served.hit_share",
        "mix.served.miss_share",
        "mix.served.error_share",
        "mix.served.eviction_share",
    ];
    for (names, shares) in [(DRAWN, drawn), (SERVED, served)] {
        for (name, v) in names.into_iter().zip(shares) {
            extra.push(Metric::new(name, "ratio", median(&v), v));
        }
    }
    RunOutput {
        metrics,
        extra,
        attempted,
        failed,
        settings: pool_desc,
        repetitions: walls.len() as u64,
    }
}

/// Explore lines for offline calls (every call, then every call again,
/// so the probe sees misses and hits).
pub fn lines_for_calls(calls: &[Call<'_>]) -> Vec<String> {
    let mut lines = Vec::new();
    for call in calls {
        let spec = ExploreSpec {
            program: 0,
            four_level: call.platform.layer_count() == 4,
            axes: call.axes.clone(),
            objective: call.objective,
        };
        lines.push(inputs::explore_line(&program_value(call.program), &spec));
    }
    let again = lines.clone();
    lines.extend(again);
    lines
}

/// The serve-layer metrics over a sequence of request lines: protocol
/// parse, fingerprint and render times, `Service::handle_line` with no
/// socket (hits and misses), the transport share of a socket round trip,
/// and the server's cache and engine counters. Returns
/// `(attempted, failed)`: every explore body must equal the in-process
/// rendering byte for byte.
pub fn layer_probe(lines: &[String], opts: ServerOptions, metrics: &mut Vec<Metric>) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Protocol parse, fingerprints and render of every distinct explore
    // line; the rendered body is the oracle for both service passes.
    let (mut parse_s, mut fp_s, mut render_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut oracle: HashMap<&str, String> = HashMap::new();
    for line in lines {
        if oracle.contains_key(line.as_str()) {
            continue;
        }
        let t = Instant::now();
        let parsed = Request::parse(line);
        parse_s.push(t.elapsed().as_secs_f64());
        let Ok(Request::Explore(req)) = parsed else {
            continue;
        };
        let t = Instant::now();
        let fps = (
            program_fingerprint(&req.program),
            platform_fingerprint(&req.platform),
        );
        fp_s.push(t.elapsed().as_secs_f64());
        let config = MhlaConfig {
            objective: req.objective,
            ..MhlaConfig::default()
        };
        let axes = req.axes.clone().unwrap_or_default();
        let run = try_sweep_grid_run(
            &req.program,
            &req.platform,
            &axes,
            &config,
            &SweepOptions::default(),
        );
        let Ok(run) = run else {
            continue;
        };
        let t = Instant::now();
        let body = result_body(&run, fps.0, fps.1);
        render_s.push(t.elapsed().as_secs_f64());
        oracle.insert(line, body);
    }

    let mut judge = |line: &str, response: &str| -> Option<bool> {
        attempted += 1;
        let (cached, ok) = match answer(response) {
            Answer::Body { cached, body } => (
                Some(cached),
                oracle.get(line).map(String::as_str) == Some(body),
            ),
            Answer::Error(_) => (None, !oracle.contains_key(line)),
            Answer::Garbled => (None, false),
        };
        if !ok {
            failed += 1;
        }
        cached
    };

    // The service alone: no socket, no queue.
    let service = Service::new(ServiceOptions {
        cache_bytes: opts.cache_bytes,
        ..ServiceOptions::default()
    });
    let (mut hit_s, mut miss_s) = (Vec::new(), Vec::new());
    for line in lines {
        let t = Instant::now();
        let response = service.handle_line(line);
        let s = t.elapsed().as_secs_f64();
        match judge(line, &response) {
            Some(true) => hit_s.push(s),
            Some(false) => miss_s.push(s),
            None => {}
        }
    }

    // The same lines over one socket connection, in order.
    let server = Server::bind("127.0.0.1:0", opts).expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for line in lines {
        let t = Instant::now();
        let response = client.roundtrip(line).unwrap_or_default();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match judge(line, &response) {
            Some(true) => hit_ms.push(ms),
            Some(false) => miss_ms.push(ms),
            None => {}
        }
    }
    let st = status(&mut client);
    shutdown(server);

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    metrics.extend([
        Metric::new("serve.protocol.parse_s", "s", med(&parse_s), parse_s),
        Metric::new("core.fingerprint_s", "s", med(&fp_s), fp_s),
        Metric::new("serve.service.hit_s", "s", med(&hit_s), hit_s.clone()),
        Metric::new("serve.service.miss_s", "s", med(&miss_s), miss_s),
        Metric::new("serve.protocol.render_s", "s", med(&render_s), render_s),
        Metric::exact(
            "serve.server.transport_s",
            "s",
            med(&hit_ms) / 1e3 - med(&hit_s),
        ),
        Metric::new("serve.client.hit_p50_ms", "ms", med(&hit_ms), hit_ms),
        Metric::new("serve.client.miss_p50_ms", "ms", med(&miss_ms), miss_ms),
        Metric::exact(
            "serve.cache.hit_ratio",
            "ratio",
            ratio(st.hits as f64, (st.hits + st.misses) as f64),
        ),
        Metric::exact("serve.cache.evictions", "count", st.evictions as f64),
        Metric::exact(
            "serve.analysis.hit_ratio",
            "ratio",
            1.0 - ratio(st.programs_analyzed as f64, st.runs as f64),
        ),
        Metric::exact(
            "serve.engine.points_evaluated",
            "count",
            st.points_evaluated as f64,
        ),
    ]);
    (attempted, failed)
}

/// The traced run of `serve_mixed`: the serve layers over the mix, and
/// the engine layers over the mix's distinct explorations (the
/// exhaustive engine every miss runs).
pub fn run_traced(seed: u64, seconds: f64) -> RunOutput {
    let opts = mix_options();
    let (mix, server, setup_s) = timed_setup(seed, 0, opts);
    shutdown(server);
    let lines: Vec<String> = mix.lines.iter().map(|l| l.line.clone()).collect();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = layer_probe(&lines, opts, &mut metrics);

    let mut specs: Vec<&ExploreSpec> = Vec::new();
    for l in &mix.lines {
        if let Expect::Explore(spec) = &l.expect {
            if !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    }
    let calls: Vec<Call<'_>> = specs
        .iter()
        .map(|s| Call {
            program: &mix.pool[s.program].program,
            platform: if s.four_level {
                Platform::four_level_default()
            } else {
                Platform::three_level_default()
            },
            axes: s.axes.clone(),
            objective: s.objective,
        })
        .collect();
    let (a, f) = engine_layers(Engine::Exhaustive, &calls, seconds, &mut metrics);
    attempted += a;
    failed += f;
    RunOutput {
        metrics,
        extra: vec![Metric::exact("setup_s", "s", setup_s)],
        attempted,
        failed,
        settings: settings(&opts, &mix.pool, mix.lines.len()),
        repetitions: 1,
    }
}
