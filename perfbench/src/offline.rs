//! The offline workloads, `grid4_pruned` and `refine_fine`: library
//! explorations of seeded kernel variants on the four-level platform over
//! the 90-point default grid, as `mhla grid` runs them.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mhla_core::explore::{
    try_sweep_grid_pruned_with, try_sweep_grid_run, GridSweep, PruneOptions, SweepOptions,
};
use mhla_core::{pareto, EvalWorkspace, Objective};
use mhla_hierarchy::Platform;
use mhla_ir::serdes::Json;
use mhla_ir::Program;

use crate::engine::{self, Call, Counts, Engine, Outcome, Replay};
use crate::inputs::{self, Rng, Variant};
use crate::stats::{median, percentile, Metric};
use crate::{peak_rss_mb, serve, RunOutput, SETUPS};

/// One offline workload.
pub struct Workload {
    pub engine: Engine,
    /// Kernels (indices into [`inputs::APPS`]).
    pub apps: &'static [usize],
    /// Seeded variants per kernel.
    pub per_app: usize,
    pub objectives: &'static [Objective],
}

/// Every kernel, both objectives: point evaluation dominates.
pub const GRID4_PRUNED: Workload = Workload {
    engine: Engine::Pruned,
    apps: &[0, 1, 2, 3, 4, 5, 6, 7, 8],
    per_app: 3,
    objectives: &[Objective::Cycles, Objective::Energy],
};

/// The two kernels whose refinement takes well under a second and
/// about the same time for every stream length the seed draws
/// (`sobel_edge` 0.31–0.32 s, `fir_bank` 0.39–0.42 s sequential; the
/// other kernels' variants differ by up to 1.9×), four variants each: a
/// pass takes ~3 s rather than the full suite's ~20 s, so a run holds
/// about ten passes, and seeds load the engine alike.
pub const REFINE_FINE: Workload = Workload {
    engine: Engine::Refined,
    apps: &[6, 7],
    per_app: 4,
    objectives: &[Objective::Cycles],
};

/// Passes a timed run makes at least, however long they take.
const MIN_PASSES: usize = 3;

fn calls<'a>(w: &Workload, variants: &'a [Variant]) -> Vec<Call<'a>> {
    let mut out = Vec::new();
    for v in variants {
        for &objective in w.objectives {
            out.push(Call {
                program: &v.program,
                platform: Platform::four_level_default(),
                axes: mhla_bench::default_grid4_axes(),
                objective,
            });
        }
    }
    out
}

/// Warms the engine up: one exhaustive sweep of each program over the
/// four-level default grid, each sweep sequential, one thread per core
/// taking the next program until none is left. A set-up of a few
/// milliseconds ran wholly on the core its thread started on, and the two
/// cores of the shared virtual machine it was measured on differed in speed
/// by up to 2×; a warm-up of tens of milliseconds that every core takes
/// part in times both.
pub fn warm_up(programs: &[&Program]) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(&program) = programs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let warm = Call {
                        program,
                        platform: Platform::four_level_default(),
                        axes: mhla_bench::default_grid4_axes(),
                        objective: Objective::Cycles,
                    };
                    engine::run(Engine::Exhaustive, &warm, false).expect("warm-up sweep");
                }
            });
        }
    });
}

/// Builds the inputs and warms the engine up on them; returns the inputs
/// and the seconds it took.
fn timed_setup(w: &Workload, seed: u64) -> (Vec<Variant>, f64) {
    let t = Instant::now();
    let variants = inputs::variants_of(w.apps, w.per_app, &mut Rng::new(seed));
    warm_up(&variants.iter().map(|v| &v.program).collect::<Vec<_>>());
    let s = t.elapsed().as_secs_f64();
    (variants, s)
}

fn settings(w: &Workload, variants: &[Variant], parallel: bool) -> Vec<(String, Json)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("entry_point".into(), Json::Str(w.engine.name().into())),
        ("platform".into(), Json::Str("four_level_default".into())),
        (
            "axes".into(),
            Json::Str("default_grid4_axes (90 points)".into()),
        ),
        (
            "objectives".into(),
            Json::Arr(
                w.objectives
                    .iter()
                    .map(|o| Json::Str(inputs::objective_name(o).into()))
                    .collect(),
            ),
        ),
        ("parallel".into(), Json::Bool(parallel)),
        ("engine_threads".into(), Json::from_u64(threads as u64)),
        (
            "programs".into(),
            Json::Arr(
                variants
                    .iter()
                    .map(|v| Json::Str(format!("{} {}", v.app, v.params)))
                    .collect(),
            ),
        ),
    ]
}

/// A digest of everything a call returned that a user reads: every
/// point's capacities and cost figures, and the run's counts.
fn digest(outcome: &Outcome) -> u64 {
    let mut h = DefaultHasher::new();
    outcome.is_complete().hash(&mut h);
    let c = outcome.counts();
    (c.certified, c.evaluated, c.skipped, c.waves).hash(&mut h);
    for p in &outcome.sweep().points {
        p.capacities.hash(&mut h);
        let r = &p.result;
        (
            r.baseline_cycles(),
            r.mhla_cycles(),
            r.mhla_te_cycles(),
            r.ideal_cycles(),
        )
            .hash(&mut h);
        (
            r.baseline_energy_pj().to_bits(),
            r.mhla_energy_pj().to_bits(),
        )
            .hash(&mut h);
        r.search_steps.hash(&mut h);
    }
    h.finish()
}

/// The untraced run: timed passes over every call with default
/// (parallel) options. Only a digest of each result is kept, so the peak
/// resident set is the engine's, not a store of results.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunOutput {
    let mut setups = Vec::new();
    let mut variants = Vec::new();
    for _ in 0..SETUPS {
        let (v, s) = timed_setup(w, seed);
        setups.push(s);
        variants = v;
    }
    let calls = calls(w, &variants);

    // Each first-pass result is checked in full against its oracle right
    // after its timed call; every later result must reproduce the checked
    // result's digest. A wrong call fails on every pass.
    let mut reference: Vec<Option<u64>> = Vec::with_capacity(calls.len());
    let mut failed = 0u64;
    let mut lat_ms = Vec::new();
    let mut pass_s = Vec::new();
    let mut certified = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        let mut pass = 0.0;
        for (i, call) in calls.iter().enumerate() {
            let t = Instant::now();
            let out = engine::run(w.engine, call, true);
            let s = t.elapsed().as_secs_f64();
            pass += s;
            lat_ms.push(s * 1e3);
            let d = out.as_ref().ok().map(digest);
            if pass_s.is_empty() {
                let verdict = match &out {
                    Ok(o) => check(call, o),
                    Err(e) => Err(format!("unexpected error: {e}")),
                };
                if let Err(why) = &verdict {
                    let app = variants[i / w.objectives.len()].app;
                    eprintln!("call {i} ({app}): WRONG: {why}");
                }
                reference.push(verdict.ok().and(d));
            }
            if d.is_none() || d != reference[i] {
                failed += 1;
            }
            if let Ok(o) = &out {
                certified += o.counts().certified;
            }
        }
        pass_s.push(pass);
    }
    let rss = peak_rss_mb();
    let passes = pass_s.len() as u64;
    // Every pass does the same work, so throughput is per median pass.
    let per_pass = certified as f64 / passes as f64;
    let attempted = lat_ms.len() as u64;

    let metrics = vec![
        Metric::new("setup_s", "s", median(&setups), setups),
        Metric::new("explore_s", "s", median(&pass_s), pass_s.clone()),
        Metric::new(
            "certified_points_per_s",
            "1/s",
            per_pass / median(&pass_s),
            pass_s.iter().map(|s| per_pass / s).collect(),
        ),
        Metric::new(
            "requests_per_s",
            "1/s",
            calls.len() as f64 / median(&pass_s),
            pass_s.iter().map(|s| calls.len() as f64 / s).collect(),
        ),
        Metric::exact("peak_rss_mb", "MB", rss),
    ];
    RunOutput {
        metrics,
        extra: request_percentiles(lat_ms),
        attempted,
        failed,
        settings: settings(w, &variants, true),
        repetitions: passes,
    }
}

/// Request latency percentiles over every request of the run. Printed and
/// recorded, not among the contract metrics: on a shared 2-core machine
/// other tenants' load stretches small parallel calls far more than whole
/// passes (ten seeds spread the `grid4_pruned` median request by up to
/// 0.48 of its median, the median pass by at most 0.15).
pub fn request_percentiles(lat_ms: Vec<f64>) -> Vec<Metric> {
    vec![
        Metric::new(
            "request_p50_ms",
            "ms",
            percentile(&lat_ms, 0.5),
            lat_ms.clone(),
        ),
        Metric::new("request_p99_ms", "ms", percentile(&lat_ms, 0.99), lat_ms),
    ]
}

/// A frontier as the points `pareto::front_dominates` compares:
/// capacities followed by the surface's cost.
fn surface(g: &GridSweep, idx: &[usize], energy: bool) -> Vec<Vec<f64>> {
    idx.iter()
        .map(|&i| {
            let p = &g.points[i];
            let mut c: Vec<f64> = p.capacities.iter().map(|&c| c as f64).collect();
            c.push(if energy {
                p.energy_pj()
            } else {
                p.cycles() as f64
            });
            c
        })
        .collect()
}

/// Every point of `part` is bit-identical to the point with the same
/// capacities in `whole` (when `whole` has it).
fn points_agree(part: &GridSweep, whole: &GridSweep) -> bool {
    part.points.iter().all(|p| {
        match whole
            .points
            .binary_search_by(|q| q.capacities.cmp(&p.capacities))
        {
            Ok(j) => whole.points[j].result == p.result,
            Err(_) => true,
        }
    })
}

fn check(call: &Call<'_>, outcome: &Outcome) -> Result<(), String> {
    if !outcome.is_complete() {
        return Err("incomplete run".into());
    }
    let cfg = call.config();
    match outcome {
        Outcome::Pruned(pruned) => {
            // Pruned against the exhaustive oracle: every committed point
            // and both frontiers bit-identical. The pruned sweep runs every
            // point cold, so the oracle is the cold exhaustive sweep (on
            // four-level stacks a warm start can beat cold).
            let cold = SweepOptions {
                warm_start: false,
                ..SweepOptions::default()
            };
            let ex = try_sweep_grid_run(call.program, &call.platform, &call.axes, &cfg, &cold)
                .map_err(|e| e.to_string())?;
            let (p, e) = (&pruned.sweep, &ex.sweep);
            if p.points.iter().any(|pt| {
                e.points
                    .binary_search_by(|q| q.capacities.cmp(&pt.capacities))
                    .is_err()
            }) || !points_agree(p, e)
            {
                return Err("a committed point differs from the exhaustive sweep".into());
            }
            let front = mhla_bench::grid_frontier_points;
            if front(p, &p.pareto_cycles()) != front(e, &e.pareto_cycles())
                || front(p, &p.pareto_energy()) != front(e, &e.pareto_energy())
            {
                return Err("frontier differs from the exhaustive sweep".into());
            }
            Ok(())
        }
        Outcome::Refined(refined) => {
            // Refined against the pruned coarse sweep: coarse points
            // bit-identical, fronts dominate or equal the coarse fronts.
            let coarse = try_sweep_grid_pruned_with(
                call.program,
                &call.platform,
                &call.axes,
                &cfg,
                &PruneOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            let (r, c) = (&refined.sweep, &coarse.sweep);
            if !points_agree(c, r) {
                return Err("a coarse point differs from the pruned coarse sweep".into());
            }
            let cycles = pareto::front_dominates(
                &surface(r, &r.pareto_cycles(), false),
                &surface(c, &c.pareto_cycles(), false),
            );
            let energy = pareto::front_dominates(
                &surface(r, &r.pareto_energy(), true),
                &surface(c, &c.pareto_energy(), true),
            );
            if !(cycles && energy) {
                return Err("refined fronts do not dominate the coarse fronts".into());
            }
            Ok(())
        }
        Outcome::Exhaustive(_) => Ok(()),
    }
}

/// One pass over every call; returns the summed call seconds and the
/// outcomes (`None` for a call that failed).
fn pass(engine: Engine, calls: &[Call<'_>], parallel: bool) -> (f64, Vec<Option<Outcome>>) {
    let mut total = 0.0;
    let mut outs = Vec::with_capacity(calls.len());
    for call in calls {
        let t = Instant::now();
        let out = engine::run(engine, call, parallel);
        total += t.elapsed().as_secs_f64();
        outs.push(out.ok());
    }
    (total, outs)
}

/// The engine-layer metrics of a traced run over `calls`; shared with
/// `serve_mixed`, whose misses run the exhaustive engine.
pub fn engine_layers(
    engine: Engine,
    calls: &[Call<'_>],
    seconds: f64,
    metrics: &mut Vec<Metric>,
) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (_, outcomes) = pass(engine, calls, true);
    attempted += calls.len() as u64;
    failed += outcomes.iter().filter(|o| o.is_none()).count() as u64;

    // Sequential sweeps, parallel sweeps and the point replay of the same
    // calls, alternating until the time is up; each reports its median.
    let (mut seq, mut par, mut point_s, mut te_s) = (vec![], vec![], vec![], vec![]);
    let mut replay = Replay::default();
    let mut ws = EvalWorkspace::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while seq.is_empty() || Instant::now() < deadline {
        seq.push(pass(engine, calls, false).0);
        par.push(pass(engine, calls, true).0);
        let mut r = Replay::default();
        for (call, o) in calls.iter().zip(&outcomes) {
            if let Some(o) = o {
                engine::replay(call, o, &mut ws, &mut r);
            }
        }
        point_s.push(r.point_s);
        te_s.push(r.te_plan_s);
        attempted += r.points;
        failed += r.mismatches;
        replay = r;
    }
    let (seq_s, par_s) = (median(&seq), median(&par));
    replay.point_s = median(&point_s);
    replay.te_plan_s = median(&te_s);

    // The same parallel pass with allocation counting on: the tracing
    // overhead and the allocations per evaluated point.
    let (traced, allocs, _) =
        mhla_alloc_counter::allocations_during(|| pass(engine, calls, true).0);

    let mut counts = Counts::default();
    for o in outcomes.iter().flatten() {
        counts.add(&o.counts());
    }
    let (mut analyze_s, mut build_s, mut front_s) = (0.0, 0.0, 0.0);
    let mut seen: Vec<&mhla_ir::Program> = Vec::new();
    for (call, o) in calls.iter().zip(&outcomes) {
        let Some(o) = o else { continue };
        front_s += engine::pareto_time(o);
        if !seen.iter().any(|&p| std::ptr::eq(p, call.program)) {
            seen.push(call.program);
            let (a, b) = engine::analysis_times(call);
            analyze_s += a;
            build_s += b;
        }
    }
    let self_s = seq_s - replay.point_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    metrics.extend([
        Metric::new("core.driver.point_s", "s", replay.point_s, point_s),
        Metric::exact("core.driver.points", "count", replay.points as f64),
        Metric::new("core.te.plan_s", "s", replay.te_plan_s, te_s),
        Metric::exact("core.te.extended", "count", replay.te_extended as f64),
        Metric::new("core.explore.seq_s", "s", seq_s, seq.clone()),
        Metric::exact("core.explore.self_s", "s", self_s),
        Metric::exact("core.explore.self_share", "ratio", ratio(self_s, seq_s)),
        Metric::new(
            "core.explore.par_speedup",
            "ratio",
            ratio(seq_s, par_s),
            seq.iter().zip(&par).map(|(s, p)| ratio(*s, *p)).collect(),
        ),
        Metric::exact("core.explore.evaluated", "count", counts.evaluated as f64),
        Metric::exact(
            "core.explore.skip_ratio",
            "ratio",
            ratio(counts.skipped as f64, counts.certified as f64),
        ),
        Metric::exact(
            "core.explore.speculative_evals",
            "count",
            counts.speculative_evals as f64,
        ),
        Metric::exact("core.explore.waves", "count", counts.waves as f64),
        Metric::exact(
            "core.explore.eval_ratio",
            "ratio",
            ratio(counts.evaluated as f64, counts.certified as f64),
        ),
        Metric::exact(
            "core.explore.cells_closed_floor",
            "count",
            counts.cells_closed_floor as f64,
        ),
        Metric::exact(
            "core.explore.cells_closed_mask",
            "count",
            counts.cells_closed_mask as f64,
        ),
        Metric::exact(
            "alloc.allocs_per_eval",
            "allocs/eval",
            ratio(allocs as f64, counts.evaluated as f64),
        ),
        Metric::exact("reuse.analyze_s", "s", analyze_s),
        Metric::exact("core.context.build_s", "s", build_s),
        Metric::exact("core.pareto.front_s", "s", front_s),
        Metric::exact("trace.overhead_s", "s", traced - par_s),
    ]);
    (attempted, failed)
}

/// The traced run: the engine layers of this workload's calls, plus the
/// serve layers measured on the same explorations sent as requests.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> RunOutput {
    let (variants, setup_s) = timed_setup(w, seed);
    let calls = calls(w, &variants);
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = engine_layers(w.engine, &calls, seconds, &mut metrics);

    let probe_lines = serve::lines_for_calls(&calls);
    let (a, f) = serve::layer_probe(&probe_lines, serve::probe_options(), &mut metrics);
    attempted += a;
    failed += f;
    RunOutput {
        metrics,
        extra: vec![Metric::exact("setup_s", "s", setup_s)],
        attempted,
        failed,
        settings: settings(w, &variants, true),
        repetitions: 1,
    }
}
