//! Calls into the exploration engine through its public entry points,
//! and the per-layer probes that time the engine's layers from outside.

use std::time::Instant;

use mhla_core::explore::{
    try_sweep_grid_pruned_with, try_sweep_grid_refined_with, try_sweep_grid_run, GridAxis,
    GridSweep, GridSweepRun, PruneOptions, PrunedGridSweep, RefineOptions, RefinedGridSweep,
    SweepOptions, SWEEP_CHUNK,
};
use mhla_core::{te, EvalWorkspace, ExplorationContext, Mhla, MhlaConfig, MhlaError, Objective};
use mhla_hierarchy::Platform;
use mhla_ir::Program;
use mhla_reuse::ReuseAnalysis;

/// Which exploration entry point a call goes through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// `try_sweep_grid_run`: the exhaustive warm-chunk engine `mhla grid`
    /// and `mhla serve` use.
    Exhaustive,
    /// `try_sweep_grid_pruned_with`: saturation and cost-floor pruning.
    Pruned,
    /// `try_sweep_grid_refined_with` at the default depth.
    Refined,
}

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Exhaustive => "try_sweep_grid_run",
            Engine::Pruned => "sweep_grid_pruned_with",
            Engine::Refined => "sweep_grid_refined_with",
        }
    }
}

/// One exploration: a program over a platform's grid under an objective.
pub struct Call<'a> {
    pub program: &'a Program,
    pub platform: Platform,
    pub axes: Vec<GridAxis>,
    pub objective: Objective,
}

impl Call<'_> {
    pub fn config(&self) -> MhlaConfig {
        MhlaConfig {
            objective: self.objective,
            ..MhlaConfig::default()
        }
    }
}

/// What one call returned.
#[derive(Clone, PartialEq, Debug)]
pub enum Outcome {
    Exhaustive(GridSweepRun),
    Pruned(PrunedGridSweep),
    Refined(RefinedGridSweep),
}

/// Exact bookkeeping counts of one or more explorations.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    /// Lattice points certified: every grid point of an exhaustive or
    /// pruned sweep, every virtual fine-lattice point of a refinement.
    pub certified: u64,
    /// Points committed by search.
    pub evaluated: u64,
    /// Points skipped without search (pruned: skip rules; refined: the
    /// virtual points never searched).
    pub skipped: u64,
    pub speculative_evals: u64,
    pub waves: u64,
    pub cells_closed_floor: u64,
    pub cells_closed_mask: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.certified += o.certified;
        self.evaluated += o.evaluated;
        self.skipped += o.skipped;
        self.speculative_evals += o.speculative_evals;
        self.waves += o.waves;
        self.cells_closed_floor += o.cells_closed_floor;
        self.cells_closed_mask += o.cells_closed_mask;
    }
}

impl Outcome {
    pub fn sweep(&self) -> &GridSweep {
        match self {
            Outcome::Exhaustive(r) => &r.sweep,
            Outcome::Pruned(r) => &r.sweep,
            Outcome::Refined(r) => &r.sweep,
        }
    }

    pub fn is_complete(&self) -> bool {
        match self {
            Outcome::Exhaustive(r) => r.status.is_complete(),
            Outcome::Pruned(r) => r.status.is_complete(),
            Outcome::Refined(r) => r.status.is_complete(),
        }
    }

    pub fn counts(&self) -> Counts {
        match self {
            Outcome::Exhaustive(r) => Counts {
                certified: r.candidates as u64,
                evaluated: r.sweep.points.len() as u64,
                ..Counts::default()
            },
            Outcome::Pruned(r) => Counts {
                certified: r.stats.candidates as u64,
                evaluated: r.stats.evaluated as u64,
                skipped: r.stats.skipped() as u64,
                speculative_evals: r.speculative_evals as u64,
                waves: r.waves as u64,
                ..Counts::default()
            },
            Outcome::Refined(r) => Counts {
                certified: r.stats.virtual_points,
                evaluated: r.stats.evaluated as u64,
                skipped: r.stats.virtual_points - r.stats.evaluated as u64,
                waves: r.waves as u64,
                cells_closed_floor: r.stats.cells_closed_floor as u64,
                cells_closed_mask: r.stats.cells_closed_mask as u64,
                ..Counts::default()
            },
        }
    }
}

/// Runs one call through the engine's public entry point. `parallel` is
/// the engine's public `parallel` option; everything else is default.
pub fn run(engine: Engine, call: &Call<'_>, parallel: bool) -> Result<Outcome, MhlaError> {
    let cfg = call.config();
    let (p, pf, axes) = (call.program, &call.platform, &call.axes[..]);
    Ok(match engine {
        Engine::Exhaustive => {
            let opts = SweepOptions {
                parallel,
                ..SweepOptions::default()
            };
            Outcome::Exhaustive(try_sweep_grid_run(p, pf, axes, &cfg, &opts)?)
        }
        Engine::Pruned => Outcome::Pruned(try_sweep_grid_pruned_with(
            p,
            pf,
            axes,
            &cfg,
            &PruneOptions::with_parallel(parallel),
        )?),
        Engine::Refined => Outcome::Refined(try_sweep_grid_refined_with(
            p,
            pf,
            axes,
            &cfg,
            &RefineOptions::with_parallel(parallel),
        )?),
    })
}

/// Per-layer times and counts of the point-evaluation replay.
#[derive(Default)]
pub struct Replay {
    /// Seconds inside `Mhla::run_with_stats_in` (search plus TE).
    pub point_s: f64,
    pub points: u64,
    /// Seconds inside a second `te::plan` on each returned assignment.
    pub te_plan_s: f64,
    /// Transfers the TE step extended, summed over points.
    pub te_extended: u64,
    /// Points whose replay differed from the sweep's point.
    pub mismatches: u64,
}

/// Replays every committed point of `outcome`: one context per call, one
/// platform resized in place per point, one reused workspace. The
/// replayed result must be bit-identical to the sweep's point, and the
/// separate TE plan bit-identical to the result's schedule.
///
/// Pruned and refined sweeps run every point cold. The exhaustive engine
/// warm-starts each point from its predecessor inside a chunk of
/// [`SWEEP_CHUNK`] points along the innermost axis, so its replay passes
/// the same seed.
pub fn replay(call: &Call<'_>, outcome: &Outcome, ws: &mut EvalWorkspace, acc: &mut Replay) {
    let ctx = ExplorationContext::new(call.program, &call.platform, call.config());
    let sweep = outcome.sweep();
    let chunk = match (outcome, call.axes.last()) {
        (Outcome::Exhaustive(_), Some(axis)) => {
            let mut caps = axis.capacities.clone();
            caps.sort_unstable();
            caps.dedup();
            Some((caps.len(), SWEEP_CHUNK.min(caps.len())))
        }
        _ => None,
    };
    let mut platform = call.platform.clone();
    let mut sizes: Vec<_> = sweep.layers.iter().map(|&l| (l, 0u64)).collect();
    for (idx, point) in sweep.points.iter().enumerate() {
        let warm = match chunk {
            Some((n_in, chunk)) if (idx % n_in) % chunk != 0 => {
                Some(&sweep.points[idx - 1].result.assignment)
            }
            _ => None,
        };
        for (slot, &cap) in sizes.iter_mut().zip(&point.capacities) {
            slot.1 = cap;
        }
        platform.set_layer_capacities(&sizes);
        let mhla = Mhla::with_context(&ctx, &platform);
        let t = Instant::now();
        let (result, _) = mhla.run_with_stats_in(warm, Some(ctx.moves()), ws);
        acc.point_s += t.elapsed().as_secs_f64();
        acc.points += 1;
        let model = ctx.cost_model(&platform);
        let t = Instant::now();
        let schedule = te::plan(&model, &result.assignment);
        acc.te_plan_s += t.elapsed().as_secs_f64();
        acc.te_extended += schedule.extended_count() as u64;
        if result != point.result || schedule != result.te {
            acc.mismatches += 1;
        }
    }
}

/// Seconds to run the reuse analysis and to build the exploration
/// context (given the analysis) of `call`'s program.
pub fn analysis_times(call: &Call<'_>) -> (f64, f64) {
    let t = Instant::now();
    let reuse = ReuseAnalysis::analyze(call.program);
    let analyze = t.elapsed().as_secs_f64();
    let copy = reuse.clone();
    let t = Instant::now();
    let ctx = ExplorationContext::with_reuse(call.program, &call.platform, call.config(), copy);
    let build = t.elapsed().as_secs_f64();
    std::hint::black_box(&ctx);
    (analyze, build)
}

/// Seconds to select both Pareto surfaces of a sweep.
pub fn pareto_time(outcome: &Outcome) -> f64 {
    let sweep = outcome.sweep();
    let t = Instant::now();
    let fronts = (sweep.pareto_cycles(), sweep.pareto_energy());
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(&fronts);
    s
}
