//! The warm-started parallel sweep must match the cold sequential
//! reference sweep — identical Pareto fronts (the PR acceptance bar) and,
//! stronger, identical (cycles, energy) at every capacity point — on the
//! full application suite.

use mhla::core::explore::{
    default_capacities, sweep_cold, try_sweep_grid_run, GridAxis, GridSweep, SweepOptions,
};
use mhla::core::{EvalWorkspace, ExplorationContext, Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;

/// The production 1-axis sweep of layer 1 under `opts`.
fn one_layer_with(
    program: &Program,
    platform: &Platform,
    caps: &[u64],
    config: &MhlaConfig,
    opts: &SweepOptions,
) -> GridSweep {
    let axes = [GridAxis::new(LayerId(1), caps)];
    try_sweep_grid_run(program, platform, &axes, config, opts)
        .expect("capacity sweep")
        .sweep
}

/// [`one_layer_with`] under the default options.
fn one_layer(
    program: &Program,
    platform: &Platform,
    caps: &[u64],
    config: &MhlaConfig,
) -> GridSweep {
    one_layer_with(program, platform, caps, config, &SweepOptions::default())
}

#[test]
fn warm_parallel_sweep_matches_cold_sequential_on_all_apps() {
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let cold = sweep_cold(&app.program, &platform, LayerId(1), &caps, &config);
        let fast = one_layer(&app.program, &platform, &caps, &config);

        assert_eq!(
            cold.pareto_cycles(),
            fast.pareto_cycles(),
            "{}: cycle Pareto fronts diverge",
            app.name()
        );
        assert_eq!(
            cold.pareto_energy(),
            fast.pareto_energy(),
            "{}: energy Pareto fronts diverge",
            app.name()
        );
        assert_eq!(cold.points.len(), fast.points.len(), "{}", app.name());
        for (c, f) in cold.points.iter().zip(&fast.points) {
            assert_eq!(c.capacities, f.capacities, "{}", app.name());
            assert_eq!(
                c.cycles(),
                f.cycles(),
                "{} at {:?} B: cycles diverge",
                app.name(),
                c.capacities
            );
            assert_eq!(
                c.energy_pj(),
                f.energy_pj(),
                "{} at {:?} B: energy diverges",
                app.name(),
                c.capacities
            );
        }
    }
}

#[test]
fn sweep_options_do_not_change_results() {
    // Every combination of warm-start / parallel produces the same
    // points (determinism does not depend on the core count).
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    let app = mhla_apps::video_encoder::app();
    let reference = one_layer(&app.program, &platform, &caps, &config);
    for warm_start in [false, true] {
        for parallel in [false, true] {
            let opts = SweepOptions {
                warm_start,
                parallel,
                ..SweepOptions::default()
            };
            let s = one_layer_with(&app.program, &platform, &caps, &config, &opts);
            assert_eq!(s.points.len(), reference.points.len());
            for (a, b) in s.points.iter().zip(&reference.points) {
                assert_eq!(a.cycles(), b.cycles(), "{opts:?}");
                assert_eq!(a.energy_pj(), b.energy_pj(), "{opts:?}");
            }
        }
    }
}

#[test]
fn one_workspace_across_the_whole_suite_matches_fresh_per_point() {
    // The steady-state discipline the sweep engines rely on, pinned on
    // the full application suite: ONE EvalWorkspace carried across every
    // app and every capacity point (buffers warmed by one program are
    // handed to the next) reproduces the fresh-workspace-per-point
    // results bit for bit — results AND run stats.
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    let mut ws = EvalWorkspace::new();
    for app in mhla_apps::all_apps() {
        let ctx = ExplorationContext::new(&app.program, &platform, config.clone());
        let mut warm = None;
        for &cap in &caps {
            let pf = platform.with_layer_capacity(LayerId(1), cap);
            let fresh =
                Mhla::with_context(&ctx, &pf).run_with_stats(warm.as_ref(), Some(ctx.moves()));
            let reused = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                warm.as_ref(),
                Some(ctx.moves()),
                &mut ws,
            );
            assert_eq!(
                fresh,
                reused,
                "{} at {} B: workspace reuse diverges from fresh",
                app.name(),
                cap
            );
            warm = Some(fresh.0.assignment);
        }
    }
}

#[test]
fn sweep_handles_degenerate_capacity_lists() {
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    let app = mhla_apps::sobel_edge::app();
    let empty = one_layer(&app.program, &platform, &[], &config);
    assert!(empty.points.is_empty());
    let dup = one_layer(&app.program, &platform, &[256, 256, 512], &config);
    assert_eq!(dup.points.len(), 2);
    assert!(dup.points[0].capacities < dup.points[1].capacities);
}
