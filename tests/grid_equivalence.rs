//! The multi-layer grid sweep must be *exactly* the composition of
//! standalone runs — the PR acceptance bar:
//!
//! * every grid point on `Platform::three_level` is bit-identical to a
//!   cold standalone `Mhla::run` on the same platform (same assignment,
//!   same cost breakdowns including the floating-point energy fields,
//!   same TE schedule);
//! * on two-layer platforms a 1-axis grid degenerates to exactly the
//!   one-layer capacity sweep — every point a standalone run on the
//!   platform resized at that one layer, the Pareto fronts those of the
//!   frozen reference `sweep_cold` — on all nine applications.

use mhla::core::explore::{
    default_capacities, sweep_cold, try_sweep_grid_run, GridAxis, GridSweep, SweepOptions,
};
use mhla::core::{Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;

/// The exhaustive sweep's grid under `opts`.
fn grid_with(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &SweepOptions,
) -> GridSweep {
    try_sweep_grid_run(program, platform, axes, config, opts)
        .expect("grid sweep")
        .sweep
}

/// [`grid_with`] under the default options.
fn grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
) -> GridSweep {
    grid_with(program, platform, axes, config, &SweepOptions::default())
}

#[test]
fn grid_points_are_bit_identical_to_standalone_runs_on_three_level() {
    let platform = Platform::three_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![256u64, 1024]),
    ];
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let grid = grid(&app.program, &platform, &axes, &config);
        assert_eq!(grid.points.len(), 6, "{}", app.name());
        for point in &grid.points {
            let pf = platform.with_layer_capacities(&[
                (LayerId(1), point.capacities[0]),
                (LayerId(2), point.capacities[1]),
            ]);
            let standalone = Mhla::new(&app.program, &pf, config.clone()).run();
            assert_eq!(
                point.result,
                standalone,
                "{} at {:?}: grid point diverges from a standalone run",
                app.name(),
                point.capacities
            );
        }
    }
}

#[test]
fn single_axis_grid_degenerates_to_the_sweep_on_all_apps() {
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let s = sweep_cold(&app.program, &platform, LayerId(1), &caps, &config);
        let g = grid(
            &app.program,
            &platform,
            &[GridAxis::new(LayerId(1), caps.clone())],
            &config,
        );
        assert_eq!(g.layers, s.layers, "{}", app.name());
        assert_eq!(g.points.len(), caps.len(), "{}", app.name());
        for (gp, &cap) in g.points.iter().zip(&caps) {
            assert_eq!(gp.capacities, vec![cap], "{}", app.name());
            let pf = platform.with_layer_capacity(LayerId(1), cap);
            assert_eq!(
                gp.result,
                Mhla::new(&app.program, &pf, config.clone()).run(),
                "{} at {cap} B: grid diverges from the one-layer sweep",
                app.name(),
            );
        }
        assert_eq!(g.pareto_cycles(), s.pareto_cycles(), "{}", app.name());
        assert_eq!(g.pareto_energy(), s.pareto_energy(), "{}", app.name());
    }
}

#[test]
fn grid_options_do_not_change_results() {
    // Warm starts and the thread fan-out are pure wall-time knobs: the
    // grid's points are identical under every combination, so results
    // never depend on the machine's core count.
    let platform = Platform::three_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![128u64, 512, 2048]),
    ];
    let config = MhlaConfig::default();
    let app = mhla_apps::video_encoder::app();
    let reference = grid(&app.program, &platform, &axes, &config);
    for warm_start in [false, true] {
        for parallel in [false, true] {
            let opts = SweepOptions {
                warm_start,
                parallel,
                ..SweepOptions::default()
            };
            let g = grid_with(&app.program, &platform, &axes, &config, &opts);
            assert_eq!(g.points.len(), reference.points.len());
            for (a, b) in g.points.iter().zip(&reference.points) {
                assert_eq!(a.result, b.result, "{opts:?}");
            }
        }
    }
}
