//! Criterion bench for the trade-off exploration: the per-application
//! capacity sweep (the paper's "thorough trade-off exploration for
//! different memory layer sizes"), measured on both execution paths:
//!
//! * `tradeoff_cold/*` — the frozen pre-optimization reference
//!   ([`mhla_core::explore::sweep_cold`]): sequential, re-analyzed per
//!   point, every candidate move priced with the full `evaluate` oracle;
//! * `tradeoff_fast/*` — the production path (the 1-axis
//!   [`mhla_core::explore::try_sweep_grid_run`]): shared analysis + move
//!   space, incremental move pricing, warm-started portfolio, parallel
//!   chunks.
//!
//! Prints the per-app and suite speedups (the PR target is ≥5× suite-wide)
//! with a per-app equivalence verdict from [`mhla_bench::measure_sweep_perf`].

use criterion::{criterion_group, criterion_main, Criterion};
use mhla_core::explore::{
    default_capacities, sweep_cold, try_sweep_grid_run, GridAxis, GridSweep, SweepOptions,
};
use mhla_core::MhlaConfig;
use mhla_hierarchy::{LayerId, Platform};
use std::hint::black_box;

fn bench_tradeoff(c: &mut Criterion) {
    let apps = mhla_bench::sweep_suite();
    let platform = Platform::embedded_default(1024);
    let caps = default_capacities();
    let axes = [GridAxis::new(LayerId(1), caps.clone())];
    let sweep = |program| -> GridSweep {
        try_sweep_grid_run(
            program,
            &platform,
            &axes,
            &MhlaConfig::default(),
            &SweepOptions::default(),
        )
        .expect("capacity sweep")
        .sweep
    };

    // Print the Pareto fronts once (path equivalence is asserted by
    // measure_sweep_perf's verdict below and by tests/sweep_equivalence.rs).
    for app in &apps {
        let fast = sweep(&app.program);
        let front = fast.pareto_cycles();
        println!(
            "\n{} Pareto (capacity, cycles): {:?}",
            app.name(),
            front
                .iter()
                .map(|&i| (fast.points[i].capacities[0], fast.points[i].cycles()))
                .collect::<Vec<_>>()
        );
    }

    let mut group = c.benchmark_group("tradeoff_cold");
    group.sample_size(10);
    for app in &apps {
        group.bench_function(app.name().to_string(), |b| {
            b.iter(|| {
                black_box(sweep_cold(
                    black_box(&app.program),
                    black_box(&platform),
                    LayerId(1),
                    &caps,
                    &MhlaConfig::default(),
                ))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("tradeoff_fast");
    group.sample_size(10);
    for app in &apps {
        group.bench_function(app.name().to_string(), |b| {
            b.iter(|| black_box(sweep(black_box(&app.program))));
        });
    }
    group.finish();

    // Wall-clock summary with the suite speedup (the ≥5× PR target).
    let perfs = mhla_bench::measure_sweep_perf(5);
    println!("\ntradeoff sweep speedups (cold / fast):");
    for p in &perfs {
        println!(
            "  {:<18} {:>8.3} ms / {:>8.3} ms = {:>5.2}x  (identical: {})",
            p.app,
            p.cold_seconds * 1e3,
            p.fast_seconds * 1e3,
            p.speedup(),
            p.fronts_identical && p.points_identical
        );
        assert!(
            p.fronts_identical && p.points_identical,
            "{}: cold and fast sweeps diverge",
            p.app
        );
    }
    let cold: f64 = perfs.iter().map(|p| p.cold_seconds).sum();
    let fast: f64 = perfs.iter().map(|p| p.fast_seconds).sum();
    println!(
        "  suite: {:.1} ms / {:.1} ms = {:.2}x",
        cold * 1e3,
        fast * 1e3,
        cold / fast
    );
}

criterion_group!(benches, bench_tradeoff);
criterion_main!(benches);
