//! The explorer's benchmark: one workload per run, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`. See `perfbench/README.md`
//! for the workloads, the metrics and how to run and compare.
//!
//! ```text
//! mhla-perfbench --workload <grid4_pruned|refine_fine|serve_mixed>
//!                --seed <n> --seconds <s> --trace <0|1> [--record <path>]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it
//! give the effective settings and every metric with its samples. With
//! `--record`, the full run record (settings, repetitions and
//! min/quartiles/median/max per metric) is written as JSON.

mod engine;
mod inputs;
mod offline;
mod serve;
mod stats;

use mhla_ir::serdes::Json;

use crate::stats::Metric;

/// Runtime-gated: counting is off except inside
/// `mhla_alloc_counter::allocations_during`, which only the traced runs
/// call; when off, each allocation costs one relaxed load.
#[global_allocator]
static ALLOC: mhla_alloc_counter::CountingAlloc = mhla_alloc_counter::CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// What one run measured.
pub struct RunOutput {
    /// The contract metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Further figures for the record and the printed table only.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The effective settings the run used.
    pub settings: Vec<(String, Json)>,
    /// Timed passes (1 for traced runs, whose metrics give their own
    /// sample counts).
    pub repetitions: u64,
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--record" => record = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        record,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mhla-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let out = match (args.workload.as_str(), args.trace) {
        ("grid4_pruned", false) => offline::run(&offline::GRID4_PRUNED, seed, secs),
        ("grid4_pruned", true) => offline::run_traced(&offline::GRID4_PRUNED, seed, secs),
        ("refine_fine", false) => offline::run(&offline::REFINE_FINE, seed, secs),
        ("refine_fine", true) => offline::run_traced(&offline::REFINE_FINE, seed, secs),
        ("serve_mixed", false) => serve::run(seed, secs),
        ("serve_mixed", true) => serve::run_traced(seed, secs),
        (other, _) => {
            eprintln!("mhla-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    println!(
        "workload {} seed {} trace {} repetitions {}",
        args.workload, seed, args.trace as u8, out.repetitions
    );
    for (k, v) in &out.settings {
        println!("  setting {k} = {}", v.render_compact());
    }
    for m in out.metrics.iter().chain(&out.extra) {
        println!(
            "  {:32} {:>16.6} {:12} (samples {})",
            m.name,
            m.value,
            m.unit,
            m.samples.len()
        );
    }
    println!(
        "  attempted {} failed {} error_rate {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );

    if let Some(path) = &args.record {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::from_u64(seed)),
            ("seconds".into(), Json::from_f64(secs)),
            ("trace".into(), Json::Bool(args.trace)),
            ("repetitions".into(), Json::from_u64(out.repetitions)),
            ("settings".into(), Json::Obj(out.settings.clone())),
            ("attempted".into(), Json::from_u64(out.attempted)),
            ("failed".into(), Json::from_u64(out.failed)),
            (
                "metrics".into(),
                Json::Obj(
                    out.metrics
                        .iter()
                        .chain(&out.extra)
                        .map(|m| (m.name.to_string(), m.record()))
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, record.render()) {
            eprintln!("mhla-perfbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }

    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::from_f64(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::from_u64(out.attempted)),
        ("failed".into(), Json::from_u64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render_compact());
}
