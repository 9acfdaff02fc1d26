//! Seeded input generation: program variants of the nine application
//! kernels and the `serve_mixed` request mix. The same seed always yields
//! the same inputs; the engine and the server only ever see these
//! generated programs and request lines.

use mhla_apps::{
    cavity_detect, fir_bank, full_search_me, hierarchical_me, jpeg_enc, lpc_voice, sobel_edge,
    video_encoder, wavelet,
};
use mhla_core::explore::GridAxis;
use mhla_core::Objective;
use mhla_hierarchy::LayerId;
use mhla_ir::serdes::{program_value, Json};
use mhla_ir::Program;

/// SplitMix64: a small, well-mixed, dependency-free generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The nine kernels, in `mhla_apps::all_apps` order.
pub const APPS: [&str; 9] = [
    "full_search_me",
    "hierarchical_me",
    "video_encoder",
    "jpeg_enc",
    "cavity_detect",
    "wavelet",
    "sobel_edge",
    "fir_bank",
    "lpc_voice",
];

/// One generated program: which kernel, the parameters the seed drew,
/// and the built program.
pub struct Variant {
    pub app: &'static str,
    pub params: String,
    pub program: Program,
}

/// Draws one variant of kernel `app` (an index into [`APPS`]). The seed
/// varies the stream length — frame height, sample count or frame count,
/// five values around the default — and keeps the parameters that shape
/// the working set (widths, blocks, taps, orders) at their defaults, so
/// variants are distinct programs with comparable exploration work.
pub fn variant(app: usize, rng: &mut Rng) -> Variant {
    let (params, program) = match APPS[app] {
        "full_search_me" => {
            let p = full_search_me::Params {
                height: rng.pick(&[112, 128, 144, 160, 176]),
                ..Default::default()
            };
            (format!("{p:?}"), full_search_me::program(p))
        }
        "hierarchical_me" => {
            let p = hierarchical_me::Params {
                height: rng.pick(&[112, 128, 144, 160, 176]),
                ..Default::default()
            };
            (format!("{p:?}"), hierarchical_me::program(p))
        }
        "video_encoder" => {
            let p = video_encoder::Params {
                height: rng.pick(&[128, 136, 144, 152, 160]),
                ..Default::default()
            };
            (format!("{p:?}"), video_encoder::program(p))
        }
        "jpeg_enc" => {
            let p = jpeg_enc::Params {
                height: rng.pick(&[256, 272, 288, 304, 320]),
                ..Default::default()
            };
            (format!("{p:?}"), jpeg_enc::program(p))
        }
        "cavity_detect" => {
            let p = cavity_detect::Params {
                height: rng.pick(&[208, 224, 240, 256, 272]),
                ..Default::default()
            };
            (format!("{p:?}"), cavity_detect::program(p))
        }
        "wavelet" => {
            let p = wavelet::Params {
                height: rng.pick(&[224, 240, 256, 272, 288]),
                ..Default::default()
            };
            (format!("{p:?}"), wavelet::program(p))
        }
        "sobel_edge" => {
            let p = sobel_edge::Params {
                height: rng.pick(&[208, 224, 240, 256, 272]),
                ..Default::default()
            };
            (format!("{p:?}"), sobel_edge::program(p))
        }
        "fir_bank" => {
            let p = fir_bank::Params {
                samples: rng.pick(&[3584, 3840, 4096, 4352, 4608]),
                ..Default::default()
            };
            (format!("{p:?}"), fir_bank::program(p))
        }
        "lpc_voice" => {
            let p = lpc_voice::Params {
                frames: rng.pick(&[40, 45, 50, 55, 60]),
                ..Default::default()
            };
            (format!("{p:?}"), lpc_voice::program(p))
        }
        other => unreachable!("unknown kernel {other}"),
    };
    Variant {
        app: APPS[app],
        params,
        program,
    }
}

/// `per_app` distinct variants of each listed kernel, kernel by kernel.
/// Several variants per kernel average out how much one draw changes a
/// kernel's exploration work, so runs with different seeds load the
/// engine alike.
pub fn variants_of(apps: &[usize], per_app: usize, rng: &mut Rng) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    for &a in apps {
        let first = out.len();
        while out.len() - first < per_app {
            let v = variant(a, rng);
            if !out[first..].iter().any(|u| u.params == v.params) {
                out.push(v);
            }
        }
    }
    out
}

/// The wire name of an objective.
pub fn objective_name(objective: &Objective) -> &'static str {
    match objective {
        Objective::Cycles => "cycles",
        Objective::Energy => "energy",
        Objective::Weighted { .. } => "weighted",
    }
}

/// One well-formed explore request of the serve mix.
#[derive(Clone, PartialEq, Debug)]
pub struct ExploreSpec {
    /// Index into the mix's program pool.
    pub program: usize,
    /// Four-level platform (else three-level).
    pub four_level: bool,
    pub axes: Vec<GridAxis>,
    pub objective: Objective,
}

/// What a mix line is expected to produce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A frontier body for this spec.
    Explore(ExploreSpec),
    /// A typed error of this class.
    Error(&'static str),
}

/// Why a mix line was drawn (the category the seed picked).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// An exact repeat of an earlier line: a result-cache hit unless the
    /// entry was evicted or is still being computed.
    Repeat,
    /// A new grid or objective on a program the server has seen: the
    /// analysis cache hits, the engine runs.
    NewAxes,
    /// A program the server has not seen: both caches miss.
    NewProgram,
    /// A malformed line that must get its typed error class.
    Malformed,
}

pub struct MixLine {
    pub kind: Kind,
    pub line: String,
    pub expect: Expect,
}

/// The request mix of one `serve_mixed` pass.
pub struct Mix {
    pub pool: Vec<Variant>,
    pub lines: Vec<MixLine>,
}

/// Every kind of line, in the order the mix shares are reported.
pub const KINDS: [Kind; 4] = [
    Kind::Repeat,
    Kind::NewAxes,
    Kind::NewProgram,
    Kind::Malformed,
];

// The draw probabilities per line (the rest are [`Kind::Repeat`]). No
// record of real serve traffic exists, so these are assumptions, chosen
// for what they make the server do, not measured shares:
// - a few malformed lines, so the typed-error path runs a few times per
//   pass;
// - new programs about as often as the mix has programs to introduce
//   (nine), so most of the pool appears and analysis misses are spread
//   over the pass rather than bunched at its start;
// - new grids often enough that the distinct results of a pass outgrow
//   the result cache, so inserts and evictions run beside hits;
// - repeats the majority, so hits, the path a result cache exists for,
//   are most of the traffic.
// The shares the server actually produced (hits, misses, evictions,
// errors, from its `status`) are recorded with every run.
const P_NEW_AXES: f64 = 0.22;
const P_NEW_PROGRAM: f64 = 0.08;
const P_MALFORMED: f64 = 0.03;
/// Share of four-level requests (an assumption like the above): misses
/// then span both the ms-scale three-level and the tens-of-ms four-level
/// engine runs.
const P_FOUR_LEVEL: f64 = 0.4;

/// Draws `n` of `caps` (all of them when there are fewer), in ascending
/// order.
fn subset(caps: &[u64], n: usize, rng: &mut Rng) -> Vec<u64> {
    let n = n.min(caps.len());
    let mut idx: Vec<usize> = (0..caps.len()).collect();
    for i in 0..n {
        let j = i + rng.below(idx.len() - i);
        idx.swap(i, j);
    }
    let mut out: Vec<u64> = idx[..n].iter().map(|&i| caps[i]).collect();
    out.sort_unstable();
    out
}

/// Axis sizes of the mix's grids: 3-level grids take 4 of the 5 L2
/// sizes and all 3 L1 sizes (12 points), 4-level grids 4 of the 6 L3
/// sizes, 3 of the 5 L2 sizes and all 3 L1 sizes (36 points). Fixed
/// sizes keep the work per request comparable across seeds; which sizes
/// are taken varies.
const GRID3_TAKE: [usize; 2] = [4, 3];
const GRID4_TAKE: [usize; 3] = [4, 3, 3];

fn draw_spec(program: usize, rng: &mut Rng) -> ExploreSpec {
    let four_level = rng.unit() < P_FOUR_LEVEL;
    let (axes, take) = if four_level {
        (mhla_bench::default_grid4_axes(), &GRID4_TAKE[..])
    } else {
        (mhla_bench::default_grid_axes(), &GRID3_TAKE[..])
    };
    let axes = axes
        .into_iter()
        .zip(take)
        .map(|(a, &n)| GridAxis::new(a.layer, subset(&a.capacities, n, rng)))
        .collect();
    let objective = if rng.unit() < 0.5 {
        Objective::Cycles
    } else {
        Objective::Energy
    };
    ExploreSpec {
        program,
        four_level,
        axes,
        objective,
    }
}

fn axes_json(axes: &[GridAxis]) -> Json {
    Json::Arr(
        axes.iter()
            .map(|a| {
                Json::Obj(vec![
                    ("layer".into(), Json::from_u64(a.layer.0 as u64)),
                    (
                        "capacities".into(),
                        Json::Arr(a.capacities.iter().map(|&c| Json::from_u64(c)).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

/// Renders an explore request line for `spec` over the given program
/// document.
pub fn explore_line(program: &Json, spec: &ExploreSpec) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("explore".into())),
        ("program".into(), program.clone()),
        (
            "platform".into(),
            Json::Str(
                if spec.four_level {
                    "four-level"
                } else {
                    "three-level"
                }
                .into(),
            ),
        ),
        (
            "objective".into(),
            Json::Str(objective_name(&spec.objective).into()),
        ),
        ("axes".into(), axes_json(&spec.axes)),
    ])
    .render_compact()
}

/// The malformed lines of the mix, each with the error class the
/// protocol documents for it.
fn malformed_line(program: &Json, rng: &mut Rng) -> (String, &'static str) {
    match rng.below(5) {
        0 => ("{\"op\":\"explore\",\"program\":".into(), "bad_request"),
        1 => ("{\"op\":\"optimize\"}".into(), "bad_request"),
        2 => (
            Json::Obj(vec![
                ("op".into(), Json::Str("explore".into())),
                ("program".into(), program.clone()),
                ("objective".into(), Json::Str("latency".into())),
            ])
            .render_compact(),
            "bad_request",
        ),
        3 => (
            Json::Obj(vec![
                ("op".into(), Json::Str("explore".into())),
                ("program".into(), program.clone()),
                (
                    "axes".into(),
                    axes_json(&[GridAxis::new(LayerId(0), vec![4096])]),
                ),
            ])
            .render_compact(),
            "infeasible_point",
        ),
        _ => (
            "{\"op\":\"explore\",\"program\":{\"format\":\"not-a-program\"}}".into(),
            "invalid_options",
        ),
    }
}

/// Draws the request mix of pass `pass` of a run with `seed`: `len` lines
/// over a pool of `pool_size` program variants (at most one per kernel and
/// parameter set). The first line introduces a program; afterwards each
/// line is a repeat, a new grid or objective on a known program, a new
/// program, or a malformed line. A mix holds every kind (a draw missing
/// one is redrawn). Each pass draws its own mix, so a run samples many
/// mixes and its tail latency does not hinge on a few heavy requests.
pub fn mix(seed: u64, pass: u64, pool_size: usize, len: usize) -> Mix {
    let rng = &mut Rng::new(seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03));
    // Kernels take turns, so every mix holds the same kernels; the order
    // in which the programs first appear is shuffled.
    let mut pool: Vec<Variant> = Vec::new();
    for i in 0..pool_size {
        let app = i % APPS.len();
        loop {
            let v = variant(app, rng);
            if !pool.iter().any(|u| u.app == v.app && u.params == v.params) {
                pool.push(v);
                break;
            }
        }
    }
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    let docs: Vec<Json> = pool.iter().map(|v| program_value(&v.program)).collect();
    loop {
        let lines = mix_lines(&docs, len, rng);
        if KINDS.iter().all(|&k| lines.iter().any(|l| l.kind == k)) {
            return Mix { pool, lines };
        }
    }
}

fn mix_lines(docs: &[Json], len: usize, rng: &mut Rng) -> Vec<MixLine> {
    let mut lines: Vec<MixLine> = Vec::with_capacity(len);
    let mut specs: Vec<ExploreSpec> = Vec::new();
    let mut introduced = 0usize;
    let spec_line = |spec: ExploreSpec, kind: Kind, lines: &mut Vec<MixLine>| {
        let line = explore_line(&docs[spec.program], &spec);
        lines.push(MixLine {
            kind,
            line,
            expect: Expect::Explore(spec),
        });
    };
    while lines.len() < len {
        let u = rng.unit();
        let kind = if introduced == 0 {
            Kind::NewProgram
        } else if u < P_MALFORMED {
            Kind::Malformed
        } else if u < P_MALFORMED + P_NEW_PROGRAM {
            // Once every program is known, a new grid takes its place.
            if introduced < docs.len() {
                Kind::NewProgram
            } else {
                Kind::NewAxes
            }
        } else if u < P_MALFORMED + P_NEW_PROGRAM + P_NEW_AXES {
            Kind::NewAxes
        } else {
            Kind::Repeat
        };
        match kind {
            Kind::NewProgram => {
                let spec = draw_spec(introduced, rng);
                introduced += 1;
                specs.push(spec.clone());
                spec_line(spec, kind, &mut lines);
            }
            Kind::Malformed => {
                let (line, class) = malformed_line(&docs[rng.below(introduced)], rng);
                lines.push(MixLine {
                    kind,
                    line,
                    expect: Expect::Error(class),
                });
            }
            Kind::NewAxes => {
                let spec = draw_spec(rng.below(introduced), rng);
                if !specs.contains(&spec) {
                    specs.push(spec.clone());
                    spec_line(spec, kind, &mut lines);
                }
            }
            Kind::Repeat => {
                // Repeats favour recent specs, so some hit and some find
                // their entry already evicted.
                let back = ((rng.unit() * rng.unit()) * specs.len() as f64) as usize;
                let spec = specs[specs.len() - 1 - back.min(specs.len() - 1)].clone();
                spec_line(spec, kind, &mut lines);
            }
        }
    }
    lines
}
