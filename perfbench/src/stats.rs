//! Order statistics and the metric record the benchmark prints.

use mhla_ir::serdes::Json;

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the benchmark's own summaries
/// agree with the spread the comparison script computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [d[0]; 3],
        _ => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.is_empty() {
        return f64::NAN;
    }
    let pos = q * (d.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    d[lo] + (d[hi] - d[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// One reported metric: its value plus the samples it summarizes (the
/// per-pass or per-request figures of this run).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// A metric that is a single exact figure (a count or a ratio of
    /// counts).
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, value, vec![value])
    }

    /// The record entry: value, unit, sample count and
    /// min/quartiles/median/max of the samples.
    pub fn record(&self) -> Json {
        let [q1, q2, q3] = quartiles(&self.samples);
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Json::Obj(vec![
            ("value".into(), Json::from_f64(self.value)),
            ("unit".into(), Json::Str(self.unit.into())),
            ("samples".into(), Json::from_u64(self.samples.len() as u64)),
            ("min".into(), Json::from_f64(min)),
            ("q1".into(), Json::from_f64(q1)),
            ("median".into(), Json::from_f64(q2)),
            ("q3".into(), Json::from_f64(q3)),
            ("max".into(), Json::from_f64(max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 9.9);
    }
}
