//! Latency histograms and quantiles.

/// Values below this are counted in exact 1-ns buckets.
const LINEAR: u64 = 4096;
/// Sub-buckets per power of two above `LINEAR` (relative width 1/256).
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const LINEAR_EXP: u32 = 12; // log2(LINEAR)

/// A log-linear histogram of nanosecond samples: exact below 4096 ns,
/// within 0.4% above. Quantiles interpolate inside a bucket, so they
/// are continuous numbers rather than bucket edges.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    LINEAR as usize + (exp - LINEAR_EXP) as usize * SUB + sub
}

/// `(lower edge, width)` of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    if i < LINEAR as usize {
        return (i as f64, 1.0);
    }
    let k = i - LINEAR as usize;
    let exp = LINEAR_EXP + (k / SUB) as u32;
    let width = (1u64 << (exp - SUB_BITS)) as f64;
    ((1u64 << exp) as f64 + (k % SUB) as f64 * width, width)
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; index(u64::MAX) + 1],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile, interpolated within its bucket; `NaN` if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= target {
                let (lo, width) = bucket(i);
                return lo + width * ((target - below as f64) / c as f64).clamp(0.0, 1.0);
            }
            below += c;
        }
        unreachable!("target rank lies within the recorded samples")
    }

    /// The tail percentile the report uses: p99 when at least ten
    /// samples lie beyond it, otherwise the highest percentile that
    /// still has ten beyond it. Returns `(q, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_q(self.n as usize);
        (q, self.quantile(q))
    }
}

/// p99, or the highest quantile with at least ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Linear-interpolated quantile of unsorted samples (`NaN` if empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The quantile a repeated timing is reported at over its repetitions.
/// On the host the benchmark was tuned on, memory-bound work runs up to
/// 1.5x slower in contended phases that come and go every second or so
/// and cover anywhere from a few to most repetitions of a run: the median
/// flips between the quiet and the contended speed, the fastest tenth of
/// the repetitions stays with the quiet one.
pub const QUIET_Q: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [0u64, 1, 4095, 4096, 4097, 10_000, 123_456_789, u64::MAX / 3] {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Hist::default();
        for v in 1..=1000 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 500.0).abs() <= 1.0);
        assert_eq!(tail_q(1000), 0.99);
        assert!((tail_q(100) - 0.9).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }
}
