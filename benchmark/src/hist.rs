//! Log-bucket latency histogram and the order statistics the report uses.

/// Sub-buckets per power of two: bucket width is 1/64 (1.6 %) of the value.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^40 ns (18 minutes).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Fixed-size histogram of nanosecond values; recording never allocates.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn bucket(v: u64) -> usize {
    let v = v.min((1 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) | ((v >> shift) & (SUB - 1)) as usize
}

/// Lower bound and width of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    let row = (idx >> SUB_BITS) as u32;
    let col = (idx as u64) & (SUB - 1);
    if row == 0 {
        (col, 1)
    } else {
        let shift = row - 1;
        ((SUB + col) << shift, 1 << shift)
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bounds(idx);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + inside * width as f64;
            }
            seen += c;
        }
        unreachable!("rank never exceeds the total")
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the noise
/// report reproduces the driver's acceptance arithmetic.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        let mut next = 0;
        for idx in 0..BUCKETS {
            let (lo, width) = bounds(idx);
            assert_eq!(lo, next, "bucket {idx}");
            assert_eq!(bucket(lo), idx);
            assert_eq!(bucket(lo + width - 1), idx);
            next = lo + width;
        }
        assert_eq!(next, 1 << MAX_EXP);
    }

    #[test]
    fn quantile_is_within_a_bucket_of_the_exact_value() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for (q, exact) in [(0.5, 5_000.0 * 37.0), (0.99, 9_900.0 * 37.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.02, "{q}: {got} vs {exact}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
