//! Sample statistics, the process CPU clock and output digests.

/// Nearest-rank percentile of a sample (`q` in `[0, 100]`): the smallest
/// value with at least `q`% of the sample at or below it. `None` on an
/// empty sample.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank (0 on an empty sample, where every caller means
/// "the layer did no work").
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0).unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so run-to-run spreads read the same here as in any
/// script that checks them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative past the clamp, where Python extrapolates as well.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The interquartile range as a share of the median — the run-to-run
/// spread a bound is compared against. `None` below two values.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = python_median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The arithmetic median (the mean of the middle pair on even counts), as
/// Python's `statistics.median` gives it.
pub fn python_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel fixes at 100 per second for user space on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of a whole process from one `/proc/<pid>/stat`
/// line. The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_proc_stat_cpu(line: &str) -> Option<f64> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds this process has used so far, all threads included.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|line| parse_proc_stat_cpu(&line))
        .unwrap_or(0.0)
}

/// FNV-1a over a byte stream: a digest that is stable across platforms,
/// toolchains and processes, for pinning outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_values() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(15.0));
        // Order of the input does not matter.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        // p99 of 100 samples is the 99th smallest, not an interpolation.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(python_median(&ten), 5.5);
        let spread = relative_spread(&ten).expect("ten values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn proc_stat_cpu_counts_user_plus_system_ticks() {
        // Field 14 (utime) = 250, field 15 (stime) = 50 → 3.0 s at 100 Hz.
        let line =
            "4242 (bench (x) y) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 6 0 1000 1 1";
        assert_eq!(parse_proc_stat_cpu(line), Some(3.0));
        assert_eq!(parse_proc_stat_cpu("4242 (truncated) R 1 2"), None);
        assert_eq!(parse_proc_stat_cpu("no parenthesis at all"), None);
        assert!(process_cpu_seconds() >= 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        assert_eq!(Digest::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(Digest::default().bytes(b"foobar").hex(), "85944171f73967e8");
    }
}
