//! Seeded input generation: every random input of every workload comes from
//! here, keyed only by `--seed`.

/// SplitMix64: tiny, seedable and identical on every platform, so a seed
/// names the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One open-loop request: when it is due (seconds after the phase starts)
/// and which key it asks for (a Zipf rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub rank: usize,
}

/// A Poisson arrival process at `rate_per_s` over `[0, seconds)`, each
/// arrival asking for a Zipf-distributed rank.
pub fn open_loop_schedule(seed: u64, rate_per_s: f64, seconds: f64, zipf: &Zipf) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut due_s = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential inter-arrival gap; `1 - u` keeps the log finite.
        due_s += -(1.0 - rng.unit()).ln() / rate_per_s;
        if due_s >= seconds {
            return out;
        }
        out.push(Arrival {
            due_s,
            rank: zipf.sample(&mut rng),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_keys_and_arrivals() {
        let zipf = Zipf::new(96, 1.1);
        let a = open_loop_schedule(42, 400.0, 5.0, &zipf);
        let b = open_loop_schedule(42, 400.0, 5.0, &zipf);
        assert_eq!(a, b, "a seed must name one input");
        let c = open_loop_schedule(43, 400.0, 5.0, &zipf);
        assert_ne!(a, c, "another seed must give other inputs");
        // Bitwise equality, not just approximate: the schedule is the input.
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_s.to_bits() == y.due_s.to_bits()));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_skew() {
        let zipf = Zipf::new(96, 1.1);
        let arrivals = open_loop_schedule(7, 400.0, 30.0, &zipf);
        let rate = arrivals.len() as f64 / 30.0;
        assert!((rate - 400.0).abs() < 20.0, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(arrivals.iter().all(|a| a.rank < 96 && a.due_s < 30.0));
        // Rank 0 is the hottest key: weight 1 / H(96, 1.1) ≈ 0.235.
        let hot = arrivals.iter().filter(|a| a.rank == 0).count() as f64;
        let share = hot / arrivals.len() as f64;
        assert!((0.21..0.26).contains(&share), "rank-0 share {share}");
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = Rng::new(0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
