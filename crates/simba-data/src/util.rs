//! Random-generation helpers shared by the dataset generators.

use rand::Rng;

/// Relative weights (not necessarily normalized), summed once, to pick
/// indexes from. A generator builds its pickers once per chunk; every pick
/// then costs one draw and a walk, never a re-summing.
#[derive(Debug, Clone)]
pub struct Weights {
    weights: Vec<f64>,
    total: f64,
}

impl Weights {
    /// Pick index `i` with weight `weights[i]`.
    pub fn new(weights: &[f64]) -> Weights {
        debug_assert!(!weights.is_empty());
        Weights {
            weights: weights.to_vec(),
            total: weights.iter().sum(),
        }
    }

    /// Zipf-like skew over `0..n`: index `i` has weight `1/(i+1)^s`.
    pub fn zipf(n: usize, s: f64) -> Weights {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Weights::new(&weights)
    }

    /// Pick an index. Deterministic given the RNG state: one
    /// `gen_range(0.0..total)` draw.
    #[inline]
    pub fn pick<R: Rng>(&self, rng: &mut R) -> usize {
        let mut x = rng.gen_range(0.0..self.total);
        for (i, w) in self.weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        self.weights.len() - 1
    }
}

/// Sample from a normal distribution via Box–Muller.
pub fn normal<R: Rng>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Normal sample clamped to a range.
pub fn clamped_normal<R: Rng>(rng: &mut R, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
    normal(rng, mean, std_dev).clamp(lo, hi)
}

/// A diurnal intensity in `[0, 1]` peaking mid-day (used for call volumes,
/// ride telemetry, energy usage...).
pub fn diurnal_intensity(hour: i64) -> f64 {
    let h = hour as f64;
    // Two-peak business-day curve: ramp 8-11, lunch dip, ramp 13-16.
    let morning = (-((h - 10.0) * (h - 10.0)) / 8.0).exp();
    let afternoon = (-((h - 15.0) * (h - 15.0)) / 10.0).exp();
    (0.15 + 0.85 * morning.max(afternoon)).min(1.0)
}

/// [`diurnal_intensity`] of every hour of the day, indexed by hour.
pub fn diurnal_by_hour() -> [f64; 24] {
    std::array::from_fn(|hour| diurnal_intensity(hour as i64))
}

/// Epoch seconds for a timestamp `day` days and `secs` seconds after the
/// base date 2021-01-01 00:00:00 UTC.
pub fn epoch_at(day: i64, secs: i64) -> i64 {
    const BASE: i64 = 1_609_459_200; // 2021-01-01T00:00:00Z
    BASE + day * 86_400 + secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = rng();
        let weights = Weights::new(&[9.0, 1.0]);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[weights.pick(&mut r)] += 1;
        }
        assert!(counts[0] > 8_000 && counts[0] < 9_800, "{counts:?}");
    }

    #[test]
    fn zipf_skews_to_low_indices() {
        let mut r = rng();
        let zipf = Weights::zipf(10, 1.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.pick(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "{counts:?}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn clamped_normal_stays_in_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = clamped_normal(&mut r, 0.0, 100.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn diurnal_peaks_midday() {
        assert!(diurnal_intensity(10) > diurnal_intensity(3));
        assert!(diurnal_intensity(15) > diurnal_intensity(22));
        let by_hour = diurnal_by_hour();
        for h in 0..24 {
            let v = diurnal_intensity(h);
            assert!((0.0..=1.0).contains(&v));
            assert_eq!(by_hour[h as usize].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn epoch_at_base() {
        assert_eq!(epoch_at(0, 0), 1_609_459_200);
        assert_eq!(epoch_at(1, 3600), 1_609_459_200 + 86_400 + 3_600);
    }
}
