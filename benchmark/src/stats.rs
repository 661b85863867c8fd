//! The benchmark's own arithmetic: nearest-rank percentiles, the choice of
//! tail percentile, medians, and the held-out scores.

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples: `ceil(p/100 · n)`,
/// clamped to `1..=n`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "rank of an empty sample");
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Nearest-rank percentile of unsorted values (0 for none).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median (nearest rank, so always an observed value) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// Latency summary of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Chosen tail percentile (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Samples strictly beyond the tail rank.
    pub beyond: usize,
}

impl Latency {
    /// Summarise unsorted samples; `None` when there are too few for a tail.
    pub fn of(values: &[f64]) -> Option<Self> {
        let tail_pct = tail_percentile(values.len())?;
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = nearest_rank(tail_pct, v.len());
        Some(Self {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: v[rank - 1],
            beyond: v.len() - rank,
        })
    }
}

/// Quantile levels of a served answer: q05, q50, q95.
pub const SERVED_LEVELS: [f64; 3] = [0.05, 0.5, 0.95];

/// Running held-out scores over hidden cells: CRPS (normalised as the
/// repository's `crps_of_panels`: mean CRPS over mean |target|) and MAE.
#[derive(Debug, Clone, Default)]
pub struct Scores {
    crps_sum: f64,
    abs_err_sum: f64,
    abs_target_sum: f64,
    cells: usize,
}

impl Scores {
    /// Score one window: `samples` is `[S, P]` flattened, `point` the point
    /// estimate (ensemble median), `target` and `mask` length `P`.
    pub fn add_ensemble(
        &mut self,
        samples: &[f32],
        s: usize,
        point: &[f32],
        target: &[f32],
        mask: &[f32],
    ) {
        let cells = mask.iter().filter(|&&m| m > 0.0).count();
        if cells == 0 {
            return;
        }
        self.crps_sum += st_metrics::crps_ensemble(samples, s, target, mask) * cells as f64;
        self.add_point(point, target, mask);
    }

    /// Score the three quantiles a served answer carries (q05, q50, q95):
    /// CRPS by the same quantile-loss estimator as `crps_ensemble`, at these
    /// three levels instead of nineteen; MAE of the q50.
    pub fn add_quantiles(&mut self, q: [&[f32]; 3], target: &[f32], mask: &[f32]) {
        for (i, (&t, &m)) in target.iter().zip(mask).enumerate() {
            if m > 0.0 {
                let x = f64::from(t);
                let loss: f64 = SERVED_LEVELS
                    .iter()
                    .zip(q)
                    .map(|(&alpha, qs)| {
                        let qv = f64::from(qs[i]);
                        2.0 * (alpha - if x < qv { 1.0 } else { 0.0 }) * (x - qv)
                    })
                    .sum();
                self.crps_sum += loss / SERVED_LEVELS.len() as f64;
            }
        }
        self.add_point(q[1], target, mask);
    }

    /// Score point estimates only (no CRPS contribution).
    pub fn add_point(&mut self, point: &[f32], target: &[f32], mask: &[f32]) {
        for ((&p, &t), &m) in point.iter().zip(target).zip(mask) {
            if m > 0.0 {
                self.abs_err_sum += (f64::from(p) - f64::from(t)).abs();
                self.abs_target_sum += f64::from(t).abs();
                self.cells += 1;
            }
        }
    }

    /// Scored cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Mean absolute error over scored cells.
    pub fn mae(&self) -> f64 {
        self.abs_err_sum / self.cells.max(1) as f64
    }

    /// Mean CRPS divided by mean |target| (the repository's normalisation).
    pub fn crps(&self) -> f64 {
        let mean_abs = self.abs_target_sum / self.cells.max(1) as f64;
        let raw = self.crps_sum / self.cells.max(1) as f64;
        if mean_abs > 0.0 {
            raw / mean_abs
        } else {
            raw
        }
    }
}

/// 64-bit FNV-1a digest, used to show that a seed fixes a schedule's bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
