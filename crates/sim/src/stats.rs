//! Statistics collectors used by the experiment harness: streaming
//! mean/variance (Welford), Student-t 95% confidence intervals (the paper
//! reports "an average of 20 runs and 95% confidence intervals"), and the
//! `(x, y, ci)` series every figure is drawn from.

/// Streaming mean and variance via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use bcp_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

crate::persist!(struct Welford { n, mean, m2 });

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the 95% confidence interval for the mean
    /// (`t · s / √n`), 0 if fewer than two samples.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        t_critical_95(self.n - 1) * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Two-sided Student-t critical value at 95% confidence for the given degrees
/// of freedom (df ≥ 1). Values above df=30 use the normal approximation.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Mean and 95% CI half-width of a slice of run-level samples.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let w: Welford = samples.iter().copied().collect();
    (w.mean(), w.ci95_half_width())
}

/// A named sequence of `(x, y)` points with optional 95%-CI half-widths —
/// the unit of "one line in one figure" used by every experiment harness.
///
/// # Examples
///
/// ```
/// use bcp_sim::stats::Series;
///
/// let mut s = Series::new("DualRadio-500");
/// s.push(5.0, 0.12);
/// s.push_with_ci(10.0, 0.10, 0.01);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.points()[1], (10.0, 0.10, 0.01));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64, f64)>,
}

impl Series {
    /// Creates an empty series with a display label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point with zero CI.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y, 0.0));
    }

    /// Appends a point with a 95% CI half-width.
    pub fn push_with_ci(&mut self, x: f64, y: f64, ci: f64) {
        self.points.push((x, y, ci));
    }

    /// The `(x, y, ci)` triples in insertion order.
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at the given x, if a point exists there (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, ..)| *px == x)
            .map(|(_, y, _)| *y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(w.count(), 5);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((w.sample_variance() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Welford = all.iter().copied().collect();
        let mut a: Welford = all[..37].iter().copied().collect();
        let b: Welford = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - seq.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn ci95_matches_hand_computation() {
        // n=5, sd=sqrt(2.5), t(4)=2.776 => hw = 2.776*sqrt(2.5/5)
        let w: Welford = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        let expected = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!((w.ci95_half_width() - expected).abs() < 1e-9);
    }

    #[test]
    fn ci95_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.ci95_half_width(), 0.0);
        w.push(3.0);
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn t_table_sane() {
        assert!(t_critical_95(1) > t_critical_95(5));
        assert!(t_critical_95(5) > t_critical_95(30));
        assert_eq!(t_critical_95(1000), 1.96);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn mean_ci95_wrapper() {
        let (m, hw) = mean_ci95(&[10.0, 10.0, 10.0]);
        assert_eq!(m, 10.0);
        assert_eq!(hw, 0.0);
    }

    #[test]
    fn series_basics() {
        let mut s = Series::new("line");
        assert!(s.is_empty());
        s.push(1.0, 2.0);
        s.push_with_ci(3.0, 4.0, 0.5);
        assert_eq!(s.label(), "line");
        assert_eq!(s.len(), 2);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(9.0), None);
    }
}
