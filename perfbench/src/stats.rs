//! Exact order statistics over recorded samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples: the
//! `q`-quantile of `n` samples is the sample at 1-based rank `ceil(q * n)`.
//! Every percentile travels with its sample count and the number of samples
//! ranked beyond it; one with fewer than [`MIN_BEYOND`] samples beyond it is
//! flagged, because it is set by a handful of outliers.

/// A percentile with fewer samples than this ranked above it is flagged.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was read from.
    pub count: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// `true` when too few samples lie beyond the percentile to trust it.
    pub fn flagged(&self) -> bool {
        self.beyond < MIN_BEYOND
    }
}

/// Samples sorted once, read many times.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sort `samples` (NaNs are a caller bug and sort last).
    pub fn new(mut samples: Vec<f64>) -> Sorted {
        samples.sort_by(|a, b| a.total_cmp(b));
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile, or `None` for an empty sample.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(Percentile {
            value: self.0[rank - 1],
            count: n,
            beyond: n - rank,
        })
    }

    /// Arithmetic mean, or `None` for an empty sample.
    pub fn mean(&self) -> Option<f64> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.iter().sum::<f64>() / self.0.len() as f64)
        }
    }
}

/// The median of a non-empty slice (the lower middle for even lengths,
/// matching the nearest-rank rule above).
pub fn median(values: &[f64]) -> Option<f64> {
    Sorted::new(values.to_vec())
        .percentile(0.5)
        .map(|p| p.value)
}
