//! Sample sanitization for graceful statistical degradation.
//!
//! Fault-injected (and real) measurement campaigns produce contaminated
//! sample vectors: a crashed node yields no reading, a clock jump yields a
//! NaN or a negative/infinite duration. Rule 4 of the paper demands that
//! such losses be *reported*, not silently discarded — "report the
//! experimental setup completely, including failed runs". This module
//! partitions a raw sample vector into its finite, usable part and counts
//! of what was dropped, so downstream summaries can disclose "n of m runs
//! usable, k samples dropped" instead of either crashing on the first NaN
//! or quietly pretending the campaign was clean.

/// The result of partitioning raw samples into usable and contaminated.
#[derive(Debug, Clone, PartialEq)]
pub struct Sanitized {
    /// The finite samples, in their original order.
    pub clean: Vec<f64>,
    /// Number of NaN samples removed.
    pub dropped_nan: usize,
    /// Number of ±∞ samples removed.
    pub dropped_infinite: usize,
}

impl Sanitized {
    /// Total number of samples dropped (NaN + infinite).
    pub fn dropped(&self) -> usize {
        self.dropped_nan + self.dropped_infinite
    }

    /// Number of samples before sanitization.
    pub fn recorded(&self) -> usize {
        self.clean.len() + self.dropped()
    }

    /// Whether any sample was dropped.
    pub fn contaminated(&self) -> bool {
        self.dropped() > 0
    }

    /// Fraction of recorded samples that were dropped; 0 for an empty
    /// input.
    pub fn contamination_rate(&self) -> f64 {
        if self.recorded() == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.recorded() as f64
        }
    }
}

/// Partitions `samples` into finite values and counts of NaN / infinite
/// contaminants. Never fails: an all-contaminated (or empty) input simply
/// yields an empty `clean` vector, which downstream estimators reject
/// with their usual typed errors.
pub fn sanitize(samples: &[f64]) -> Sanitized {
    let mut clean = Vec::with_capacity(samples.len());
    let mut dropped_nan = 0usize;
    let mut dropped_infinite = 0usize;
    for &x in samples {
        if x.is_nan() {
            dropped_nan += 1;
        } else if x.is_infinite() {
            dropped_infinite += 1;
        } else {
            clean.push(x);
        }
    }
    Sanitized {
        clean,
        dropped_nan,
        dropped_infinite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_input_passes_through() {
        let s = sanitize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.clean, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.dropped(), 0);
        assert!(!s.contaminated());
        assert_eq!(s.contamination_rate(), 0.0);
        assert_eq!(s.recorded(), 3);
    }

    #[test]
    fn nan_and_inf_are_counted_separately() {
        let s = sanitize(&[
            1.0,
            f64::NAN,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        assert_eq!(s.clean, vec![1.0, 2.0]);
        assert_eq!(s.dropped_nan, 2);
        assert_eq!(s.dropped_infinite, 2);
        assert_eq!(s.dropped(), 4);
        assert!(s.contaminated());
        assert_eq!(s.recorded(), 6);
    }

    #[test]
    fn order_is_preserved() {
        let s = sanitize(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(s.clean, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_and_all_contaminated_inputs() {
        let empty = sanitize(&[]);
        assert!(empty.clean.is_empty());
        assert_eq!(empty.contamination_rate(), 0.0);

        let bad = sanitize(&[f64::NAN, f64::INFINITY]);
        assert!(bad.clean.is_empty());
        assert_eq!(bad.dropped(), 2);
        assert_eq!(bad.contamination_rate(), 1.0);
    }

    #[test]
    fn negative_zero_and_subnormals_are_clean() {
        let s = sanitize(&[-0.0, f64::MIN_POSITIVE / 2.0]);
        assert_eq!(s.clean.len(), 2);
        assert!(!s.contaminated());
    }
}
