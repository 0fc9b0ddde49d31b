//! A fixed-grid histogram/ECDF sketch with bit-associative merge.
//!
//! Unlike the t-digest, the grid is chosen **up front** and shared by all
//! workers, so merging is pure `u64` counter addition — associative and
//! commutative down to the last bit, proptested over arbitrary merge
//! trees. Samples outside `[lo, hi)` land in explicit underflow/overflow
//! bins (total, never silently dropped), and non-finite samples are
//! quarantined like everywhere else in this crate.

use crate::error::{StatsError, StatsResult};
use crate::histogram::Histogram;
use crate::{f64_from_hex, f64_to_hex};

use super::{check_merge_counts, parse_count, MergeableSummary};

/// The shared grid every worker must agree on: `bins` equal-width bins
/// covering `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Left edge of the first bin.
    pub lo: f64,
    /// Right edge of the last bin (exclusive; exactly-`hi` samples count
    /// as overflow).
    pub hi: f64,
    /// Number of interior bins.
    pub bins: usize,
}

/// Mergeable fixed-grid histogram/ECDF sketch; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSketch {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    n: u64,
    non_finite: u64,
}

impl GridSketch {
    /// Creates an empty sketch over `spec`. Errors when the range is not
    /// finite and ascending, `bins` is zero, or the per-bin width
    /// degenerates to zero.
    pub fn new(spec: GridSpec) -> StatsResult<Self> {
        if !(spec.lo.is_finite() && spec.hi.is_finite() && spec.hi > spec.lo) {
            return Err(StatsError::InvalidParameter {
                name: "grid range",
                value: spec.hi - spec.lo,
            });
        }
        if spec.bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        let width = (spec.hi - spec.lo) / spec.bins as f64;
        if !valid_geometry(spec.lo, width) {
            return Err(StatsError::InvalidParameter {
                name: "bin width",
                value: width,
            });
        }
        Ok(Self {
            lo: spec.lo,
            width,
            counts: vec![0; spec.bins],
            underflow: 0,
            overflow: 0,
            n: 0,
            non_finite: 0,
        })
    }

    /// Left edge of the grid.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Uniform bin width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of interior bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Interior bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimated resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.counts.capacity() * 8 + std::mem::size_of::<Self>()
    }

    /// ECDF estimate `F(x)`: fraction of finite samples ≤ `x`, linearly
    /// interpolated within the containing bin. Underflow mass is treated
    /// as lying just below `lo` and overflow mass just above `hi`, so the
    /// curve is 0 before the grid and 1 after it — the resolution limit of
    /// a fixed grid, disclosed rather than hidden.
    pub fn ecdf(&self, x: f64) -> StatsResult<f64> {
        if self.n == 0 {
            return Err(StatsError::EmptySample);
        }
        if x.is_nan() {
            return Err(StatsError::NonFiniteSample);
        }
        if x < self.lo {
            return Ok(0.0);
        }
        let hi = self.lo + self.width * self.counts.len() as f64;
        if x >= hi {
            return Ok(1.0);
        }
        let pos = (x - self.lo) / self.width;
        let idx = (pos as usize).min(self.counts.len() - 1);
        let frac = (pos - idx as f64).clamp(0.0, 1.0);
        let below: u64 = self.counts[..idx].iter().sum();
        let partial = self.counts[idx] as f64 * frac;
        Ok((self.underflow as f64 + below as f64 + partial) / self.n as f64)
    }

    /// Inverse-ECDF `p`-quantile, linearly interpolated within the
    /// containing bin and clamped to `[lo, hi]` when the target rank falls
    /// into underflow/overflow mass (the grid cannot resolve beyond its
    /// edges; pair with a [`super::TDigest`] when tails matter).
    pub fn quantile(&self, p: f64) -> StatsResult<f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidProbability {
                name: "p",
                value: p,
            });
        }
        if self.n == 0 {
            return Err(StatsError::EmptySample);
        }
        let target = p * self.n as f64;
        if target <= self.underflow as f64 {
            return Ok(self.lo);
        }
        let mut cum = self.underflow as f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                let frac = (target - cum) / c as f64;
                return Ok(self.lo + (i as f64 + frac) * self.width);
            }
            cum = next;
        }
        Ok(self.lo + self.width * self.counts.len() as f64)
    }

    /// A reporting [`Histogram`] over the interior bins (underflow and
    /// overflow are not part of the plotted range; read them from
    /// [`GridSketch::underflow`]/[`GridSketch::overflow`] and disclose).
    pub fn to_histogram(&self) -> Histogram {
        let bins = self.counts.len();
        let edges = (0..=bins)
            .map(|i| self.lo + i as f64 * self.width)
            .collect();
        Histogram {
            edges,
            counts: self.counts.clone(),
            n: self.counts.iter().sum::<u64>() as usize,
        }
    }

    /// Refuses a merge of another geometry, or one whose summed count
    /// would pass 2⁵³. Every bin count is at most `n` (a record whose
    /// counts do not add up to `n` does not load), so no bin can pass it
    /// either.
    pub(crate) fn check_merge(&self, other: &Self) -> StatsResult<()> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.width.to_bits() != other.width.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(StatsError::MismatchedSketch("grid geometry differs"));
        }
        check_merge_counts(self, other)
    }
}

/// Whether bins of `width` from `lo` make a grid: `lo` is finite, and
/// `width` is finite and positive. [`GridSketch::new`] builds only such
/// grids, and [`MergeableSummary::from_record`] loads only such grids.
fn valid_geometry(lo: f64, width: f64) -> bool {
    lo.is_finite() && width.is_finite() && width > 0.0
}

impl MergeableSummary for GridSketch {
    fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        self.check_merge(other)?;
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.n += other.n;
        self.non_finite += other.non_finite;
        Ok(())
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    fn to_record(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "gs1;{};{};{};{};{};{};{}",
            f64_to_hex(self.lo),
            f64_to_hex(self.width),
            self.n,
            self.non_finite,
            self.underflow,
            self.overflow,
            counts.join(",")
        )
    }

    fn from_record(record: &str) -> StatsResult<Self> {
        let parts: Vec<&str> = record.split(';').collect();
        if parts.len() != 8 || parts[0] != "gs1" {
            return Err(StatsError::MalformedSketch("expected 8-part gs1 record"));
        }
        let mut counts = Vec::new();
        if !parts[7].is_empty() {
            for c in parts[7].split(',') {
                counts.push(parse_count(c)?);
            }
        }
        if counts.is_empty() {
            return Err(StatsError::MalformedSketch("grid record has no bins"));
        }
        let grid = Self {
            lo: f64_from_hex(parts[1])?,
            width: f64_from_hex(parts[2])?,
            n: parse_count(parts[3])?,
            non_finite: parse_count(parts[4])?,
            underflow: parse_count(parts[5])?,
            overflow: parse_count(parts[6])?,
            counts,
        };
        if !valid_geometry(grid.lo, grid.width) {
            return Err(StatsError::MalformedSketch(
                "grid lo or bin width out of range",
            ));
        }
        // Each finite push lands in exactly one of these.
        let binned: u128 = [grid.underflow, grid.overflow]
            .iter()
            .chain(&grid.counts)
            .map(|&c| u128::from(c))
            .sum();
        if binned != u128::from(grid.n) {
            return Err(StatsError::MalformedSketch("bin counts do not add up to n"));
        }
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 20,
        }
    }

    #[test]
    fn counts_underflow_overflow_and_interior() {
        let mut g = GridSketch::new(spec()).unwrap();
        for &x in &[-1.0, 0.0, 0.4, 5.0, 9.99, 10.0, 42.0, f64::NAN] {
            g.push(x);
        }
        assert_eq!(g.count(), 7);
        assert_eq!(g.non_finite_count(), 1);
        assert_eq!(g.underflow(), 1);
        assert_eq!(g.overflow(), 2); // 10.0 is exclusive, 42.0 is beyond
        assert_eq!(g.counts().iter().sum::<u64>(), 4);
        assert_eq!(g.counts()[0], 2); // 0.0 and 0.4
    }

    #[test]
    fn ecdf_and_quantile_are_consistent() {
        let mut g = GridSketch::new(spec()).unwrap();
        let xs: Vec<f64> = (0..10_000).map(|i| (i % 1000) as f64 * 0.01).collect();
        for &x in &xs {
            g.push(x);
        }
        // Uniform on [0, 10): F(5) ≈ 0.5, q(0.25) ≈ 2.5.
        assert!((g.ecdf(5.0).unwrap() - 0.5).abs() < 0.01);
        assert!((g.quantile(0.25).unwrap() - 2.5).abs() < 0.05);
        assert_eq!(g.ecdf(-3.0).unwrap(), 0.0);
        assert_eq!(g.ecdf(11.0).unwrap(), 1.0);
        // Quantile targets inside the underflow mass clamp to lo.
        let mut with_under = GridSketch::new(spec()).unwrap();
        with_under.push(-5.0);
        with_under.push(1.0);
        assert_eq!(with_under.quantile(0.2).unwrap(), 0.0);
    }

    #[test]
    fn merge_is_exact_counter_addition() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.173).sin() * 6.0 + 4.0)
            .collect();
        let mut whole = GridSketch::new(spec()).unwrap();
        let mut a = GridSketch::new(spec()).unwrap();
        let mut b = GridSketch::new(spec()).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        // Both merge orders give bits identical to the single-pass sketch.
        let mut ab = a.clone();
        ab.merge_from(&b).unwrap();
        let mut ba = b.clone();
        ba.merge_from(&a).unwrap();
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(ab.to_record(), whole.to_record());
    }

    #[test]
    fn mismatched_grids_refuse_to_merge() {
        let mut a = GridSketch::new(spec()).unwrap();
        let b = GridSketch::new(GridSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 21,
        })
        .unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(StatsError::MismatchedSketch(_))
        ));
        let c = GridSketch::new(GridSpec {
            lo: 0.5,
            hi: 10.5,
            bins: 20,
        })
        .unwrap();
        assert!(matches!(
            a.merge_from(&c),
            Err(StatsError::MismatchedSketch(_))
        ));
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let mut g = GridSketch::new(spec()).unwrap();
        for &x in &[-2.0, 3.3, f64::INFINITY, 7.7, 100.0] {
            g.push(x);
        }
        let record = g.to_record();
        let back = GridSketch::from_record(&record).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_record(), record);
        assert!(GridSketch::from_record("gs1;zz").is_err());
    }

    #[test]
    fn invalid_specs_rejected() {
        for bad in [
            GridSpec {
                lo: 1.0,
                hi: 1.0,
                bins: 4,
            },
            GridSpec {
                lo: 0.0,
                hi: f64::INFINITY,
                bins: 4,
            },
            GridSpec {
                lo: 0.0,
                hi: 1.0,
                bins: 0,
            },
        ] {
            assert!(GridSketch::new(bad).is_err(), "{bad:?} accepted");
        }
        let empty = GridSketch::new(spec()).unwrap();
        assert!(matches!(empty.ecdf(1.0), Err(StatsError::EmptySample)));
        assert!(matches!(empty.quantile(0.5), Err(StatsError::EmptySample)));
    }

    #[test]
    fn new_refuses_a_bin_width_that_is_zero_or_infinite() {
        let width = |lo, hi, bins| match GridSketch::new(GridSpec { lo, hi, bins }) {
            Err(StatsError::InvalidParameter { name, .. }) => Err(name),
            other => Ok(other.unwrap().width()),
        };
        // Half the least subnormal rounds to 0; the widest range overflows.
        assert_eq!(width(0.0, f64::from_bits(1), 2), Err("bin width"));
        assert_eq!(width(-f64::MAX, f64::MAX, 1), Err("bin width"));
        assert_eq!(width(0.0, f64::from_bits(2), 2), Ok(f64::from_bits(1)));
    }

    #[test]
    fn histogram_view_is_total() {
        let mut g = GridSketch::new(spec()).unwrap();
        g.push(1.0);
        g.push(100.0); // overflow, not in the histogram view
        let h = g.to_histogram();
        assert_eq!(h.n, 1);
        assert_eq!(h.edges.len(), 21);
        assert!(h.density(2).is_finite());
    }
}
