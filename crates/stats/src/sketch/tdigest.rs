//! A merging t-digest quantile sketch (Dunning & Ertl).
//!
//! Centroids are kept sorted by mean; incoming samples buffer and are
//! periodically folded in by a single merge pass bounded by the k₁ scale
//! function `k(q) = δ·(asin(2q−1)/π + 1/2)`, which keeps centroids small
//! near the tails (accurate extreme quantiles — exactly where latency
//! distributions matter) and large in the middle. Memory is O(δ)
//! regardless of how many samples stream through.
//!
//! Every operation is a pure function of the current state, so a digest
//! built from the same sequence of pushes has identical bits on every
//! thread — the property the campaign-level determinism rests on.

use std::borrow::Cow;

use crate::error::{StatsError, StatsResult};
use crate::f64_to_hex;
use crate::sort::{from_order_key, order_key, sort_keys};

use super::MergeableSummary;

/// One weighted cluster of nearby samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// Streaming quantile sketch; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TDigest {
    delta: u32,
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    n: u64,
    non_finite: u64,
    min: f64,
    max: f64,
}

/// Buffered samples per compression pass, as a multiple of δ. Larger
/// buffers amortize the O(m log m) buffer sort over more pushes.
const BUFFER_FACTOR: usize = 8;

/// Half-width of the q window around an inverted k-limit inside which a
/// merge decision is made by `k_scale` itself. The exact threshold and the
/// inverted limit differ by a few 1e-16 in absolute terms, but by up to
/// 1e-9 relative to q deep in the tails, so the window is absolute; 1e-12
/// leaves a margin of over 4 000×.
const Q_WINDOW: f64 = 1e-12;

fn k_scale(q: f64, delta: f64) -> f64 {
    delta * ((2.0 * q - 1.0).clamp(-1.0, 1.0).asin() / std::f64::consts::PI + 0.5)
}

/// The merge test `k_scale(q, delta) <= k` with k₁ inverted once per
/// output centroid: q below `lo` passes and q above `hi` fails without a
/// call to `asin`; only q inside the window, or NaN, calls `k_scale`.
struct KLimit {
    k: f64,
    lo: f64,
    hi: f64,
}

impl KLimit {
    /// `k` is `k_scale(·) + 1 ≥ 1`, so `k/δ − ½` is above −½ (or NaN, which
    /// makes both window edges NaN and every decision exact).
    fn new(k: f64, delta: f64) -> Self {
        let t = k / delta - 0.5;
        if t >= 0.5 {
            // At or past k(1) = δ: every q up to 1 passes, and the clamp in
            // `k_scale` decides the rest.
            return Self {
                k,
                lo: 1.0 - Q_WINDOW,
                hi: f64::INFINITY,
            };
        }
        let q = ((std::f64::consts::PI * t).sin() + 1.0) * 0.5;
        Self {
            k,
            lo: q - Q_WINDOW,
            hi: q + Q_WINDOW,
        }
    }

    fn admits(&self, q: f64, delta: f64) -> bool {
        if q < self.lo {
            true
        } else if q > self.hi {
            false
        } else {
            k_scale(q, delta) <= self.k
        }
    }
}

/// `a < b` in the lexicographic `(mean, weight)` order of `partial_cmp`,
/// under which `-0.0` and `+0.0` are equal.
fn precedes(a: &Centroid, b: &Centroid) -> bool {
    a.mean < b.mean || (a.mean == b.mean && a.weight < b.weight)
}

/// `run` in `(mean, weight)` order, as a stable sort leaves it. A
/// compress leaves its output in this order unless rounding moved a mean
/// past its neighbour's, so the O(m) check is kept and the stable sort is
/// the fallback.
fn sorted_centroids(run: &[Centroid]) -> Cow<'_, [Centroid]> {
    if run.windows(2).all(|w| !precedes(&w[1], &w[0])) {
        return Cow::Borrowed(run);
    }
    let mut sorted = run.to_vec();
    sorted.sort_by(|a, b| {
        (a.mean, a.weight)
            .partial_cmp(&(b.mean, b.weight))
            .expect("the compress keeps centroids free of NaN")
    });
    Cow::Owned(sorted)
}

/// Weight-1 centroids of the finite `values`, in the order a stable sort
/// by value gives: ascending, equal values in input order. The centroids
/// are built straight from the sorted keys.
fn sorted_run(values: &[f64]) -> Vec<Centroid> {
    let mut keys: Vec<u64> = values.iter().map(|&x| order_key(x)).collect();
    sort_keys(&mut keys);
    keys.into_iter()
        .map(|k| Centroid {
            mean: from_order_key(k),
            weight: 1.0,
        })
        .collect()
}

/// `a + t·(b − a)` for `t ∈ [0, 1]`. Two finite values of opposite sign
/// can lie more than f64::MAX apart; then `(1 − t)·a + t·b`, which cannot
/// overflow, takes over.
fn interpolate(a: f64, b: f64, t: f64) -> f64 {
    let step = b - a;
    if step.is_finite() {
        a + t * step
    } else {
        (1.0 - t) * a + t * b
    }
}

/// Stable merge of two `(mean, weight)`-ordered runs: ties take `a`'s
/// element first, as a stable sort of `a` followed by `b` does.
fn merge_runs(a: &[Centroid], b: &[Centroid]) -> Vec<Centroid> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if precedes(&b[j], &a[i]) {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl TDigest {
    /// Creates an empty digest with compression parameter `delta`
    /// (10 ≤ δ ≤ 10 000; ~100–500 is typical, larger is more accurate).
    pub fn new(delta: u32) -> StatsResult<Self> {
        if !(10..=10_000).contains(&delta) {
            return Err(StatsError::InvalidParameter {
                name: "delta",
                value: delta as f64,
            });
        }
        Ok(Self {
            delta,
            centroids: Vec::new(),
            buffer: Vec::new(),
            n: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// The compression parameter δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Exact smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Exact largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Number of centroids currently held (after an internal flush the
    /// count is bounded by ~2δ).
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Estimated resident bytes: centroid list + buffer.
    pub fn resident_bytes(&self) -> usize {
        self.centroids.capacity() * std::mem::size_of::<Centroid>()
            + self.buffer.capacity() * 8
            + std::mem::size_of::<Self>()
    }

    fn buffer_capacity(&self) -> usize {
        BUFFER_FACTOR * self.delta as usize
    }

    /// Folds the buffer into the centroid list with one bounded pass.
    ///
    /// The pass reads the centroids and the buffer in the order a stable
    /// sort by `(mean, weight)` of their concatenation gives, so its output
    /// has the bits of sorting everything together. Sorted runs build that
    /// order: only the buffer is sorted, and a linear merge joins the runs.
    fn compress(&mut self) {
        let pending = merge_runs(
            &sorted_centroids(&self.centroids),
            &sorted_run(&self.buffer),
        );
        self.buffer.clear();
        let Some((&first, rest)) = pending.split_first() else {
            return;
        };
        let total: f64 = pending.iter().map(|c| c.weight).sum();
        let delta = self.delta as f64;
        let mut out: Vec<Centroid> = Vec::with_capacity(2 * self.delta as usize);
        let mut cur = first;
        let mut w_done = 0.0;
        let mut limit = KLimit::new(k_scale(0.0, delta) + 1.0, delta);
        for &c in rest {
            let q = (w_done + cur.weight + c.weight) / total;
            if limit.admits(q, delta) {
                // Weighted incremental mean keeps the update stable.
                let f = c.weight / (cur.weight + c.weight);
                cur.mean = interpolate(cur.mean, c.mean, f);
                cur.weight += c.weight;
            } else {
                w_done += cur.weight;
                limit = KLimit::new(k_scale(w_done / total, delta) + 1.0, delta);
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`), interpolated between centroid
    /// means, anchored at the exact min/max.
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
        if !self.buffer.is_empty() {
            let mut flushed = self.clone();
            flushed.compress();
            return flushed.quantile(p);
        }
        let total: f64 = self.centroids.iter().map(|c| c.weight).sum();
        let index = p * total;
        // Centroid i covers [cum, cum + w); its mean sits at the midpoint.
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if index <= mid {
                let span = mid - prev_mid;
                let t = if span > 0.0 {
                    (index - prev_mid) / span
                } else {
                    1.0
                };
                return Ok(interpolate(prev_mean, c.mean, t));
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let span = total - prev_mid;
        let t = if span > 0.0 {
            (index - prev_mid) / span
        } else {
            1.0
        };
        Ok(interpolate(prev_mean, self.max, t))
    }

    /// Median estimate.
    pub fn median(&self) -> StatsResult<f64> {
        self.quantile(0.5)
    }
}

impl MergeableSummary for TDigest {
    fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.buffer.push(x);
        if self.buffer.len() >= self.buffer_capacity() {
            self.compress();
        }
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    fn to_record(&self) -> String {
        // Buffered samples are flushed into a copy, so taking a record
        // leaves this digest, and the bits of its later pushes, unchanged.
        if !self.buffer.is_empty() {
            let mut flushed = self.clone();
            flushed.compress();
            return flushed.to_record();
        }
        let centroids: Vec<String> = self
            .centroids
            .iter()
            .map(|c| format!("{}:{}", f64_to_hex(c.mean), f64_to_hex(c.weight)))
            .collect();
        format!(
            "td1;{};{};{};{};{};{}",
            self.delta,
            self.n,
            self.non_finite,
            f64_to_hex(self.min),
            f64_to_hex(self.max),
            centroids.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_of(sorted: &[f64], x: f64) -> f64 {
        let below = sorted.partition_point(|&v| v <= x);
        below as f64 / sorted.len() as f64
    }

    fn heavy_tailed(n: usize) -> Vec<f64> {
        // Deterministic Pareto-like tail via inverse transform on a
        // low-discrepancy sequence.
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                let u = (u * 0.618_033_988_749_894_8).fract().max(1e-9);
                (1.0 / (1.0 - u)).powf(1.16)
            })
            .collect()
    }

    #[test]
    fn quantiles_track_exact_ranks() {
        let xs = heavy_tailed(50_000);
        let mut d = TDigest::new(200).unwrap();
        for &x in &xs {
            d.push(x);
        }
        let sorted = crate::sorted_copy(&xs);
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = d.quantile(p).unwrap();
            let err = (rank_of(&sorted, est) - p).abs();
            assert!(err <= 0.01, "p={p}: rank error {err}");
        }
        assert_eq!(d.quantile(0.0).unwrap(), sorted[0]);
        assert_eq!(d.quantile(1.0).unwrap(), *sorted.last().unwrap());
        assert!(d.centroid_count() <= 2 * 200);
    }

    #[test]
    fn push_sequence_is_deterministic() {
        let xs = heavy_tailed(10_000);
        let build = || {
            let mut d = TDigest::new(150).unwrap();
            for &x in &xs {
                d.push(x);
            }
            d
        };
        assert_eq!(build().to_record(), build().to_record());
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(TDigest::new(5).is_err());
        assert!(TDigest::new(20_000).is_err());
        let a = TDigest::new(100).unwrap();
        assert!(matches!(
            a.quantile(1.5),
            Err(StatsError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn non_finite_only_digest_stays_empty() {
        let mut d = TDigest::new(100).unwrap();
        d.push(f64::NAN);
        d.push(f64::INFINITY);
        assert_eq!(d.count(), 0);
        assert_eq!(d.non_finite_count(), 2);
        assert_eq!(d.min(), None);
        assert!(d.quantile(0.5).is_err());
        // The record keeps the quarantine count and the ±∞ extrema.
        assert_eq!(
            d.to_record(),
            "td1;100;0;2;7ff0000000000000;fff0000000000000;"
        );
    }

    /// The compress this module had before the sorted-runs merge: it
    /// stable-sorts centroids and buffer together as `(mean, weight)`
    /// tuples and calls `k_scale` for every element. Kept as the
    /// bit-for-bit oracle of [`TDigest::compress`].
    fn oracle_compress(d: &mut TDigest) {
        let mut pending: Vec<Centroid> = Vec::with_capacity(d.centroids.len() + d.buffer.len());
        pending.append(&mut d.centroids);
        pending.extend(d.buffer.drain(..).map(|x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        if pending.is_empty() {
            return;
        }
        pending.sort_by(|a, b| {
            (a.mean, a.weight)
                .partial_cmp(&(b.mean, b.weight))
                .expect("centroids are finite")
        });
        let total: f64 = pending.iter().map(|c| c.weight).sum();
        let delta = d.delta as f64;
        let mut out: Vec<Centroid> = Vec::with_capacity(2 * d.delta as usize);
        let mut iter = pending.into_iter();
        let mut cur = iter.next().expect("pending non-empty");
        let mut w_done = 0.0;
        let mut k_limit = k_scale(0.0, delta) + 1.0;
        for c in iter {
            let q = (w_done + cur.weight + c.weight) / total;
            if k_scale(q, delta) <= k_limit {
                cur.mean += c.weight / (cur.weight + c.weight) * (c.mean - cur.mean);
                cur.weight += c.weight;
            } else {
                w_done += cur.weight;
                k_limit = k_scale(w_done / total, delta) + 1.0;
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        d.centroids = out;
    }

    /// [`MergeableSummary::push`] on top of the oracle compress.
    fn oracle_push(d: &mut TDigest, x: f64) {
        if !x.is_finite() {
            d.non_finite += 1;
            return;
        }
        d.n += 1;
        d.min = d.min.min(x);
        d.max = d.max.max(x);
        d.buffer.push(x);
        if d.buffer.len() >= d.buffer_capacity() {
            oracle_compress(d);
        }
    }

    /// [`MergeableSummary::to_record`] on top of the oracle compress.
    fn oracle_record(d: &TDigest) -> String {
        let mut flushed = d.clone();
        if !flushed.buffer.is_empty() {
            oracle_compress(&mut flushed);
        }
        flushed.to_record()
    }

    /// A digest and its oracle twin fed the same values.
    fn both(delta: u32, xs: &[f64]) -> (TDigest, TDigest) {
        let mut new = TDigest::new(delta).unwrap();
        let mut old = TDigest::new(delta).unwrap();
        for &x in xs {
            new.push(x);
            oracle_push(&mut old, x);
        }
        (new, old)
    }

    /// The input families of the oracle comparison, `n` values each.
    fn families(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |f: &mut dyn FnMut(&mut StdRng) -> f64| -> Vec<f64> {
            (0..n).map(|_| f(&mut rng)).collect()
        };
        vec![
            (
                "shifted exponential",
                draw(&mut |r| 0.1 - r.gen::<f64>().max(1e-300).ln()),
            ),
            ("uniform", draw(&mut |r| r.gen::<f64>())),
            (
                "few distinct",
                draw(&mut |r| (r.gen::<f64>() * 4.0).floor()),
            ),
            ("signed", draw(&mut |r| (r.gen::<f64>() - 0.5) * 1e3)),
            (
                "pareto tail",
                draw(&mut |r| (1.0 - r.gen::<f64>()).powf(-1.0 / 1.16)),
            ),
            (
                "subnormal",
                draw(&mut |r| {
                    let x = f64::from_bits(r.gen::<u64>() % (1 << 52));
                    if r.gen::<bool>() {
                        -x
                    } else {
                        x
                    }
                }),
            ),
            (
                "signed zeros",
                draw(&mut |r| [-0.0, 0.0, 0.0, -0.0, 1.0, 2.0][r.gen_range(0..6usize)]),
            ),
        ]
    }

    #[test]
    fn compress_matches_the_sort_oracle_bit_for_bit() {
        for (i, delta) in [10, 37, 50, 100, 200, 500, 1000, 10_000]
            .into_iter()
            .enumerate()
        {
            let buffer = BUFFER_FACTOR * delta as usize;
            // One long stream per δ, cycling through the families.
            let long = if delta == 200 { 200_000 } else { 30_000 };
            let all = families(long.max(buffer + 1), i as u64);
            for (j, (family, xs)) in all.iter().enumerate() {
                let mut lengths = vec![1, 7, 1_599, 1_600, 1_601, buffer - 1, buffer, buffer + 1];
                if j == i % all.len() {
                    lengths.push(long);
                }
                for len in lengths {
                    let (new, old) = both(delta, &xs[..len]);
                    assert_eq!(
                        new.to_record(),
                        oracle_record(&old),
                        "δ={delta} {family} n={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_run_keeps_signed_zeros_in_push_order() {
        let xs = [0.0, -1.0, -0.0, 0.0, 2.0, -0.0, -0.0, 0.0, -1.0];
        let bits: Vec<u64> = sorted_run(&xs).iter().map(|c| c.mean.to_bits()).collect();
        let want: Vec<u64> = [-1.0, -1.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 2.0]
            .iter()
            .map(|x: &f64| x.to_bits())
            .collect();
        assert_eq!(bits, want);
        for x in [
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            f64::MAX,
        ] {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn window_decides_like_k_scale_around_each_threshold() {
        for delta in [10.0, 200.0, 10_000.0] {
            for total in [1e3f64, 1e6, 1e9, 1e12] {
                let mut done = vec![0.0, 1.0, 2.0, 10.0];
                for frac in [
                    1e-9,
                    1e-6,
                    1e-3,
                    0.1,
                    0.25,
                    0.5,
                    0.75,
                    0.9,
                    0.999,
                    1.0 - 1e-6,
                ] {
                    done.push((total * frac).round());
                }
                done.extend([total - 10.0, total - 2.0, total - 1.0]);
                for w in done {
                    let k = k_scale(w / total, delta) + 1.0;
                    let limit = KLimit::new(k, delta);
                    let exact = |q: f64| k_scale(q, delta) <= k;
                    // The largest q in [0, 1] that fits, by bisection over
                    // bit patterns (ordered like the non-negative floats).
                    let threshold = if exact(1.0) {
                        1.0
                    } else {
                        let (mut lo, mut hi) = (0.0f64.to_bits(), 1.0f64.to_bits());
                        while hi - lo > 1 {
                            let mid = lo + (hi - lo) / 2;
                            if exact(f64::from_bits(mid)) {
                                lo = mid;
                            } else {
                                hi = mid;
                            }
                        }
                        f64::from_bits(lo)
                    };
                    for q in [
                        threshold,
                        threshold.next_up(),
                        limit.lo,
                        limit.lo.next_down(),
                        limit.hi,
                        limit.hi.next_up(),
                    ] {
                        assert_eq!(
                            limit.admits(q, delta),
                            exact(q),
                            "δ={delta} total={total} w={w} q={q:e} threshold={threshold:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn means_of_extreme_values_stay_finite() {
        // The mean update used to overflow to ±inf, then NaN, and the next
        // compress panicked ordering it.
        let mut d = TDigest::new(200).unwrap();
        for i in 0..20_000 {
            d.push(if i % 2 == 0 { -1.7e308 } else { f64::MAX });
        }
        d.compress();
        assert!(d.centroids.iter().all(|c| c.mean.is_finite()));
    }

    #[test]
    fn quantiles_between_extreme_means_stay_finite() {
        // Interpolating between centroid means near -f64::MAX and f64::MAX
        // used to overflow to +inf.
        for (delta, n) in [(100, 2), (100, 4), (10, 1000), (200, 20_000)] {
            let mut d = TDigest::new(delta).unwrap();
            for i in 0..n {
                d.push(if i % 2 == 0 { -f64::MAX } else { 1.7e308 });
            }
            let (min, max) = (d.min().unwrap(), d.max().unwrap());
            for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let q = d.quantile(p).unwrap();
                assert!(
                    q.is_finite() && (min..=max).contains(&q),
                    "δ = {delta}, n = {n}, p = {p}: {q}"
                );
            }
        }
    }
}
