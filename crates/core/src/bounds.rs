//! Simple bounds modeling (§5.1 of the paper, Rule 11: *if possible, show
//! upper performance bounds to facilitate interpretability*).
//!
//! Three scaling bounds of growing fidelity (Figure 7):
//!
//! 1. **Ideal linear**: `p` processes cannot speed up more than `p`×;
//! 2. **Serial overheads (Amdahl)**: speedup ≤ `1 / (b + (1−b)/p)`;
//! 3. **Parallel overheads**: additionally charge an overhead term that
//!    grows with `p` (e.g. the `Ω(log p)` of a reduction).
//!
//! Plus the machine-capability model: a machine is a vector
//! `Γ = (p₁ … p_k)` of peak feature rates, an application measurement a
//! vector `τ = (r₁ … r_k)`, and `P = (r₁/p₁ … r_k/p_k)` the dimensionless
//! performance — whose largest component is the likely bottleneck. The
//! roofline model is the `k = 2` special case.

/// A `p`-dependent overhead term, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverheadTerm {
    /// Constant overhead.
    Fixed(f64),
    /// `c · log₂ p` overhead.
    LogLinear(f64),
}

impl OverheadTerm {
    /// Evaluates the term at `p` processes.
    pub fn eval(&self, p: usize) -> f64 {
        match *self {
            OverheadTerm::Fixed(c) => c,
            OverheadTerm::LogLinear(c) => c * (p.max(1) as f64).log2(),
        }
    }
}

/// A piecewise parallel-overhead model: the first segment whose
/// `max_p >= p` applies (the last segment catches everything above).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadModel {
    segments: Vec<(usize, OverheadTerm)>,
}

impl OverheadModel {
    /// Creates a piecewise model; segments must be sorted by `max_p`
    /// ascending and non-empty.
    pub fn piecewise(segments: Vec<(usize, OverheadTerm)>) -> Self {
        assert!(
            !segments.is_empty(),
            "overhead model needs at least one segment"
        );
        assert!(
            segments.windows(2).all(|w| w[0].0 < w[1].0),
            "segments must be sorted by max_p"
        );
        Self { segments }
    }

    /// A single-term model valid for all `p`.
    pub fn uniform(term: OverheadTerm) -> Self {
        Self {
            segments: vec![(usize::MAX, term)],
        }
    }

    /// The paper's empirical Piz Daint reduction model (Figure 7):
    /// `f(p ≤ 8) = 10 ns`, `f(8 < p ≤ 16) = 0.1 ms·log₂ p`,
    /// `f(p > 16) = 0.17 ms·log₂ p`.
    pub fn paper_pi_reduction() -> Self {
        Self::piecewise(vec![
            (8, OverheadTerm::Fixed(10e-9)),
            (16, OverheadTerm::LogLinear(0.1e-3)),
            (usize::MAX, OverheadTerm::LogLinear(0.17e-3)),
        ])
    }

    /// Evaluates the overhead at `p` processes, seconds.
    pub fn eval(&self, p: usize) -> f64 {
        for &(max_p, term) in &self.segments {
            if p <= max_p {
                return term.eval(p);
            }
        }
        self.segments.last().expect("non-empty").1.eval(p)
    }
}

/// A scaling bound for a code with single-process time `base_time_s`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingBound {
    /// Ideal linear scaling: `T(p) ≥ T(1)/p`.
    IdealLinear,
    /// Amdahl: `T(p) ≥ T(1)·(b + (1−b)/p)` for serial fraction `b`.
    Amdahl {
        /// The serial fraction `b ∈ [0, 1]`.
        serial_fraction: f64,
    },
    /// Amdahl plus a `p`-dependent parallel overhead.
    ParallelOverhead {
        /// The serial fraction `b ∈ [0, 1]`.
        serial_fraction: f64,
        /// The overhead model added on top.
        overhead: OverheadModel,
    },
}

impl ScalingBound {
    /// Short label for legends.
    pub fn label(&self) -> &'static str {
        match self {
            ScalingBound::IdealLinear => "Ideal Linear Bound",
            ScalingBound::Amdahl { .. } => "Serial Overheads Bound",
            ScalingBound::ParallelOverhead { .. } => "Parallel Overheads Bound",
        }
    }

    /// Lower bound on execution time at `p` processes, seconds.
    pub fn time_bound_s(&self, base_time_s: f64, p: usize) -> f64 {
        assert!(base_time_s > 0.0 && p >= 1);
        let pf = p as f64;
        match self {
            ScalingBound::IdealLinear => base_time_s / pf,
            ScalingBound::Amdahl { serial_fraction: b } => base_time_s * (b + (1.0 - b) / pf),
            ScalingBound::ParallelOverhead {
                serial_fraction: b,
                overhead,
            } => base_time_s * (b + (1.0 - b) / pf) + overhead.eval(p),
        }
    }

    /// Upper bound on speedup at `p` processes.
    pub fn speedup_bound(&self, base_time_s: f64, p: usize) -> f64 {
        base_time_s / self.time_bound_s(base_time_s, p)
    }
}

/// A machine-capability vector `Γ`: named peak feature rates.
#[derive(Debug, Clone, PartialEq)]
pub struct CapabilityVector {
    features: Vec<(String, f64)>,
}

impl CapabilityVector {
    /// Creates a capability vector; peaks must be positive.
    pub fn new(features: &[(&str, f64)]) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        for (name, peak) in features {
            assert!(*peak > 0.0, "peak of {name} must be positive");
        }
        Self {
            features: features.iter().map(|(n, p)| (n.to_string(), *p)).collect(),
        }
    }

    /// The classic roofline pair: peak flop/s and memory bandwidth B/s.
    pub fn roofline(peak_flops: f64, mem_bandwidth: f64) -> Self {
        Self::new(&[("flops", peak_flops), ("membw", mem_bandwidth)])
    }

    /// Number of features `k`.
    pub fn k(&self) -> usize {
        self.features.len()
    }

    /// Feature names in order.
    pub fn names(&self) -> Vec<&str> {
        self.features.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Normalized performance `P = (r₁/p₁ … r_k/p_k)` of a measurement
    /// vector `τ` (achieved rates, same order).
    ///
    /// # Panics
    /// Panics if the lengths differ or an achieved rate exceeds its peak
    /// by more than 0.1 % (measurement error tolerance) — `rᵢ ≤ pᵢ` by
    /// definition.
    pub fn normalized(&self, achieved: &[f64]) -> Vec<f64> {
        assert_eq!(
            achieved.len(),
            self.features.len(),
            "feature count mismatch"
        );
        self.features
            .iter()
            .zip(achieved)
            .map(|((name, peak), &r)| {
                assert!(r >= 0.0, "achieved {name} rate must be non-negative");
                assert!(
                    r <= peak * 1.001,
                    "achieved {name} rate {r} exceeds peak {peak}"
                );
                (r / peak).min(1.0)
            })
            .collect()
    }

    /// The likely bottleneck: index and name of the feature with the
    /// highest utilization.
    pub fn bottleneck(&self, achieved: &[f64]) -> (usize, &str) {
        let norm = self.normalized(achieved);
        let mut best = 0;
        for (i, &v) in norm.iter().enumerate() {
            if v > norm[best] {
                best = i;
            }
        }
        (best, self.features[best].0.as_str())
    }

    /// Roofline attainable performance for an arithmetic intensity
    /// (flop/B); requires a `k = 2` vector built by
    /// [`CapabilityVector::roofline`].
    pub fn roofline_attainable(&self, intensity_flop_per_byte: f64) -> f64 {
        assert_eq!(self.k(), 2, "roofline requires exactly two features");
        let peak_flops = self.features[0].1;
        let mem_bw = self.features[1].1;
        (intensity_flop_per_byte * mem_bw).min(peak_flops)
    }

    /// An implementation is provably near-optimal in feature `i` if its
    /// utilization is at least `threshold` (§5.1's optimality argument:
    /// utilization ≈ 1 plus a lower-bound argument on the operation
    /// count).
    pub fn near_optimal(&self, achieved: &[f64], threshold: f64) -> bool {
        self.normalized(achieved).iter().any(|&v| v >= threshold)
    }
}

/// A fitted linear cost model `T(n) = latency + n / bandwidth`.
///
/// §5.1: "Sometimes, analytical upper bounds for Γ are far from reality
/// (the vendor-specified numbers are only guarantees to not be exceeded).
/// In these cases, one can parametrize the pᵢ using carefully crafted and
/// statistically sound microbenchmarks." This is that parametrization for
/// the two network features (latency, bandwidth): a least-squares fit of
/// measured transfer times against message sizes, with goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCostModel {
    /// Fixed cost per operation (the latency term), in the time unit of
    /// the inputs.
    pub latency: f64,
    /// Marginal cost per byte (1 / bandwidth).
    pub cost_per_byte: f64,
    /// Coefficient of determination R² of the fit.
    pub r_squared: f64,
    /// Number of (size, time) observations used.
    pub n: usize,
}

impl LinearCostModel {
    /// Fits the model to `(size_bytes, time)` pairs by ordinary least
    /// squares. Requires at least two distinct sizes.
    pub fn fit(sizes: &[f64], times: &[f64]) -> Option<Self> {
        if sizes.len() != times.len() || sizes.len() < 2 {
            return None;
        }
        if sizes.iter().chain(times.iter()).any(|v| !v.is_finite()) {
            return None;
        }
        // Compared directly: the rounded mean of identical sizes can differ
        // from them, leaving a tiny positive `sxx` and a meaningless slope.
        if sizes.iter().all(|&x| x == sizes[0]) {
            return None;
        }
        let n = sizes.len() as f64;
        let mx = sizes.iter().sum::<f64>() / n;
        let my = times.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (x, y) in sizes.iter().zip(times) {
            sxx += (x - mx) * (x - mx);
            sxy += (x - mx) * (y - my);
            syy += (y - my) * (y - my);
        }
        if sxx <= 0.0 {
            return None; // the spread of the sizes underflowed
        }
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let r_squared = if syy > 0.0 {
            (sxy * sxy) / (sxx * syy)
        } else {
            1.0
        };
        Some(Self {
            latency: intercept,
            cost_per_byte: slope,
            r_squared,
            n: sizes.len(),
        })
    }

    /// Predicted time for a message of `bytes`.
    pub fn predict(&self, bytes: f64) -> f64 {
        self.latency + self.cost_per_byte * bytes
    }

    /// Bandwidth in bytes per time unit (`1 / cost_per_byte`); `None`
    /// when the slope is non-positive (degenerate fit).
    pub fn bandwidth(&self) -> Option<f64> {
        (self.cost_per_byte > 0.0).then(|| 1.0 / self.cost_per_byte)
    }

    /// Converts the fit into a two-feature capability vector
    /// (1/latency as an operation rate, bandwidth) for the §5.1
    /// normalized-performance analysis.
    pub fn capability_vector(&self) -> Option<CapabilityVector> {
        let bw = self.bandwidth()?;
        if self.latency <= 0.0 {
            return None;
        }
        Some(CapabilityVector::new(&[
            ("msg_rate", 1.0 / self.latency),
            ("bandwidth", bw),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_bound_is_linear() {
        let b = ScalingBound::IdealLinear;
        assert_eq!(b.time_bound_s(10.0, 1), 10.0);
        assert_eq!(b.time_bound_s(10.0, 4), 2.5);
        assert_eq!(b.speedup_bound(10.0, 8), 8.0);
    }

    #[test]
    fn amdahl_limits_speedup() {
        let b = ScalingBound::Amdahl {
            serial_fraction: 0.01,
        };
        // Amdahl with b=0.01: asymptotic limit 100.
        assert!((b.speedup_bound(1.0, 1_000_000) - 100.0).abs() < 0.2);
        // At p=32: 1/(0.01 + 0.99/32) = 24.43...
        assert!((b.speedup_bound(1.0, 32) - 24.427).abs() < 1e-2);
    }

    #[test]
    fn bounds_are_ordered() {
        // Ideal ≥ Amdahl ≥ ParallelOverhead (as speedups).
        let ideal = ScalingBound::IdealLinear;
        let amdahl = ScalingBound::Amdahl {
            serial_fraction: 0.01,
        };
        let parallel = ScalingBound::ParallelOverhead {
            serial_fraction: 0.01,
            overhead: OverheadModel::paper_pi_reduction(),
        };
        for p in [1usize, 2, 4, 8, 16, 32] {
            let si = ideal.speedup_bound(20e-3, p);
            let sa = amdahl.speedup_bound(20e-3, p);
            let sp = parallel.speedup_bound(20e-3, p);
            assert!(si >= sa && sa >= sp, "p={p}: {si} {sa} {sp}");
        }
    }

    #[test]
    fn paper_reduction_model_values() {
        let m = OverheadModel::paper_pi_reduction();
        assert_eq!(m.eval(4), 10e-9);
        assert_eq!(m.eval(8), 10e-9);
        assert!((m.eval(16) - 0.4e-3).abs() < 1e-12);
        assert!((m.eval(32) - 0.85e-3).abs() < 1e-12);
    }

    #[test]
    fn parallel_overhead_explains_measurement() {
        // The bound with the paper's model should sit just below the
        // simulator's measured times.
        use scibench_sim::machine::MachineSpec;
        use scibench_sim::pi::{pi_run_s, PiConfig};
        use scibench_sim::rng::SimRng;
        let bound = ScalingBound::ParallelOverhead {
            serial_fraction: 0.01,
            overhead: OverheadModel::paper_pi_reduction(),
        };
        let m = MachineSpec::piz_daint();
        let c = PiConfig::paper_figure7();
        let mut rng = SimRng::new(1);
        for p in [1usize, 2, 8, 16, 32] {
            let measured = pi_run_s(&m, &c, p, &mut rng);
            let b = bound.time_bound_s(20e-3, p);
            assert!(measured >= b, "p={p}: measured {measured} below bound {b}");
            assert!(
                measured <= b * 1.2,
                "p={p}: bound explains poorly ({measured} vs {b})"
            );
        }
    }

    #[test]
    fn overhead_model_validation() {
        let m = OverheadModel::uniform(OverheadTerm::Fixed(1.0));
        assert_eq!(m.eval(1), 1.0);
        assert_eq!(m.eval(1_000_000), 1.0);
        assert_eq!(OverheadTerm::LogLinear(2.0).eval(8), 6.0);
    }

    #[test]
    #[should_panic(expected = "sorted by max_p")]
    fn unsorted_segments_panic() {
        OverheadModel::piecewise(vec![
            (16, OverheadTerm::Fixed(1.0)),
            (8, OverheadTerm::Fixed(2.0)),
        ]);
    }

    #[test]
    fn normalized_performance_and_bottleneck() {
        let cap = CapabilityVector::new(&[("flops", 100.0), ("membw", 50.0), ("netbw", 10.0)]);
        let norm = cap.normalized(&[50.0, 45.0, 1.0]);
        assert_eq!(norm, vec![0.5, 0.9, 0.1]);
        let (idx, name) = cap.bottleneck(&[50.0, 45.0, 1.0]);
        assert_eq!(idx, 1);
        assert_eq!(name, "membw");
        assert!(cap.near_optimal(&[50.0, 45.0, 1.0], 0.9));
        assert!(!cap.near_optimal(&[50.0, 44.0, 1.0], 0.9));
    }

    #[test]
    fn roofline_ridge_point() {
        // Peak 100 flop/s, bandwidth 10 B/s → ridge at intensity 10.
        let cap = CapabilityVector::roofline(100.0, 10.0);
        assert_eq!(cap.roofline_attainable(1.0), 10.0); // memory-bound
        assert_eq!(cap.roofline_attainable(10.0), 100.0); // ridge
        assert_eq!(cap.roofline_attainable(100.0), 100.0); // compute-bound
    }

    #[test]
    #[should_panic(expected = "exceeds peak")]
    fn normalized_rejects_above_peak() {
        CapabilityVector::new(&[("flops", 10.0)]).normalized(&[11.0]);
    }

    #[test]
    fn labels() {
        assert_eq!(ScalingBound::IdealLinear.label(), "Ideal Linear Bound");
        assert_eq!(
            ScalingBound::Amdahl {
                serial_fraction: 0.0
            }
            .label(),
            "Serial Overheads Bound"
        );
    }

    #[test]
    fn linear_cost_model_recovers_exact_parameters() {
        // T(n) = 1500 + n / 10 (latency 1500 ns, 10 B/ns).
        let sizes: Vec<f64> = (0..20).map(|i| (i * 512) as f64).collect();
        let times: Vec<f64> = sizes.iter().map(|n| 1500.0 + n / 10.0).collect();
        let m = LinearCostModel::fit(&sizes, &times).unwrap();
        assert!((m.latency - 1500.0).abs() < 1e-6);
        assert!((m.bandwidth().unwrap() - 10.0).abs() < 1e-6);
        assert!((m.r_squared - 1.0).abs() < 1e-12);
        assert!((m.predict(1024.0) - 1602.4).abs() < 1e-6);
    }

    #[test]
    fn linear_cost_model_fits_simulated_pingpong() {
        // Parametrize the Piz Dora network from noisy microbenchmarks
        // (the §5.1 workflow) and recover the configured parameters.
        use scibench_sim::machine::MachineSpec;
        use scibench_sim::pingpong::{pingpong_latencies_ns, PingPongConfig};
        use scibench_sim::rng::SimRng;
        use scibench_stats::quantile::median;

        let machine = MachineSpec::piz_dora();
        let mut rng = SimRng::new(5);
        let mut sizes = Vec::new();
        let mut times = Vec::new();
        // Stay below the eager threshold to keep the model linear.
        for bytes in [64usize, 512, 1024, 2048, 4096, 8192] {
            let mut cfg = PingPongConfig::paper_64b(300);
            cfg.bytes = bytes;
            cfg.warmup_iterations = 0;
            let lat = pingpong_latencies_ns(&machine, &cfg, &mut rng);
            sizes.push(bytes as f64);
            times.push(median(&lat).unwrap());
        }
        let m = LinearCostModel::fit(&sizes, &times).unwrap();
        assert!(m.r_squared > 0.99, "R² = {}", m.r_squared);
        // Configured: injection 1000 + 2 hops × 293 = 1586 ns latency,
        // 10 B/ns bandwidth. Noise only inflates, so expect within ~20 %.
        assert!(
            (1500.0..2100.0).contains(&m.latency),
            "latency {}",
            m.latency
        );
        let bw = m.bandwidth().unwrap();
        assert!((7.0..14.0).contains(&bw), "bandwidth {bw}");
        assert!(m.capability_vector().is_some());
    }

    #[test]
    fn linear_cost_model_rejects_degenerate_input() {
        assert!(LinearCostModel::fit(&[1.0], &[1.0]).is_none());
        assert!(LinearCostModel::fit(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(LinearCostModel::fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(LinearCostModel::fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
        // Negative slope: no bandwidth.
        let m = LinearCostModel::fit(&[0.0, 1.0], &[2.0, 1.0]).unwrap();
        assert!(m.bandwidth().is_none());
        assert!(m.capability_vector().is_none());
    }
}
