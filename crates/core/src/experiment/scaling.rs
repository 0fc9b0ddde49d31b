//! Strong and weak scaling study descriptors (§4.2 of the paper).
//!
//! "Papers should always indicate if experiments are using strong scaling
//! (constant problem size) or weak scaling (problem size grows with the
//! number of processes). Furthermore, the function for weak scaling should
//! be specified. [...] when scaling multi-dimensional domains, papers need
//! to document which dimensions are scaled."
//!
//! [`ScalingStudy`] forces those declarations into the type: a weak-scaling
//! study cannot exist without its scaling function, and multi-dimensional
//! domains carry the per-dimension growth flags. `describe()` renders the
//! exact sentence a paper must contain.

/// How the problem size relates to the process count.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingMode {
    /// Constant total problem size.
    Strong,
    /// Problem size grows with `p` under an explicit function.
    Weak(WeakScalingFn),
}

/// The weak-scaling growth function (the thing papers forget to state).
#[derive(Debug, Clone, PartialEq)]
pub enum WeakScalingFn {
    /// Total size = base · p (constant work per process).
    Linear,
    /// An n-dimensional domain where only the flagged dimensions grow;
    /// total size = base · p^(growing/total) per dimension semantics:
    /// each growing dimension is scaled by `p^(1/growing)`.
    PerDimension {
        /// One flag per domain dimension: does this dimension grow?
        grows: Vec<bool>,
    },
    /// A custom function `size(p) = base · factor(p)` described textually
    /// and tabulated at the study's process counts.
    Custom {
        /// Human-readable description, e.g. "size ∝ p log p
        /// (non-work-conserving sort)".
        description: String,
        /// `factor[i]` multiplies the base size at `process_counts[i]`.
        factors: Vec<f64>,
    },
}

/// A declared scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingStudy {
    /// Strong or weak (with its function).
    pub mode: ScalingMode,
    /// Problem size at p = 1 (elements, grid points, …).
    pub base_problem_size: f64,
    /// The process counts of the study, ascending.
    pub process_counts: Vec<usize>,
}

impl ScalingStudy {
    /// Declares a strong-scaling study.
    pub fn strong(base_problem_size: f64, process_counts: Vec<usize>) -> Self {
        assert!(base_problem_size > 0.0, "problem size must be positive");
        assert!(
            !process_counts.is_empty(),
            "need at least one process count"
        );
        Self {
            mode: ScalingMode::Strong,
            base_problem_size,
            process_counts,
        }
    }

    /// Declares a weak-scaling study with an explicit function.
    pub fn weak(base_problem_size: f64, process_counts: Vec<usize>, f: WeakScalingFn) -> Self {
        assert!(base_problem_size > 0.0, "problem size must be positive");
        assert!(
            !process_counts.is_empty(),
            "need at least one process count"
        );
        if let WeakScalingFn::Custom { factors, .. } = &f {
            assert_eq!(
                factors.len(),
                process_counts.len(),
                "custom weak scaling needs one factor per process count"
            );
        }
        if let WeakScalingFn::PerDimension { grows } = &f {
            assert!(!grows.is_empty(), "domain needs at least one dimension");
            assert!(grows.iter().any(|&g| g), "at least one dimension must grow");
        }
        Self {
            mode: ScalingMode::Weak(f),
            base_problem_size,
            process_counts,
        }
    }

    /// Total problem size at `p` processes.
    ///
    /// `p` must be one of the study's process counts for custom weak
    /// scaling (tabulated); any `p ≥ 1` otherwise.
    pub fn problem_size_at(&self, p: usize) -> Option<f64> {
        assert!(p >= 1);
        match &self.mode {
            ScalingMode::Strong => Some(self.base_problem_size),
            ScalingMode::Weak(WeakScalingFn::Linear) => Some(self.base_problem_size * p as f64),
            ScalingMode::Weak(WeakScalingFn::PerDimension { grows }) => {
                // Each growing dimension scales by p^(1/g): total domain
                // scales by p (work-conserving) but only along the
                // flagged dimensions.
                let g = grows.iter().filter(|&&x| x).count() as f64;
                let per_dim = (p as f64).powf(1.0 / g);
                Some(self.base_problem_size * per_dim.powf(g))
            }
            ScalingMode::Weak(WeakScalingFn::Custom { factors, .. }) => {
                let idx = self.process_counts.iter().position(|&q| q == p)?;
                Some(self.base_problem_size * factors[idx])
            }
        }
    }

    /// Work per process at `p` processes (the weak-scaling invariant).
    pub fn work_per_process_at(&self, p: usize) -> Option<f64> {
        Some(self.problem_size_at(p)? / p as f64)
    }

    /// The declaration sentence for the paper / report.
    pub fn describe(&self) -> String {
        match &self.mode {
            ScalingMode::Strong => format!(
                "strong scaling: constant problem size {} over p in {:?}",
                self.base_problem_size, self.process_counts
            ),
            ScalingMode::Weak(WeakScalingFn::Linear) => format!(
                "weak scaling: problem size scales linearly with p (base {}, p in {:?})",
                self.base_problem_size, self.process_counts
            ),
            ScalingMode::Weak(WeakScalingFn::PerDimension { grows }) => {
                let dims: Vec<String> = grows
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| format!("dim{}={}", i, if g { "scaled" } else { "fixed" }))
                    .collect();
                format!(
                    "weak scaling: {}-dimensional domain, {} (base {}, p in {:?})",
                    grows.len(),
                    dims.join(", "),
                    self.base_problem_size,
                    self.process_counts
                )
            }
            ScalingMode::Weak(WeakScalingFn::Custom { description, .. }) => format!(
                "weak scaling ({description}): base {}, p in {:?}",
                self.base_problem_size, self.process_counts
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_keeps_size_constant() {
        let s = ScalingStudy::strong(1e6, vec![1, 2, 4, 8]);
        for p in [1usize, 2, 4, 8] {
            assert_eq!(s.problem_size_at(p), Some(1e6));
        }
        // Work per process shrinks.
        assert_eq!(s.work_per_process_at(8), Some(1.25e5));
        assert!(s.describe().contains("strong scaling"));
    }

    #[test]
    fn linear_weak_scaling_keeps_work_constant() {
        let s = ScalingStudy::weak(1e5, vec![1, 4, 16], WeakScalingFn::Linear);
        for p in [1usize, 4, 16] {
            assert_eq!(s.work_per_process_at(p), Some(1e5));
        }
        assert_eq!(s.problem_size_at(16), Some(1.6e6));
        assert!(s.describe().contains("linearly"));
    }

    #[test]
    fn per_dimension_scaling_is_work_conserving() {
        // 3D domain, scale 2 of 3 dimensions.
        let s = ScalingStudy::weak(
            1e6,
            vec![1, 8, 64],
            WeakScalingFn::PerDimension {
                grows: vec![true, true, false],
            },
        );
        // Total still scales with p.
        assert!((s.problem_size_at(8).unwrap() - 8e6).abs() < 1e-3);
        let d = s.describe();
        assert!(d.contains("dim0=scaled"));
        assert!(d.contains("dim2=fixed"));
    }

    #[test]
    fn custom_scaling_is_tabulated() {
        let s = ScalingStudy::weak(
            1000.0,
            vec![1, 2, 4],
            WeakScalingFn::Custom {
                description: "p log2 p (non-work-conserving)".into(),
                factors: vec![1.0, 2.0, 8.0],
            },
        );
        assert_eq!(s.problem_size_at(4), Some(8000.0));
        assert_eq!(s.problem_size_at(3), None); // not in the study
        assert!(s.describe().contains("non-work-conserving"));
    }

    #[test]
    #[should_panic(expected = "one factor per process count")]
    fn custom_scaling_requires_matching_factors() {
        ScalingStudy::weak(
            1.0,
            vec![1, 2],
            WeakScalingFn::Custom {
                description: "x".into(),
                factors: vec![1.0],
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one dimension must grow")]
    fn per_dimension_requires_growth() {
        ScalingStudy::weak(
            1.0,
            vec![1, 2],
            WeakScalingFn::PerDimension {
                grows: vec![false, false],
            },
        );
    }

    #[test]
    #[should_panic(expected = "problem size must be positive")]
    fn rejects_nonpositive_size() {
        ScalingStudy::strong(0.0, vec![1]);
    }
}
