//! Factorial experimental design (§4 of the paper).
//!
//! "We recommend factorial design to compare the influence of multiple
//! factors, each at various different levels, on the measured
//! performance." A [`Design`] is a set of named [`Factor`]s with explicit
//! levels; [`Design::full_factorial`] enumerates the cross product and
//! [`Design::randomized_order`] shuffles the run order with a seeded RNG —
//! the §4.1.1 randomization defence against uncontrollable environment
//! parameters ("Hunold et al. randomly change the execution order").

use scibench_sim::rng::SimRng;

/// One experimental factor with its levels, e.g. "processes" at
/// `[2, 4, 8, ...]` or "system" at `["dora", "pilatus"]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Factor name.
    pub name: String,
    /// The levels (values) this factor takes, as strings for generality;
    /// numeric factors can use [`Factor::numeric`].
    pub levels: Vec<String>,
}

impl Factor {
    /// Creates a factor from string levels.
    pub fn new(name: &str, levels: &[&str]) -> Self {
        Self {
            name: name.to_owned(),
            levels: levels.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Creates a numeric factor.
    pub fn numeric(name: &str, levels: &[f64]) -> Self {
        Self {
            name: name.to_owned(),
            levels: levels.iter().map(|v| format!("{v}")).collect(),
        }
    }

    /// Number of levels.
    pub fn arity(&self) -> usize {
        self.levels.len()
    }
}

/// One point of the design: a (factor → level) assignment, stored as
/// parallel vectors in factor order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPoint {
    /// The chosen level per factor, in design factor order.
    pub levels: Vec<String>,
}

impl RunPoint {
    /// The level of factor `i`.
    pub fn level(&self, i: usize) -> &str {
        &self.levels[i]
    }
}

/// A factorial design over a set of factors.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    factors: Vec<Factor>,
}

impl Design {
    /// Creates a design; every factor must have at least one level.
    ///
    /// # Panics
    /// Panics on an empty factor list or a factor without levels.
    pub fn new(factors: Vec<Factor>) -> Self {
        assert!(!factors.is_empty(), "a design needs at least one factor");
        for f in &factors {
            assert!(!f.levels.is_empty(), "factor {} has no levels", f.name);
        }
        Self { factors }
    }

    /// The factors of the design.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Total number of points in the full factorial (product of arities).
    pub fn size(&self) -> usize {
        self.factors.iter().map(Factor::arity).product()
    }

    /// Enumerates the full factorial in lexicographic order (last factor
    /// varies fastest).
    pub fn full_factorial(&self) -> Vec<RunPoint> {
        let mut points = Vec::with_capacity(self.size());
        let mut idx = vec![0usize; self.factors.len()];
        loop {
            points.push(RunPoint {
                levels: idx
                    .iter()
                    .zip(&self.factors)
                    .map(|(&i, f)| f.levels[i].clone())
                    .collect(),
            });
            // Odometer increment.
            let mut k = self.factors.len();
            loop {
                if k == 0 {
                    return points;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.factors[k].arity() {
                    break;
                }
                idx[k] = 0;
                if k == 0 {
                    return points;
                }
            }
        }
    }

    /// Full factorial with `replications` copies of every point, in a
    /// seeded random order (§4.1.1: model uncontrollable parameters by
    /// randomizing the execution order).
    pub fn randomized_order(&self, replications: usize, seed: u64) -> Vec<RunPoint> {
        assert!(replications > 0, "need at least one replication");
        let base = self.full_factorial();
        let mut runs = Vec::with_capacity(base.len() * replications);
        for _ in 0..replications {
            runs.extend(base.iter().cloned());
        }
        let mut rng = SimRng::new(seed).fork("design-order");
        rng.shuffle(&mut runs);
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["dora", "pilatus"]),
            Factor::numeric("procs", &[2.0, 4.0, 8.0]),
        ])
    }

    #[test]
    fn size_is_product_of_arities() {
        assert_eq!(demo_design().size(), 6);
    }

    #[test]
    fn full_factorial_enumerates_all_points() {
        let points = demo_design().full_factorial();
        assert_eq!(points.len(), 6);
        // Lexicographic: last factor fastest.
        assert_eq!(points[0].levels, vec!["dora", "2"]);
        assert_eq!(points[1].levels, vec!["dora", "4"]);
        assert_eq!(points[3].levels, vec!["pilatus", "2"]);
        // All distinct.
        let mut set = points.clone();
        set.dedup();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn single_factor_design() {
        let d = Design::new(vec![Factor::new("x", &["a"])]);
        assert_eq!(d.size(), 1);
        assert_eq!(d.full_factorial().len(), 1);
    }

    #[test]
    fn randomized_order_covers_everything() {
        let d = demo_design();
        let runs = d.randomized_order(3, 42);
        assert_eq!(runs.len(), 18);
        // Every point appears exactly 3 times.
        for p in d.full_factorial() {
            let count = runs.iter().filter(|r| **r == p).count();
            assert_eq!(count, 3, "{:?}", p);
        }
    }

    #[test]
    fn randomized_order_is_shuffled_but_deterministic() {
        let d = demo_design();
        let a = d.randomized_order(2, 1);
        let b = d.randomized_order(2, 1);
        let c = d.randomized_order(2, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Not in trivially repeated order.
        let sequential: Vec<RunPoint> = {
            let base = d.full_factorial();
            base.iter().cloned().chain(base.iter().cloned()).collect()
        };
        assert_ne!(a, sequential);
    }

    #[test]
    fn run_point_accessor() {
        let points = demo_design().full_factorial();
        assert_eq!(points[0].level(0), "dora");
        assert_eq!(points[0].level(1), "2");
    }

    #[test]
    #[should_panic(expected = "at least one factor")]
    fn empty_design_rejected() {
        Design::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "has no levels")]
    fn empty_factor_rejected() {
        Design::new(vec![Factor::new("x", &[])]);
    }
}
