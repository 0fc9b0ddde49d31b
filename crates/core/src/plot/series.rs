//! Line/point series with confidence bars (§5.2, Rule 12).
//!
//! "Points should only be connected if they indicate a trend and values
//! between two points are expected to follow the line" — so a [`Series`]
//! must be told explicitly whether connecting is valid, and that flag
//! travels with the data into every renderer.

use scibench_stats::ci::ConfidenceInterval;

/// One point of a series: an x position, a y estimate, and an optional CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The x coordinate (e.g. process count).
    pub x: f64,
    /// The y estimate (e.g. median completion time).
    pub y: f64,
    /// Optional confidence interval around `y`.
    pub ci: Option<ConfidenceInterval>,
}

/// A named series of points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points, sorted ascending by x.
    pub points: Vec<SeriesPoint>,
    /// Rule 12: whether interpolation between points is valid (trend) —
    /// renderers connect points only when this is true.
    pub connect_points: bool,
}

impl Series {
    /// Creates a series from `(x, y)` pairs, sorted by x.
    pub fn from_xy(label: &str, xy: &[(f64, f64)], connect_points: bool) -> Self {
        let mut points: Vec<SeriesPoint> = xy
            .iter()
            .map(|&(x, y)| SeriesPoint { x, y, ci: None })
            .collect();
        points.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("finite x"));
        Self {
            label: label.to_owned(),
            points,
            connect_points,
        }
    }

    /// Creates a series whose points carry confidence intervals.
    pub fn with_cis(
        label: &str,
        xy_ci: &[(f64, ConfidenceInterval)],
        connect_points: bool,
    ) -> Self {
        let mut points: Vec<SeriesPoint> = xy_ci
            .iter()
            .map(|&(x, ci)| SeriesPoint {
                x,
                y: ci.estimate,
                ci: Some(ci),
            })
            .collect();
        points.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("finite x"));
        Self {
            label: label.to_owned(),
            points,
            connect_points,
        }
    }

    /// Whether any point's CI would be visible at a given relative
    /// threshold — §5.2: "In cases where the CI is extremely narrow and
    /// would only clutter the graphs, it should be omitted and reported in
    /// the text."
    pub fn cis_visible(&self, rel_threshold: f64) -> bool {
        self.points.iter().any(|p| {
            p.ci.and_then(|ci| ci.relative_half_width())
                .map(|w| w > rel_threshold)
                .unwrap_or(false)
        })
    }

    /// y range including CI bars.
    pub fn y_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in &self.points {
            let (l, h) = match p.ci {
                Some(ci) => (ci.lower.min(p.y), ci.upper.max(p.y)),
                None => (p.y, p.y),
            };
            lo = lo.min(l);
            hi = hi.max(h);
        }
        (lo, hi)
    }

    /// Exports the series as CSV rows `x,y,lower,upper` (empty CI fields
    /// when absent).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,y,ci_lower,ci_upper\n");
        for p in &self.points {
            match p.ci {
                Some(ci) => out.push_str(&format!("{},{},{},{}\n", p.x, p.y, ci.lower, ci.upper)),
                None => out.push_str(&format!("{},{},,\n", p.x, p.y)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(est: f64, half: f64) -> ConfidenceInterval {
        ConfidenceInterval {
            estimate: est,
            lower: est - half,
            upper: est + half,
            confidence: 0.95,
        }
    }

    #[test]
    fn points_are_sorted_by_x() {
        let s = Series::from_xy("t", &[(4.0, 2.0), (1.0, 5.0), (2.0, 3.0)], true);
        let xs: Vec<f64> = s.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 4.0]);
        assert!(s.connect_points);
    }

    #[test]
    fn ci_visibility_threshold() {
        let narrow = Series::with_cis("n", &[(1.0, ci(100.0, 0.1))], true);
        let wide = Series::with_cis("w", &[(1.0, ci(100.0, 10.0))], true);
        assert!(!narrow.cis_visible(0.05));
        assert!(wide.cis_visible(0.05));
    }

    #[test]
    fn y_range_includes_ci_bars() {
        let s = Series::with_cis("s", &[(1.0, ci(10.0, 2.0)), (2.0, ci(20.0, 1.0))], false);
        assert_eq!(s.y_range(), (8.0, 21.0));
        let plain = Series::from_xy("p", &[(0.0, 5.0), (1.0, -3.0)], false);
        assert_eq!(plain.y_range(), (-3.0, 5.0));
    }

    #[test]
    fn csv_export() {
        let s = Series::with_cis("s", &[(1.0, ci(10.0, 2.0))], true);
        let csv = s.to_csv();
        assert!(csv.starts_with("x,y,ci_lower,ci_upper\n"));
        assert!(csv.contains("1,10,8,12"));
        let plain = Series::from_xy("p", &[(3.0, 4.0)], false);
        assert!(plain.to_csv().contains("3,4,,"));
    }

    #[test]
    fn categorical_series_should_not_connect() {
        // Documenting the Rule 12 usage pattern: bar-like data.
        let s = Series::from_xy("per-system", &[(0.0, 1.7), (1.0, 1.8)], false);
        assert!(!s.connect_points);
    }
}
