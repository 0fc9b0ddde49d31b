//! Seeded samples for the tests that hold each statistic on a
//! [`scibench_stats::Sample`] (`compare_samples`,
//! `MeasurementSummary::from_sample`, `BoxPlotStats::from_sample`,
//! `ViolinData::from_sample`) to the per-call functions, bit for bit.

/// Each size on both sides of the KDE's binning threshold (4096), in four
/// shapes: a heavy tail; long tie runs with `-0.0` and `+0.0` mixed, in
/// both orders; subnormals among ordinary values.
pub(crate) fn sharing_cases() -> Vec<Vec<f64>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cases = Vec::new();
    for n in [6, 7, 4096, 4097, 100_000] {
        let uniform = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        cases.push((0..n).map(|_| (1.0 - uniform(next())).powf(-0.8)).collect());
        let ties: Vec<f64> = (0..n)
            .map(|_| [-0.0, 0.0, 1.0, 1.0, 2.5, 4.0][(next() % 6) as usize])
            .collect();
        cases.push(ties.iter().rev().copied().collect());
        cases.push(ties);
        cases.push(
            (0..n)
                .map(|_| match next() % 3 {
                    0 => f64::from_bits(next() >> 12),
                    1 => -f64::from_bits(next() >> 12),
                    _ => 1.0 + uniform(next()),
                })
                .collect(),
        );
    }
    cases
}

/// The bit patterns of `xs`.
pub(crate) fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
