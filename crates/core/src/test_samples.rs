//! Seeded samples for the tests that hold each sorted-input entry point
//! (`compare_two_sorted`, `summarize_sorted`, `BoxPlotStats::from_sorted`,
//! `ViolinData::from_sorted`) to its slice wrapper, bit for bit.

use scibench_stats::sorted::SortedSamples;

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

/// The ascending copy of `xs` by a stable comparator sort, not by the key
/// sort the slice wrappers use.
pub(crate) fn comparator_sorted(xs: &[f64]) -> SortedSamples {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("test samples hold no NaN"));
    SortedSamples::from_sorted_vec(v).expect("test samples are finite and non-empty")
}

/// The bit patterns of `xs`.
pub(crate) fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
