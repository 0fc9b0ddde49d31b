//! Seeded samples and reference bodies for the tests that hold each
//! statistic on a [`scibench_stats::Sample`] (`compare_samples`,
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

/// The bodies `scibench_stats` had for `arithmetic_mean`,
/// `sample_variance`, `mean_ci`, `welch_t_test` and `cohens_d` before a
/// [`scibench_stats::Sample`] kept its mean and variance: each checks and
/// sums its slice afresh, so the tests that hold a statistic on a `Sample`
/// to these do not compare the shared bodies with themselves. (The
/// `#[cfg(test)]` oracles of `scibench_stats` are not visible from this
/// crate.)
pub(crate) mod reference {
    use scibench_stats::ci::ConfidenceInterval;
    use scibench_stats::dist::student_t::t_critical;
    use scibench_stats::dist::{ContinuousDistribution, StudentT};
    use scibench_stats::error::{StatsError, StatsResult};
    use scibench_stats::htest::TestResult;

    fn validate_samples(xs: &[f64]) -> StatsResult<()> {
        if xs.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if xs.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFiniteSample);
        }
        Ok(())
    }

    fn validate_two_groups(a: &[f64], b: &[f64]) -> StatsResult<()> {
        validate_samples(a)?;
        validate_samples(b)?;
        if a.len() < 2 || b.len() < 2 {
            return Err(StatsError::TooFewSamples {
                required: 2,
                actual: a.len().min(b.len()),
            });
        }
        Ok(())
    }

    pub(crate) fn arithmetic_mean(xs: &[f64]) -> StatsResult<f64> {
        validate_samples(xs)?;
        Ok(xs.iter().sum::<f64>() / xs.len() as f64)
    }

    pub(crate) fn sample_variance(xs: &[f64]) -> StatsResult<f64> {
        validate_samples(xs)?;
        if xs.len() < 2 {
            return Err(StatsError::TooFewSamples {
                required: 2,
                actual: xs.len(),
            });
        }
        let mean = arithmetic_mean(xs)?;
        let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        Ok(ss / (xs.len() as f64 - 1.0))
    }

    pub(crate) fn sample_std_dev(xs: &[f64]) -> StatsResult<f64> {
        Ok(sample_variance(xs)?.sqrt())
    }

    pub(crate) fn mean_ci(xs: &[f64], confidence: f64) -> StatsResult<ConfidenceInterval> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::InvalidProbability {
                name: "confidence",
                value: confidence,
            });
        }
        validate_samples(xs)?;
        if xs.len() < 2 {
            return Err(StatsError::TooFewSamples {
                required: 2,
                actual: xs.len(),
            });
        }
        let n = xs.len() as f64;
        let mean = arithmetic_mean(xs)?;
        let s = sample_std_dev(xs)?;
        let t = t_critical(n - 1.0, 1.0 - confidence)?;
        let half = t * s / n.sqrt();
        Ok(ConfidenceInterval {
            estimate: mean,
            lower: mean - half,
            upper: mean + half,
            confidence,
        })
    }

    pub(crate) fn welch_t_test(a: &[f64], b: &[f64]) -> StatsResult<TestResult> {
        validate_two_groups(a, b)?;
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let (ma, mb) = (arithmetic_mean(a)?, arithmetic_mean(b)?);
        let (va, vb) = (sample_variance(a)?, sample_variance(b)?);
        let se2 = va / na + vb / nb;
        if se2 <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let t = (ma - mb) / se2.sqrt();
        let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
        let dist = StudentT::new(df)?;
        let p = 2.0 * (1.0 - dist.cdf(t.abs()));
        Ok(TestResult {
            statistic: t,
            p_value: p.clamp(0.0, 1.0),
            df: (df, 0.0),
        })
    }

    pub(crate) fn cohens_d(a: &[f64], b: &[f64]) -> StatsResult<f64> {
        validate_two_groups(a, b)?;
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let (va, vb) = (sample_variance(a)?, sample_variance(b)?);
        let pooled = (((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0)).sqrt();
        if pooled <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok((arithmetic_mean(a)? - arithmetic_mean(b)?) / pooled)
    }
}
