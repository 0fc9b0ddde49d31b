//! Bit-exact `om1` record codec for the pairwise-mergeable Welford
//! accumulator ([`OnlineMoments`]).
//!
//! The accumulator itself lives in [`crate::summary`]; this module only
//! supplies the canonical wire form its [`super::MergeableSummary`] impl
//! uses, built on the crate-wide IEEE-754 hex encoding so NaN payloads
//! and signed zeros survive.

use crate::error::{StatsError, StatsResult};
use crate::summary::{OnlineMoments, OnlineMomentsRaw};
use crate::{f64_from_hex, f64_to_hex};

use super::parse_count;

pub(super) fn online_moments_to_record(m: &OnlineMoments) -> String {
    let raw = m.to_raw();
    format!(
        "om1;{};{};{};{};{};{}",
        raw.n,
        raw.non_finite,
        f64_to_hex(raw.mean),
        f64_to_hex(raw.m2),
        f64_to_hex(raw.min),
        f64_to_hex(raw.max),
    )
}

pub(super) fn online_moments_from_record(record: &str) -> StatsResult<OnlineMoments> {
    let parts: Vec<&str> = record.split(';').collect();
    if parts.len() != 7 || parts[0] != "om1" {
        return Err(StatsError::MalformedSketch("expected 7-part om1 record"));
    }
    let raw = OnlineMomentsRaw {
        n: parse_count(parts[1])?,
        non_finite: parse_count(parts[2])?,
        mean: f64_from_hex(parts[3])?,
        m2: f64_from_hex(parts[4])?,
        min: f64_from_hex(parts[5])?,
        max: f64_from_hex(parts[6])?,
    };
    // Pushes and merges reach only the empty state until a finite sample
    // arrives, and finite extrema in order after it. The mean and m2 stay
    // unchecked: finite pushes can overflow them to ±∞ and then NaN.
    let reachable = if raw.n == 0 {
        raw.mean.to_bits() == 0
            && raw.m2.to_bits() == 0
            && raw.min == f64::INFINITY
            && raw.max == f64::NEG_INFINITY
    } else {
        raw.min.is_finite() && raw.max.is_finite() && raw.min <= raw.max
    };
    if !reachable {
        return Err(StatsError::MalformedSketch(
            "om1 state no push or merge reaches",
        ));
    }
    Ok(OnlineMoments::from_raw(raw))
}

#[cfg(test)]
mod tests {
    use super::super::MergeableSummary;
    use super::*;

    #[test]
    fn online_moments_record_round_trips_bit_exactly() {
        let mut m = OnlineMoments::new();
        for &x in &[1.5, -0.0, f64::NAN, 1e-308, 2.5e17] {
            MergeableSummary::push(&mut m, x);
        }
        let record = m.to_record();
        let back = OnlineMoments::from_record(&record).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_record(), record);
        assert_eq!(back.non_finite_count(), 1);
        // Empty accumulator (±∞ extrema identities) round-trips too.
        let empty = OnlineMoments::new();
        assert_eq!(
            OnlineMoments::from_record(&empty.to_record()).unwrap(),
            empty
        );
        assert!(OnlineMoments::from_record("om1;1;2").is_err());
        assert!(OnlineMoments::from_record("hm1;x").is_err());
    }

    #[test]
    fn online_moments_records_refuse_only_states_no_push_reaches() {
        let pushed = |xs: &[f64]| xs.iter().copied().collect::<OnlineMoments>().to_record();
        // Finite pushes overflow the mean to −∞ and then NaN, with finite
        // extrema: a reachable state, so its record loads.
        let overflowed = pushed(&[f64::MAX, -f64::MAX, f64::MAX]);
        let m = OnlineMoments::from_record(&overflowed).unwrap();
        assert!(m.mean().unwrap().is_nan());
        assert_eq!(m.to_record(), overflowed);
        for reachable in [pushed(&[]), pushed(&[f64::NAN]), pushed(&[-0.0, 0.0])] {
            let back = OnlineMoments::from_record(&reachable).unwrap();
            assert_eq!(back.to_record(), reachable);
        }
        // n, then mean, m2, min and max, with two quarantined samples.
        let om1 =
            |n: u64, fields: [f64; 4]| format!("om1;{n};2;{}", fields.map(f64_to_hex).join(";"));
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        assert!(OnlineMoments::from_record(&om1(0, [0.0, 0.0, inf, -inf])).is_ok());
        assert!(OnlineMoments::from_record(&om1(1, [1.0, 0.0, 1.0, 1.0])).is_ok());
        for bad in [
            // No finite sample yet, but not the empty state.
            om1(0, [1.0, 0.0, inf, -inf]),
            om1(0, [-0.0, 0.0, inf, -inf]),
            om1(0, [0.0, nan, inf, -inf]),
            om1(0, [0.0, 0.0, 1.0, -inf]),
            om1(0, [0.0, 0.0, inf, 1.0]),
            // Finite samples, but extrema that are not finite or in order.
            om1(1, [1.0, 0.0, inf, 1.0]),
            om1(1, [1.0, 0.0, 1.0, -inf]),
            om1(1, [1.0, 0.0, nan, 1.0]),
            om1(1, [1.0, 0.0, 2.0, 1.0]),
        ] {
            assert!(
                matches!(
                    OnlineMoments::from_record(&bad),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn trait_merge_matches_inherent_merge() {
        let xs: Vec<f64> = (0..300).map(|i| (i as f64 * 0.41).cos() + 2.0).collect();
        let mut a: OnlineMoments = xs[..100].iter().copied().collect();
        let b: OnlineMoments = xs[100..].iter().copied().collect();
        let mut a2 = a;
        a.merge(&b);
        MergeableSummary::merge_from(&mut a2, &b).unwrap();
        assert_eq!(a, a2);
    }
}
