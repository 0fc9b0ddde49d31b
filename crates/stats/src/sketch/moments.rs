//! Bit-exact record codecs for the pairwise-mergeable moment
//! accumulators ([`OnlineMoments`], [`HigherMoments`]).
//!
//! The accumulators themselves live in [`crate::summary`]; this module
//! only supplies the canonical wire form their [`super::MergeableSummary`]
//! impls use, built on the crate-wide IEEE-754 hex encoding so NaN-free
//! invariants are preserved and signed zeros survive.

use crate::error::{StatsError, StatsResult};
use crate::summary::{HigherMoments, HigherMomentsRaw, OnlineMoments, OnlineMomentsRaw};
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
    Ok(OnlineMoments::from_raw(OnlineMomentsRaw {
        n: parse_count(parts[1])?,
        non_finite: parse_count(parts[2])?,
        mean: f64_from_hex(parts[3])?,
        m2: f64_from_hex(parts[4])?,
        min: f64_from_hex(parts[5])?,
        max: f64_from_hex(parts[6])?,
    }))
}

pub(super) fn higher_moments_to_record(m: &HigherMoments) -> String {
    let raw = m.to_raw();
    format!(
        "hm1;{};{};{};{};{};{};{};{};{};{};{}",
        raw.n,
        raw.non_finite,
        f64_to_hex(raw.mean),
        f64_to_hex(raw.m2),
        f64_to_hex(raw.m3),
        f64_to_hex(raw.m4),
        f64_to_hex(raw.min),
        f64_to_hex(raw.max),
        f64_to_hex(raw.ln_sum),
        f64_to_hex(raw.recip_sum),
        u8::from(raw.all_positive),
    )
}

pub(super) fn higher_moments_from_record(record: &str) -> StatsResult<HigherMoments> {
    let parts: Vec<&str> = record.split(';').collect();
    if parts.len() != 12 || parts[0] != "hm1" {
        return Err(StatsError::MalformedSketch("expected 12-part hm1 record"));
    }
    let all_positive = match parts[11] {
        "0" => false,
        "1" => true,
        _ => return Err(StatsError::MalformedSketch("all_positive flag")),
    };
    Ok(HigherMoments::from_raw(HigherMomentsRaw {
        n: parse_count(parts[1])?,
        non_finite: parse_count(parts[2])?,
        mean: f64_from_hex(parts[3])?,
        m2: f64_from_hex(parts[4])?,
        m3: f64_from_hex(parts[5])?,
        m4: f64_from_hex(parts[6])?,
        min: f64_from_hex(parts[7])?,
        max: f64_from_hex(parts[8])?,
        ln_sum: f64_from_hex(parts[9])?,
        recip_sum: f64_from_hex(parts[10])?,
        all_positive,
    }))
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
    fn higher_moments_record_round_trips_bit_exactly() {
        let mut m = HigherMoments::new();
        for &x in &[3.0, -2.0, f64::INFINITY, 0.125] {
            MergeableSummary::push(&mut m, x);
        }
        let record = m.to_record();
        let back = HigherMoments::from_record(&record).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_record(), record);
        assert_eq!(back.geometric_mean(), None, "all_positive must survive");
        assert!(HigherMoments::from_record("hm1;1;2;3").is_err());
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
