//! Bit-exact `om1` record encoder for the Welford accumulator
//! ([`OnlineMoments`]).
//!
//! The accumulator itself lives in [`crate::summary`]; this module only
//! supplies the canonical wire form its [`super::MergeableSummary`] impl
//! uses, built on the crate-wide IEEE-754 hex encoding so NaN payloads
//! and signed zeros survive.

use crate::f64_to_hex;
use crate::summary::OnlineMoments;

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
