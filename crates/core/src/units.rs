//! Unambiguous units (Rule 2 of the paper).
//!
//! "We recommend following the suggestions made by the PARKBENCH
//! committee and denote the number of floating point operations as flop
//! (singular and plural), the floating point rate as flop/s, Bytes with B,
//! and Bits with b. [...] we suggest to either follow the IEC 60027-2
//! standard and denote binary qualifiers using the 'i' prefixes such as
//! MiB for Mebibytes or clarify the base."
//!
//! [`Unit`] carries the dimension, [`format_quantity`] renders values with
//! correct SI (base-10) prefixes, and [`format_binary`] renders byte/bit
//! counts with IEC binary prefixes. A `flop` count formatted through this
//! module can never be confused with a `flop/s` rate.

use std::fmt;

/// Measurement units used in performance reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Seconds (time cost).
    Seconds,
    /// Floating-point operations — "flop (singular and plural)".
    Flop,
    /// Floating-point rate, "flop/s".
    FlopPerSecond,
    /// Bytes, "B".
    Bytes,
    /// Bits, "b".
    Bits,
    /// Bytes per second, "B/s".
    BytesPerSecond,
    /// Joules (energy cost).
    Joules,
    /// Watts (power rate).
    Watts,
    /// Dimensionless (ratios, efficiencies, speedups).
    Dimensionless,
}

impl Unit {
    /// Canonical PARKBENCH-style symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            Unit::Seconds => "s",
            Unit::Flop => "flop",
            Unit::FlopPerSecond => "flop/s",
            Unit::Bytes => "B",
            Unit::Bits => "b",
            Unit::BytesPerSecond => "B/s",
            Unit::Joules => "J",
            Unit::Watts => "W",
            Unit::Dimensionless => "",
        }
    }

    /// Whether the unit denotes a *cost* (linear, additively meaningful —
    /// Rule 3 says summarize with the arithmetic mean).
    pub fn is_cost(&self) -> bool {
        matches!(
            self,
            Unit::Seconds | Unit::Flop | Unit::Bytes | Unit::Bits | Unit::Joules
        )
    }

    /// Whether the unit denotes a *rate* (cost per cost — Rule 3 says
    /// summarize with the harmonic mean).
    pub fn is_rate(&self) -> bool {
        matches!(
            self,
            Unit::FlopPerSecond | Unit::BytesPerSecond | Unit::Watts
        )
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

const SI_PREFIXES: [(&str, f64); 7] = [
    ("P", 1e15),
    ("T", 1e12),
    ("G", 1e9),
    ("M", 1e6),
    ("k", 1e3),
    ("", 1.0),
    ("m", 1e-3),
];

/// IEC 60027-2 binary prefixes.
const IEC_PREFIXES: [(&str, f64); 6] = [
    ("Pi", 1125899906842624.0),
    ("Ti", 1099511627776.0),
    ("Gi", 1073741824.0),
    ("Mi", 1048576.0),
    ("Ki", 1024.0),
    ("", 1.0),
];

/// Formats a value with SI (base-10) prefixes: `format_quantity(77.38e12,
/// Unit::FlopPerSecond)` → `"77.38 Tflop/s"`.
pub fn format_quantity(value: f64, unit: Unit) -> String {
    if value == 0.0 {
        return format!("0 {}", unit.symbol()).trim_end().to_string();
    }
    let magnitude = value.abs();
    for (prefix, factor) in SI_PREFIXES {
        if magnitude >= factor {
            let scaled = value / factor;
            return format!("{} {}{}", trim_float(scaled), prefix, unit.symbol())
                .trim_end()
                .to_string();
        }
    }
    // Below milli: microseconds and nanoseconds matter for benchmarking.
    let (prefix, factor) = if magnitude >= 1e-6 {
        ("u", 1e-6)
    } else {
        ("n", 1e-9)
    };
    format!("{} {}{}", trim_float(value / factor), prefix, unit.symbol())
        .trim_end()
        .to_string()
}

/// Formats a byte or bit count with IEC binary prefixes:
/// `format_binary(32.0 * 1024.0 * 1024.0 * 1024.0, Unit::Bytes)` →
/// `"32 GiB"`. Panics on units other than bytes/bits, where binary
/// prefixes are meaningless.
pub fn format_binary(value: f64, unit: Unit) -> String {
    assert!(
        matches!(unit, Unit::Bytes | Unit::Bits),
        "binary prefixes only apply to bytes and bits (IEC 60027-2)"
    );
    let magnitude = value.abs();
    for (prefix, factor) in IEC_PREFIXES {
        if magnitude >= factor {
            return format!("{} {}{}", trim_float(value / factor), prefix, unit.symbol());
        }
    }
    format!("{} {}", trim_float(value), unit.symbol())
}

/// Renders with up to two decimals, trimming trailing zeros.
fn trim_float(v: f64) -> String {
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_number() {
        // The paper's running example: 77.38 Tflop/s.
        assert_eq!(
            format_quantity(77.38e12, Unit::FlopPerSecond),
            "77.38 Tflop/s"
        );
    }

    #[test]
    fn flop_count_vs_rate_are_distinct() {
        let count = format_quantity(100e9, Unit::Flop);
        let rate = format_quantity(100e9, Unit::FlopPerSecond);
        assert_eq!(count, "100 Gflop");
        assert_eq!(rate, "100 Gflop/s");
        assert_ne!(count, rate);
    }

    #[test]
    fn bytes_vs_bits() {
        assert_eq!(format_quantity(64.0, Unit::Bytes), "64 B");
        assert_eq!(format_quantity(64.0, Unit::Bits), "64 b");
    }

    #[test]
    fn iec_binary_prefixes() {
        assert_eq!(format_binary(32.0 * 1073741824.0, Unit::Bytes), "32 GiB");
        assert_eq!(format_binary(1024.0, Unit::Bytes), "1 KiB");
        assert_eq!(format_binary(512.0, Unit::Bytes), "512 B");
        assert_eq!(format_binary(1048576.0, Unit::Bits), "1 Mib");
    }

    #[test]
    #[should_panic(expected = "binary prefixes only apply")]
    fn binary_prefix_rejects_seconds() {
        format_binary(1024.0, Unit::Seconds);
    }

    #[test]
    fn sub_unit_values() {
        assert_eq!(format_quantity(1.75e-6, Unit::Seconds), "1.75 us");
        assert_eq!(format_quantity(300e-9, Unit::Seconds), "300 ns");
        assert_eq!(format_quantity(0.25, Unit::Seconds), "250 ms");
    }

    #[test]
    fn zero_and_negative() {
        assert_eq!(format_quantity(0.0, Unit::Seconds), "0 s");
        assert_eq!(format_quantity(-2.5e9, Unit::Flop), "-2.5 Gflop");
    }

    #[test]
    fn dimensionless_has_no_symbol() {
        assert_eq!(format_quantity(1.2, Unit::Dimensionless), "1.2");
        assert_eq!(Unit::Dimensionless.symbol(), "");
    }

    #[test]
    fn cost_rate_classification() {
        assert!(Unit::Seconds.is_cost());
        assert!(Unit::Flop.is_cost());
        assert!(Unit::Joules.is_cost());
        assert!(!Unit::Seconds.is_rate());
        assert!(Unit::FlopPerSecond.is_rate());
        assert!(Unit::Watts.is_rate());
        assert!(!Unit::FlopPerSecond.is_cost());
        assert!(!Unit::Dimensionless.is_cost());
        assert!(!Unit::Dimensionless.is_rate());
    }

    #[test]
    fn trim_float_behaviour() {
        assert_eq!(trim_float(2.00), "2");
        assert_eq!(trim_float(2.50), "2.5");
        assert_eq!(trim_float(2.57), "2.57");
    }
}
