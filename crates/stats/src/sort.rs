//! The one sort for sample values.
//!
//! Every order-statistic consumer needs the ascending order of a sample,
//! and comparing `f64`s through `partial_cmp` is indirect and branchy. This
//! sort maps each value to a `u64` whose unsigned order is the value order
//! and sorts the keys with `sort_unstable`. The result equals a stable
//! `sort_by(partial_cmp)` bit for bit: identical bits are interchangeable,
//! and the one pair that compares equal with different bits, `-0.0` and
//! `+0.0`, is put back in input order.

/// Maps a non-NaN f64 to a `u64` whose unsigned order is the value order,
/// with `-0.0` just below `+0.0`.
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// Inverts [`order_key`].
pub(crate) fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// Sorts keys ascending, except that the keys of `-0.0` and `+0.0` keep
/// their input order among themselves, as a stable value sort leaves them.
pub(crate) fn sort_keys(keys: &mut [u64]) {
    let neg_zero = order_key(-0.0);
    let zeros: Vec<u64> = if keys.contains(&neg_zero) {
        keys.iter()
            .copied()
            .filter(|&k| k == neg_zero || k == order_key(0.0))
            .collect()
    } else {
        Vec::new()
    };
    keys.sort_unstable();
    if !zeros.is_empty() {
        let start = keys.partition_point(|&k| k < neg_zero);
        keys[start..start + zeros.len()].copy_from_slice(&zeros);
    }
}

/// `xs` in the order a stable `sort_by(partial_cmp)` gives: ascending,
/// `-0.0` and `+0.0` in input order. `±∞` sort to the ends; callers
/// guarantee there is no NaN.
pub(crate) fn sorted_finite(xs: Vec<f64>) -> Vec<f64> {
    debug_assert!(!xs.iter().any(|x| x.is_nan()), "sort input holds a NaN");
    let mut keys: Vec<u64> = xs.into_iter().map(order_key).collect();
    sort_keys(&mut keys);
    keys.into_iter().map(from_order_key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort every caller of [`sorted_finite`] used before.
    fn oracle(xs: &[f64]) -> Vec<u64> {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("test input has no NaN"));
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits(xs: Vec<f64>) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic xorshift draws, so the cases need no RNG crate.
    fn draws(n: usize, mut state: u64) -> impl Iterator<Item = u64> {
        (0..n).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
    }

    #[test]
    fn matches_the_comparator_sort_bit_for_bit() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            vec![0.0, -0.0, 0.0, -0.0],
            vec![-0.0, 0.0, -1.0, 0.0, -0.0, 1.0, -0.0],
            vec![f64::MAX, -f64::MAX, 0.0, f64::MIN_POSITIVE, -tiny, tiny],
            vec![tiny, -tiny, 0.0, -0.0, tiny * 3.0, -f64::MIN_POSITIVE],
            vec![f64::INFINITY, f64::NEG_INFINITY, 0.0, f64::MAX],
            vec![2.5; 17],
        ];
        let ascending: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5 - 100.0).collect();
        let mut descending = ascending.clone();
        descending.reverse();
        cases.push(ascending);
        cases.push(descending);
        for seed in 1..=8u64 {
            // Signed zeros and duplicates among random-bit finite values.
            let mixed: Vec<f64> = draws(3000, seed)
                .map(|r| match r % 8 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => (r % 5) as f64,
                    3 => f64::from_bits(r >> 12), // positive subnormal
                    _ => {
                        let x = f64::from_bits(r);
                        if x.is_finite() {
                            x
                        } else {
                            -f64::MAX
                        }
                    }
                })
                .collect();
            cases.push(mixed);
        }
        for xs in cases {
            assert_eq!(bits(sorted_finite(xs.clone())), oracle(&xs), "{xs:?}");
        }
    }

    #[test]
    fn keys_round_trip_and_order_like_the_values() {
        let xs = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for x in xs {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }
}
