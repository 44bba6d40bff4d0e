//! Exact order statistics over raw samples.
//!
//! Quantiles are taken by nearest rank over every recorded sample, never
//! from histogram bins: a power-of-two bin reports its upper bound, which
//! can exceed the largest value actually observed.

/// The nearest-rank quantile of `sorted` (ascending) at `per_mille`
/// thousandths: the smallest sample with at least that share of all
/// samples at or below it. `None` when there are no samples.
///
/// The rank is computed in integers, so `p99` of 100 samples is exactly
/// the 99th sample, with no floating-point rounding at the boundary.
pub fn quantile<T: Copy + Ord>(sorted: &[T], per_mille: u32) -> Option<T> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (u64::from(per_mille.min(1000)) * n).div_ceil(1000).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// Sorts `samples` in place and returns its nearest-rank median.
pub fn median(samples: &mut [u64]) -> Option<u64> {
    samples.sort_unstable();
    quantile(samples, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0), Some(1));
        assert_eq!(quantile(&v, 10), Some(1));
        assert_eq!(quantile(&v, 500), Some(50));
        assert_eq!(quantile(&v, 990), Some(99));
        assert_eq!(quantile(&v, 999), Some(100));
        assert_eq!(quantile(&v, 1000), Some(100));
    }

    #[test]
    fn nearest_rank_never_invents_a_value() {
        // A histogram bin would report 65 536 here; the exact quantile
        // is always one of the observed samples.
        let v = [40_000, 41_000, 43_000, 57_300];
        for q in [0, 250, 500, 750, 990, 1000] {
            assert!(v.contains(&quantile(&v, q).unwrap()));
        }
        assert_eq!(quantile(&v, 500), Some(41_000));
        assert_eq!(quantile(&v, 990), Some(57_300));
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(quantile::<u64>(&[], 500), None);
        assert_eq!(quantile(&[-3i64, 2], 500), Some(-3));
        assert_eq!(quantile(&[7], 0), Some(7));
        assert_eq!(quantile(&[7], 990), Some(7));
        assert_eq!(quantile(&[1, 2], 500), Some(1));
        assert_eq!(quantile(&[1, 2], 501), Some(2));
    }

    #[test]
    fn median_sorts_first() {
        let mut v = vec![9, 1, 5, 3, 7];
        assert_eq!(median(&mut v), Some(5));
        assert_eq!(v, vec![1, 3, 5, 7, 9]);
    }
}
