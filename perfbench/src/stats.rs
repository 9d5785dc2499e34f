//! Order statistics for the benchmark's samples.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The 90th percentile by nearest rank (`⌈0.9·n⌉`-th smallest sample),
/// refused unless at least [`MIN_BEYOND`] samples lie beyond it: a tail
/// estimated from fewer is one or two slow steps, not a percentile.
pub fn p90(xs: &[f64]) -> Result<f64, String> {
    let n = xs.len();
    let rank = (9 * n).div_ceil(10);
    if n - rank < MIN_BEYOND {
        return Err(format!(
            "p90 of {n} samples leaves {} beyond it; need at least {MIN_BEYOND} (≥ 100 samples)",
            n - rank
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_refuses_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(p90(&xs).is_err(), "99 samples leave 9 beyond the 90th");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&xs), Ok(90.0), "100 samples leave exactly 10 beyond");
        assert!(p90(&[]).is_err());
    }

    #[test]
    fn p90_ignores_sample_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(p90(&xs), Ok(180.0));
    }
}
