//! Summary statistics and metric-name rules shared by every workload.

/// Median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile, at most `max_pct`, that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it (nearest-rank
/// definition). Returns `(percentile, value)`, or `None` when fewer than
/// `TAIL_MIN_BEYOND + 1` samples exist.
///
/// With 100 samples `max_pct = 90` yields the true p90 (rank 90, ten
/// samples above it); with fewer samples the percentile drops so the
/// tail still rests on ten observations.
pub fn tail_percentile(values: &[f64], max_pct: u32) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank of percentile p is ceil(p * n / 100), 1-based; the
    // samples beyond it number n - rank, which must be >= 10.
    let max_rank = n - TAIL_MIN_BEYOND;
    let mut pct = max_pct.min(100);
    while pct > 0 && (pct as usize * n).div_ceil(100) > max_rank {
        pct -= 1;
    }
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some((pct, v[rank - 1]))
}

/// Whether `name` is a valid metric or workload name: 1 to 64
/// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// SplitMix64 finalizer: derives independent per-job seeds from the
/// benchmark seed so the same `--seed` always yields the same inputs.
pub fn mix_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90), Some((90, 90.0)));
        // 99 samples: rank(90) = 90 leaves only 9 beyond, so drop to 89.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v, 90).unwrap();
        assert_eq!(pct, 89);
        assert_eq!(value, 89.0);
        assert!(v.iter().filter(|&&x| x > value).count() >= TAIL_MIN_BEYOND);
        // 1000 samples keep the requested percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90), Some((90, 900.0)));
    }

    #[test]
    fn tail_percentile_handles_small_and_unsorted_input() {
        assert_eq!(tail_percentile(&[], 90), None);
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten, 90), None);
        // 11 samples: only the minimum has ten samples beyond it.
        let mut v: Vec<f64> = (0..11).rev().map(f64::from).collect();
        v.swap(0, 5);
        let (pct, value) = tail_percentile(&v, 90).unwrap();
        assert_eq!(value, 0.0);
        assert!(pct <= 9, "{pct}");
        for n in 11..300 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let (pct, value) = tail_percentile(&v, 90).unwrap();
            assert!(pct <= 90);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} pct={pct} beyond={beyond}");
            // One percentile higher would leave fewer than ten beyond.
            if pct < 90 {
                let rank = ((pct as usize + 1) * n as usize).div_ceil(100);
                assert!(n as usize - rank < TAIL_MIN_BEYOND, "n={n} pct={pct}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "sim_mips",
            "sim.method_ns_per_instr.sn4l_dis_btb",
            "p-9",
            "0x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "a/b",
            "ümlaut",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ns/instr"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "instr per second!", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(mix_seed(7, 1, 2), mix_seed(7, 1, 2));
        assert_ne!(mix_seed(7, 1, 2), mix_seed(7, 2, 1));
        assert_ne!(mix_seed(7, 1, 2), mix_seed(8, 1, 2));
    }
}
