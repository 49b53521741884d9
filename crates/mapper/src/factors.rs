//! Divisor utilities for factorisation sampling.

/// All divisors of `n`, ascending.
///
/// ```
/// assert_eq!(secureloop_mapper::factors::divisors(12), vec![1, 2, 3, 4, 6, 12]);
/// ```
pub fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_of_primes_and_composites() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(13), vec![1, 13]);
        assert_eq!(divisors(56), vec![1, 2, 4, 7, 8, 14, 28, 56]);
    }

    #[test]
    fn divisors_are_sorted_and_complete() {
        for n in 1..200u64 {
            let ds = divisors(n);
            assert!(ds.windows(2).all(|w| w[0] < w[1]));
            for &d in &ds {
                assert_eq!(n % d, 0);
            }
            let brute = (1..=n).filter(|d| n % d == 0).count();
            assert_eq!(ds.len(), brute);
        }
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn zero_panics() {
        let _ = divisors(0);
    }
}
