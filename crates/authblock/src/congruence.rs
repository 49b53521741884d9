//! The modular-arithmetic machinery behind the fast AuthBlock counter
//! (paper §4.2, Eq. 4).
//!
//! The paper reduces "how many AuthBlocks overlap this tile" to counting
//! solutions of linear congruences `u·k ≡ t (mod wᵢ)`, solved with the
//! extended Euclidean algorithm in log-linear time. The classic
//! *floor-sum* recurrence below is exactly that Euclidean computation:
//! [`floor_sum`] evaluates `Σ_{i<n} ⌊(a·i+b)/m⌋` in `O(log)` time, and
//! [`count_residues_le`] uses it to count how many terms of an
//! arithmetic progression fall in a residue range — the paper's Eq. 4.

use std::ops::{Add, Div, Mul, Rem, Sub};

/// Operands below this bound run the counter at native width (`i64`);
/// anything larger takes the `i128` path.
///
/// Why `2^31` is enough: [`count_residues_le`] calls the floor sum with
/// `0 <= n, m < 2^31` and `|a|, |b| < m`. Every term of
/// `Σ ⌊(a·i + b)/m⌋` then lies in `(-n, n]`, so the sum and each partial
/// sum the Euclidean recurrence accumulates stay below `n² < 2^62` in
/// magnitude. The `a < 0` / `b < 0` corrections are at most
/// `n(n-1)/2 + n < 2^62`, and each remainder step forms `y = a·n + b`
/// with `a, b` below the current modulus `m <= 2^31` and `n` never
/// growing, so `y < 2^31·(2^31 + 1) < 2^63`. Nothing reaches `i64::MAX`.
/// The closed-form block counter ([`crate::count::count_blocks`])
/// applies the same bound to the region's element count and the block
/// size: its linear indices stay below the element count, and the
/// congruence it solves has `n < rows` and `m = u`.
pub const NATIVE_BOUND: u64 = 1 << 31;

/// The signed integer widths the counter runs at: `i64` under
/// [`NATIVE_BOUND`], `i128` otherwise. Only std operator traits, so the
/// one generic Euclid loop below monomorphises to native code for each.
pub(crate) trait Word:
    Copy
    + Ord
    + TryFrom<u64>
    + TryInto<u64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
{
}

impl Word for i64 {}
impl Word for i128 {}

/// `x` at width `T`. Callers pick `T` so that every operand fits.
pub(crate) fn word<T: Word>(x: u64) -> T {
    T::try_from(x)
        .ok()
        .expect("operand fits the counter's width")
}

/// A non-negative counter result back at `u64`.
pub(crate) fn to_u64<T: Word>(x: T) -> u64 {
    x.try_into()
        .ok()
        .expect("count is non-negative and fits u64")
}

/// The Euclidean floor-sum recurrence at width `T`: the one loop behind
/// [`floor_sum`], [`floor_sum_i64`] and [`floor_sum_i128`].
fn floor_sum_at<T: Word>(n: T, m: T, a: T, b: T) -> T {
    let (zero, one, two) = (word::<T>(0), word::<T>(1), word::<T>(2));
    assert!(m > zero, "modulus must be positive");
    assert!(n >= zero, "term count must be non-negative");
    let rem_euclid = |x: T, m: T| {
        let r = x % m;
        if r < zero {
            r + m
        } else {
            r
        }
    };
    let mut a = a;
    let mut b = b;
    let mut ans = zero;
    if a < zero {
        let a2 = rem_euclid(a, m);
        ans = ans - n * (n - one) / two * ((a2 - a) / m);
        a = a2;
    }
    if b < zero {
        let b2 = rem_euclid(b, m);
        ans = ans - n * ((b2 - b) / m);
        b = b2;
    }
    let (mut n, mut m) = (n, m);
    loop {
        if a >= m {
            ans = ans + n * (n - one) / two * (a / m);
            a = a % m;
        }
        if b >= m {
            ans = ans + n * (b / m);
            b = b % m;
        }
        let y_max = a * n + b;
        if y_max < m {
            break;
        }
        n = y_max / m;
        b = y_max % m;
        std::mem::swap(&mut m, &mut a);
    }
    ans
}

/// `Σ_{i=0}^{n-1} ⌊(a·i + b) / m⌋` in `O(log max(a, m))`.
///
/// Negative `a` or `b` are supported (the Euclidean-algorithm structure
/// of the recurrence is unchanged).
///
/// # Panics
///
/// Panics if `m == 0`, `n < 0`, or the sum exceeds `i64`.
pub fn floor_sum(n: i64, m: i64, a: i64, b: i64) -> i64 {
    i64::try_from(floor_sum_i128(n as i128, m as i128, a as i128, b as i128))
        .expect("floor_sum overflow")
}

/// [`floor_sum`] on `i128` operands — the widened core used by
/// [`count_residues_le`] so tile/halo extents near `u32::MAX` (whose
/// linear indices and moduli exceed `i64`) cannot wrap or panic.
///
/// The Euclidean recurrence keeps every intermediate bounded by
/// `max(|a|, m) · n²`-ish, so for the geometry domain (extents up to
/// `u32::MAX`, hence operands below `2^64`) `i128` arithmetic is exact.
///
/// # Panics
///
/// Panics if `m <= 0` or `n < 0`.
pub fn floor_sum_i128(n: i128, m: i128, a: i128, b: i128) -> i128 {
    floor_sum_at(n, m, a, b)
}

/// [`floor_sum`] at native width, for operands under [`NATIVE_BOUND`]
/// with `a` and `b` reduced below the modulus — the domain
/// [`count_residues_le`] uses it on. Same recurrence as
/// [`floor_sum_i128`], without the software `i128` division.
///
/// # Panics
///
/// Panics unless `0 <= n < 2^31`, `0 < m < 2^31`, `|a| < m` and
/// `|b| < m`.
pub fn floor_sum_i64(n: i64, m: i64, a: i64, b: i64) -> i64 {
    let bound = NATIVE_BOUND as i64;
    assert!(
        (0..bound).contains(&n)
            && (1..bound).contains(&m)
            && (1 - m..m).contains(&a)
            && (1 - m..m).contains(&b),
        "floor_sum_i64 operands outside its native-width domain"
    );
    floor_sum_at(n, m, a, b)
}

/// `#{i ∈ [0, n) : (a·i + b) mod m <= t}` at width `T`, for
/// `a, b, t < m`.
pub(crate) fn residues_le_at<T: Word>(n: T, a: T, b: T, m: T, t: T) -> T {
    // (x mod m) <= t  <=>  floor(x/m) - floor((x - t - 1)/m) == 1.
    floor_sum_at(n, m, a, b) - floor_sum_at(n, m, a, b - t - word(1))
}

/// Count `i ∈ [0, n)` with `(a·i + b) mod m ≤ t`.
///
/// This is the solution counter for the paper's linear-congruence
/// formulation: the residues `(a·i + b) mod m` visit a coset of the
/// subgroup generated by `gcd(a, m)` and the count falls out of two
/// floor sums. Operands under [`NATIVE_BOUND`] run at `i64`; larger
/// ones (near-`u32::MAX` tile extents give operands near `u64::MAX`)
/// run at `i128`, which holds any `u64` losslessly.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn count_residues_le(n: u64, a: u64, b: u64, m: u64, t: u64) -> u64 {
    assert!(m > 0, "modulus must be positive");
    if t >= m - 1 {
        return n; // every residue qualifies
    }
    let (a, b) = (a % m, b % m);
    if n < NATIVE_BOUND && m < NATIVE_BOUND {
        residues_le_u64::<i64>(n, a, b, m, t)
    } else {
        residues_le_u64::<i128>(n, a, b, m, t)
    }
}

/// [`residues_le_at`] on `u64` operands, computed at width `T`.
fn residues_le_u64<T: Word>(n: u64, a: u64, b: u64, m: u64, t: u64) -> u64 {
    to_u64(residues_le_at::<T>(
        word(n),
        word(a),
        word(b),
        word(m),
        word(t),
    ))
}

/// Count `i ∈ [0, n)` with `(a·i + b) mod m ∈ [lo, hi]` (inclusive).
pub fn count_residues_in(n: u64, a: u64, b: u64, m: u64, lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi && hi < m, "range must satisfy lo <= hi < m");
    let le_hi = count_residues_le(n, a, b, m, hi);
    if lo == 0 {
        le_hi
    } else {
        le_hi - count_residues_le(n, a, b, m, lo - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_floor_sum(n: i64, m: i64, a: i64, b: i64) -> i64 {
        (0..n).map(|i| (a * i + b).div_euclid(m)).sum()
    }

    #[test]
    fn floor_sum_matches_brute_force() {
        for n in 0..20 {
            for m in 1..12 {
                for a in -15..15 {
                    for b in -15..15 {
                        assert_eq!(
                            floor_sum(n, m, a, b),
                            brute_floor_sum(n, m, a, b),
                            "n={n} m={m} a={a} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn floor_sum_large_values() {
        // Spot-check with a directly computable case: a = m.
        // sum floor(i + b/m) = n(n-1)/2 + n*floor(b/m) when m | a and m | b.
        assert_eq!(
            floor_sum(1_000_000, 7, 7, 14),
            1_000_000 * 999_999 / 2 + 2_000_000
        );
    }

    fn brute_residues_le(n: u64, a: u64, b: u64, m: u64, t: u64) -> u64 {
        (0..n).filter(|&i| (a * i + b) % m <= t).count() as u64
    }

    #[test]
    fn residue_counts_match_brute_force() {
        for n in [0u64, 1, 7, 30] {
            for m in [1u64, 2, 5, 12, 30] {
                for a in [0u64, 1, 3, 7, 29] {
                    for b in [0u64, 4, 11] {
                        for t in 0..m {
                            assert_eq!(
                                count_residues_le(n, a, b, m, t),
                                brute_residues_le(n, a, b, m, t),
                                "n={n} a={a} b={b} m={m} t={t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residue_range_subtracts_correctly() {
        // (3i + 1) mod 7 for i = 0..7: 1,4,0,3,6,2,5 — each residue once.
        assert_eq!(count_residues_in(7, 3, 1, 7, 2, 4), 3);
        assert_eq!(count_residues_in(7, 3, 1, 7, 0, 6), 7);
        assert_eq!(count_residues_in(7, 3, 1, 7, 6, 6), 1);
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn zero_modulus_panics() {
        let _ = floor_sum(1, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "lo <= hi < m")]
    fn bad_range_panics() {
        let _ = count_residues_in(1, 1, 0, 5, 3, 7);
    }
}
