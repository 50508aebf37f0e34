//! The bound functions `f`, `g`, `h` of Proposition 4.6.
//!
//! * `f(k)` bounds the number of lanes the recursive partition produces,
//! * `g(k)` bounds the congestion of embedding the *weak completion*,
//! * `h(k) = g(k) + f(k) − 1` bounds the congestion of the full completion.

/// Lane bound `f(k)`: `f(1) = 1`, `f(k) = 2 + 2(k−1)·f(k−1)`.
///
/// Saturates: `f(k) = u64::MAX` for every `k ≥ 18`, where the exact
/// value exceeds `u64`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn f(k: usize) -> u64 {
    assert!(k >= 1, "f is defined for k >= 1");
    (2..=k as u64).fold(1, |f, k| {
        2u64.saturating_add((k - 1).saturating_mul(2).saturating_mul(f))
    })
}

/// Weak-completion congestion bound `g(k)`: `g(1) = 0`,
/// `g(k) = 2 + g(k−1) + 2k·f(k−1)`.
///
/// Saturates like [`f`]: `g(k) = u64::MAX` for every `k ≥ 18`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn g(k: usize) -> u64 {
    assert!(k >= 1, "g is defined for k >= 1");
    (2..=k).fold(0u64, |g, k| {
        let step = (k as u64).saturating_mul(2).saturating_mul(f(k - 1));
        g.saturating_add(2).saturating_add(step)
    })
}

/// Completion congestion bound `h(k) = g(k) + f(k) − 1`.
///
/// Saturates like [`f`]: `h(k) = u64::MAX` for every `k ≥ 18`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn h(k: usize) -> u64 {
    g(k).saturating_add(f(k) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values() {
        assert_eq!(f(1), 1);
        assert_eq!(f(2), 4);
        assert_eq!(f(3), 18);
        assert_eq!(f(4), 110);
        assert_eq!(g(1), 0);
        assert_eq!(g(2), 6); // 2 + 0 + 4*1
        assert_eq!(g(3), 32); // 2 + 6 + 6*4
        assert_eq!(g(4), 178); // 2 + 32 + 8*18
        assert_eq!(h(1), 0);
        assert_eq!(h(2), 9);
        assert_eq!(h(3), 49);
        assert_eq!(h(4), 287);
    }

    #[test]
    fn monotone() {
        for k in 1..8 {
            assert!(f(k + 1) > f(k));
            assert!(g(k + 1) > g(k));
            assert!(h(k + 1) > h(k));
        }
    }

    #[test]
    fn saturate_past_u64() {
        for k in 1..64 {
            assert!(f(k + 1) >= f(k), "f({k})");
            assert!(g(k + 1) >= g(k), "g({k})");
            assert!(h(k + 1) >= h(k), "h({k})");
        }
        for k in 1..18 {
            assert!(
                f(k) < u64::MAX && g(k) < u64::MAX && h(k) < u64::MAX,
                "k = {k}"
            );
        }
        for k in 18..=64 {
            assert_eq!(
                (f(k), g(k), h(k)),
                (u64::MAX, u64::MAX, u64::MAX),
                "k = {k}"
            );
        }
    }
}
