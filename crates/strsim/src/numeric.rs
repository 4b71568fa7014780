//! Numeric similarity.
//!
//! The paper (§4): *"For similarity queries on numerical attributes we map
//! the provided similarity measure to a corresponding interval and process
//! them as range queries."* The distance is Euclidean (§3), which in one
//! dimension is `|a - b|`, so similarity `dist(x, v) <= eps` becomes the key
//! range `[v - eps, v + eps]`.

/// The closed interval `(lo, hi)` of floats within distance `eps` of `v`,
/// which the overlay's range-query operator scans.
///
/// `eps` must be finite and non-negative.
pub fn interval_around(v: f64, eps: f64) -> (f64, f64) {
    assert!(eps.is_finite() && eps >= 0.0, "eps must be finite and non-negative");
    (v - eps, v + eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_interval() {
        let (lo, hi) = interval_around(1.5, 0.25);
        let contains = |x: f64| lo <= x && x <= hi;
        assert!(contains(1.25));
        assert!(contains(1.75));
        assert!(!contains(1.7500001));
    }

    #[test]
    fn zero_eps_is_point() {
        assert_eq!(interval_around(7.0, 0.0), (7.0, 7.0));
    }

    #[test]
    fn mixed_containment() {
        // An integer centre is widened as a float.
        let (lo, hi) = interval_around(10.0, 2.0);
        let contains = |x: i64| lo <= x as f64 && x as f64 <= hi;
        assert!(contains(12));
        assert!(!contains(13));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_eps_panics() {
        interval_around(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_eps_panics() {
        interval_around(0.0, f64::INFINITY);
    }
}
