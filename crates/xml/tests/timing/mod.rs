//! Linear-time checks shared by the parser's scaling tests. Each check
//! compares two sizes in one process, so it holds on any host: a linear
//! cost's time ratio for 8× the input sits near 8×, a quadratic one's
//! near 64×. The two sizes are timed alternately and their fastest
//! rounds compared, so a load spike during one size's runs does not
//! read as superlinear cost.

use std::time::{Duration, Instant};

/// Rounds of [`minima`]: enough that one slow round (a busy host, a
/// parallel test) leaves the minimum of the others to compare.
const ROUNDS: usize = 7;

/// The fastest run of `small` and of `large`, timed alternately so
/// that a slow stretch of the host hits both sizes alike.
pub fn minima(mut small: impl FnMut(), mut large: impl FnMut()) -> (Duration, Duration) {
    let time = |work: &mut dyn FnMut()| {
        let start = Instant::now();
        work();
        start.elapsed()
    };
    let (mut fast_small, mut fast_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        fast_small = fast_small.min(time(&mut small));
        fast_large = fast_large.min(time(&mut large));
    }
    (fast_small, fast_large)
}

/// Asserts that 8× the input (`n` → `8n` of `unit`) cost less than 20×
/// the time.
pub fn assert_linear(what: &str, n: usize, unit: &str, (small, large): (Duration, Duration)) {
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 20.0,
        "{what}: {n} {unit} took {small:?}, {} took {large:?}: ratio {ratio:.1}",
        8 * n
    );
}
