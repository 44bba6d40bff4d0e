//! Helpers shared by the socket test suites.

use std::time::{Duration, Instant};

/// Polls a gauge/counter until it reaches `want`, for at most 5 s: the
/// reactor promotes and sheds asynchronously to the connecting thread,
/// and this is the socket tests' only synchronization primitive — no
/// sleeps baked into assertions.
pub fn wait_for(what: &str, want: usize, read: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read() != want {
        assert!(Instant::now() < deadline, "{what} never reached {want} (still {})", read());
        std::thread::sleep(Duration::from_millis(2));
    }
}
