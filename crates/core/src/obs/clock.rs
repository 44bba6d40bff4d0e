//! Time sources for the telemetry layer.
//!
//! Instrumented campaigns must stay bit-identical to uninstrumented
//! ones, and instrumented *tests* must produce the same numbers at any
//! thread count. Both constraints land on the clock:
//!
//! * [`Clock::monotonic`] — real wall-clock durations from
//!   [`Instant`], for operator-facing runs. Values vary run to run,
//!   but they are *observe-only*: nothing downstream branches on them.
//! * [`Clock::virtual_seeded`] — a deterministic clock for tests. A
//!   span's duration is a pure function of `(seed, span key)`, exactly
//!   the idiom the fault plan uses for virtual slow-steps: the same
//!   span key always reports the same duration, regardless of thread
//!   interleaving, so histogram buckets are reproducible under `-j1`
//!   and `-j8` alike.

use std::time::Instant;

use crate::doccache::content_hash;

/// A time source: either the process monotonic clock or a seeded
/// virtual clock whose span durations are pure functions of the span
/// key.
#[derive(Debug)]
pub enum Clock {
    /// Real monotonic time (durations measured with [`Instant`]).
    Monotonic {
        /// Process-relative origin; `elapsed_ns` is measured from here.
        origin: Instant,
    },
    /// Deterministic virtual time: span durations derive from
    /// `(seed, key)` and never consult the OS clock.
    Virtual {
        /// Seed mixed into every span-key hash.
        seed: u64,
    },
}

impl Clock {
    /// A real monotonic clock, origin = now.
    pub fn monotonic() -> Clock {
        Clock::Monotonic {
            origin: Instant::now(),
        }
    }

    /// A deterministic virtual clock for tests.
    pub fn virtual_seeded(seed: u64) -> Clock {
        Clock::Virtual { seed }
    }

    /// True when this clock reports real wall-clock time.
    pub fn is_monotonic(&self) -> bool {
        matches!(self, Clock::Monotonic { .. })
    }

    /// Nanoseconds elapsed since the clock was created. On the virtual
    /// clock this is always zero: virtual time only exists inside
    /// spans, which is all the determinism tests need.
    pub fn elapsed_ns(&self) -> u64 {
        match self {
            Clock::Monotonic { origin } => {
                u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Virtual { .. } => 0,
        }
    }

    /// Start timing a span identified by `key`. The key only matters
    /// on the virtual clock, where it *is* the duration (hashed with
    /// the seed); on the monotonic clock it is ignored.
    pub fn start_span(&self, key: &str) -> Stopwatch {
        match self {
            Clock::Monotonic { .. } => Stopwatch::Real(Instant::now()),
            Clock::Virtual { seed } => {
                let mut bytes = Vec::with_capacity(8 + key.len());
                bytes.extend_from_slice(&seed.to_le_bytes());
                bytes.extend_from_slice(key.as_bytes());
                // Map into [1µs, ~4.2ms) so buckets spread over several
                // histogram bins without ever looking like an outlier.
                let ns = 1_000 + content_hash(&bytes) % 4_194_304;
                Stopwatch::Virtual(ns)
            }
        }
    }
}

/// A started span timer; [`Stopwatch::elapsed_ns`] reads it out.
#[derive(Debug, Clone, Copy)]
pub enum Stopwatch {
    /// Backed by a real [`Instant`].
    Real(Instant),
    /// A fixed duration: a virtual span's, decided at `start_span`
    /// time, or a real span's once [stopped](Stopwatch::stop).
    Virtual(u64),
}

impl Stopwatch {
    /// A standalone real stopwatch (used where no [`Clock`] is in
    /// scope, e.g. per-request timing inside the wire server).
    pub fn real() -> Stopwatch {
        Stopwatch::Real(Instant::now())
    }

    /// Nanoseconds since the span started (or the fixed virtual
    /// duration).
    pub fn elapsed_ns(&self) -> u64 {
        match self {
            Stopwatch::Real(start) => {
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Stopwatch::Virtual(ns) => *ns,
        }
    }

    /// Freezes the span's duration as of now, for a span whose exit
    /// is recorded later than its work ends.
    pub fn stop(self) -> Stopwatch {
        Stopwatch::Virtual(self.elapsed_ns())
    }

    /// Milliseconds since the span started, rounded down.
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ns() / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_spans_are_pure_functions_of_seed_and_key() {
        let clock = Clock::virtual_seeded(42);
        let a = clock.start_span("gen/Metro/Axis1/java.util.Date").elapsed_ns();
        let b = clock.start_span("gen/Metro/Axis1/java.util.Date").elapsed_ns();
        assert_eq!(a, b);
        let other = clock.start_span("gen/Metro/Axis2/java.util.Date").elapsed_ns();
        assert_ne!(a, other, "distinct keys should (almost surely) differ");
        let reseeded = Clock::virtual_seeded(43)
            .start_span("gen/Metro/Axis1/java.util.Date")
            .elapsed_ns();
        assert_ne!(a, reseeded, "distinct seeds should (almost surely) differ");
    }

    #[test]
    fn virtual_span_durations_are_pinned() {
        // The virtual clock feeds histogram buckets that tests compare
        // across runs and thread counts; its hash must never drift.
        let clock = Clock::virtual_seeded(42);
        assert_eq!(
            clock
                .start_span("gen/Metro/Axis1/java.util.Date")
                .elapsed_ns(),
            4_167_427
        );
        assert_eq!(
            Clock::virtual_seeded(0).start_span("").elapsed_ns(),
            1_719_725
        );
    }

    #[test]
    fn virtual_spans_stay_in_band() {
        let clock = Clock::virtual_seeded(7);
        for key in ["a", "b", "deploy/Metro/java.util.Date", ""] {
            let ns = clock.start_span(key).elapsed_ns();
            assert!((1_000..4_195_304).contains(&ns), "{key} -> {ns}");
        }
    }

    #[test]
    fn monotonic_clock_advances() {
        let clock = Clock::monotonic();
        let sw = clock.start_span("ignored");
        assert!(sw.elapsed_ns() <= clock.elapsed_ns().saturating_add(1_000_000_000));
        assert!(clock.is_monotonic());
        assert!(!Clock::virtual_seeded(1).is_monotonic());
    }
}
