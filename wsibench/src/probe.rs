//! A frozen reference workload that tells how fast the host runs the
//! program's kind of code at the moment.
//!
//! On a shared virtual machine the program runs up to 1.6x slower for
//! seconds to minutes at a time while other tenants load the host, and a
//! ten-run set drifts with them. The probe (about 3 ms of small-string
//! formatting and ordered-map inserts) slows with it. Every timed sample
//! starts right after a probe, and the part of it the CPUs spent working
//! is scaled by `REFERENCE_NS / probe`, so it reads what it would have
//! taken on a host that runs the probe in [`REFERENCE_NS`]. The rest of
//! the sample, time spent waiting on the kernel's timers or on a reactor's
//! nap, keeps its speed on a slow host and is not scaled. A change to the
//! program moves the sample and not the probe, so it moves the scaled
//! value by the same share.
//!
//! The probe runs on a thread of its own, which keeps the allocator arena
//! it measures free of the program's allocations, and only while no
//! sample runs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::{elapsed_ns, nproc};

/// The probe's duration at the reference speed.
pub const REFERENCE_NS: u64 = 3_000_000;

/// Probes run and discarded at start-up, so the probe thread's arena
/// and code are warm.
const WARM_UP_PROBES: usize = 8;

/// Nanoseconds per clock tick of `/proc/self/stat` (`USER_HZ` is 100 on
/// Linux).
const TICK_NS: u64 = 10_000_000;

/// About 3 ms of small-string formatting and ordered-map inserts.
fn probe(seed: u64) -> u64 {
    let started = Instant::now();
    let mut x = seed;
    let mut map = BTreeMap::new();
    for i in 0..6_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(format!("ns{}:element-{i}-{}", x % 97, x >> 40), i);
    }
    black_box(map);
    elapsed_ns(started)
}

/// CPU time the process has used so far, user and system, every thread
/// included.
fn cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name start at the
    // third; utime and stime are the 14th and 15th.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// The factor for the durations inside one sample.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    factor: f64,
}

impl Scale {
    /// A sample whose CPUs were busy `share` of the time, after a probe
    /// of `probe_ns`.
    fn new(probe_ns: u64, share: f64) -> Scale {
        let speed = REFERENCE_NS as f64 / probe_ns.max(1) as f64;
        Scale {
            factor: 1.0 + share.clamp(0.0, 1.0) * (speed - 1.0),
        }
    }

    /// `ns` at the reference speed.
    pub fn apply(self, ns: u64) -> u64 {
        if ns == u64::MAX {
            return ns;
        }
        (ns as f64 * self.factor) as u64
    }
}

/// A sample in progress: the probe that preceded it, and where its clock
/// and the process's CPU time stood when it began.
pub struct Sample {
    probe_ns: u64,
    cpu_ns: Option<u64>,
    started: Instant,
}

impl Sample {
    /// Ends the sample. `threads` is how many threads it kept working;
    /// the busy share is the CPU time they used over what that many
    /// threads, at most one per core, could have used.
    pub fn end(self, threads: usize) -> Scale {
        let wall_ns = elapsed_ns(self.started).max(1);
        let share = match (self.cpu_ns, cpu_ns()) {
            (Some(before), Some(after)) => {
                let lanes = threads.clamp(1, nproc()) as f64;
                after.saturating_sub(before) as f64 / (wall_ns as f64 * lanes)
            }
            _ => 1.0,
        };
        Scale::new(self.probe_ns, share)
    }
}

/// The probe thread and the channels that drive it.
pub struct Probe {
    request: Option<Sender<()>>,
    reply: Receiver<u64>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    /// Starts the probe thread and warms it up.
    pub fn start() -> Probe {
        let (request, requests) = channel::<()>();
        let (answer, reply) = channel();
        let thread = std::thread::spawn(move || {
            let mut seed = 0;
            while requests.recv().is_ok() {
                seed += 1;
                if answer.send(probe(seed)).is_err() {
                    break;
                }
            }
        });
        let mut started = Probe {
            request: Some(request),
            reply,
            thread: Some(thread),
        };
        for _ in 0..WARM_UP_PROBES {
            started.run();
        }
        started
    }

    fn run(&mut self) -> u64 {
        let sent = self.request.as_ref().is_some_and(|r| r.send(()).is_ok());
        assert!(sent, "the probe thread runs until the probe drops");
        self.reply
            .recv()
            .expect("the probe thread answers every request")
    }

    /// Runs one probe, then starts a sample.
    pub fn begin(&mut self) -> Sample {
        let probe_ns = self.run();
        Sample {
            probe_ns,
            cpu_ns: cpu_ns(),
            started: Instant::now(),
        }
    }

    /// Times `f`, which keeps `threads` threads working, as one sample;
    /// returns its output and its duration at the reference speed.
    pub fn time<R>(&mut self, threads: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let sample = self.begin();
        let started = sample.started;
        let out = f();
        let ns = elapsed_ns(started);
        (out, sample.end(threads).apply(ns))
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing the request channel ends the thread's loop.
        self.request = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_is_scaled_and_waiting_is_not() {
        let slow = 2 * REFERENCE_NS;
        assert_eq!(Scale::new(slow, 1.0).apply(300), 150);
        assert_eq!(Scale::new(slow, 0.0).apply(300), 300);
        assert_eq!(Scale::new(slow, 0.5).apply(400), 300);
        assert_eq!(Scale::new(REFERENCE_NS / 2, 1.0).apply(300), 600);
        assert_eq!(Scale::new(slow, 7.0).apply(300), 150, "share is capped");
        assert_eq!(Scale::new(slow, 1.0).apply(u64::MAX), u64::MAX);
    }

    #[test]
    fn sleep_is_not_scaled_and_cpu_time_grows() {
        // One test, so no other test of this binary burns CPU meanwhile.
        let mut probe = Probe::start();
        let ((), ns) = probe.time(1, || {
            std::thread::sleep(std::time::Duration::from_millis(30))
        });
        assert!((25_000_000..60_000_000).contains(&ns), "{ns}");

        let before = cpu_ns().expect("/proc/self/stat is readable");
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 50 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(cpu_ns().unwrap() > before);
    }
}
