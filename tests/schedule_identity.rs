//! Bit-identity of campaign output across cell schedules.
//!
//! A campaign's records, fault report and parse accounting are pure
//! functions of its configuration: thread count, claim order and the
//! order in which workers finish cells must never show. This test
//! renders `(CampaignResults, FaultReport, PipelineStats)` with `{:?}`
//! for a fault-free, a chaos, a chaos-plus-breaker and a TCP chaos
//! configuration at several thread counts, and pins one digest per
//! configuration. It also pins the cells of a journaled chaos run,
//! sorted, since a journal's frame order is the one thing a schedule
//! may change.

use wsinterop::core::campaign::ExchangeTransport;
use wsinterop::core::journal::read_journal;
use wsinterop::core::{BreakerConfig, Campaign, FaultPlan};
use wsinterop::typecat::rng::fnv1a;

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Runs `campaign` at each thread count and asserts every run renders
/// to the pinned digest.
fn assert_pinned(label: &str, campaign: impl Fn() -> Campaign, threads: &[usize], pin: &str) {
    for &n in threads {
        let run = campaign().with_threads(n).run_with_stats();
        assert_eq!(digest(&format!("{run:?}")), pin, "{label} at -j{n}");
    }
}

#[test]
fn fault_free_stride_7_is_pinned_at_any_thread_count() {
    assert_pinned(
        "fault-free stride 7",
        || Campaign::sampled(7),
        &[1, 2, 8],
        "6923afebefe258c1",
    );
}

#[test]
fn chaos_stride_13_is_pinned_at_any_thread_count() {
    for (seed, pin) in [(42, "c1180bce139b86d7"), (7, "ec495c96978114f4")] {
        assert_pinned(
            &format!("chaos seed {seed}"),
            || Campaign::sampled(13).with_faults(FaultPlan::seeded(seed)),
            &[1, 3],
            pin,
        );
    }
}

#[test]
fn chaos_with_breaker_stride_50_is_pinned_at_any_thread_count() {
    assert_pinned(
        "chaos + breaker",
        || {
            Campaign::sampled(50)
                .with_faults(FaultPlan::seeded(42))
                .with_breaker(BreakerConfig::new(1, 5))
        },
        &[1, 8],
        "279f10be7fbadf8e",
    );
}

#[test]
fn tcp_chaos_stride_200_is_pinned() {
    assert_pinned(
        "tcp chaos",
        || {
            Campaign::sampled(200)
                .with_faults(FaultPlan::seeded(42))
                .with_transport(ExchangeTransport::TcpLoopback)
        },
        &[1, 2],
        "ef3f30d3fad90d39",
    );
}

#[test]
fn journaled_chaos_cells_are_pinned_up_to_frame_order() {
    let path = std::env::temp_dir().join(format!(
        "wsitool-schedule-identity-{}.journal",
        std::process::id()
    ));
    Campaign::sampled(13)
        .with_faults(FaultPlan::seeded(42))
        .with_threads(3)
        .with_journal(&path)
        .run();
    let mut cells = read_journal(&path).expect("journal reads back").cells;
    std::fs::remove_file(&path).ok();
    cells.sort_by(|a, b| {
        let key = |c: &wsinterop::core::JournalCell| {
            (c.record.server, c.record.client, c.record.fqcn.clone())
        };
        key(a).cmp(&key(b))
    });
    assert_eq!(digest(&format!("{cells:?}")), "844d7c71907721b0");
}
