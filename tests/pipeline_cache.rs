//! End-to-end contract of the parse-once campaign pipeline: generating
//! from the deploy-time parse must be invisible in the results (shared
//! and text-path runs bit-identical, with and without fault injection)
//! and visible only in the accounting — one parse per published
//! document, one generation step per executed cell.

use proptest::prelude::*;
use wsinterop::core::{
    BreakerConfig, Campaign, CampaignResults, FaultKind, FaultPlan, FaultReport, PipelineStats,
};

#[test]
fn cache_is_invisible_in_campaign_results() {
    let cached = Campaign::sampled(199).run();
    let uncached = Campaign::sampled(199).with_doc_cache(false).run();
    assert_eq!(cached.services, uncached.services);
    assert_eq!(cached.tests, uncached.tests);
}

#[test]
fn cache_is_invisible_under_fault_injection() {
    let (cached, cached_report) = Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(7))
        .run_with_report();
    let (uncached, uncached_report) = Campaign::sampled(131)
        .with_faults(FaultPlan::seeded(7))
        .with_doc_cache(false)
        .run_with_report();
    assert_eq!(cached.services, uncached.services);
    assert_eq!(cached.tests, uncached.tests);
    assert_eq!(cached_report, uncached_report);
}

#[test]
fn stats_surface_the_sharing() {
    let (results, _, stats) = Campaign::sampled(199).run_with_stats();
    let deployed = results.services.iter().filter(|s| s.deployed).count();
    // One parse per deployed service; its eleven clients share it.
    assert_eq!(stats.parses, deployed);
    assert_eq!(stats.gen_runs, results.tests.len());
    let rendered = stats.to_string();
    assert!(rendered.contains("Parse-once pipeline"), "{rendered}");
}

/// Checks one shared-parse run and its text-path twin: the accounting
/// of each, and that the twin changed nothing but the accounting.
///
/// A *live* cell is one that was executed and whose tool ran: no cell
/// is replayed here, a breaker-skipped cell counts as never run, and
/// an injected generator crash fires before the tool runs.
fn check_parse_once(
    (shared, shared_report, shared_stats): &(CampaignResults, FaultReport, PipelineStats),
    (text, text_report, text_stats): &(CampaignResults, FaultReport, PipelineStats),
) -> Result<(), String> {
    let deployed = shared.services.iter().filter(|s| s.deployed).count();
    let live = shared.tests.len()
        - shared_report.panics_isolated
        - shared_report.breaker_skipped_sites.len();
    let checks = [
        (shared.services == text.services, "services differ"),
        (shared.tests == text.tests, "tests differ"),
        (shared_report == text_report, "fault reports differ"),
        (shared_stats.parses == deployed, "shared run parsed other than once per service"),
        (shared_stats.gen_runs == live, "shared run generated other than once per live cell"),
        (shared_stats.text_generates == 0, "shared run took the text path"),
        (text_stats.gen_runs == 0, "text-path run generated from the shared parse"),
        (text_stats.text_generates == live, "text-path run skipped live cells"),
        (
            text_stats.parses == deployed + live,
            "text-path run parsed other than once per service plus once per live cell",
        ),
        (
            shared_stats.distinct_docs == text_stats.distinct_docs
                && shared_stats.distinct_docs <= deployed,
            "distinct documents disagree",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        None => Ok(()),
        Some((_, what)) => Err(format!("{what}: {shared_stats:?} vs {text_stats:?}")),
    }
}

#[test]
fn chaos_cells_generate_from_the_one_deploy_time_parse() {
    let chaos = || Campaign::sampled(131).with_faults(FaultPlan::seeded(7));
    let shared = chaos().run_with_stats();
    let text = chaos().with_doc_cache(false).run_with_stats();
    assert!(shared.1.injected_total() > 0, "seed must land faults");
    assert!(shared.1.panics_isolated > 0, "seed must crash a generator");
    let damaged = shared.1.counts(FaultKind::WsdlTruncation).injected
        + shared.1.counts(FaultKind::WsdlCorruption).injected;
    assert!(damaged > 0, "seed must damage a description");
    check_parse_once(&shared, &text).unwrap();
}

proptest! {
    // Campaign runs are milliseconds each at these strides, but a full
    // default case count would still dominate the suite — a modest
    // sample over (stride, seed, threads) covers the fault mixes that
    // matter.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos cells reuse the deploy-time parse: for arbitrary stride,
    /// fault seed, thread count and optional circuit breaker
    /// `(threshold, cooldown)`, the shared-parse chaos campaign is
    /// bit-identical — services, tests and fault report — to the
    /// text-path campaign (`with_doc_cache(false)`), where every cell
    /// re-parses the published text, and each run's accounting holds.
    /// The same campaign at `-j1` gives the same results, breaker
    /// trips and breaker-skipped sites.
    #[test]
    fn shared_parse_chaos_campaign_equals_the_text_path(
        stride in 97usize..400,
        seed in 0u64..1000,
        threads in 1usize..9,
        breaker in prop::option::of((1u32..3, 1u32..10)),
    ) {
        let chaos = |threads| {
            let campaign = Campaign::sampled(stride)
                .with_faults(FaultPlan::seeded(seed))
                .with_threads(threads);
            match breaker {
                Some((threshold, cooldown)) => {
                    campaign.with_breaker(BreakerConfig::new(threshold, cooldown))
                }
                None => campaign,
            }
        };
        let shared = chaos(threads).run_with_stats();
        let text = chaos(threads).with_doc_cache(false).run_with_stats();
        prop_assert_eq!(check_parse_once(&shared, &text), Ok(()));

        let (single, single_report, _) = chaos(1).run_with_stats();
        prop_assert_eq!(&single, &shared.0);
        prop_assert_eq!(single_report.breaker_trips, shared.1.breaker_trips);
        prop_assert_eq!(
            &single_report.breaker_skipped_sites,
            &shared.1.breaker_skipped_sites
        );
    }
}

/// Journals record [`Campaign::config_hash`] in their header and a
/// resume refuses a mismatch, so the hash is a compatibility contract:
/// these values were recorded before the doc cache lost its memos and
/// must hold for journals written then to keep resuming.
#[test]
fn config_hash_is_pinned_for_journal_compatibility() {
    let hash = |campaign: Campaign| format!("0x{:016x}", campaign.config_hash());
    assert_eq!(hash(Campaign::sampled(200)), "0xecf51e068c51ef7a");
    assert_eq!(
        hash(Campaign::sampled(200).with_faults(FaultPlan::seeded(42))),
        "0xd1af0ec1a9c6e43c"
    );
    assert_eq!(
        hash(Campaign::sampled(200).with_doc_cache(false)),
        "0x05c3b7751bb8daf1"
    );
}
