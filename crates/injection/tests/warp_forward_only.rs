//! The warp cursor only moves forward: at one thread a cycle-sorted
//! campaign never discards its cursor, even when strikes are dense enough
//! that the cursor's last multi-cycle step straddles the next target.
//!
//! The cursor counters are process-wide, so this check lives in a test
//! binary of its own where no other campaign can move them.

use sea_injection::warp::{reset_cursor, WARP_CURSOR_RESETS, WARP_HANDOFFS};
use sea_injection::{run_campaign, CampaignConfig, WarpPolicy};
use sea_workloads::{Scale, Workload};

#[test]
fn dense_single_thread_campaign_never_resets_its_cursor() {
    let w = Workload::Crc32.build(Scale::Tiny);
    let cfg = CampaignConfig {
        samples_per_component: 200,
        threads: 1,
        warp: Some(WarpPolicy::default()),
        ..CampaignConfig::default()
    };
    reset_cursor();
    let resets = WARP_CURSOR_RESETS.get();
    let handoffs = WARP_HANDOFFS.get();

    let r = run_campaign("CRC32", &w, &cfg).unwrap();

    let runs: u64 = r.per_component.iter().map(|c| c.counts.total()).sum();
    assert_eq!(
        WARP_HANDOFFS.get() - handoffs,
        runs,
        "every run is a handoff"
    );
    assert_eq!(
        WARP_CURSOR_RESETS.get() - resets,
        0,
        "the cursor was discarded and re-seeded"
    );
}
