//! The warp cursor's correctness bar at the campaign level: arming the
//! cursor (`CampaignConfig::warp`) must never change what a campaign
//! computes — every injected run classifies identically, and a journaled
//! campaign produces byte-identical journal files.
//!
//! This file holds the handoff bar: a machine cloned off the fault-free
//! cursor is *bit-exact* detailed state, indistinguishable from stepping
//! a fresh boot to the same cycle.

use proptest::prelude::*;
use sea_injection::{
    run_campaign, run_one, CampaignConfig, CheckpointPolicy, InjectionSpec, JournalSpec, WarpPolicy,
};
use sea_microarch::Component;
use sea_platform::{boot, golden_run, GoldenRun, RunLimits};
use sea_workloads::{BuiltWorkload, Scale, Workload};
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sea_warp_eq_{}_{}", name, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cfg() -> CampaignConfig {
    CampaignConfig {
        samples_per_component: 5,
        components: vec![Component::RegFile, Component::L1D, Component::DTlb],
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn warp_cfg() -> CampaignConfig {
    CampaignConfig {
        warp: Some(WarpPolicy::default()),
        ..tiny_cfg()
    }
}

/// Every component at 200 samples: strikes dense enough that a
/// multi-cycle step of the cursor often straddles the next target.
fn dense_cfg() -> CampaignConfig {
    CampaignConfig {
        samples_per_component: 200,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// Shared golden run for the property tests (booting per-case would
/// dominate the suite's runtime).
fn fixture() -> &'static (BuiltWorkload, GoldenRun) {
    static FIXTURE: OnceLock<(BuiltWorkload, GoldenRun)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = Workload::Crc32.build(Scale::Tiny);
        let cfg = tiny_cfg();
        let golden = golden_run(cfg.machine, &w.image, &cfg.kernel, cfg.golden_budget_cycles)
            .expect("tiny golden run");
        (w, golden)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cursor mechanism in miniature: a fault-free machine advanced to
    /// cycle `c` (fast path armed, as the cursor always runs), cloned, and
    /// stepped on to cycle `n` is deep-fingerprint-identical to a fresh
    /// boot stepped straight to `n`. The workload's prefix crosses SVC
    /// mode changes and timer ticks, so the clone point can land anywhere
    /// around them.
    #[test]
    fn cursor_clone_then_detailed_matches_pure_detailed_stepping(
        c_frac in 0.0f64..1.0,
        n_frac in 0.0f64..1.0,
    ) {
        let (w, golden) = fixture();
        let cfg = tiny_cfg();
        let c = ((golden.cycles as f64 * c_frac.min(n_frac)) as u64).min(golden.cycles - 1);
        let n = ((golden.cycles as f64 * c_frac.max(n_frac)) as u64).min(golden.cycles - 1);

        let mut pure = boot(cfg.machine, &w.image, &cfg.kernel).unwrap().0;
        while pure.cycles() < n {
            pure.step();
        }

        let mut cursor = boot(cfg.machine, &w.image, &cfg.kernel).unwrap().0;
        cursor.fastpath_enable(sea_microarch::FastPathConfig::default());
        while cursor.cycles() < c {
            cursor.step();
        }
        let mut handed_off = cursor.clone();
        handed_off.fastpath_disable();
        while handed_off.cycles() < n {
            handed_off.step();
        }

        prop_assert_eq!(
            pure.state_fingerprint_deep(),
            handed_off.state_fingerprint_deep(),
            "cursor clone diverged: clone at {}, target {}", c, n
        );
    }

    /// Any random fault — any component, any bit, any strike cycle —
    /// classifies identically with the warp cursor on and off.
    #[test]
    fn random_faults_classify_identically(
        which in 0usize..Component::ALL.len(),
        bit_frac in 0.0f64..1.0,
        cycle_frac in 0.0f64..1.0,
    ) {
        let (w, golden) = fixture();
        let detailed = tiny_cfg();
        let warp = warp_cfg();
        let component = Component::ALL[which];
        let bits = sea_microarch::System::new(detailed.machine, sea_microarch::NullDevice)
            .component_bits(component);
        let spec = InjectionSpec {
            component,
            bit: ((bits as f64 * bit_frac) as u64).min(bits - 1),
            cycle: ((golden.cycles as f64 * cycle_frac) as u64).min(golden.cycles - 1),
        };
        let limits = RunLimits::from_golden(golden.cycles, detailed.kernel.tick_period);
        let a = run_one(w, &detailed, None, spec, limits);
        let b = run_one(w, &warp, None, spec, limits);
        prop_assert_eq!(a, b, "warp/detailed outcome mismatch for {:?}", spec);
    }
}

#[test]
fn warp_campaign_journal_is_byte_identical_to_detailed_campaign() {
    let w = Workload::Crc32.build(Scale::Tiny);
    for (name, base) in [("sparse", tiny_cfg()), ("dense", dense_cfg())] {
        let detailed_dir = scratch(&format!("detailed_{name}"));
        let warp_dir = scratch(&format!("warp_{name}"));

        let mut detailed = base.clone();
        detailed.journal = Some(JournalSpec::new(detailed_dir.clone()));
        let a = run_campaign("CRC32", &w, &detailed).unwrap();

        let handoffs_before = sea_injection::warp::WARP_HANDOFFS.get();
        let mut warp = base;
        warp.warp = Some(WarpPolicy::default());
        warp.journal = Some(JournalSpec::new(warp_dir.clone()));
        let b = run_campaign("CRC32", &w, &warp).unwrap();
        assert!(
            sea_injection::warp::WARP_HANDOFFS.get() > handoffs_before,
            "{name}: warp cursor never served a machine"
        );

        // Identical classifications and tallies…
        assert_eq!(a.per_component, b.per_component, "{name}");
        assert_eq!(a.golden_cycles, b.golden_cycles, "{name}");
        // …and byte-identical journals (same config hash: `warp` is a
        // runtime-only knob, like `fast_path`, `threads` and `checkpoints`).
        let ja = fs::read(detailed_dir.join("crc32.inject.seaj")).unwrap();
        let jb = fs::read(warp_dir.join("crc32.inject.seaj")).unwrap();
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "{name}: warp journal differs from detailed journal");

        let _ = fs::remove_dir_all(&detailed_dir);
        let _ = fs::remove_dir_all(&warp_dir);
    }
}

#[test]
fn warp_composes_with_checkpoint_restore() {
    // Cursors jump forward through checkpoints (a cursor behind the
    // nearest epoch is discarded in favour of a restore), so the two
    // mechanisms must agree when armed together.
    let w = Workload::MatMul.build(Scale::Tiny);

    let plain = tiny_cfg();
    let a = run_campaign("MatMul", &w, &plain).unwrap();

    let mut both = warp_cfg();
    both.checkpoints = Some(CheckpointPolicy {
        dir: None,
        interval: 10_000,
    });
    let b = run_campaign("MatMul", &w, &both).unwrap();

    assert_eq!(a.per_component, b.per_component);
}

#[test]
fn max_advance_zero_degrades_to_the_plain_path() {
    // A policy that never lets the cursor run degrades every handoff to
    // the ordinary restore/boot path — same outcomes, no cursor traffic.
    let w = Workload::Crc32.build(Scale::Tiny);

    let a = run_campaign("CRC32", &w, &tiny_cfg()).unwrap();
    let mut capped = tiny_cfg();
    capped.warp = Some(WarpPolicy { max_advance: 0 });
    let b = run_campaign("CRC32", &w, &capped).unwrap();

    assert_eq!(a.per_component, b.per_component);
}
