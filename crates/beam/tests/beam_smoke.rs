//! Beam-model smoke tests: exposure accounting, residency measurement,
//! and the FIT_raw measurement loop.

use sea_beam::{measure_fit_raw, measure_kernel_residency, run_session, BeamConfig};
use sea_platform::{boot, run, FaultClass, RunLimits};
use sea_workloads::{Scale, Workload};

#[test]
fn session_accounting_is_self_consistent() {
    let w = Workload::MatMul.build(Scale::Tiny);
    let cfg = BeamConfig::default();
    let r = run_session("MatMul", &w, &cfg, 120).unwrap();
    assert_eq!(r.counts.total(), 120);
    assert!(r.fluence > 0.0 && r.beam_seconds > 0.0);
    assert!(
        r.runs_represented > 1.0,
        "importance sampling must compress many runs"
    );
    // Error rate per execution must respect the paper's <1/1000 design.
    let errors_per_run = r.counts.total() as f64 / r.runs_represented;
    assert!(errors_per_run < 1e-3, "errors/run = {errors_per_run}");
    // NYC-equivalent exposure should be enormous (paper: 2.9M years for
    // the full campaign).
    assert!(r.nyc_years > 1.0);
    // The unmodeled platform logic guarantees some system crashes.
    assert!(r.counts.sys_crash > 0);
}

#[test]
fn small_footprint_workload_leaves_more_kernel_in_cache() {
    let cfg = BeamConfig::default();
    let small = Workload::SusanC.build(Scale::Tiny); // tiny image
    let large = Workload::Crc32.build(Scale::Default); // 96 KB stream
    let fs = measure_kernel_residency(&small, &cfg).unwrap();
    let fl = measure_kernel_residency(&large, &cfg).unwrap();
    assert!(
        fs > fl,
        "small workload should leave more kernel lines resident ({fs:.3} vs {fl:.3})"
    );
}

#[test]
fn kernel_residency_on_the_fast_path_equals_the_reference_path() {
    let cfg = BeamConfig::default();
    for w in [Workload::Qsort, Workload::Crc32] {
        let built = w.build(Scale::Tiny);
        let measured = measure_kernel_residency(&built, &cfg).unwrap();

        // The same measurement stepped on the reference path.
        let (mut sys, _) = boot(cfg.machine, &built.image, &cfg.kernel).unwrap();
        assert!(!sys.fastpath_enabled());
        let limits = RunLimits {
            max_cycles: cfg.golden_budget_cycles,
            tick_window: u64::MAX,
            wall_ms: 0,
        };
        let _ = run(&mut sys, limits);
        let (mut kernel_bits, mut total_bits) = (0f64, 0f64);
        for cache in [&sys.mem.l1i, &sys.mem.l1d, &sys.mem.l2] {
            let per_line = cache.total_bits() as f64 / cache.lines() as f64;
            total_bits += cache.total_bits() as f64;
            kernel_bits += cache
                .valid_line_addrs()
                .filter(|&a| a < sea_kernel::USER_POOL_BASE)
                .count() as f64
                * per_line;
        }
        assert_eq!(measured, kernel_bits / total_bits, "{w:?}");
    }
}

#[test]
fn beam_sessions_are_deterministic() {
    let w = Workload::StringSearch.build(Scale::Tiny);
    let cfg = BeamConfig::default();
    let a = run_session("ss", &w, &cfg, 40).unwrap();
    let b = run_session("ss", &w, &cfg, 40).unwrap();
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.fluence, b.fluence);
}

#[test]
fn fit_raw_measurement_recovers_configured_sensitivity() {
    let cfg = BeamConfig::default();
    let r = measure_fit_raw(&cfg, 60);
    assert_eq!(r.strikes, 60);
    // The probe must detect a decent share of the injected upsets: data
    // bits of resident lines dominate the L1D array.
    // Efficiency can exceed 1: a tag-bit strike rehomes a whole line and
    // the read-back detects every word of it (a realistic multi-word
    // corruption signature).
    assert!(
        r.efficiency > 0.4 && r.efficiency <= 3.0,
        "detection efficiency {} out of range",
        r.efficiency
    );
    // And the measured FIT_raw must be within ~3× of the paper's value.
    assert!(
        (1.0e-5..9.0e-5).contains(&r.fit_raw_measured),
        "measured FIT_raw {}",
        r.fit_raw_measured
    );
}

#[test]
fn fit_rates_are_finite_and_positive_for_struck_sessions() {
    let w = Workload::Qsort.build(Scale::Tiny);
    let cfg = BeamConfig::default();
    let r = run_session("Qsort", &w, &cfg, 150).unwrap();
    for class in [FaultClass::Sdc, FaultClass::AppCrash, FaultClass::SysCrash] {
        let fit = r.fit(class);
        assert!(fit.is_finite() && fit >= 0.0, "{class}: {fit}");
    }
    assert!(r.total_fit() > 0.0);
}

#[test]
fn origin_accounting_sums_to_total_and_unmodeled_behaves() {
    use sea_beam::StrikeOrigin;
    let w = Workload::Dijkstra.build(Scale::Tiny);
    let cfg = BeamConfig::default();
    let r = run_session("Dijkstra", &w, &cfg, 300).unwrap();
    let by_origin_total: u64 = r.by_origin.iter().map(|(_, c)| c.total()).sum();
    assert_eq!(by_origin_total, r.counts.total());
    for (origin, counts) in &r.by_origin {
        match origin {
            StrikeOrigin::PlatformLogic => {
                assert_eq!(counts.sys_crash, counts.total(), "PL hits are SysCrash");
            }
            StrikeOrigin::CoreLatch => {
                assert_eq!(counts.app_crash, counts.total(), "latch hits are AppCrash");
            }
            StrikeOrigin::IdleSram => {
                assert_eq!(counts.sdc + counts.app_crash, 0, "idle strikes cannot SDC");
            }
            StrikeOrigin::Sram(_) => {}
        }
    }
}
