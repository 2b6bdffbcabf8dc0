//! Measuring the raw per-bit FIT rate (§VI of the paper).
//!
//! The paper's procedure: fill the L1 data cache byte-by-byte with a known
//! pattern, wait, read it back, and count mismatches; dividing the
//! measured FIT by the tested bits gives FIT per bit (their result:
//! 2.76×10⁻⁵). Here the same guest microbenchmark runs under the beam
//! model: strikes are sampled into the L1D array during execution, and the
//! *program's own read-back check* detects and reports the upsets — the
//! detection path is end-to-end, not an oracle.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sea_injection::InjectionSpec;
use sea_microarch::{Component, System};
use sea_platform::{RunLimits, RunOutcome};
use sea_workloads::{build_l1_probe, L1ProbeParams};

use crate::config::{sigma_to_fit, BeamConfig};

/// Result of a FIT_raw measurement campaign.
#[derive(Clone, Copy, Debug)]
pub struct RawFitResult {
    /// Strikes sampled into the L1D array.
    pub strikes: u32,
    /// Upsets the guest probe detected and reported.
    pub detected_upsets: u64,
    /// Runs that crashed instead of reporting (strike hit the probe's own
    /// control state).
    pub crashed_runs: u32,
    /// Represented fluence (n/cm²).
    pub fluence: f64,
    /// Measured per-bit cross-section (cm²).
    pub sigma_bit_measured: f64,
    /// Measured FIT per bit — the paper's 2.76×10⁻⁵ quantity.
    pub fit_raw_measured: f64,
    /// Detection efficiency versus the configured (true) cross-section.
    pub efficiency: f64,
}

/// Measures FIT_raw with `strikes` sampled L1D strikes.
///
/// # Panics
///
/// Panics if the probe's fault-free run fails (setup bug).
pub fn measure_fit_raw(cfg: &BeamConfig, strikes: u32) -> RawFitResult {
    let params = L1ProbeParams {
        buf_bytes: cfg.machine.l1d.size_bytes,
        sweeps: 4,
        dwell_iters: 20_000,
    };
    let probe = build_l1_probe(params);
    let golden = sea_platform::golden_run(cfg.machine, &probe.image, &cfg.kernel, 500_000_000)
        .expect("L1 probe golden run");
    let limits = RunLimits::from_golden(golden.cycles, cfg.kernel.tick_period);

    let sys = System::new(cfg.machine, sea_microarch::NullDevice);
    let l1d_bits = sys.component_bits(Component::L1D);
    let buf_bits = params.buf_bytes as u64 * 8;

    // Pre-sample deterministically, then measure strikes in parallel.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1117);
    let specs: Vec<InjectionSpec> = (0..strikes)
        .map(|_| InjectionSpec {
            component: Component::L1D,
            bit: rng.gen_range(0..l1d_bits),
            cycle: rng.gen_range(0..golden.cycles),
        })
        .collect();
    let detected_total = AtomicU64::new(0);
    let crashed_total = AtomicU32::new(0);
    let next = AtomicUsize::new(0);
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        cfg.threads
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.min(specs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let spec = specs[i];
                // Re-run the probe with the strike; its own read-back
                // output reports the upsets.
                let (mut sysb, _) =
                    sea_platform::boot(cfg.machine, &probe.image, &cfg.kernel).expect("probe boot");
                while sysb.cycles() < spec.cycle {
                    sysb.step();
                }
                sysb.flip_bit(spec.component, spec.bit);
                match sea_platform::run(&mut sysb, limits) {
                    RunOutcome::Exited { output, .. } if output.len() >= 8 => {
                        let n = u32::from_le_bytes(output[4..8].try_into().unwrap());
                        detected_total.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    _ => {
                        crashed_total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let detected = detected_total.into_inner();
    let crashed = crashed_total.into_inner();

    // Each strike represents fluence 1/(σ_bit × l1d_bits) (flux cancels).
    let fluence = strikes as f64 / (cfg.sigma_bit * l1d_bits as f64);
    let sigma_bit_measured = detected as f64 / (fluence * buf_bits as f64);
    RawFitResult {
        strikes,
        detected_upsets: detected,
        crashed_runs: crashed,
        fluence,
        sigma_bit_measured,
        fit_raw_measured: sigma_to_fit(sigma_bit_measured),
        efficiency: sigma_bit_measured / cfg.sigma_bit,
    }
}
