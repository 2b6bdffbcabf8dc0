//! `bench_warp` — measures the warp cursor end to end and records it as
//! `BENCH_warp.json`.
//!
//! One measurement (`campaign_speedup`): a small checkpoint-sparse
//! injection campaign with the warp cursor off and on. The cursor
//! amortizes detailed prefix execution across each worker's cycle-sorted
//! run block, so the campaign spends its time on post-injection suffixes
//! instead of re-simulating prefixes. Both arms must produce identical
//! per-component tallies — the bit-exact contract — which this binary
//! asserts.
//!
//! Usage: `bench_warp [--reps N] [--tiny] [--samples N] [--out FILE]`

use sea_core::injection::{run_campaign, CampaignConfig, WarpPolicy};
use sea_core::trace::json::ObjWriter;
use sea_core::{MachineConfig, Scale, Workload};
use std::time::Instant;

struct Args {
    reps: u32,
    scale: Scale,
    samples: u32,
    out: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        reps: 5,
        // Full-scale inputs by default; tiny runs drown in timer noise.
        scale: Scale::Default,
        samples: 8,
        out: std::path::PathBuf::from("BENCH_warp.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> String {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--reps" => {
                a.reps = need(i).parse().expect("--reps N");
                i += 2;
            }
            "--samples" => {
                a.samples = need(i).parse().expect("--samples N");
                i += 2;
            }
            "--out" => {
                a.out = need(i).into();
                i += 2;
            }
            "--tiny" => {
                a.scale = Scale::Tiny;
                i += 1;
            }
            other => panic!(
                "unknown flag `{other}` (usage: bench_warp [--reps N] [--tiny] \
                 [--samples N] [--out FILE])"
            ),
        }
    }
    a
}

/// End-to-end measurement: a checkpoint-sparse campaign, cursor off vs
/// on, interleaved reps, min wall per arm. Asserts identical tallies (the
/// bit-exact contract).
fn bench_campaign(workload: Workload, args: &Args, w: &mut ObjWriter) {
    let built = workload.build(args.scale);
    let cfg = |warp: bool| CampaignConfig {
        machine: MachineConfig::cortex_a9_scaled(),
        samples_per_component: args.samples,
        threads: 1,
        warp: warp.then(WarpPolicy::default),
        ..CampaignConfig::default()
    };
    eprintln!(
        "bench_warp: campaign ({workload}), {} samples/component, {} rep pairs…",
        args.samples, args.reps
    );
    let mut off_wall = f64::INFINITY;
    let mut on_wall = f64::INFINITY;
    let mut runs = 0;
    for _ in 0..args.reps.max(1) {
        let t = Instant::now();
        let off = run_campaign(workload.name(), &built, &cfg(false)).expect("campaign");
        off_wall = off_wall.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let on = run_campaign(workload.name(), &built, &cfg(true)).expect("campaign");
        on_wall = on_wall.min(t.elapsed().as_secs_f64());

        // The contract the `warp-equivalence` CI job holds at the journal
        // byte level: cursor clones change wall time, never outcomes.
        assert_eq!(
            off.per_component, on.per_component,
            "warp cursor changed campaign outcomes"
        );
        runs = on.total_injections();
    }
    let speedup = off_wall / on_wall.max(1e-9);
    w.u64_field("campaign_runs", runs)
        .f64_field("campaign_detailed_wall_s", off_wall)
        .f64_field("campaign_warp_wall_s", on_wall)
        .f64_field("campaign_speedup", speedup);
    println!(
        "campaign ({}): {off_wall:.2}s → {on_wall:.2}s  ({speedup:.2}x, {runs} runs)",
        workload.name(),
    );
}

fn main() {
    let args = parse_args();
    let mut w = ObjWriter::new();
    w.str_field("bench", "warp").str_field(
        "scale",
        match args.scale {
            Scale::Tiny => "tiny",
            Scale::Default => "default",
        },
    );

    bench_campaign(Workload::Crc32, &args, &mut w);

    let json = w.finish();
    std::fs::write(&args.out, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out.display()));
    println!("written to {}", args.out.display());
}
