//! Regenerates — and gates on — the repository benchmark baselines
//! (`BENCH_seed.json`, `BENCH_scaling.json`, `BENCH_array.json`,
//! `BENCH_tenants.json`) through the parallel experiment runner.
//!
//! ```sh
//! # Rewrite all four baselines (commitment-stream-changing PRs):
//! cargo run --release -p sprinkler_experiments --bin regen_baselines -- \
//!     --label "PR N: what changed the streams"
//!
//! # CI perf-regression gate: recompute the deterministic metrics_check
//! # sections and diff them against the committed files (nonzero exit on
//! # drift):
//! cargo run --release -p sprinkler_experiments --bin regen_baselines -- --check
//!
//! # Fire-and-forget smoke of the parallel fan-out paths:
//! cargo run --release -p sprinkler_experiments --bin regen_baselines -- --quick
//! ```
//!
//! `--label` stamps the rewritten files with the change they baseline (an
//! unlabeled run says so in the output).  Each baseline file carries two kinds
//! of content: *timings* (machine-dependent, informational) and a
//! `metrics_check` object of **simulated** figures — bandwidth ratios,
//! aggregate KB/s — that are deterministic across machines.  `--check`
//! recomputes only the latter and compares within [`CHECK_TOLERANCE`], so a
//! scheduler or replay change that silently shifts any headline result fails
//! CI until the baselines are regenerated deliberately.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use sprinkler_core::SchedulerKind;
use sprinkler_experiments::micro::{self, Timing, SAMPLES};
use sprinkler_experiments::runner::ExperimentScale;
use sprinkler_experiments::{fig10, fig15_scaling, scenario};
use sprinkler_flash::Lpn;
use sprinkler_sim::{AllocScope, CountingAllocator, SimTime};
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{RunMetrics, Ssd, SsdConfig};

/// Every baseline figure is measured under the counting allocator, so the
/// steady-state allocs-per-I/O figures below are real measurements, not
/// assertions carried over from the test suite.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Relative tolerance of the `--check` gate.  The simulated metrics are
/// deterministic; the slack only absorbs the 4-decimal rounding the baseline
/// files store.
const CHECK_TOLERANCE: f64 = 1e-3;

/// Times the registered body `name` exactly as `cargo bench` does.
fn time(name: &str) -> Timing {
    let body = micro::find(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
    let timing = body.time(SAMPLES);
    timing.print(name);
    timing
}

/// Escapes a string for interpolation into a JSON string literal.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn today() -> String {
    // Derive a calendar date from the system clock without chrono: civil-date
    // conversion of days since the Unix epoch (Howard Hinnant's algorithm).
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() / 86_400)
        .unwrap_or(0) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

// ---------------------------------------------------------------------------
// Deterministic metric recipes: each baseline's `metrics_check` keys map to
// simulated figures recomputed by exactly one function below, shared by the
// regeneration path and the `--check` gate.
// ---------------------------------------------------------------------------

/// Replays the steady-state workload of tests/zero_alloc.rs (fixed 8-page
/// requests, a warm-up-mapped 512-LPN write footprint, roaming reads) through
/// `Ssd::run_stream` under SPK3, measuring allocation events after the
/// warm-up boundary.  Returns the run metrics and allocations per measured
/// I/O — 0.0 by construction, and baselined so the `--check` perf gate fails
/// alongside the release test gate if a per-I/O allocation sneaks back in.
fn steady_replay(chips: usize) -> (RunMetrics, f64) {
    const TOTAL: u64 = 6_000;
    const WARMUP: u64 = 3_000;
    const PAGES: u32 = 8;
    const WRITE_BASES: u64 = 64;
    let config = SsdConfig::paper_default()
        .with_chip_count(chips)
        .with_blocks_per_plane(64);
    let scope: Rc<Cell<Option<AllocScope>>> = Rc::new(Cell::new(None));
    let steady_allocs: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let (scope_w, allocs_w) = (Rc::clone(&scope), Rc::clone(&steady_allocs));
    let mut yielded = 0u64;
    let source = std::iter::from_fn(move || {
        if yielded == TOTAL {
            if let Some(open) = scope_w.get() {
                allocs_w.set(Some(open.allocations()));
            }
            return None;
        }
        let i = yielded;
        yielded += 1;
        if yielded == WARMUP {
            scope_w.set(Some(AllocScope::begin()));
        }
        let (direction, lpn) = if i.is_multiple_of(2) {
            (Direction::Read, Lpn::new((i * 13) % 4096))
        } else {
            (Direction::Write, Lpn::new((i % WRITE_BASES) * PAGES as u64))
        };
        Some(HostRequest::new(
            i,
            SimTime::from_nanos(i * 1_000),
            direction,
            lpn,
            PAGES,
        ))
    });
    let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).expect("steady-replay config is valid");
    let metrics = ssd.run_stream(source);
    let allocs = steady_allocs.get().expect("the replay drained the source") as f64;
    (metrics, allocs / (TOTAL - WARMUP) as f64)
}

/// `BENCH_seed.json`: the fig10 headline comparison at bench scale, plus the
/// always-on telemetry counters and the steady-state allocation budget of the
/// paper-geometry replay.
fn seed_metrics() -> Vec<(&'static str, f64)> {
    let comparison = fig10::run(&ExperimentScale::bench(), None);
    let bandwidth_x = comparison.bandwidth_speedup(SchedulerKind::Spk3, SchedulerKind::Vas);
    let latency_pct = 100.0 * comparison.latency_reduction(SchedulerKind::Spk3, SchedulerKind::Vas);
    let spk3_rounds: u64 = comparison
        .workloads
        .iter()
        .filter_map(|w| comparison.metrics(w, SchedulerKind::Spk3))
        .map(|m| m.telemetry.sched_rounds)
        .sum();
    let spk3_faro: u64 = comparison
        .workloads
        .iter()
        .filter_map(|w| comparison.metrics(w, SchedulerKind::Spk3))
        .map(|m| m.telemetry.faro_fast_path_rounds)
        .sum();
    let (steady, allocs_per_io) = steady_replay(64);
    vec![
        ("fig10_spk3_vas_bandwidth_x", bandwidth_x),
        ("fig10_spk3_vas_latency_reduction_pct", latency_pct),
        ("fig10_spk3_sched_rounds_total", spk3_rounds as f64),
        ("fig10_spk3_faro_fast_path_rounds_total", spk3_faro as f64),
        (
            "steady_replay_stream_admissions",
            steady.telemetry.stream_admissions as f64,
        ),
        ("steady_state_allocs_per_io", allocs_per_io),
    ]
}

/// `BENCH_scaling.json`: the quick-scale scaling panel at 16 and 64 chips.
fn scaling_metrics() -> Vec<(&'static str, f64)> {
    let result = fig15_scaling::run(&ExperimentScale::quick(), Some(&[16, 64]), Some(&[32]));
    let point = |chips, kind| {
        result
            .point(chips, 32, kind)
            .expect("swept point exists")
            .bandwidth_kb_per_sec
    };
    let rounds = |chips, kind| {
        result
            .point(chips, 32, kind)
            .expect("swept point exists")
            .sched_rounds as f64
    };
    let (steady_1024, allocs_per_io_1024) = steady_replay(1024);
    vec![
        ("scaling_vas_16chips_kbps", point(16, SchedulerKind::Vas)),
        ("scaling_vas_64chips_kbps", point(64, SchedulerKind::Vas)),
        ("scaling_spk3_16chips_kbps", point(16, SchedulerKind::Spk3)),
        ("scaling_spk3_64chips_kbps", point(64, SchedulerKind::Spk3)),
        (
            "scaling_spk3_vas_speedup_64chips",
            result.speedup(64, 32).expect("both schedulers ran"),
        ),
        // Round totals are exact telemetry counts: any change to the round
        // loop's decision stream (not just its speed) moves these and trips
        // the 0.1% gate.
        (
            "scaling_vas_64chips_sched_rounds",
            rounds(64, SchedulerKind::Vas),
        ),
        (
            "scaling_spk3_64chips_sched_rounds",
            rounds(64, SchedulerKind::Spk3),
        ),
        (
            "steady_replay_1024chips_sched_rounds",
            steady_1024.telemetry.sched_rounds as f64,
        ),
        ("steady_state_allocs_per_io_1024chips", allocs_per_io_1024),
    ]
}

/// `BENCH_array.json`: the array scale-out sweep at quick scale, plus the
/// adaptive-placement figures — the skew acceptance triple (uniform /
/// hot-shard / hot-shard-rebalance at the skew figure horizon) and the
/// modular-hot-set and heterogeneous headline cells, with the rebalancer's
/// placement counters and the merged summary's scheduler rounds and p99
/// baselined so the whole heat-track → migrate → merge path sits under the
/// perf gate.
fn array_metrics() -> Vec<(&'static str, f64)> {
    let scale = ExperimentScale::quick();
    let spk3 = |devices| scenario::array_scaleout_metrics(&scale, devices, SchedulerKind::Spk3);
    let n1 = spk3(1);
    let n4 = spk3(4);
    let n16 = spk3(16);
    let vas16 = scenario::array_scaleout_metrics(&scale, 16, SchedulerKind::Vas);
    let skew = |label| scenario::array_skew_figure_metrics(&scale, label, SchedulerKind::Spk3);
    let uniform = skew("uniform");
    let hot = skew("hot-shard");
    let rebalanced = skew("hot-shard-rebalance");
    // The headline acceptance figure: what fraction of the hot shard's
    // bandwidth cost the rebalancer claws back (0 = no better than static,
    // 1 = fully recovered to the uniform workload's bandwidth).
    let recovered = (rebalanced.summary.bandwidth_kb_per_sec - hot.summary.bandwidth_kb_per_sec)
        / (uniform.summary.bandwidth_kb_per_sec - hot.summary.bandwidth_kb_per_sec);
    let reb_adaptive = scenario::array_rebalance_metrics(&scale, "adaptive", SchedulerKind::Spk3);
    let reb_static = scenario::array_rebalance_metrics(&scale, "static", SchedulerKind::Spk3);
    let het_adaptive = scenario::array_hetero_metrics(&scale, "adaptive", SchedulerKind::Spk3);
    let het_static = scenario::array_hetero_metrics(&scale, "static", SchedulerKind::Spk3);
    vec![
        ("array_spk3_n1_kbps", n1.summary.bandwidth_kb_per_sec),
        ("array_spk3_n4_kbps", n4.summary.bandwidth_kb_per_sec),
        ("array_spk3_n16_kbps", n16.summary.bandwidth_kb_per_sec),
        ("array_vas_n16_kbps", vas16.summary.bandwidth_kb_per_sec),
        (
            "array_spk3_scaleout_x_n16_over_n1",
            n16.summary.bandwidth_kb_per_sec / n1.summary.bandwidth_kb_per_sec,
        ),
        ("array_spk3_n16_io_imbalance", n16.skew.io_imbalance),
        (
            "array_spk3_n16_sched_rounds",
            n16.summary.telemetry.sched_rounds as f64,
        ),
        (
            "array_spk3_n16_p99_latency_ns",
            n16.summary.p99_latency_ns as f64,
        ),
        (
            "array_skew_uniform_kbps",
            uniform.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_skew_hot_shard_kbps",
            hot.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_skew_rebalance_kbps",
            rebalanced.summary.bandwidth_kb_per_sec,
        ),
        ("array_skew_hot_shard_io_imbalance", hot.skew.io_imbalance),
        (
            "array_skew_rebalance_io_imbalance",
            rebalanced.skew.io_imbalance,
        ),
        ("array_skew_gap_recovered_frac", recovered),
        (
            "array_skew_rebalance_stripes_migrated",
            rebalanced.placement.stripes_migrated as f64,
        ),
        (
            "array_rebalance_static_kbps",
            reb_static.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_rebalance_adaptive_kbps",
            reb_adaptive.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_rebalance_adaptive_io_imbalance",
            reb_adaptive.skew.io_imbalance,
        ),
        (
            "array_rebalance_stripes_migrated",
            reb_adaptive.placement.stripes_migrated as f64,
        ),
        (
            "array_rebalance_migration_bytes",
            reb_adaptive.placement.migration_bytes as f64,
        ),
        (
            "array_rebalance_heat_decays",
            reb_adaptive.placement.heat_decays as f64,
        ),
        (
            "array_hetero_static_kbps",
            het_static.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_hetero_adaptive_kbps",
            het_adaptive.summary.bandwidth_kb_per_sec,
        ),
        (
            "array_hetero_static_weighted_io_imbalance",
            het_static.skew.weighted_io_imbalance,
        ),
        (
            "array_hetero_adaptive_weighted_io_imbalance",
            het_adaptive.skew.weighted_io_imbalance,
        ),
    ]
}

/// `BENCH_tenants.json`: the multi-tenant serving front at quick scale — the
/// tenant-mix fairness and per-class p99 figures, and the tenant-storm
/// isolation contract (victim p99 ratios pinned at 1.0-ish, storm-tenant p99
/// ratio showing the blast landed on the storming tenant), plus the mux's
/// admission counts summed over the storm's tenants so the DRR/bucket
/// decision stream itself is gated.
fn tenant_metrics() -> Vec<(&'static str, f64)> {
    let scale = ExperimentScale::quick();
    let mix = scenario::tenant_mix_outcome(&scale, SchedulerKind::Spk3);
    let p99 = |outcome: &sprinkler_tenants::TenantOutcome, name: &str| {
        outcome
            .metrics
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.p99_latency_ns as f64)
            .expect("tenant lane exists")
    };
    let baseline = scenario::tenant_storm_outcome(&scale, "baseline", SchedulerKind::Spk3);
    let storm = scenario::tenant_storm_outcome(&scale, "storm", SchedulerKind::Spk3);
    let storm_admission = |count: fn(&sprinkler_tenants::TenantAdmissionStats) -> u64| {
        storm.admission.iter().map(count).sum::<u64>() as f64
    };
    vec![
        ("tenant_mix_spk3_fairness_index", mix.fairness_index()),
        (
            "tenant_mix_spk3_interactive_p99_ns",
            p99(&mix, "interactive"),
        ),
        ("tenant_mix_spk3_streaming_p99_ns", p99(&mix, "streaming")),
        ("tenant_mix_spk3_batch_p99_ns", p99(&mix, "batch")),
        (
            "tenant_mix_spk3_interactive_slo_violations",
            mix.metrics
                .tenants
                .iter()
                .find(|t| t.name == "interactive")
                .map(|t| t.slo_violations as f64)
                .expect("interactive lane exists"),
        ),
        (
            "tenant_storm_spk3_interactive_p99_ratio",
            p99(&storm, "interactive") / p99(&baseline, "interactive"),
        ),
        (
            "tenant_storm_spk3_streaming_p99_ratio",
            p99(&storm, "streaming") / p99(&baseline, "streaming"),
        ),
        (
            "tenant_storm_spk3_batch_p99_ratio",
            p99(&storm, "batch") / p99(&baseline, "batch"),
        ),
        ("tenant_storm_spk3_fairness_index", storm.fairness_index()),
        (
            "tenant_storm_spk3_admissions",
            storm_admission(|s| s.admitted),
        ),
        (
            "tenant_storm_spk3_deferrals",
            storm_admission(|s| s.deferrals),
        ),
        (
            "tenant_storm_spk3_throttles",
            storm_admission(|s| s.throttles),
        ),
    ]
}

/// Renders a metrics_check object (4-decimal values; the gate's tolerance
/// absorbs the rounding).
fn metrics_check_json(metrics: &[(&str, f64)]) -> String {
    let mut out = String::from("  \"metrics_check\": {\n");
    out.push_str(&format!(
        "    \"tolerance_rel\": {CHECK_TOLERANCE},\n    \"note\": \"simulated figures, deterministic across machines; checked by regen_baselines --check\",\n"
    ));
    for (i, (key, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{key}\": {value:.4}{comma}\n"));
    }
    out.push_str("  }");
    out
}

// ---------------------------------------------------------------------------
// Baseline regeneration
// ---------------------------------------------------------------------------

fn regen_seed_baseline(label: &str, date: &str) -> String {
    println!("== BENCH_seed.json: fig10 at bench scale ==");
    let spk3 = time("fig10/spk3_run");

    let start = Instant::now();
    let metrics = seed_metrics();
    let panel_s = start.elapsed().as_secs_f64();
    let bandwidth_x = metrics[0].1;
    let latency_pct = metrics[1].1;
    println!(
        "fig10 panel (parallel): {panel_s:.2} s; SPK3/VAS bandwidth {bandwidth_x:.2}x, latency -{latency_pct:.1}%"
    );

    format!(
        r#"{{
  "baseline": "{label}",
  "date": "{date}",
  "command": "cargo run --release -p sprinkler_experiments --bin regen_baselines -- --label '...'",
  "scale": {{
    "ios_per_workload": 200,
    "blocks_per_plane": 32,
    "note": "bench scale; the timed body is the 120-I/O representative_run recipe of sprinkler_experiments::micro"
  }},
  "profile": "release, 1 untimed warmup then {SAMPLES} timed iterations (regen_baselines)",
  "results": [
    {{
      "bench": "fig10/spk3_run",
      "mean_ns": {mean:.1},
      "min_ns": {min:.1},
      "max_ns": {max:.1},
      "samples": {SAMPLES}
    }}
  ],
  "figure_check": {{
    "spk3_vs_vas_bandwidth_x": {bandwidth_x:.2},
    "paper_range_x": [1.8, 2.2],
    "spk3_vs_vas_latency_reduction_pct": {latency_pct:.1},
    "paper_min_pct": 56.6,
    "fig10_panel_wall_clock_s": {panel_s:.2},
    "note": "bench-scale run overshoots the paper's bandwidth ratio; directionally correct"
  }},
{metrics_check}
}}
"#,
        mean = spk3.mean_ns,
        min = spk3.min_ns,
        max = spk3.max_ns,
        metrics_check = metrics_check_json(&metrics),
    )
}

fn regen_scaling_baseline(label: &str, date: &str) -> String {
    println!("== BENCH_scaling.json: scaling_1024 + scheduler_rounds ==");
    let mut scaling_results = String::new();
    for (i, kind) in [SchedulerKind::Vas, SchedulerKind::Spk3].iter().enumerate() {
        let name = format!("scaling_1024/{}_1024chips_32kb", kind.label());
        let timing = time(&name);
        if i > 0 {
            scaling_results.push_str(",\n");
        }
        scaling_results.push_str(&format!(
            r#"      {{ "bench": "{name}", "mean_ns": {:.1}, "samples": {SAMPLES} }}"#,
            timing.mean_ns
        ));
    }

    let mut rounds_results = String::new();
    let mut speedups = String::new();
    for (i, &chips) in [256usize, 1024].iter().enumerate() {
        for (j, kind) in [SchedulerKind::Spk2, SchedulerKind::Spk3]
            .iter()
            .enumerate()
        {
            let fast = time(&format!("scheduler_rounds/{}_{chips}chips", kind.label()));
            let naive = time(&format!(
                "scheduler_rounds/{}ref_{chips}chips",
                kind.label()
            ));
            if i > 0 || j > 0 {
                rounds_results.push_str(",\n");
                speedups.push_str(",\n");
            }
            rounds_results.push_str(&format!(
                r#"      {{ "bench": "scheduler_rounds/{label}_{chips}chips", "mean_ns": {:.1}, "rounds_per_sec": {:.0} }},
      {{ "bench": "scheduler_rounds/{label}ref_{chips}chips", "mean_ns": {:.1} }}"#,
                fast.mean_ns,
                1e9 / fast.mean_ns,
                naive.mean_ns,
                label = kind.label(),
            ));
            speedups.push_str(&format!(
                r#"      "{}_{chips}chips_x": {:.1}"#,
                kind.label(),
                naive.mean_ns / fast.mean_ns
            ));
        }
    }

    let start = Instant::now();
    let result = fig15_scaling::run(&ExperimentScale::full(), None, None);
    let full_s = start.elapsed().as_secs_f64();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fig15_scaling full panel ({} points, {workers} workers): {full_s:.2} s",
        result.points.len()
    );
    let metrics = scaling_metrics();

    format!(
        r#"{{
  "baseline": "{label}",
  "date": "{date}",
  "command": "cargo run --release -p sprinkler_experiments --bin regen_baselines -- --label '...'",
  "profile": "release, 1 untimed warmup then {SAMPLES} timed iterations (regen_baselines)",
  "scaling_1024": {{
    "scale": {{ "ios_per_workload": 200, "blocks_per_plane": 32, "transfer_kb": 32 }},
    "results": [
{scaling_results}
    ]
  }},
  "scheduler_rounds": {{
    "scene": "standing 32-deep queue of 256-page tags, all but 4 pages per tag committed (steady-state round shape), overlapping read/write LPN ranges",
    "note": "SPKn = optimized columnar path; SPKnref = full-scan reference twin; both against the CommitmentLedger semantics; rounds_per_sec is informational (1e9/mean_ns), not gated",
    "results": [
{rounds_results}
    ],
    "round_speedup_vs_reference": {{
{speedups}
    }}
  }},
  "full_scale_sweep_point": {{
    "note": "fig15_scaling at ExperimentScale::full() (2000 I/Os, 64 blocks/plane), all 4 chip counts x 3 transfer panels x 2 schedulers, via the parallel cell runner",
    "wall_clock_s": {full_s:.2},
    "worker_threads": {workers},
    "budget_s": 60
  }},
{metrics_check}
}}
"#,
        metrics_check = metrics_check_json(&metrics),
    )
}

fn regen_array_baseline(label: &str, date: &str) -> String {
    println!("== BENCH_array.json: array-scaleout (bench-scale timing, quick-scale metrics) ==");
    // The timed body runs at bench scale; the metrics_check figures below
    // stay at quick scale, matching the scenario CI runs.
    let timing = time("array_scaleout/spk3_n4_256kb");
    let start = Instant::now();
    let metrics = array_metrics();
    let panel_s = start.elapsed().as_secs_f64();
    println!(
        "array metrics (n1/n4/n16): {panel_s:.2} s; SPK3 n16/n1 scale-out {:.2}x",
        metrics[4].1
    );

    format!(
        r#"{{
  "baseline": "{label}",
  "date": "{date}",
  "command": "cargo run --release -p sprinkler_experiments --bin regen_baselines -- --label '...'",
  "scenario": "array-scaleout: one 256KB-transfer workload striped over n devices at a fixed 64-chip budget and fixed 512MB footprint (32KB stripes); plus adaptive-placement figures: array-skew uniform/hot-shard/hot-shard-rebalance at the 12x figure horizon, array-rebalance and array-hetero static/adaptive cells with the rebalancer's migration telemetry; timing at bench scale to match the array_scaleout registry body, metrics_check at quick scale to match the CI scenario run",
  "profile": "release, 1 untimed warmup then {SAMPLES} timed iterations (regen_baselines)",
  "results": [
    {{
      "bench": "array_scaleout/spk3_n4_256kb",
      "mean_ns": {mean:.1},
      "min_ns": {min:.1},
      "max_ns": {max:.1},
      "samples": {SAMPLES}
    }}
  ],
{metrics_check}
}}
"#,
        mean = timing.mean_ns,
        min = timing.min_ns,
        max = timing.max_ns,
        metrics_check = metrics_check_json(&metrics),
    )
}

fn regen_tenant_baseline(label: &str, date: &str) -> String {
    println!("== BENCH_tenants.json: tenant-mix + tenant-storm (quick-scale metrics) ==");
    // The timed body is the whole admission front — slicing, DRR, buckets,
    // per-tenant attribution — at bench scale.
    let timing = time("tenant_fairness/spk3_mix_3tenants");
    let start = Instant::now();
    let metrics = tenant_metrics();
    let panel_s = start.elapsed().as_secs_f64();
    println!(
        "tenant metrics (mix + storm pair): {panel_s:.2} s; storm victim p99 ratio {:.2}",
        metrics[5].1
    );

    format!(
        r#"{{
  "baseline": "{label}",
  "date": "{date}",
  "command": "cargo run --release -p sprinkler_experiments --bin regen_baselines -- --label '...'",
  "scenario": "tenant-mix: interactive (95% 4KB random reads, 5ms SLO) + streaming (sequential 256KB reads, 50ms SLO) + batch (128KB writes behind a 64MB/s token bucket) sharing one device through the deficit-round-robin admission front; tenant-storm: the same tenants with the batch lane at 8x volume in one dense burst — the *_p99_ratio keys are storm/baseline per victim and must stay within the isolation bound while the batch ratio shows the storm cost its sender; timing at bench scale to match the tenant_fairness registry body, metrics_check at quick scale to match the CI scenario run",
  "profile": "release, 1 untimed warmup then {SAMPLES} timed iterations (regen_baselines)",
  "results": [
    {{
      "bench": "tenant_fairness/spk3_mix_3tenants",
      "mean_ns": {mean:.1},
      "min_ns": {min:.1},
      "max_ns": {max:.1},
      "samples": {SAMPLES}
    }}
  ],
  "isolation_contract": {{
    "storm_factor": 8,
    "victim_p99_bound_x": 2.0,
    "note": "tenant_storm_spk3_interactive_p99_ratio and tenant_storm_spk3_streaming_p99_ratio must hold under victim_p99_bound_x; asserted by scenario::tests::tenant_storm_holds_isolated_tenant_p99 and gated here"
  }},
{metrics_check}
}}
"#,
        mean = timing.mean_ns,
        min = timing.min_ns,
        max = timing.max_ns,
        metrics_check = metrics_check_json(&metrics),
    )
}

// ---------------------------------------------------------------------------
// The --check gate
// ---------------------------------------------------------------------------

/// Pulls the number following `"key":` out of a baseline file written by this
/// binary (flat keys, one per line — not a general JSON parser).
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The figure keys of a committed file's `metrics_check` object, without its
/// `tolerance_rel` and `note` header (flat keys, one per line, as
/// [`metrics_check_json`] writes them).
fn committed_check_keys(json: &str) -> Vec<&str> {
    let Some(at) = json.find("\"metrics_check\": {") else {
        return Vec::new();
    };
    let object = &json[at..];
    let object = &object[..object.find('}').unwrap_or(object.len())];
    object
        .lines()
        .skip(1)
        .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
        .filter(|key| !matches!(*key, "tolerance_rel" | "note"))
        .collect()
}

/// Recomputes one baseline's deterministic metrics and diffs them against the
/// committed file.  Returns the number of drifted, missing or stale keys; a
/// stale key is one the committed file gates but no recipe recomputes.
fn check_file(root: &std::path::Path, file: &str, expected: &[(&str, f64)]) -> usize {
    let path = root.join(file);
    let committed = match std::fs::read_to_string(&path) {
        Ok(content) => content,
        Err(error) => {
            println!("FAIL {file}: cannot read {}: {error}", path.display());
            return expected.len();
        }
    };
    let mut drifted = 0;
    for (key, actual) in expected {
        match extract_number(&committed, key) {
            None => {
                println!("FAIL {file}: key {key} missing (regenerate the baselines)");
                drifted += 1;
            }
            Some(baseline) => {
                let scale = baseline.abs().max(1e-12);
                let rel = (actual - baseline).abs() / scale;
                if rel > CHECK_TOLERANCE {
                    println!(
                        "FAIL {file}: {key} drifted: baseline {baseline:.4}, recomputed \
                         {actual:.4} (rel {rel:.2e} > {CHECK_TOLERANCE:.0e})"
                    );
                    drifted += 1;
                } else {
                    println!("  ok {file}: {key} = {actual:.4} (baseline {baseline:.4})");
                }
            }
        }
    }
    for key in committed_check_keys(&committed) {
        if !expected.iter().any(|(recomputed, _)| *recomputed == key) {
            println!("FAIL {file}: key {key} is committed but no recipe recomputes it (regenerate the baselines)");
            drifted += 1;
        }
    }
    drifted
}

/// The CI perf-regression gate: recompute every deterministic metrics_check
/// value and compare against the committed baselines.  Exits nonzero on any
/// drift so a change that shifts a headline simulated result cannot land
/// without a deliberate re-baseline.
fn check_gate() -> ! {
    let root = workspace_root();
    let start = Instant::now();
    let mut drifted = 0;
    drifted += check_file(&root, "BENCH_seed.json", &seed_metrics());
    drifted += check_file(&root, "BENCH_scaling.json", &scaling_metrics());
    drifted += check_file(&root, "BENCH_array.json", &array_metrics());
    drifted += check_file(&root, "BENCH_tenants.json", &tenant_metrics());
    let elapsed = start.elapsed().as_secs_f64();
    if drifted > 0 {
        println!(
            "perf gate FAILED: {drifted} metric(s) drifted, missing or stale ({elapsed:.2} s). If the change is \
             intentional, regenerate with: cargo run --release -p sprinkler_experiments --bin \
             regen_baselines -- --label '<PR description>'"
        );
        std::process::exit(1);
    }
    println!("perf gate OK: all committed baseline metrics reproduced ({elapsed:.2} s)");
    std::process::exit(0);
}

fn quick_smoke() {
    let scale = ExperimentScale::quick();
    let start = Instant::now();
    let comparison = fig10::run(&scale, Some(4));
    println!(
        "quick fig10 panel via parallel runner: {} cells in {:.2} s",
        comparison.cells.len(),
        start.elapsed().as_secs_f64()
    );
    println!("{}", comparison.bandwidth_table().render());
    assert!(
        comparison.bandwidth_speedup(SchedulerKind::Spk3, SchedulerKind::Vas) > 1.0,
        "SPK3 must beat VAS at quick scale"
    );

    let start = Instant::now();
    let result = fig15_scaling::run(&scale, Some(&[16, 64]), Some(&[32]));
    println!(
        "quick scaling panel via parallel runner: {} points in {:.2} s",
        result.points.len(),
        start.elapsed().as_secs_f64()
    );
    println!("{}", result.panel(32).render());

    let start = Instant::now();
    let outcomes = sprinkler_experiments::scenario::run_all(&scale);
    let cells: usize = outcomes.iter().map(|o| o.cells.len()).sum();
    println!(
        "scenario registry via parallel runner: {cells} cells in {:.2} s",
        { start.elapsed().as_secs_f64() }
    );
    for outcome in &outcomes {
        assert!(
            outcome.cells.iter().all(|c| c.metrics.io_count > 0),
            "scenario {} dropped I/Os",
            outcome.scenario
        );
    }
    println!("quick smoke OK (no baseline files written)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--check") {
        check_gate();
    }
    if args.iter().any(|arg| arg == "--quick") {
        quick_smoke();
        return;
    }
    let date = today();
    // Every committed re-baseline should say which change it belongs to; an
    // unlabeled run is still usable but self-identifies as such.
    let label = json_escape(
        &args
            .iter()
            .position(|arg| arg == "--label")
            .and_then(|at| args.get(at + 1))
            .cloned()
            .unwrap_or_else(|| {
                format!("unlabeled regen_baselines run ({date}); pass --label '<PR description>'")
            }),
    );
    let root = workspace_root();
    let seed = regen_seed_baseline(&label, &date);
    std::fs::write(root.join("BENCH_seed.json"), seed).expect("write BENCH_seed.json");
    let scaling = regen_scaling_baseline(&label, &date);
    std::fs::write(root.join("BENCH_scaling.json"), scaling).expect("write BENCH_scaling.json");
    let array = regen_array_baseline(&label, &date);
    std::fs::write(root.join("BENCH_array.json"), array).expect("write BENCH_array.json");
    let tenants = regen_tenant_baseline(&label, &date);
    std::fs::write(root.join("BENCH_tenants.json"), tenants).expect("write BENCH_tenants.json");
    println!(
        "rewrote BENCH_seed.json, BENCH_scaling.json, BENCH_array.json, and BENCH_tenants.json \
         ({label})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_check_keys_are_the_written_figures() {
        let json = format!(
            "{{\n  \"figure_check\": {{\n    \"other\": 1.0\n  }},\n{}\n}}\n",
            metrics_check_json(&[("alpha", 1.0), ("beta", 2.5)])
        );
        assert_eq!(committed_check_keys(&json), ["alpha", "beta"]);
        assert!(committed_check_keys("{}").is_empty());
    }
}
