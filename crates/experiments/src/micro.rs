//! The registry of timed bodies, and the one timing loop that runs them.
//!
//! Every host-time figure this workspace records comes from [`REGISTRY`]. The
//! `timed` bench target (`cargo bench -p sprinkler_experiments`) walks it, and
//! `regen_baselines` looks the timings it commits to `BENCH_*.json` up by name
//! ([`find`]), so a committed timing always describes the body `cargo bench`
//! times.  An entry may also carry figure printers: the paper tables and
//! figures whose simulation the body is a slice of, printed once before the
//! body is timed.
//!
//! ```
//! use sprinkler_experiments::micro;
//!
//! let body = micro::find("fig10/spk3_run").expect("registered");
//! let timing = body.time(1);
//! assert_eq!(timing.samples, 1);
//! ```

use std::hint::black_box;
use std::time::Instant;

use sprinkler_core::reference::ReferenceScheduler;
use sprinkler_core::SchedulerKind;
use sprinkler_flash::{FlashGeometry, Lpn};
use sprinkler_sim::{DeterministicRng, Duration, EventQueue, SimTime};
use sprinkler_ssd::queue::DeviceQueue;
use sprinkler_ssd::request::{Direction, HostRequest, Placement, TagId};
use sprinkler_ssd::scheduler::{IoScheduler, SchedulerContext};
use sprinkler_ssd::{CommitmentLedger, RunMetrics, SsdConfig};
use sprinkler_workloads::{paper_workloads, parse, workload, SyntheticSpec, TraceSource};

use crate::runner::{run_one, ExperimentScale};
use crate::{fig01, fig06, fig10, fig11, fig12, fig13, fig14, fig15, fig15_scaling};
use crate::{fig16, fig17, run_source, scenario, table1, CapacityPolicy};

/// Timed calls per body in a full run, after one untimed warmup.
pub const SAMPLES: usize = 10;

/// Wall-clock statistics of one timed body, in nanoseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean over the timed samples.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

impl Timing {
    /// Prints one human-readable line and one `{"bench": ...}` JSON line.
    pub fn print(&self, name: &str) {
        println!(
            "{name}: mean {} [min {} .. max {}] over {} samples",
            format_ns(self.mean_ns),
            format_ns(self.min_ns),
            format_ns(self.max_ns),
            self.samples
        );
        println!(
            "{{\"bench\":\"{name}\",\"mean_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{}}}",
            self.mean_ns, self.min_ns, self.max_ns, self.samples
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Times `samples` calls of `body`.  A full run (`samples > 1`) first makes
/// one untimed warmup call, so one-time costs do not land in the first sample;
/// a single-sample smoke run calls `body` exactly once.
fn time_runs(samples: usize, mut body: impl FnMut()) -> Timing {
    let samples = samples.max(1);
    if samples > 1 {
        body();
    }
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    Timing {
        mean_ns: times.iter().sum::<f64>() / samples as f64,
        min_ns: times.iter().cloned().fold(f64::INFINITY, f64::min),
        max_ns: times.iter().cloned().fold(0.0, f64::max),
        samples,
    }
}

/// One named, timed body of the registry.
#[derive(Debug)]
pub struct TimedBody {
    /// The name recorded in `BENCH_*.json` and matched by the bench filter.
    pub name: &'static str,
    /// Prints the paper tables and figures this body reproduces a slice of.
    pub figures: &'static [fn()],
    /// Builds the body's fixed state and returns the closure to time.
    setup: fn() -> Box<dyn FnMut()>,
}

impl TimedBody {
    /// Sets the body up and times `samples` calls of it, after one untimed
    /// warmup call when `samples > 1`.
    pub fn time(&self, samples: usize) -> Timing {
        time_runs(samples, (self.setup)())
    }
}

const fn timed(
    name: &'static str,
    figures: &'static [fn()],
    setup: fn() -> Box<dyn FnMut()>,
) -> TimedBody {
    TimedBody {
        name,
        figures,
        setup,
    }
}

/// Boxes `run` as a timed closure whose result is kept opaque to the optimizer.
fn body<T>(mut run: impl FnMut() -> T + 'static) -> Box<dyn FnMut()> {
    Box::new(move || {
        black_box(run());
    })
}

/// Every timed body, each distinct body once.
pub const REGISTRY: &[TimedBody] = &[
    timed(
        "fig01/vas_baseline_run",
        &[print_fig01, print_fig12],
        || body(|| representative_run(SchedulerKind::Vas)),
    ),
    timed("fig06/pas_run", &[print_fig06, print_fig13], || {
        body(|| representative_run(SchedulerKind::Pas))
    }),
    timed(
        "fig10/spk3_run",
        &[print_fig10, print_fig15, print_fig16, print_fig17],
        || body(|| representative_run(SchedulerKind::Spk3)),
    ),
    timed("fig11/spk2_run", &[print_fig11], || {
        body(|| representative_run(SchedulerKind::Spk2))
    }),
    timed("fig14/spk1_run", &[print_fig14], || {
        body(|| representative_run(SchedulerKind::Spk1))
    }),
    timed("event_queue/device_mix_100k", &[], event_queue_mix),
    timed("table1/generate_cfs0_trace", &[print_table1], || {
        let specs = paper_workloads();
        body(move || specs[0].generate(500, 1))
    }),
    timed("scheduler_rounds/SPK2_256chips", &[], || {
        round(SchedulerKind::Spk2.build(), 256)
    }),
    timed("scheduler_rounds/SPK2ref_256chips", &[], || {
        round(Box::new(ReferenceScheduler::new(SchedulerKind::Spk2)), 256)
    }),
    timed("scheduler_rounds/SPK3_256chips", &[], || {
        round(SchedulerKind::Spk3.build(), 256)
    }),
    timed("scheduler_rounds/SPK3ref_256chips", &[], || {
        round(Box::new(ReferenceScheduler::new(SchedulerKind::Spk3)), 256)
    }),
    timed("scheduler_rounds/SPK2_1024chips", &[], || {
        round(SchedulerKind::Spk2.build(), 1024)
    }),
    timed("scheduler_rounds/SPK2ref_1024chips", &[], || {
        round(Box::new(ReferenceScheduler::new(SchedulerKind::Spk2)), 1024)
    }),
    timed("scheduler_rounds/SPK3_1024chips", &[], || {
        round(SchedulerKind::Spk3.build(), 1024)
    }),
    timed("scheduler_rounds/SPK3ref_1024chips", &[], || {
        round(Box::new(ReferenceScheduler::new(SchedulerKind::Spk3)), 1024)
    }),
    timed("scaling_1024/VAS_1024chips_32kb", &[print_scaling], || {
        body(|| fig15_scaling::run_point(&ExperimentScale::bench(), 1024, 32, SchedulerKind::Vas))
    }),
    timed("scaling_1024/SPK3_1024chips_32kb", &[], || {
        body(|| fig15_scaling::run_point(&ExperimentScale::bench(), 1024, 32, SchedulerKind::Spk3))
    }),
    timed(
        "array_scaleout/spk3_n1_256kb",
        &[print_array_scaleout],
        || array_scaleout(1),
    ),
    timed("array_scaleout/spk3_n4_256kb", &[], || array_scaleout(4)),
    timed("array_scaleout/spk3_n16_256kb", &[], || array_scaleout(16)),
    timed(
        "placement_rebalance/spk3_static_modular_hot",
        &[print_array_rebalance],
        || {
            body(|| {
                scenario::array_rebalance_metrics(
                    &ExperimentScale::bench(),
                    "static",
                    SchedulerKind::Spk3,
                )
            })
        },
    ),
    timed("placement_rebalance/spk3_adaptive_modular_hot", &[], || {
        body(|| {
            scenario::array_rebalance_metrics(
                &ExperimentScale::bench(),
                "adaptive",
                SchedulerKind::Spk3,
            )
        })
    }),
    timed("placement_rebalance/spk3_hetero_adaptive", &[], || {
        body(|| {
            scenario::array_hetero_metrics(
                &ExperimentScale::bench(),
                "adaptive",
                SchedulerKind::Spk3,
            )
        })
    }),
    timed(
        "streaming_replay/msnfs1_20k_stream",
        &[print_scenarios],
        || {
            body(|| {
                let msnfs1 = workload("msnfs1").expect("msnfs1 is a Table 1 workload");
                stream_replay(&mut msnfs1.stream(20_000, 0xBE7))
            })
        },
    ),
    timed("streaming_replay/msr_corpus_parse_and_replay", &[], || {
        body(|| stream_replay(&mut parse::sample_msr()))
    }),
    timed(
        "tenant_fairness/spk3_mix_3tenants",
        &[print_tenants],
        || body(|| scenario::tenant_mix_outcome(&ExperimentScale::bench(), SchedulerKind::Spk3)),
    ),
    timed("tenant_fairness/spk3_storm_8x", &[], || {
        body(|| {
            scenario::tenant_storm_outcome(&ExperimentScale::bench(), "storm", SchedulerKind::Spk3)
        })
    }),
];

/// Looks a registered body up by its exact name.
pub fn find(name: &str) -> Option<&'static TimedBody> {
    REGISTRY.iter().find(|body| body.name == name)
}

/// A single small simulation run: the 120-I/O body behind the `fig*` timings,
/// including the committed `fig10/spk3_run` baseline.
fn representative_run(kind: SchedulerKind) -> RunMetrics {
    let scale = ExperimentScale::bench();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let trace = SyntheticSpec::new("bench")
        .with_read_fraction(0.7)
        .with_mean_sizes_kb(16.0, 16.0)
        .generate(120, 0xBE);
    run_one(&config, kind, &trace)
}

/// One `schedule()` round of `scheduler` over the [`standing_scene`], which
/// the round leaves unchanged, so every call times the same decision.
fn round(mut scheduler: Box<dyn IoScheduler>, chips: usize) -> Box<dyn FnMut()> {
    let (geometry, queue, ledger) = standing_scene(chips);
    scheduler.initialize(&geometry);
    body(move || {
        scheduler.schedule(&SchedulerContext {
            now: SimTime::ZERO,
            geometry: &geometry,
            queue: &queue,
            ledger: &ledger,
        })
    })
}

/// An event of [`event_mix`], as small as the simulator's own (16 B).
#[derive(Debug, Clone, Copy)]
enum MixEvent {
    CellDone(usize),
    TxnComplete(usize),
    Schedule,
    DmaDone(usize),
    ChipKick(usize),
}

/// Lanes of [`event_mix`]'s queue, mirroring the simulator's.
const MIX_SCHEDULE: usize = 0;
const MIX_KICK: usize = 1;
const MIX_DMA: usize = 2;

/// Replays `events` pops of a closed loop of 256 chips shaped like a
/// device's event stream: a cell phase ends at a random time and its bus
/// phase a little later (both through the heap), the completion asks for a
/// scheduling round now and a transfer on one serial DMA engine, and the
/// transfer's end kicks the chip one decision window later.  Two of every
/// five events go through the heap, as in a saturated replay.  Returns the
/// final clock.
fn event_mix(queue: &mut EventQueue<MixEvent, 3>, delays: &[u64], events: usize) -> SimTime {
    const CHIPS: usize = 256;
    let window = Duration::from_micros(1);
    let bus = Duration::from_nanos(1_300);
    let transfer = Duration::from_nanos(1_280);
    queue.clear();
    let start = queue.now();
    for chip in 0..CHIPS {
        let delay = Duration::from_nanos(delays[chip % delays.len()]);
        queue.schedule(start + delay, MixEvent::CellDone(chip));
    }
    let mut dma_free = start;
    for i in 0..events {
        let Some((now, event)) = queue.pop() else {
            break;
        };
        match event {
            MixEvent::CellDone(chip) => queue.schedule(now + bus, MixEvent::TxnComplete(chip)),
            MixEvent::TxnComplete(chip) => {
                dma_free = dma_free.max(now) + transfer;
                queue.schedule_in_lane(MIX_DMA, dma_free, MixEvent::DmaDone(chip));
                queue.schedule_in_lane(MIX_SCHEDULE, now, MixEvent::Schedule);
            }
            MixEvent::DmaDone(chip) => {
                queue.schedule_in_lane(MIX_KICK, now + window, MixEvent::ChipKick(chip));
            }
            MixEvent::ChipKick(chip) => {
                let delay = Duration::from_nanos(delays[i % delays.len()]);
                queue.schedule(now + delay, MixEvent::CellDone(chip));
            }
            MixEvent::Schedule => {}
        }
    }
    queue.now()
}

/// The event queue alone: 100k pops of [`event_mix`], with the random cell
/// times drawn once up front so the body times the queue, not the generator.
fn event_queue_mix() -> Box<dyn FnMut()> {
    let mut rng = DeterministicRng::seeded(0xE7E);
    let delays: Vec<u64> = (0..4_096)
        .map(|_| 20_000 + rng.uniform_u64(200_000))
        .collect();
    let mut queue = EventQueue::with_lanes();
    body(move || event_mix(&mut queue, &delays, 100_000))
}

fn array_scaleout(devices: usize) -> Box<dyn FnMut()> {
    body(move || {
        scenario::array_scaleout_metrics(&ExperimentScale::bench(), devices, SchedulerKind::Spk3)
    })
}

fn stream_replay(source: &mut dyn TraceSource) -> RunMetrics {
    let config =
        SsdConfig::paper_default().with_blocks_per_plane(ExperimentScale::quick().blocks_per_plane);
    run_source(&config, SchedulerKind::Spk3, source, CapacityPolicy::Reject)
        .expect("streamed workloads fit the device")
}

/// A standing steady-state scheduling scene: a full 32-deep queue of 256-page
/// tags striped over `chips` chips, with all but the last four pages of every
/// tag already committed — the shape a mid-simulation round sees, where a
/// full-queue scan walks thousands of committed bitmap slots to find a handful
/// of schedulable pages.  Read/write LPN ranges overlap so the §4.4
/// write-after-read checks stay hot.
fn standing_scene(chips: usize) -> (FlashGeometry, DeviceQueue, CommitmentLedger) {
    const PAGES: u32 = 256;
    let geometry = FlashGeometry::paper_default().with_chip_count(chips);
    let mut queue = DeviceQueue::new(32);
    for t in 0..32u64 {
        let dir = if t.is_multiple_of(3) {
            Direction::Write
        } else {
            Direction::Read
        };
        let host = HostRequest::new(t, SimTime::ZERO, dir, Lpn::new(t * 8), PAGES);
        let placements = (0..PAGES as usize)
            .map(|i| {
                let chip = (t as usize * 37 + i * 13) % chips;
                let loc = geometry.chip_location(chip);
                Placement {
                    chip,
                    channel: loc.channel,
                    way: loc.way,
                    die: (i % 2) as u32,
                    plane: (i % 4) as u32,
                }
            })
            .collect();
        assert!(queue.admit(TagId(t), host, SimTime::ZERO, placements));
    }
    for t in 0..32u64 {
        for page in 0..PAGES - 4 {
            assert!(queue.commit_page(TagId(t), page, SimTime::ZERO));
        }
    }
    let ledger = CommitmentLedger::new(chips, 32);
    (geometry, queue, ledger)
}

// ---------------------------------------------------------------------------
// Figure printers, at bench scale unless noted
// ---------------------------------------------------------------------------

fn print_table1() {
    println!("{}", table1::run(&ExperimentScale::bench()).render());
}

fn print_fig01() {
    let result = fig01::run(&ExperimentScale::bench());
    println!("{}", result.bandwidth_table());
    println!("{}", result.utilization_table());
    for kb in [4, 16, 64, 128] {
        println!(
            "stagnation at {kb:>4} KB transfers: {}",
            if result.stagnates(kb) { "yes" } else { "no" }
        );
    }
}

fn print_fig06() {
    let result = fig06::run(&ExperimentScale::bench(), None);
    println!("{}", result.render());
    println!(
        "mean utilization  VAS {:.1}%  PAS {:.1}%  relaxed {:.1}%",
        result.mean_utilization(SchedulerKind::Vas) * 100.0,
        result.mean_utilization(SchedulerKind::Pas) * 100.0,
        result.mean_utilization(SchedulerKind::Spk3) * 100.0
    );
}

fn print_fig10() {
    let comparison = fig10::run(&ExperimentScale::bench(), None);
    println!("{}", comparison.bandwidth_table());
    println!("{}", comparison.iops_table());
    println!("{}", comparison.latency_table());
    println!("{}", comparison.queue_stall_table());
    println!(
        "SPK3 vs VAS: {:.2}x bandwidth (paper: 1.8-2.2x), {:.1}% shorter latency (paper: >=56.6%)",
        comparison.bandwidth_speedup(SchedulerKind::Spk3, SchedulerKind::Vas),
        comparison.latency_reduction(SchedulerKind::Spk3, SchedulerKind::Vas) * 100.0
    );
}

fn print_fig11() {
    let comparison = fig10::run(&ExperimentScale::bench(), None);
    println!("{}", fig11::inter_chip_table(&comparison));
    println!("{}", fig11::intra_chip_table(&comparison));
    println!(
        "SPK3 inter-chip idleness improvement over VAS: {:.1} percentage points (paper: ~46%)",
        fig11::inter_chip_improvement(&comparison, SchedulerKind::Spk3, SchedulerKind::Vas) * 100.0
    );
}

fn print_fig12() {
    // The paper replays the first 3,000 I/Os of msnfs1; 600 keep the ordering.
    let result = fig12::run(&ExperimentScale::bench(), 600);
    println!("{}", result.render());
    let vas = result.mean_latency(SchedulerKind::Vas);
    let spk3 = result.mean_latency(SchedulerKind::Spk3);
    if vas > 0.0 {
        println!(
            "SPK3 mean latency is {:.1}% below VAS over the window (paper: ~80% below)",
            (1.0 - spk3 / vas) * 100.0
        );
    }
}

fn print_fig13() {
    let comparison = fig10::run(&ExperimentScale::bench(), None);
    for kind in [SchedulerKind::Pas, SchedulerKind::Spk3] {
        println!("{}", fig13::breakdown_table(&comparison, kind));
    }
    println!(
        "mean system idle: PAS {:.1}%, SPK3 {:.1}% (paper: SPK3 removes ~40% of PAS idleness)",
        fig13::mean_idle(&comparison, SchedulerKind::Pas) * 100.0,
        fig13::mean_idle(&comparison, SchedulerKind::Spk3) * 100.0
    );
}

fn print_fig14() {
    let comparison = fig10::run(&ExperimentScale::bench(), None);
    for kind in fig14::FIG14_SCHEDULERS {
        println!("{}", fig14::flp_table(&comparison, kind));
    }
    println!(
        "mean FLP level: PAS {:.2}, SPK1 {:.2}, SPK2 {:.2}, SPK3 {:.2} (paper: SPK1 highest, SPK3 balanced)",
        fig14::mean_flp_level(&comparison, SchedulerKind::Pas),
        fig14::mean_flp_level(&comparison, SchedulerKind::Spk1),
        fig14::mean_flp_level(&comparison, SchedulerKind::Spk2),
        fig14::mean_flp_level(&comparison, SchedulerKind::Spk3)
    );
}

fn print_fig15() {
    // The 64- and 256-chip panels; the 1024-chip panel is `print_scaling`'s.
    let result = fig15::run(&ExperimentScale::bench(), Some(&[64, 256]));
    for &chips in &result.chip_counts {
        println!("{}", result.panel(chips));
        println!(
            "mean utilization at {chips} chips: VAS {:.1}%, SPK3 {:.1}%",
            result.mean_utilization(chips, SchedulerKind::Vas) * 100.0,
            result.mean_utilization(chips, SchedulerKind::Spk3) * 100.0
        );
    }
}

fn print_fig16() {
    let result = fig16::run(&ExperimentScale::bench(), Some(&[64]));
    println!("{}", result.panel(64));
    println!(
        "SPK3 transaction reduction vs VAS: {:.1}% (paper: ~50.2%)",
        result.reduction_vs_vas(64) * 100.0
    );
}

fn print_fig17() {
    let result = fig17::run(&ExperimentScale::bench(), Some(&[64]));
    println!("{}", result.panel(64));
    println!(
        "GC invocations during fragmented runs: {}",
        result.gc_invocations(64)
    );
    println!(
        "mean fragmented bandwidth: VAS {:.0} KB/s, PAS {:.0} KB/s, SPK3 {:.0} KB/s \
         (paper: SPK3-GC still ~2x VAS-GC)",
        result.mean_bandwidth(64, SchedulerKind::Vas, true),
        result.mean_bandwidth(64, SchedulerKind::Pas, true),
        result.mean_bandwidth(64, SchedulerKind::Spk3, true)
    );
}

fn print_scaling() {
    let result = fig15_scaling::run(&ExperimentScale::bench(), None, Some(&[32]));
    println!("{}", result.panel(32).render());
}

fn print_scenario(name: &str) {
    let outcome = scenario::run(name, &ExperimentScale::bench()).expect("scenario is registered");
    println!("{}", outcome.table().render());
}

fn print_array_scaleout() {
    print_scenario("array-scaleout");
}

fn print_array_rebalance() {
    print_scenario("array-rebalance");
}

fn print_tenants() {
    print_scenario("tenant-mix");
    print_scenario("tenant-storm");
    let mix = scenario::tenant_mix_outcome(&ExperimentScale::bench(), SchedulerKind::Spk3);
    println!(
        "tenant-mix spk3: fairness index {:.4} over {} tenants",
        mix.fairness_index(),
        mix.metrics.tenants.len()
    );
}

/// Every registered scenario at quick scale: the tables the streaming path
/// feeds.
fn print_scenarios() {
    for outcome in scenario::run_all(&ExperimentScale::quick()) {
        println!("{}", outcome.table().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_scene_exposes_four_uncommitted_pages_per_tag() {
        let (geometry, queue, ledger) = standing_scene(256);
        assert_eq!(geometry.total_chips(), 256);
        assert_eq!(queue.len(), 32);
        assert_eq!(queue.total_uncommitted_pages(), 32 * 4);
        assert_eq!(ledger.chip_count(), 256);
        assert_eq!(ledger.max_committed_per_chip(), 32);
    }

    #[test]
    fn event_mix_routes_three_in_five_events_to_lanes() {
        let mut rng = DeterministicRng::seeded(1);
        let delays: Vec<u64> = (0..64).map(|_| 20_000 + rng.uniform_u64(200_000)).collect();
        let mut queue = EventQueue::with_lanes();
        let end = event_mix(&mut queue, &delays, 20_000);
        assert!(end > SimTime::ZERO);
        let stats = queue.lane_stats();
        assert_eq!(stats.fell_back, 0, "every lane push is in order");
        let share = stats.laned as f64 / stats.scheduled as f64;
        assert!((0.55..0.62).contains(&share), "laned share {share:.3}");
    }

    #[test]
    fn representative_run_completes() {
        let metrics = representative_run(SchedulerKind::Spk3);
        assert_eq!(metrics.io_count, 120);
    }

    #[test]
    fn time_runs_warms_up_only_for_full_runs() {
        let mut calls = 0;
        assert_eq!(time_runs(SAMPLES, || calls += 1).samples, SAMPLES);
        assert_eq!(calls, SAMPLES + 1);
        calls = 0;
        assert_eq!(time_runs(1, || calls += 1).samples, 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert!(format_ns(500.0).ends_with("ns"));
        assert!(format_ns(5_000.0).ends_with("µs"));
        assert!(format_ns(5_000_000.0).ends_with("ms"));
        assert!(format_ns(5e9).ends_with('s'));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|body| body.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn every_committed_baseline_timing_is_registered() {
        let baselines = [
            include_str!("../../../BENCH_seed.json"),
            include_str!("../../../BENCH_scaling.json"),
            include_str!("../../../BENCH_array.json"),
            include_str!("../../../BENCH_tenants.json"),
        ];
        let recorded: Vec<&str> = baselines
            .iter()
            .flat_map(|json| json.split("\"bench\": \"").skip(1))
            .map(|rest| rest.split('"').next().unwrap_or(rest))
            .collect();
        assert_eq!(recorded.len(), 13, "recorded timings: {recorded:?}");
        for name in recorded {
            assert!(find(name).is_some(), "{name} is not registered");
        }
    }
}
