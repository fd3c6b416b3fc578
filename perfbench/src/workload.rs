//! The three benchmark workloads and `run_cell`, which replays one cell of a
//! workload through the public API: `Ssd::new`, `Ssd::precondition`, and
//! `Ssd::run_stream` fed by a `TraceSource` converted with
//! `experiments::replay::record_to_request`.

use std::time::Instant;

use sprinkler::core::SchedulerKind;
use sprinkler::experiments::replay::record_to_request;
use sprinkler::sim::AllocScope;
use sprinkler::ssd::request::{Direction, HostRequest};
use sprinkler::ssd::{GcConfig, RunMetrics, Ssd, SsdConfig};
use sprinkler::workloads::{workload, SweepSpec, SyntheticSpec, TraceSource};

use crate::spans::{CoreSpans, PullSpans, TimedScheduler};

/// A benchmark workload.  SPK3 schedules every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long cell of Table 1 msnfs1 on the 64-chip device, paced below
    /// saturation so simulated latency is a property of the device.
    Paced64,
    /// Many short cells, each on a fresh 1024-chip device.
    Cold1024,
    /// One long saturated cell of random overwrites on a 16-chip device
    /// preconditioned to 90% with garbage collection on.
    Gc16,
}

/// Host I/Os per paced64 cell.
pub const PACED64_IOS: u64 = 60_000;
/// Samples the untimed pass replays; the simulated end-to-end figures are
/// medians over them.  Timed repetitions replay the first sample.
pub const SAMPLES: u64 = 5;
/// Cells per cold1024 sample.
pub const COLD1024_CELLS: u64 = 80;
/// Host I/Os per cold1024 cell.
pub const COLD1024_IOS: u64 = 200;
/// Host I/Os per gc16 cell.
pub const GC16_IOS: u64 = 10_000;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Paced64, Workload::Cold1024, Workload::Gc16];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paced64 => "paced64",
            Workload::Cold1024 => "cold1024",
            Workload::Gc16 => "gc16",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated device every cell of this workload is built as.
    pub fn config(self) -> SsdConfig {
        match self {
            Workload::Paced64 => SsdConfig::paper_default().with_blocks_per_plane(64),
            Workload::Cold1024 => SsdConfig::paper_default()
                .with_chip_count(1024)
                .with_blocks_per_plane(32),
            Workload::Gc16 => SsdConfig::paper_default()
                .with_chip_count(16)
                .with_blocks_per_plane(8)
                .with_gc(GcConfig::enabled()),
        }
    }

    /// Independent cells (fresh devices) in one sample.  Their simulated
    /// figures are pooled: cold1024's cells are too short to stand alone.
    pub fn cells(self) -> u64 {
        match self {
            Workload::Cold1024 => COLD1024_CELLS,
            Workload::Paced64 | Workload::Gc16 => 1,
        }
    }

    /// Host I/Os each cell replays at full length.
    pub fn ios_per_cell(self) -> u64 {
        match self {
            Workload::Paced64 => PACED64_IOS,
            Workload::Cold1024 => COLD1024_IOS,
            Workload::Gc16 => GC16_IOS,
        }
    }

    /// Physical utilization the device is preconditioned to, if any.
    fn precondition(self) -> Option<f64> {
        match self {
            Workload::Gc16 => Some(0.90),
            Workload::Paced64 | Workload::Cold1024 => None,
        }
    }

    /// The arrival stream of one cell.  The benchmark seed and the cell index
    /// fix the records; the program sees only the records.
    pub fn source(self, seed: u64, cell: u64, ios: u64) -> Box<dyn TraceSource> {
        let seed = cell_seed(seed, cell);
        match self {
            // Bursts of 8 every 1.2 ms keep the 64-chip device near 40% busy.
            Workload::Paced64 => Box::new(
                workload("msnfs1")
                    .expect("msnfs1 is a Table 1 workload")
                    .with_bursts(8, 1200.0)
                    .stream(ios, seed),
            ),
            // The scaling_1024 shape: fixed 32 KB transfers, 80% reads.
            Workload::Cold1024 => {
                Box::new(SweepSpec::new(32).with_read_fraction(0.8).stream(ios, seed))
            }
            // The gc-steady-state shape: 16 KB random overwrites, 70% writes,
            // over half the logical capacity so the overwrites stay hot.
            Workload::Gc16 => {
                let footprint_mb = self.config().geometry.capacity_bytes() / (2 * 1024 * 1024);
                Box::new(
                    SyntheticSpec::new("gc-steady")
                        .with_read_fraction(0.3)
                        .with_mean_sizes_kb(16.0, 16.0)
                        .with_footprint_mb(footprint_mb)
                        .with_randomness(0.95, 0.95)
                        .stream(ios, seed),
                )
            }
        }
    }
}

/// Derives a cell's stream seed (and the preconditioning seed) from the
/// benchmark seed, so cells of one repetition see different records.
fn cell_seed(seed: u64, cell: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cell
}

/// How a cell is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Host-timed, no spans: the end-to-end figures.
    Plain,
    /// Untimed, with the per-I/O latency series recorded.
    Series,
    /// Host-timed with layer spans around the scheduler and the source.
    Traced,
}

/// What one cell's replay produced and cost.
#[derive(Debug)]
pub struct CellRun {
    /// The program's simulated figures.
    pub metrics: RunMetrics,
    /// What the arrival stream handed to the device.
    pub tally: Tally,
    /// Host ns in `Ssd::new`, scheduler construction included.
    pub new_ns: u64,
    /// Bytes allocated during `Ssd::new`.
    pub new_alloc_bytes: u64,
    /// Host ns in `Ssd::precondition`.
    pub precondition_ns: u64,
    /// Host ns in `Ssd::run_stream`: replay, drain, finalize and teardown.
    pub run_ns: u64,
    /// Allocation events during `Ssd::run_stream`.
    pub run_allocs: u64,
    /// Scheduler spans (traced mode only).
    pub core: CoreSpans,
    /// Source spans (traced mode only).
    pub pulls: PullSpans,
}

impl CellRun {
    /// Records accepted and handed to the device.
    pub fn accepted(&self) -> u64 {
        self.tally.pulled - self.tally.rejected
    }
}

/// Counts what the arrival stream handed to the device.
#[derive(Debug, Default)]
pub struct Tally {
    /// Records pulled from the source.
    pub pulled: u64,
    /// Records rejected because they addressed pages past logical capacity.
    pub rejected: u64,
    /// Bytes the accepted records asked for, in whole pages.
    pub bytes_requested: u64,
    /// Pages the accepted write records asked for.
    pub write_pages: u64,
    /// Resident bytes when the source ran dry, the device at its fullest
    /// (first cell of the series pass only, so no timed replay pays for the
    /// read).
    pub resident_bytes: u64,
}

/// The arrival iterator `run_stream` consumes: pulls records, converts them
/// with `record_to_request`, and drops records past logical capacity (they
/// count as failed).  With `spans` set it times every pull and notes when the
/// source ran dry; with `sample_resident` set it reads resident memory then.
struct Arrivals<'a> {
    source: &'a mut dyn TraceSource,
    page_size: usize,
    capacity_pages: u64,
    tally: &'a mut Tally,
    spans: Option<&'a mut PullSpans>,
    sample_resident: bool,
}

impl Arrivals<'_> {
    fn pull(&mut self) -> Option<HostRequest> {
        loop {
            let record = self.source.next_record()?;
            self.tally.pulled += 1;
            let request = record_to_request(&record, self.page_size);
            if request.start_lpn.value() + u64::from(request.pages) > self.capacity_pages {
                self.tally.rejected += 1;
                continue;
            }
            self.tally.bytes_requested += request.bytes(self.page_size);
            if request.direction == Direction::Write {
                self.tally.write_pages += u64::from(request.pages);
            }
            return Some(request);
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let start = self.spans.is_some().then(Instant::now);
        let request = self.pull();
        if let (Some(start), Some(spans)) = (start, self.spans.as_deref_mut()) {
            spans.record(start, Instant::now(), request.is_none());
        }
        if request.is_none() && self.sample_resident && self.tally.resident_bytes == 0 {
            self.tally.resident_bytes = resident_bytes();
        }
        request
    }
}

/// Resident memory of this process, from `/proc/self/status` (0 if unreadable).
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Replays cell `cell` of `workload` once.
pub fn run_cell(workload: Workload, seed: u64, cell: u64, ios: u64, mode: Mode) -> CellRun {
    let config = workload.config();
    let page_size = config.page_size();
    let capacity_pages = config.geometry.total_pages() as u64;
    let mut source = workload.source(seed, cell, ios);
    let core_sink = (mode == Mode::Traced).then(TimedScheduler::sink);

    let scope = AllocScope::begin();
    let start = Instant::now();
    let scheduler = match &core_sink {
        Some(sink) => Box::new(TimedScheduler::new(SchedulerKind::Spk3.build(), sink)),
        None => SchedulerKind::Spk3.build(),
    };
    let mut ssd = Ssd::with_series(config, scheduler, mode == Mode::Series)
        .expect("benchmark device configurations are valid");
    let new_ns = elapsed_ns(start);
    let new_alloc_bytes = scope.bytes();

    let start = Instant::now();
    if let Some(utilization) = workload.precondition() {
        ssd.precondition(utilization, cell_seed(seed, cell));
    }
    let precondition_ns = elapsed_ns(start);

    let mut tally = Tally::default();
    let mut pulls = PullSpans::default();
    let arrivals = Arrivals {
        source: source.as_mut(),
        page_size,
        capacity_pages,
        tally: &mut tally,
        spans: (mode == Mode::Traced).then_some(&mut pulls),
        // Later cells would also read the heap that earlier cells freed and
        // the allocator kept, which varies from run to run.
        sample_resident: mode == Mode::Series && cell == 0,
    };
    let scope = AllocScope::begin();
    let start = Instant::now();
    let metrics = ssd.run_stream(arrivals);
    let end = Instant::now();
    let run_ns = (end - start).as_nanos() as u64;
    let run_allocs = scope.allocations();
    pulls.finish(end);

    let core = core_sink
        .map(|sink| TimedScheduler::take(&sink))
        .unwrap_or_default();
    CellRun {
        metrics,
        tally,
        new_ns,
        new_alloc_bytes,
        precondition_ns,
        run_ns,
        run_allocs,
        core,
        pulls,
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
