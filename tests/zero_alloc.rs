//! Release-mode proof that the steady-state replay hot loop allocates nothing.
//!
//! This binary installs [`CountingAllocator`] as its global allocator and
//! replays a steady-state workload through `Ssd::run_stream`: a warm-up
//! prefix sizes every pool (device-queue tag states, transaction scratch,
//! commitment buffers, FARO scratch, the event heap, the FTL map), then an
//! [`AllocScope`] opens at the warm-up boundary and must observe **zero
//! allocation events** until the trace is exhausted.  Any per-I/O allocation
//! that sneaks back into the queue/scheduler/controller/chip path turns this
//! from 0 into thousands, so the gate is unambiguous.
//!
//! Two more gates bound the device's fixed cost and its garbage-collection
//! path: building a 1024-chip device takes a small constant number of
//! allocations (host memory follows the footprint a run touches, not the
//! geometry), and a GC-bound steady state on a preconditioned device
//! allocates nothing either.
//!
//! The heavyweight proofs are `#[ignore]`d: they are meaningful as a
//! performance gate only in release mode, and CI runs them explicitly with
//! `cargo test --release --test zero_alloc -- --ignored` (see
//! .github/workflows/ci.yml).
//!
//! Workload shape of the GC-off proofs: all requests span 8 pages; writes
//! cycle a fixed 512-LPN footprint that warm-up maps completely, so the
//! steady-state FTL map never grows; reads roam a wider range (unmapped reads
//! are served without mutating the map).  GC stays disabled (the default), so
//! free blocks only deplete — the write volume is sized far below the device
//! capacity.

use std::cell::RefCell;
use std::rc::Rc;

use sprinkler::core::SchedulerKind;
use sprinkler::flash::Lpn;
use sprinkler::sim::{AllocScope, CountingAllocator, SimTime, SplitMix64};
use sprinkler::ssd::request::{Direction, HostRequest};
use sprinkler::ssd::{GcConfig, RunMetrics, Ssd, SsdConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Pages per request: fixed so warm-up establishes every per-tag capacity.
const PAGES: u32 = 8;
/// Write-footprint LPN bases: 64 bases × 8 pages = 512 logical pages, all
/// mapped during warm-up.
const WRITE_BASES: u64 = 64;

fn steady_requests(total: u64, spacing_ns: u64) -> Vec<HostRequest> {
    (0..total)
        .map(|i| {
            let (direction, lpn) = if i % 2 == 0 {
                // Reads roam a wider range; unmapped reads are legal and
                // alloc-free (served from the static placement).
                (Direction::Read, Lpn::new((i * 13) % 4096))
            } else {
                (Direction::Write, Lpn::new((i % WRITE_BASES) * PAGES as u64))
            };
            HostRequest::new(
                i,
                SimTime::from_nanos(i * spacing_ns),
                direction,
                lpn,
                PAGES,
            )
        })
        .collect()
}

/// What the metered replay observed: the allocation delta over the
/// steady-state window and how many requests that window spanned.
#[derive(Debug, Default)]
struct Meter {
    scope: Option<AllocScope>,
    steady_allocs: Option<u64>,
    steady_bytes: Option<u64>,
}

/// Wraps the arrival iterator and opens an [`AllocScope`] once `warmup`
/// requests have been pulled, closing it when the trace is exhausted — the
/// measurement window is therefore exactly the steady-state portion of the
/// replay loop, on the replay thread.
struct Metered<I> {
    inner: I,
    yielded: u64,
    warmup: u64,
    meter: Rc<RefCell<Meter>>,
}

impl<I: Iterator<Item = HostRequest>> Iterator for Metered<I> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        match self.inner.next() {
            Some(request) => {
                self.yielded += 1;
                if self.yielded == self.warmup {
                    // Read the switch before the window opens: the lookup
                    // allocates its result.
                    let panic = std::env::var_os("ZERO_ALLOC_PANIC").is_some();
                    self.meter.borrow_mut().scope = Some(AllocScope::begin());
                    if panic {
                        sprinkler::sim::panic_on_alloc(true);
                    }
                }
                Some(request)
            }
            None => {
                // Everything past this point (metrics finalization, teardown)
                // is one-time end-of-run work, not per-I/O cost: close the
                // measurement window here.
                sprinkler::sim::panic_on_alloc(false);
                let mut meter = self.meter.borrow_mut();
                if meter.steady_allocs.is_none() {
                    let scope = meter.scope.expect("warm-up boundary was reached");
                    meter.steady_allocs = Some(scope.allocations());
                    meter.steady_bytes = Some(scope.bytes());
                }
                None
            }
        }
    }
}

/// Replays `requests` through `run_stream` on `ssd`, measuring allocations
/// after the first `warmup` pulls.  Returns the run metrics and the
/// steady-state allocation delta.
fn metered_replay_on(ssd: Ssd, requests: Vec<HostRequest>, warmup: u64) -> (RunMetrics, u64, u64) {
    let meter = Rc::new(RefCell::new(Meter::default()));
    let source = Metered {
        inner: requests.into_iter(),
        yielded: 0,
        warmup,
        meter: Rc::clone(&meter),
    };
    let metrics = ssd.run_stream(source);
    let meter = meter.borrow();
    (
        metrics,
        meter.steady_allocs.expect("the replay drained the source"),
        meter.steady_bytes.expect("the replay drained the source"),
    )
}

fn metered_replay(config: SsdConfig, total: u64, warmup: u64) -> (RunMetrics, u64, u64) {
    let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).unwrap();
    metered_replay_on(ssd, steady_requests(total, 1_000), warmup)
}

fn assert_zero_alloc_steady_state(config: SsdConfig, total: u64, warmup: u64) {
    let (metrics, steady_allocs, steady_bytes) = metered_replay(config, total, warmup);
    assert_eq!(metrics.io_count, total, "every request must complete");
    // The always-on telemetry substrate rode along for free.
    assert_eq!(metrics.telemetry.stream_admissions, total);
    assert!(metrics.telemetry.sched_rounds > 0);
    assert_eq!(
        steady_allocs,
        0,
        "steady-state replay performed {steady_allocs} allocations \
         ({steady_bytes} bytes) over {} measured requests — the hot loop \
         regressed from zero allocations per I/O",
        total - warmup,
    );
}

/// Steady-state replay on the 64-chip paper geometry allocates nothing.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn steady_state_replay_is_allocation_free_small() {
    let config = SsdConfig::paper_default().with_blocks_per_plane(64);
    assert_zero_alloc_steady_state(config, 6_000, 3_000);
}

/// The same proof at 1024 chips: pool sizing, not luck, keeps the loop clean.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn steady_state_replay_is_allocation_free_1024_chips() {
    let config = SsdConfig::paper_default()
        .with_chip_count(1024)
        .with_blocks_per_plane(64);
    assert_zero_alloc_steady_state(config, 6_000, 3_000);
}

/// Allocation events of one `Ssd::new` (the scheduler is built before the
/// window opens).
fn construction_allocs(config: SsdConfig) -> u64 {
    let scheduler = SchedulerKind::Spk3.build();
    let scope = AllocScope::begin();
    let ssd = Ssd::new(config, scheduler).unwrap();
    let allocations = scope.allocations();
    drop(ssd);
    allocations
}

/// Building a device costs a small constant number of allocations, not one
/// or more per chip, plane or block: 1024 chips cost about what 64 do.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn device_construction_allocations_do_not_scale_with_geometry() {
    let small = construction_allocs(SsdConfig::paper_default().with_blocks_per_plane(32));
    let large = construction_allocs(
        SsdConfig::paper_default()
            .with_chip_count(1024)
            .with_blocks_per_plane(32),
    );
    assert!(
        large < 200,
        "Ssd::new made {large} allocations at 1024 chips"
    );
    assert!(
        large <= small + 16,
        "Ssd::new made {large} allocations at 1024 chips against {small} at 64"
    );
}

/// The GC-bound shape: 16 chips of 8 blocks per plane, preconditioned to 90%
/// of physical capacity, then 8-page requests, 70% of them writes, over a
/// fixed footprint that a sequential warm-up pass maps completely.  Random
/// overwrites keep every plane at the GC watermark, so the measured window
/// runs GC reads, programs and erases on every plane.
fn gc_requests(footprint_requests: u64, random: u64, spacing_ns: u64) -> Vec<HostRequest> {
    let mut rng = SplitMix64::new(0x6c16);
    let sequential = (0..footprint_requests).map(|base| (Direction::Write, base));
    let random = (0..random).map(|_| {
        let base = rng.next_u64() % footprint_requests;
        if rng.next_u64() % 10 < 7 {
            (Direction::Write, base)
        } else {
            (Direction::Read, base)
        }
    });
    sequential
        .chain(random)
        .enumerate()
        .map(|(i, (direction, base))| {
            let i = i as u64;
            HostRequest::new(
                i,
                SimTime::from_nanos(i * spacing_ns),
                direction,
                Lpn::new(base * PAGES as u64),
                PAGES,
            )
        })
        .collect()
}

/// Garbage collection in steady state allocates nothing: migration buffers,
/// GC job slots, the in-flight arena and the FTL columns all reach their
/// high-water marks during warm-up.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn gc_steady_state_replay_is_allocation_free() {
    const FOOTPRINT_REQUESTS: u64 = 512;
    const RANDOM: u64 = 6_000;
    const WARMUP: u64 = FOOTPRINT_REQUESTS + 3_000;
    let config = SsdConfig::paper_default()
        .with_chip_count(16)
        .with_blocks_per_plane(8)
        .with_gc(GcConfig::enabled());
    let mut ssd = Ssd::new(config, SchedulerKind::Spk3.build()).unwrap();
    ssd.precondition(0.9, 16);
    let requests = gc_requests(FOOTPRINT_REQUESTS, RANDOM, 1_000);
    let total = requests.len() as u64;
    let (metrics, steady_allocs, steady_bytes) = metered_replay_on(ssd, requests, WARMUP);
    assert_eq!(metrics.io_count, total, "every request must complete");
    assert!(
        metrics.gc.invocations > 500,
        "too little GC to gate: {} invocations",
        metrics.gc.invocations
    );
    assert_eq!(
        steady_allocs,
        0,
        "GC steady state performed {steady_allocs} allocations ({steady_bytes} bytes) \
         over {} measured requests",
        total - WARMUP,
    );
}

/// The counting allocator itself works in this binary: a deliberate heap
/// allocation inside a scope is observed.  (Not ignored — this sanity check
/// is cheap and guards against the gate silently measuring nothing.)
#[test]
fn counting_allocator_observes_allocations() {
    let scope = AllocScope::begin();
    let v: Vec<u64> = Vec::with_capacity(1024);
    assert!(scope.allocations() >= 1, "allocation was not counted");
    assert!(scope.bytes() >= 8 * 1024, "bytes were not counted");
    drop(v);
}
