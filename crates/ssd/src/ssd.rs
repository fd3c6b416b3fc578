//! The event-driven many-chip SSD simulator.
//!
//! [`Ssd`] binds every substrate component together and simulates the full I/O
//! service routine of Fig 3: host arrivals → device-queue admission (tags) →
//! scheduler-driven memory-request composition and commitment → host DMA → FTL
//! translation/allocation → per-chip transaction coalescing at the flash
//! controllers → channel-arbitrated bus phases and overlapped cell phases →
//! completion upcalls, bitmap clearing, and I/O retirement.  Garbage collection
//! injects internal flash traffic and fires readdressing callbacks for schedulers
//! that support them.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use sprinkler_flash::{Chip, FlashOp, Lpn, ParallelismLevel, PhysicalPageAddr};
use sprinkler_sim::{Duration, EventQueue, SimTime, TelemetryCounters};

use crate::channel::Channel;
use crate::config::SsdConfig;
use crate::controller::{FlashController, PendingRequest, TxnScratch};
use crate::dma::DmaEngine;
use crate::ftl::Ftl;
use crate::inflight::{Entry, GcRole, InFlight};
use crate::ledger::CommitmentLedger;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::queue::DeviceQueue;
use crate::request::{
    Direction, HostRequest, MemReqId, MemReqPhase, MemoryRequest, Placement, TagId,
};
use crate::scheduler::{Commitment, IoScheduler, SchedulerContext};

/// Simulation events.  Host arrivals are not events: the replay loop hands
/// each one to [`Ssd::handle_arrival`] when it is due.
#[derive(Debug)]
enum SsdEvent {
    /// Run the scheduler.
    Schedule,
    /// Host write data for a memory request finished crossing the DMA engine.
    WriteDataReady(MemReqId),
    /// A chip's transaction decision window expired; try to build a transaction.
    ChipKick(usize),
    /// The cell phase of a chip's live transaction finished; arbitrate its
    /// completion phase.
    CellDone(usize),
    /// A chip's live transaction (including its completion bus phase) finished.
    TxnComplete(usize),
    /// Read data for a memory request finished returning to the host.
    ReadReturned(MemReqId),
}

/// The FIFO lanes of the device's event queue.  Each carries event kinds
/// whose firing times never decrease in the order they are scheduled, so a
/// push is an append; only `CellDone` and `TxnComplete`, whose times depend
/// on each transaction's length and bus contention, go through the heap.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// `Schedule`, always scheduled at the current instant, and the current
    /// instant never runs backwards.
    Schedule,
    /// `ChipKick`, at the current instant plus the device's constant
    /// decision window.
    ChipKick,
    /// `WriteDataReady` and `ReadReturned`, at the completion of a
    /// [`DmaEngine::transfer`]: one serial engine whose completions increase.
    Dma,
}

/// Number of [`Lane`]s.
const LANES: usize = Lane::Dma as usize + 1;

/// A transaction currently executing on a chip.  Its members sit in the
/// chip's row of [`Ssd`]'s member slab, in transaction request order.
#[derive(Debug)]
struct LiveTransaction {
    channel: usize,
    level: ParallelismLevel,
    request_count: usize,
    bus_time: Duration,
    cell_time: Duration,
    contention: Duration,
    completion_bus: Duration,
}

/// One in-flight garbage-collection invocation.
#[derive(Debug)]
struct GcJob {
    plane: usize,
    outstanding_reads: usize,
    outstanding_programs: usize,
    erase_addr: PhysicalPageAddr,
    erase_issued: bool,
}

/// The simulated many-chip SSD.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::{Ssd, SsdConfig};
/// use sprinkler_ssd::scheduler::CommitAllScheduler;
/// use sprinkler_ssd::request::{Direction, HostRequest};
/// use sprinkler_flash::Lpn;
/// use sprinkler_sim::SimTime;
///
/// let config = SsdConfig::small_test();
/// let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
/// let trace = vec![
///     HostRequest::new(0, SimTime::ZERO, Direction::Write, Lpn::new(0), 8),
///     HostRequest::new(1, SimTime::from_micros(5), Direction::Read, Lpn::new(0), 8),
/// ];
/// let metrics = ssd.run(trace);
/// assert_eq!(metrics.io_count, 2);
/// assert!(metrics.avg_latency_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: SsdConfig,
    scheduler: Box<dyn IoScheduler>,
    ftl: Ftl,
    chips: Vec<Chip>,
    channels: Vec<Channel>,
    controllers: Vec<FlashController>,
    dma: DmaEngine,
    queue: DeviceQueue,
    events: EventQueue<SsdEvent, LANES>,

    waiting_host: VecDeque<HostRequest>,
    /// Every in-flight memory request (host and GC) with its GC role; slots
    /// are reused, so it holds the in-flight high-water mark, not the device
    /// bound.
    inflight: InFlight,
    /// Commitment/occupancy accounting, maintained incrementally (commit,
    /// completion, transaction start/end) so scheduling rounds never rebuild an
    /// O(chip count) view.  All cap enforcement and per-round counting lives in
    /// the ledger; see [`CommitmentLedger`] for the invariants.
    ledger: CommitmentLedger,
    /// The live transaction of each chip: at most one per chip, since a
    /// transaction starts only on an idle chip.
    live_txns: Vec<Option<LiveTransaction>>,
    /// Members of each chip's live transaction: a fixed row of `fold` ids
    /// per chip, where `fold` (dies × planes per chip) bounds a transaction.
    txn_members: Vec<MemReqId>,
    fold: usize,
    chip_kick_pending: Vec<bool>,
    schedule_pending: bool,
    /// Reusable commitment buffer for scheduling rounds (`schedule_into`).
    commit_buf: Vec<Commitment>,
    /// Reusable scratch + buffer pools for transaction building.
    txn_scratch: TxnScratch,
    /// Always-on hot-path counters, shared with the scheduler and frozen into
    /// the run metrics at finalize.
    telemetry: Arc<TelemetryCounters>,

    /// GC jobs by slot.  A finished job's slot is reused by the next
    /// invocation, so the vector never holds more slots than the peak number
    /// of planes collecting at once.
    gc_jobs: Vec<GcJob>,
    /// Slots of `gc_jobs` whose job has finished.
    free_gc_jobs: Vec<usize>,
    /// One bit per plane: set while a GC job collects the plane.
    gc_active_planes: Vec<u64>,
    readdressed_lpns: HashSet<u64>,

    next_tag: u64,
    failed_writes: u64,

    metrics: MetricsCollector,
    record_series: bool,
}

impl Ssd {
    /// Builds an SSD from a configuration and a scheduler.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error message if `config` is invalid.
    pub fn new(config: SsdConfig, scheduler: Box<dyn IoScheduler>) -> Result<Self, String> {
        Self::with_series(config, scheduler, false)
    }

    /// Like [`Ssd::new`] but also records the per-I/O latency time series needed by
    /// Fig 12.
    pub fn with_series(
        config: SsdConfig,
        mut scheduler: Box<dyn IoScheduler>,
        record_series: bool,
    ) -> Result<Self, String> {
        config.validate()?;
        let geometry = config.geometry.clone();
        scheduler.initialize(&geometry);
        let chips: Vec<Chip> = (0..geometry.total_chips())
            .map(|i| Chip::new(geometry.chip_location(i), &geometry))
            .collect();
        let channels = (0..geometry.channels).map(Channel::new).collect();
        let controllers = (0..geometry.channels)
            .map(|c| FlashController::new(c, geometry.chips_per_channel))
            .collect();
        let ftl = Ftl::new(
            geometry.clone(),
            config.allocation,
            config.gc.free_block_watermark,
        );
        let metrics = MetricsCollector::new(scheduler.name(), record_series);
        let telemetry = Arc::clone(metrics.telemetry());
        scheduler.attach_telemetry(&telemetry);
        let total_chips = geometry.total_chips();
        // Pre-size the transaction scratch to its structural bounds so the
        // steady-state hot loop never grows it: a chip's pending set is capped
        // by the per-chip commitment budget, and a transaction folds at most
        // one request per (die, plane).
        let fold = geometry.dies_per_chip * geometry.planes_per_die;
        let mut txn_scratch = TxnScratch::new();
        txn_scratch.preallocate(config.max_committed_per_chip, fold);
        Ok(Ssd {
            dma: DmaEngine::new(config.dma_bytes_per_sec),
            queue: DeviceQueue::new(config.queue_depth),
            events: EventQueue::with_lanes(),
            waiting_host: VecDeque::new(),
            inflight: InFlight::default(),
            ledger: CommitmentLedger::new(total_chips, config.max_committed_per_chip),
            live_txns: (0..total_chips).map(|_| None).collect(),
            txn_members: vec![MemReqId::default(); total_chips * fold],
            fold,
            chip_kick_pending: vec![false; total_chips],
            schedule_pending: false,
            commit_buf: Vec::new(),
            txn_scratch,
            telemetry,
            gc_jobs: Vec::new(),
            free_gc_jobs: Vec::new(),
            gc_active_planes: vec![0; geometry.total_planes().div_ceil(64)],
            readdressed_lpns: HashSet::new(),
            next_tag: 0,
            failed_writes: 0,
            metrics,
            record_series,
            config,
            scheduler,
            ftl,
            chips,
            channels,
            controllers,
        })
    }

    /// The configuration this SSD was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Whether the latency series is being recorded.
    pub fn records_series(&self) -> bool {
        self.record_series
    }

    /// Registers per-tenant metric lanes for this run.  Completed I/Os whose
    /// [`HostRequest::tenant`] indexes a registered lane are attributed to it
    /// (latency measured from [`HostRequest::submitted`]); the lanes surface
    /// as [`RunMetrics::tenants`].  Call before replay starts.
    pub fn configure_tenants(&mut self, specs: &[crate::metrics::TenantLaneSpec]) {
        self.metrics.configure_tenants(specs);
    }

    /// Pre-conditions the SSD into a fragmented state (live data occupying
    /// `utilization` of the physical capacity) so garbage collection triggers
    /// quickly, as in the Fig 17 experiments.  Must be called before [`Ssd::run`].
    pub fn precondition(&mut self, utilization: f64, seed: u64) {
        self.ftl.precondition(utilization, seed);
    }

    /// Runs the simulation over a trace of host requests and returns the collected
    /// metrics.  Requests may arrive in any order; they are sorted by arrival time
    /// and then replayed through the bounded-admission streaming loop of
    /// [`Ssd::run_stream`].
    pub fn run(self, trace: impl IntoIterator<Item = HostRequest>) -> RunMetrics {
        let mut arrivals: Vec<HostRequest> = trace.into_iter().collect();
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        self.run_stream(arrivals)
    }

    /// Runs the simulation over a *time-ordered* stream of host requests with
    /// bounded admission: at most one pulled-but-unscheduled request plus a
    /// host-side backlog capped at the device queue depth are ever buffered, so
    /// the replay's memory footprint is O(queue depth + in-flight work) — not
    /// O(trace length) as with a fully materialized arrival list.  This is the
    /// path every experiment replay runs through; multi-million-I/O traces
    /// stream straight from a generator or parser.
    ///
    /// A request is *ingested* (its arrival event handled) when its arrival
    /// time is due before the next simulation event and the backlog has room;
    /// requests arriving faster than the device retires work wait inside the
    /// source instead of piling up in memory.  Deferral never changes recorded
    /// arrival times, admission order, or admission times, so the metrics are
    /// identical to an eager replay.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields a request whose arrival time precedes the
    /// previous request's (use [`Ssd::run`] for unsorted traces).
    pub fn run_stream(mut self, arrivals: impl IntoIterator<Item = HostRequest>) -> RunMetrics {
        self.replay(arrivals);
        self.finalize()
    }

    /// The bounded-admission event loop of [`Ssd::run_stream`], run until the
    /// source is dry and every event has been handled.
    fn replay(&mut self, arrivals: impl IntoIterator<Item = HostRequest>) {
        let mut source = arrivals.into_iter();
        let backlog_cap = self.config.queue_depth.max(1);
        let mut next = source.next();
        let mut last_arrival = SimTime::ZERO;
        loop {
            let next_event = self.events.peek_time();
            let due = next
                .as_ref()
                .is_some_and(|request| next_event.is_none_or(|at| request.arrival <= at));
            // With an empty event queue the arrival must be ingested regardless
            // of the backlog bound, or the replay could not make progress (in
            // practice a full backlog implies queued tags and therefore pending
            // events).
            let backlog_has_room = self.waiting_host.len() < backlog_cap || next_event.is_none();
            if let Some(request) = next.take_if(|_| due && backlog_has_room) {
                TelemetryCounters::incr(&self.telemetry.stream_admissions);
                assert!(
                    request.arrival >= last_arrival,
                    "run_stream requires nondecreasing arrival times (request {} at {} ns \
                     after {} ns)",
                    request.id,
                    request.arrival.as_nanos(),
                    last_arrival.as_nanos(),
                );
                last_arrival = request.arrival;
                next = source.next();
                // An arrival deferred past its nominal time (backlog was full)
                // is ingested at the current simulation time; `request.arrival`
                // itself is what every metric records.
                let at = request.arrival.max(self.events.now());
                self.handle_arrival(at, request);
            } else if let Some((now, event)) = self.events.pop() {
                if due {
                    // A request was due but the bounded backlog had no room:
                    // the loop drains device events instead of ingesting.
                    TelemetryCounters::incr(&self.telemetry.stream_stalls);
                }
                self.handle_event(now, event);
            } else {
                debug_assert!(next.is_none(), "replay stalled with requests left");
                break;
            }
            self.metrics
                .record_queue_pressure(self.waiting_host.len(), self.events.len());
        }
    }

    fn finalize(self) -> RunMetrics {
        let end = self.events.now();
        let chip_busy: Vec<Duration> = self.chips.iter().map(|c| c.stats().busy).collect();
        let plane_busy: Vec<Duration> = self.chips.iter().map(|c| c.stats().plane_busy).collect();
        let planes_per_chip =
            self.config.geometry.dies_per_chip * self.config.geometry.planes_per_die;
        self.metrics.finalize(
            end,
            &chip_busy,
            &plane_busy,
            planes_per_chip,
            self.ftl.gc_stats(),
        )
    }

    fn handle_arrival(&mut self, now: SimTime, request: HostRequest) {
        self.metrics.record_arrival(request.arrival);
        self.waiting_host.push_back(request);
        self.try_admit(now);
        self.request_schedule(now);
    }

    fn handle_event(&mut self, now: SimTime, event: SsdEvent) {
        match event {
            SsdEvent::Schedule => {
                self.schedule_pending = false;
                self.run_scheduler(now);
            }
            SsdEvent::WriteDataReady(id) => {
                self.deliver_to_controller(id, now);
            }
            SsdEvent::ChipKick(chip) => {
                self.chip_kick_pending[chip] = false;
                self.try_start_transaction(chip, now);
            }
            SsdEvent::CellDone(chip) => {
                self.handle_cell_done(chip, now);
            }
            SsdEvent::TxnComplete(chip) => {
                self.handle_txn_complete(chip, now);
            }
            SsdEvent::ReadReturned(id) => {
                self.complete_mem_request(id, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission and scheduling
    // ------------------------------------------------------------------

    fn try_admit(&mut self, now: SimTime) {
        while !self.queue.is_full() {
            let Some(request) = self.waiting_host.pop_front() else {
                break;
            };
            let tag = TagId(self.next_tag);
            self.next_tag += 1;
            self.metrics.record_admission(request.arrival, now);
            // `admit_with` fills placements straight from the FTL preview into
            // the tag's (possibly recycled) placement buffer — no intermediate
            // Vec per admission.
            let ftl = &self.ftl;
            let admitted = self.queue.admit_with(tag, request, now, |page| {
                ftl.preview(request.lpn_at(page), request.direction)
            });
            debug_assert!(admitted, "admission into a non-full queue must succeed");
        }
    }

    fn request_schedule(&mut self, now: SimTime) {
        if !self.schedule_pending {
            self.schedule_pending = true;
            self.schedule_in_lane(Lane::Schedule, now, SsdEvent::Schedule);
        }
    }

    fn run_scheduler(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        TelemetryCounters::incr(&self.telemetry.sched_rounds);
        self.ledger.begin_round();
        // The commitment buffer is taken out of `self` for the borrow, reused
        // every round.  A round commits each candidate row at most once, so
        // sized to the candidate arena it grows only when the arena does.
        let mut commitments = std::mem::take(&mut self.commit_buf);
        commitments.clear();
        commitments.reserve(self.queue.candidate_capacity());
        {
            let ctx = SchedulerContext {
                now,
                geometry: &self.config.geometry,
                queue: &self.queue,
                ledger: &self.ledger,
            };
            self.scheduler.schedule_into(&ctx, &mut commitments);
        }
        for &Commitment { tag, page } in &commitments {
            self.commit_memory_request(tag, page, now);
        }
        self.commit_buf = commitments;
    }

    fn commit_memory_request(&mut self, tag_id: TagId, page: u32, now: SimTime) {
        let page_size = self.config.page_size() as u64;
        // One tag-id lookup resolves the dense slot handle; everything below
        // (state access, commitment, retirement) goes through the handle.
        let Some(slot) = self.queue.slot_of(tag_id) else {
            return;
        };
        let Some(tag) = self.queue.state_at(slot as usize) else {
            return;
        };
        if page as usize >= tag.pages() {
            return;
        }
        let chip = tag.placements[page as usize].chip;
        // Commitments beyond the chip's headroom are deferred to a later round.
        // `outstanding` already reflects this round's commits exactly once, so
        // the headroom available within a single round is the full
        // `max_committed_per_chip`.
        if self.ledger.headroom(chip) == 0 {
            TelemetryCounters::incr(&self.telemetry.ledger_headroom_exhausted);
            return;
        }
        let host = tag.host;
        let placement = tag.placements[page as usize];
        if !self.queue.commit_page_at(slot, page, now) {
            return;
        }
        self.ledger.commit(chip);
        let id = self.inflight.insert(
            |id| {
                MemoryRequest::new_host(
                    id,
                    tag_id,
                    page,
                    host.lpn_at(page),
                    host.direction,
                    placement,
                    now,
                )
            },
            None,
        );
        if host.direction.is_write() {
            // Write payload must cross the host interface before the flash program
            // can be composed (memory request composition + data movement, Fig 3).
            let ready = self.dma.transfer(now, page_size);
            self.schedule_in_lane(Lane::Dma, ready, SsdEvent::WriteDataReady(id));
        } else {
            self.deliver_to_controller(id, now);
        }
    }

    // ------------------------------------------------------------------
    // Delivery to flash controllers and transaction execution
    // ------------------------------------------------------------------

    fn deliver_to_controller(&mut self, id: MemReqId, now: SimTime) {
        let Some(Entry { request, .. }) = self.inflight.get(id) else {
            return;
        };
        let lpn = request.lpn;
        let direction = request.direction;
        if request.gc {
            // GC traffic is delivered directly via `gc_delivery`, never here.
            debug_assert!(false, "GC requests must not reach deliver_to_controller");
            return;
        }

        let (addr, op) = if direction.is_read() {
            (self.ftl.translate_read(lpn), FlashOp::Read)
        } else {
            match self.ftl.allocate_write(lpn) {
                Some(alloc) => {
                    let plane = self.ftl.plane_index_of_addr(alloc.addr);
                    if self.config.gc.enabled && self.ftl.needs_gc(plane) {
                        self.start_gc(plane, now);
                    }
                    (alloc.addr, FlashOp::Program)
                }
                None => {
                    // The SSD is completely full; fail the write but keep the
                    // simulation making progress.
                    self.failed_writes += 1;
                    self.complete_mem_request(id, now);
                    return;
                }
            }
        };

        let extra_delay = if !self.scheduler.supports_readdressing()
            && self.readdressed_lpns.remove(&lpn.value())
        {
            self.config.gc.stale_readdress_penalty
        } else {
            Duration::ZERO
        };

        let mut tag = None;
        if let Some(Entry { request, .. }) = self.inflight.get_mut(id) {
            request.phase = MemReqPhase::Pending;
            request.delivered_at = now;
            tag = request.tag;
        }
        let pending = PendingRequest {
            id,
            addr,
            op,
            delivered_at: now,
            gc: false,
            tag,
            extra_delay,
        };
        let channel = addr.channel as usize;
        let chip = self.config.geometry.chip_index(addr.channel, addr.way);
        self.controllers[channel].deliver(pending);
        if !self.chips[chip].is_busy() {
            self.schedule_chip_kick(chip, now);
        }
    }

    fn schedule_chip_kick(&mut self, chip: usize, now: SimTime) {
        if self.chip_kick_pending[chip] {
            return;
        }
        self.chip_kick_pending[chip] = true;
        let at = now + self.config.decision_window;
        self.schedule_in_lane(Lane::ChipKick, at, SsdEvent::ChipKick(chip));
    }

    /// Schedules an event of an in-order kind through its lane.
    fn schedule_in_lane(&mut self, lane: Lane, at: SimTime, event: SsdEvent) {
        let in_order = self.events.schedule_in_lane(lane as usize, at, event);
        debug_assert!(
            in_order,
            "{lane:?} lane event at {at:?} fell back to the heap"
        );
    }

    fn try_start_transaction(&mut self, chip_index: usize, now: SimTime) {
        if self.chips[chip_index].is_busy() {
            return;
        }
        let location = self.config.geometry.chip_location(chip_index);
        let channel_index = location.channel as usize;
        let way = location.way as usize;
        let Some(built) = self.controllers[channel_index].build_transaction_with(
            way,
            &self.config.geometry,
            &mut self.txn_scratch,
        ) else {
            return;
        };
        let issue_time = self.config.timing.issue_bus_time(&built.txn);
        let ready = self.chips[chip_index].ready_at().max(now) + built.extra_delay;
        let grant = self.channels[channel_index].acquire(ready, issue_time);
        let phase = self.chips[chip_index]
            .begin_transaction(&built.txn, grant.start, &self.config.timing)
            .expect("idle chip accepted the transaction");
        self.ledger.set_busy(chip_index, true);

        let row = chip_index * self.fold;
        for (slot, &member) in built.members.iter().enumerate() {
            self.txn_members[row + slot] = member;
            if let Some(Entry { request, .. }) = self.inflight.get_mut(member) {
                request.phase = MemReqPhase::Executing;
            }
        }
        self.live_txns[chip_index] = Some(LiveTransaction {
            channel: channel_index,
            level: built.txn.parallelism(),
            request_count: built.txn.requests().len(),
            bus_time: phase.issue_bus() + phase.completion_bus,
            cell_time: phase.cell(),
            contention: grant.waited,
            completion_bus: phase.completion_bus,
        });
        // The member ids now live in the slab; both buffers go back into the
        // pool for the next build on this SSD.
        self.txn_scratch.recycle_members(built.members);
        self.txn_scratch.recycle_requests(built.txn.into_requests());
        self.events
            .schedule(phase.cell_end, SsdEvent::CellDone(chip_index));
    }

    fn handle_cell_done(&mut self, chip: usize, now: SimTime) {
        let Some(live) = self.live_txns[chip].as_mut() else {
            return;
        };
        let grant = self.channels[live.channel].acquire(now, live.completion_bus);
        live.contention += grant.waited;
        self.events.schedule(grant.end, SsdEvent::TxnComplete(chip));
    }

    fn handle_txn_complete(&mut self, chip: usize, now: SimTime) {
        let Some(live) = self.live_txns[chip].take() else {
            return;
        };
        self.chips[chip].complete_transaction(now);
        self.ledger.set_busy(chip, false);
        self.metrics.record_transaction(
            live.level,
            live.request_count,
            live.bus_time,
            live.contention,
            live.cell_time,
        );
        let page_size = self.config.page_size() as u64;
        // No transaction can start on this chip before the next `ChipKick`
        // event, so its slab row stays intact for the whole loop.
        let row = chip * self.fold;
        for slot in row..row + live.request_count {
            let member = self.txn_members[slot];
            let Some(Entry { request, .. }) = self.inflight.get_mut(member) else {
                continue;
            };
            if request.gc {
                self.gc_request_done(member, now);
            } else if request.direction.is_read() {
                // Read payload returns to the host through the DMA engine.
                request.phase = MemReqPhase::Returning;
                let done = self.dma.transfer(now, page_size);
                self.schedule_in_lane(Lane::Dma, done, SsdEvent::ReadReturned(member));
            } else {
                self.complete_mem_request(member, now);
            }
        }
        let location = self.config.geometry.chip_location(chip);
        if self.controllers[location.channel as usize].has_pending(location.way as usize) {
            self.schedule_chip_kick(chip, now);
        }
        self.request_schedule(now);
    }

    fn complete_mem_request(&mut self, id: MemReqId, now: SimTime) {
        let Some(Entry { mut request, .. }) = self.inflight.remove(id) else {
            return;
        };
        request.phase = MemReqPhase::Complete;
        request.completed_at = now;
        if !request.gc {
            // Every host commitment was charged to the ledger at commit time;
            // the ledger audits that this retirement has a matching charge
            // instead of silently saturating.
            self.ledger.retire(request.placement.chip);
        }
        if let Some(tag_id) = request.tag {
            let slot = self.queue.slot_of(tag_id);
            let mut finished: Option<(HostRequest, SimTime)> = None;
            if let Some(slot) = slot {
                if self.queue.complete_page_at(slot, request.page_index) {
                    finished = self
                        .queue
                        .state_at(slot as usize)
                        .filter(|tag| tag.fully_committed() && tag.fully_completed())
                        .map(|tag| (tag.host, now));
                }
            }
            self.scheduler.on_complete(tag_id, request.page_index);
            if let Some((host, completed_at)) = finished {
                self.metrics.record_io(
                    host.id,
                    host.direction.is_read(),
                    host.bytes(self.config.page_size()),
                    host.arrival,
                    completed_at,
                );
                // Tenant attribution measures from the pre-admission
                // submission time; a no-op unless lanes were configured.
                self.metrics.record_tenant_io(
                    host.tenant,
                    host.direction.is_read(),
                    host.bytes(self.config.page_size()),
                    host.submitted,
                    completed_at,
                );
                // Recycle the tag's buffers so later admissions reuse them.
                if let Some(state) = slot.and_then(|slot| self.queue.retire_at(slot)) {
                    self.queue.recycle(state);
                }
                self.try_admit(now);
            }
        }
        self.request_schedule(now);
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn start_gc(&mut self, plane: usize, now: SimTime) {
        let (word, bit) = (plane / 64, 1u64 << (plane % 64));
        if self.gc_active_planes[word] & bit != 0 {
            return;
        }
        let Some(plan) = self.ftl.collect_plane(plane) else {
            return;
        };
        self.gc_active_planes[word] |= bit;
        let job = GcJob {
            plane,
            outstanding_reads: 0,
            outstanding_programs: 0,
            erase_addr: plan.erase_addr,
            erase_issued: false,
        };
        let job_index = match self.free_gc_jobs.pop() {
            Some(slot) => {
                self.gc_jobs[slot] = job;
                slot
            }
            None => {
                self.gc_jobs.push(job);
                self.gc_jobs.len() - 1
            }
        };
        // Readdressing: tell Sprinkler-class schedulers, update stale previews, or
        // queue up penalties for schedulers without the callback.
        for migration in &plan.migrations {
            if migration.crossed_plane {
                if self.scheduler.supports_readdressing() {
                    self.scheduler.on_readdress(migration);
                    self.refresh_placements(migration.lpn);
                } else {
                    self.readdressed_lpns.insert(migration.lpn.value());
                }
            }
        }
        // Valid pages are read first; their programs are issued as the reads finish.
        for migration in &plan.migrations {
            let role = GcRole::Read {
                job: job_index,
                lpn: migration.lpn,
                to: migration.to,
            };
            self.gc_jobs[job_index].outstanding_reads += 1;
            self.issue_gc(migration.lpn, Direction::Read, migration.from, role, now);
        }
        self.ftl.recycle_plan(plan);
        if self.gc_jobs[job_index].outstanding_reads == 0 {
            // Nothing valid to migrate: erase immediately.
            self.issue_gc_erase(job_index, now);
        }
    }

    fn refresh_placements(&mut self, lpn: Lpn) {
        let preview = self.ftl.preview(lpn, Direction::Read);
        self.queue.refresh_placements(lpn.value(), preview);
    }

    fn gc_delivery(&mut self, id: MemReqId, addr: PhysicalPageAddr, op: FlashOp, now: SimTime) {
        let channel = addr.channel as usize;
        let chip = self.config.geometry.chip_index(addr.channel, addr.way);
        self.controllers[channel].deliver(PendingRequest {
            id,
            addr,
            op,
            delivered_at: now,
            gc: true,
            tag: None,
            extra_delay: Duration::ZERO,
        });
        if !self.chips[chip].is_busy() {
            self.schedule_chip_kick(chip, now);
        }
    }

    /// Issues one GC memory request for `role` at `addr` and delivers it to
    /// its controller.
    fn issue_gc(
        &mut self,
        lpn: Lpn,
        direction: Direction,
        addr: PhysicalPageAddr,
        role: GcRole,
        now: SimTime,
    ) {
        let placement = Placement::from_addr(addr, self.config.geometry.chips_per_channel);
        let id = self.inflight.insert(
            |id| MemoryRequest::new_gc(id, lpn, direction, placement, now),
            Some(role),
        );
        let op = match role {
            GcRole::Read { .. } => FlashOp::Read,
            GcRole::Program { .. } => FlashOp::Program,
            GcRole::Erase { .. } => FlashOp::Erase,
        };
        self.gc_delivery(id, addr, op, now);
    }

    fn gc_request_done(&mut self, id: MemReqId, now: SimTime) {
        let Some(Entry {
            role: Some(role), ..
        }) = self.inflight.remove(id)
        else {
            return;
        };
        match role {
            GcRole::Read { job, lpn, to } => {
                self.gc_jobs[job].outstanding_reads -= 1;
                // The read content is now re-programmed at its new home.
                self.gc_jobs[job].outstanding_programs += 1;
                self.issue_gc(lpn, Direction::Write, to, GcRole::Program { job }, now);
            }
            GcRole::Program { job } => {
                self.gc_jobs[job].outstanding_programs -= 1;
                if self.gc_jobs[job].outstanding_reads == 0
                    && self.gc_jobs[job].outstanding_programs == 0
                    && !self.gc_jobs[job].erase_issued
                {
                    self.issue_gc_erase(job, now);
                }
            }
            GcRole::Erase { job } => {
                // The erase is a job's last request: no role refers to the
                // slot any more.
                let plane = self.gc_jobs[job].plane;
                self.gc_active_planes[plane / 64] &= !(1u64 << (plane % 64));
                self.free_gc_jobs.push(job);
            }
        }
    }

    fn issue_gc_erase(&mut self, job_index: usize, now: SimTime) {
        let erase_addr = self.gc_jobs[job_index].erase_addr;
        self.gc_jobs[job_index].erase_issued = true;
        let role = GcRole::Erase { job: job_index };
        self.issue_gc(Lpn::new(0), Direction::Write, erase_addr, role, now);
    }

    /// Number of writes that failed because the SSD ran out of physical space.
    pub fn failed_writes(&self) -> u64 {
        self.failed_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::scheduler::CommitAllScheduler;

    fn write_req(id: u64, at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest::new(
            id,
            SimTime::from_micros(at_us),
            Direction::Write,
            Lpn::new(lpn),
            pages,
        )
    }

    fn read_req(id: u64, at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest::new(
            id,
            SimTime::from_micros(at_us),
            Direction::Read,
            Lpn::new(lpn),
            pages,
        )
    }

    fn run_small(trace: Vec<HostRequest>) -> RunMetrics {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        ssd.run(trace)
    }

    #[test]
    fn empty_trace_produces_empty_metrics() {
        let metrics = run_small(vec![]);
        assert_eq!(metrics.io_count, 0);
        assert_eq!(metrics.transactions, 0);
    }

    #[test]
    fn single_read_completes_with_plausible_latency() {
        let metrics = run_small(vec![read_req(0, 0, 0, 1)]);
        assert_eq!(metrics.io_count, 1);
        assert_eq!(metrics.read_ios, 1);
        assert_eq!(metrics.bytes_read, 2048);
        // Latency must cover at least the read cell time (20us) plus transfers.
        assert!(
            metrics.avg_latency_ns > 20_000.0,
            "{}",
            metrics.avg_latency_ns
        );
        assert!(metrics.avg_latency_ns < 1_000_000.0);
        assert_eq!(metrics.transactions, 1);
        assert_eq!(metrics.memory_requests, 1);
    }

    #[test]
    fn single_write_completes() {
        let metrics = run_small(vec![write_req(0, 0, 0, 1)]);
        assert_eq!(metrics.io_count, 1);
        assert_eq!(metrics.write_ios, 1);
        assert_eq!(metrics.bytes_written, 2048);
        // Fast-page program is 200us.
        assert!(metrics.avg_latency_ns > 200_000.0);
    }

    #[test]
    fn multi_page_request_spreads_over_chips() {
        // 8 sequential pages spread across the 4 chips of the small geometry.
        let metrics = run_small(vec![read_req(0, 0, 0, 8)]);
        assert_eq!(metrics.io_count, 1);
        assert!(metrics.memory_requests == 8);
        assert!(metrics.chip_utilization > 0.0);
        // Striping over 4 chips means at most ~2 pages per chip; the transaction
        // count must be well below 8 if coalescing works at all, and at least 4.
        assert!(metrics.transactions >= 4);
    }

    #[test]
    fn reads_after_writes_hit_written_locations() {
        let mut trace = vec![write_req(0, 0, 0, 8)];
        trace.push(read_req(1, 3000, 0, 8));
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 2);
        assert_eq!(metrics.read_ios, 1);
        assert_eq!(metrics.write_ios, 1);
    }

    #[test]
    fn many_requests_all_complete() {
        let mut trace = Vec::new();
        for i in 0..50u64 {
            if i % 3 == 0 {
                trace.push(write_req(i, i * 10, i * 4, 4));
            } else {
                trace.push(read_req(i, i * 10, (i % 7) * 16, 4));
            }
        }
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 50);
        assert!(metrics.bandwidth_kb_per_sec > 0.0);
        assert!(metrics.iops > 0.0);
        assert!(metrics.chip_utilization > 0.0 && metrics.chip_utilization <= 1.0);
        assert!(metrics.inter_chip_idleness >= 0.0 && metrics.inter_chip_idleness <= 1.0);
        assert!(metrics.intra_chip_idleness >= 0.0 && metrics.intra_chip_idleness <= 1.0);
        let flp_sum: f64 = metrics.flp.as_array().iter().sum();
        assert!((flp_sum - 1.0).abs() < 1e-9);
        let exec_sum = metrics.execution.bus_operation
            + metrics.execution.bus_contention
            + metrics.execution.memory_operation
            + metrics.execution.idle;
        assert!((exec_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn queue_pressure_creates_stall_time() {
        // Small queue (8) + 64 simultaneous arrivals => some must wait.
        let trace: Vec<HostRequest> = (0..64).map(|i| read_req(i, 0, i * 4, 2)).collect();
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 64);
        assert!(metrics.queue_stall_ns > 0);
    }

    #[test]
    fn latency_series_is_recorded_when_enabled() {
        let config = SsdConfig::small_test();
        let ssd = Ssd::with_series(config, Box::new(CommitAllScheduler::new()), true).unwrap();
        let metrics = ssd.run((0..5).map(|i| read_req(i, i * 100, i * 4, 1)));
        assert_eq!(metrics.latency_series.len(), 5);
        assert!(metrics.latency_series.iter().all(|&(_, l)| l > 0));
    }

    #[test]
    fn overwrites_with_gc_enabled_trigger_collection() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig {
                enabled: true,
                free_block_watermark: 1,
                blocks_per_invocation: 1,
                stale_readdress_penalty: Duration::from_micros(40),
            });
        let ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        // Hammer a small logical range with rewrites so blocks fill with stale data.
        let mut trace = Vec::new();
        for i in 0..400u64 {
            trace.push(write_req(i, i * 50, i % 16, 1));
        }
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 400);
        assert!(metrics.gc.invocations > 0, "GC should have run");
        assert!(metrics.gc.blocks_erased > 0);
    }

    #[test]
    fn preconditioned_ssd_gcs_sooner() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        ssd.precondition(0.90, 7);
        let trace: Vec<HostRequest> = (0..60).map(|i| write_req(i, i * 100, i % 32, 1)).collect();
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 60);
        assert!(metrics.gc.invocations > 0);
    }

    #[test]
    fn gc_storm_keeps_job_slots_bounded() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let planes = config.geometry.total_planes();
        let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        ssd.precondition(0.90, 7);
        ssd.replay((0..3_000).map(|i| write_req(i, i * 20, (i * 7) % 48, 1)));
        let invocations = ssd.ftl.gc_stats().invocations;
        assert!(
            invocations > 20 * planes as u64,
            "storm too mild: {invocations} GC invocations"
        );
        assert!(
            ssd.gc_active_planes.iter().all(|&word| word == 0),
            "every GC job finished"
        );
        assert!(
            ssd.gc_jobs.len() <= planes,
            "{} job slots",
            ssd.gc_jobs.len()
        );
        assert_eq!(ssd.free_gc_jobs.len(), ssd.gc_jobs.len());
    }

    /// Under a GC storm the in-flight arena grows to the peak number of
    /// simultaneously live memory requests and no further: every completed
    /// request's slot is reused.
    #[test]
    fn gc_storm_arena_holds_the_in_flight_high_water_mark() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        ssd.precondition(0.90, 7);
        let storm = (0..3_000)
            .map(|i| write_req(i, i * 20, (i * 7) % 48, 1))
            .collect();
        let mut peak = 0;
        replay_eager(&mut ssd, storm, |ssd| {
            peak = peak.max(ssd.inflight.len());
        });
        assert!(
            ssd.ftl.gc_stats().pages_migrated > 0,
            "the storm migrated pages"
        );
        assert_eq!(ssd.inflight.len(), 0, "every memory request completed");
        assert!(peak > 1);
        assert_eq!(ssd.inflight.slot_count(), peak);
    }

    #[test]
    fn scheduler_name_is_propagated() {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        assert_eq!(ssd.scheduler_name(), "commit-all");
        assert!(!ssd.records_series());
        assert_eq!(ssd.config().queue_depth, 8);
        let metrics = ssd.run(vec![read_req(0, 0, 0, 1)]);
        assert_eq!(metrics.scheduler, "commit-all");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = SsdConfig::small_test();
        config.queue_depth = 0;
        assert!(Ssd::new(config, Box::new(CommitAllScheduler::new())).is_err());
    }

    /// A probe that proposes every uncommitted page each round and records the
    /// per-chip outstanding counts it observes at the start of every round.
    #[derive(Debug)]
    struct HeadroomProbe {
        observed: std::sync::Arc<std::sync::Mutex<Vec<Vec<usize>>>>,
    }

    impl crate::scheduler::IoScheduler for HeadroomProbe {
        fn name(&self) -> &'static str {
            "headroom-probe"
        }

        fn schedule_into(
            &mut self,
            ctx: &crate::scheduler::SchedulerContext<'_>,
            out: &mut Vec<crate::scheduler::Commitment>,
        ) {
            let outstanding: Vec<usize> =
                (0..ctx.chip_count()).map(|c| ctx.outstanding(c)).collect();
            self.observed.lock().unwrap().push(outstanding);
            for tag in ctx.tags() {
                for page in tag.uncommitted_pages() {
                    out.push(crate::scheduler::Commitment { tag: tag.id, page });
                }
            }
        }
    }

    /// The seed's eager replay loop, kept as a test-only reference: every
    /// arrival is ingested at its own time, before any device event due at the
    /// same instant, however long the host backlog grows (memory O(trace
    /// length)).  That is the order the seed got by pre-scheduling every
    /// arrival as an event.  `after_step` sees the device after each arrival
    /// or event.
    fn replay_eager(ssd: &mut Ssd, trace: Vec<HostRequest>, mut after_step: impl FnMut(&Ssd)) {
        let mut arrivals = trace;
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        let mut arrivals = arrivals.into_iter().peekable();
        loop {
            let next_event = ssd.events.peek_time();
            if let Some(request) = arrivals.next_if(|r| next_event.is_none_or(|at| r.arrival <= at))
            {
                ssd.handle_arrival(request.arrival, request);
            } else if let Some((now, event)) = ssd.events.pop() {
                ssd.handle_event(now, event);
            } else {
                break;
            }
            after_step(ssd);
        }
    }

    /// `run_stream`'s bounded-admission deferral must be observationally
    /// identical to [`replay_eager`].
    fn run_eager_reference(mut ssd: Ssd, trace: Vec<HostRequest>) -> RunMetrics {
        replay_eager(&mut ssd, trace, |_| {});
        ssd.finalize()
    }

    /// Locks the claim in `run_stream`'s docs: deferring arrivals under the
    /// backlog bound changes neither metrics nor scheduling outcomes relative
    /// to the seed's eager, pre-scheduled replay — exercised on a saturating
    /// burst (64 simultaneous arrivals through the 8-deep queue, so most
    /// arrivals are deferred far past their nominal times), a paced trace,
    /// and a GC-enabled overwrite storm.
    #[test]
    fn bounded_streaming_matches_the_eager_reference_loop() {
        let saturating: Vec<HostRequest> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    write_req(i, 0, (i % 16) * 4, 4)
                } else {
                    read_req(i, 0, (i % 7) * 16, 2)
                }
            })
            .collect();
        let paced: Vec<HostRequest> = (0..50)
            .map(|i| read_req(i, i * 40, (i % 9) * 8, 3))
            .collect();
        for trace in [saturating, paced] {
            let config = SsdConfig::small_test();
            let eager = run_eager_reference(
                Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap(),
                trace.clone(),
            );
            let streamed = Ssd::new(config, Box::new(CommitAllScheduler::new()))
                .unwrap()
                .run(trace);
            // Everything except the new backpressure gauges must agree; the
            // gauges themselves are what the bounded loop improves.
            assert_eq!(eager.io_count, streamed.io_count);
            assert_eq!(eager.avg_latency_ns, streamed.avg_latency_ns);
            assert_eq!(eager.queue_stall_ns, streamed.queue_stall_ns);
            assert_eq!(eager.transactions, streamed.transactions);
            assert_eq!(eager.memory_requests, streamed.memory_requests);
            assert_eq!(eager.elapsed_ns, streamed.elapsed_ns);
            assert_eq!(eager.latency_series, streamed.latency_series);
            assert!(streamed.peak_host_backlog <= 8);
        }

        // GC readdressing mutates queue state outside scheduling rounds; the
        // deferral must not change GC outcomes either.
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let storm: Vec<HostRequest> = (0..300).map(|i| write_req(i, i * 20, i % 16, 1)).collect();
        let eager = run_eager_reference(
            Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap(),
            storm.clone(),
        );
        let streamed = Ssd::new(config, Box::new(CommitAllScheduler::new()))
            .unwrap()
            .run(storm);
        assert_eq!(eager.io_count, streamed.io_count);
        assert_eq!(eager.gc.invocations, streamed.gc.invocations);
        assert_eq!(eager.gc.blocks_erased, streamed.gc.blocks_erased);
        assert_eq!(eager.avg_latency_ns, streamed.avg_latency_ns);
    }

    /// Arrivals are not events, so an event is 16 B and a heap entry 32 B.
    #[test]
    fn an_event_is_two_words() {
        assert_eq!(std::mem::size_of::<SsdEvent>(), 16);
    }

    /// The share of scheduled events that went into a lane, after checking
    /// that no lane push fell back to the heap.
    fn laned_share(ssd: &Ssd) -> f64 {
        let stats = ssd.events.lane_stats();
        assert_eq!(stats.fell_back, 0, "a lane push fell back to the heap");
        assert!(stats.scheduled > 1_000, "{stats:?}");
        stats.laned as f64 / stats.scheduled as f64
    }

    /// Pins the event routing the lanes were built for: on a paced 64-chip
    /// replay and on a GC storm, most events take a lane, and every lane push
    /// is in order.  A change that routes an in-order kind back through the
    /// heap, or that breaks a lane's ordering argument, fails here.
    #[test]
    fn most_events_take_an_in_order_lane() {
        let mut paced = Ssd::new(
            SsdConfig::paper_default().with_blocks_per_plane(32),
            Box::new(CommitAllScheduler::new()),
        )
        .unwrap();
        paced.replay((0..4_000).map(|i| {
            if i % 4 == 0 {
                write_req(i, i * 15, (i * 37) % 4_096, 2)
            } else {
                read_req(i, i * 15, (i * 11) % 4_096, 4)
            }
        }));
        let share = laned_share(&paced);
        assert!(
            share >= 0.55,
            "paced 64-chip replay: {share:.3} of events laned"
        );

        // The gc16 shape: 16 chips of 8 blocks per plane at 90% full, under
        // 8-page overwrites spread over half the logical pages.
        let config = SsdConfig::paper_default()
            .with_chip_count(16)
            .with_blocks_per_plane(8)
            .with_gc(GcConfig::enabled());
        let span = config.geometry.total_pages() as u64 / 2 / 8;
        let mut storm = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        storm.precondition(0.90, 7);
        storm.replay((0..3_000).map(|i| write_req(i, i * 20, (i * 7_919) % span * 8, 8)));
        assert!(
            storm.ftl.gc_stats().pages_migrated > 0,
            "the storm migrated pages"
        );
        let share = laned_share(&storm);
        assert!(share >= 0.55, "GC storm: {share:.3} of events laned");
    }

    /// Regression test for the seed's same-round over-commitment double-count:
    /// with `max_committed_per_chip = N`, a single scheduling round must be able
    /// to commit N pages to one chip.  The seed charged same-round commits
    /// against the cap twice (per-round scratch *and* `outstanding`), so a round
    /// saturated at ceil(N / 2) — here, 4 of the 8 pages per chip.
    #[test]
    fn a_single_round_commits_the_full_per_chip_cap() {
        let config = SsdConfig::small_test();
        let max = config.max_committed_per_chip;
        assert_eq!(max, 8, "the fixture relies on the small_test cap");
        let chips = config.geometry.total_chips();
        let observed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = HeadroomProbe {
            observed: std::sync::Arc::clone(&observed),
        };
        let ssd = Ssd::new(config, Box::new(probe)).unwrap();
        // One 32-page read stripes 8 pages onto each of the 4 chips.  A second
        // tiny arrival 500 ns later triggers a new scheduling round long before
        // any flash transaction can complete (decision window 1 us + ≥20 us
        // read cell time), so round 2 observes exactly what round 1 committed.
        let trace = vec![
            read_req(0, 0, 0, 32),
            HostRequest::new(
                1,
                SimTime::from_nanos(500),
                Direction::Read,
                Lpn::new(256),
                1,
            ),
        ];
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 2);
        let rounds = observed.lock().unwrap();
        assert!(rounds.len() >= 2, "two scheduling rounds must have run");
        assert_eq!(rounds[0], vec![0; chips], "round 1 starts from idle chips");
        // Every chip accepted its full cap of 8 same-round commitments; under
        // the seed's double-count this read [4, 4, 4, 4].
        assert_eq!(
            rounds[1],
            vec![max; chips],
            "round 1 must have committed the full per-chip cap"
        );
    }
}
