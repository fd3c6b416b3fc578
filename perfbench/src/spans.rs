//! Layer spans recorded from outside the program: a forwarding scheduler
//! that times `schedule_into` (the `core` layer) and the arrival iterator's
//! pull timer (the `workloads` layer, see `workload::Arrivals`).
//!
//! Spans that fire per scheduling round or per record are kept as totals per
//! cell; the per-cell spans (`new`, `precondition`, `run_stream`, `tail`)
//! are kept whole by the caller.  No span allocates while the replay runs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sprinkler::flash::FlashGeometry;
use sprinkler::sim::TelemetryCounters;
use sprinkler::ssd::ftl::PageMigration;
use sprinkler::ssd::request::TagId;
use sprinkler::ssd::{Commitment, IoScheduler, SchedulerContext};

/// Totals of the `core` spans of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreSpans {
    /// `schedule_into` calls (scheduling rounds).
    pub rounds: u64,
    /// Rounds that committed nothing.
    pub empty_rounds: u64,
    /// Commitments returned, summed over rounds.
    pub commits: u64,
    /// Host ns inside `schedule_into`.
    pub ns: u64,
    /// `on_readdress` calls (GC live-data migrations reported to SPK3).
    pub readdress_calls: u64,
}

/// Totals of the `workloads` spans of one cell, plus the `tail` span: from
/// the pull that found the source empty to the return of `run_stream`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PullSpans {
    /// Calls to the arrival iterator.
    pub pulls: u64,
    /// Host ns inside them: source pulls, conversion and the capacity check.
    pub ns: u64,
    /// Host ns from source exhaustion to the return of `run_stream`.
    pub tail_ns: u64,
    exhausted: Option<Instant>,
}

impl PullSpans {
    /// Adds one pull that ran from `start` to `end`; `empty` marks the pull
    /// that found the source exhausted.
    pub fn record(&mut self, start: Instant, end: Instant, empty: bool) {
        self.pulls += 1;
        self.ns += (end - start).as_nanos() as u64;
        if empty && self.exhausted.is_none() {
            self.exhausted = Some(end);
        }
    }

    /// Closes the tail span at `returned`, the instant `run_stream` returned.
    pub fn finish(&mut self, returned: Instant) {
        if let Some(exhausted) = self.exhausted {
            self.tail_ns = (returned - exhausted).as_nanos() as u64;
        }
    }
}

/// Forwards every [`IoScheduler`] hook to the wrapped scheduler and times
/// `schedule_into`.  The totals reach the caller through the shared sink
/// when the device drops the scheduler at the end of `run_stream`.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn IoScheduler>,
    spans: CoreSpans,
    sink: Arc<Mutex<CoreSpans>>,
}

impl TimedScheduler {
    /// A fresh sink for one cell's totals.
    pub fn sink() -> Arc<Mutex<CoreSpans>> {
        Arc::default()
    }

    /// Wraps `inner`; its totals land in `sink` when the wrapper is dropped.
    pub fn new(inner: Box<dyn IoScheduler>, sink: &Arc<Mutex<CoreSpans>>) -> Self {
        TimedScheduler {
            inner,
            spans: CoreSpans::default(),
            sink: Arc::clone(sink),
        }
    }

    /// The totals a dropped wrapper left in `sink`.
    pub fn take(sink: &Mutex<CoreSpans>) -> CoreSpans {
        *sink
            .lock()
            .expect("no thread panicked holding the span sink")
    }
}

impl IoScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.inner.initialize(geometry);
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<TelemetryCounters>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        let start = Instant::now();
        self.inner.schedule_into(ctx, out);
        self.spans.ns += start.elapsed().as_nanos() as u64;
        self.spans.rounds += 1;
        self.spans.commits += out.len() as u64;
        self.spans.empty_rounds += u64::from(out.is_empty());
    }

    fn on_complete(&mut self, tag: TagId, page: u32) {
        self.inner.on_complete(tag, page);
    }

    fn supports_readdressing(&self) -> bool {
        self.inner.supports_readdressing()
    }

    fn on_readdress(&mut self, migration: &PageMigration) {
        self.spans.readdress_calls += 1;
        self.inner.on_readdress(migration);
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // A poisoned sink only loses this cell's span totals; never panic here.
        if let Ok(mut sink) = self.sink.lock() {
            *sink = self.spans;
        }
    }
}
