//! Repetition bookkeeping, the output checks, metric aggregation and the
//! result line.

use sprinkler::ssd::RunMetrics;

use crate::workload::CellRun;

/// One replay of every cell of a workload.
#[derive(Debug)]
pub struct Rep {
    /// The cells, in order.
    pub cells: Vec<CellRun>,
    /// Host ns for the whole repetition, source construction included.
    pub wall_ns: u64,
}

impl Rep {
    /// Simulated I/Os completed.
    pub fn ios(&self) -> u64 {
        self.cells.iter().map(|c| c.metrics.io_count).sum()
    }

    /// Host ns in `Ssd::new` and `Ssd::precondition`.
    pub fn setup_ns(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.new_ns + c.precondition_ns)
            .sum()
    }

    /// Host ns in `Ssd::run_stream`.
    pub fn run_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.run_ns).sum()
    }

    /// Metrics of every cell, in cell order.
    pub fn metrics(&self) -> Vec<RunMetrics> {
        self.cells.iter().map(|c| c.metrics.clone()).collect()
    }

    fn sum(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The output checks run on every repetition, and the failure tally.
#[derive(Debug, Default)]
pub struct Checks {
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Records pulled from the sources, over every pass.
    pub attempted: u64,
    /// Records rejected as out of capacity or never completed.
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Every accepted record completed, moving exactly the bytes it asked for.
    pub fn outputs(&mut self, rep: &Rep) {
        for (i, cell) in rep.cells.iter().enumerate() {
            let m = &cell.metrics;
            self.attempted += cell.tally.pulled;
            self.failed += cell.tally.rejected + cell.accepted().saturating_sub(m.io_count);
            self.check(m.io_count == cell.accepted(), || {
                format!(
                    "cell {i}: {} I/Os completed of {} accepted",
                    m.io_count,
                    cell.accepted()
                )
            });
            self.check(
                m.bytes_read + m.bytes_written == cell.tally.bytes_requested,
                || {
                    format!(
                        "cell {i}: {} bytes moved of {} requested",
                        m.bytes_read + m.bytes_written,
                        cell.tally.bytes_requested
                    )
                },
            );
        }
    }

    /// Simulated figures repeat exactly across passes.
    pub fn identical(&mut self, pass: &str, reference: &[RunMetrics], got: &[RunMetrics]) {
        self.check(reference == got, || {
            format!("{pass}: simulated figures differ from the first pass")
        });
    }

    /// The latency series covers every I/O and agrees with the program's mean.
    pub fn series(&mut self, metrics: &RunMetrics, series: &[(u64, u64)]) {
        self.check(series.len() as u64 == metrics.io_count, || {
            format!(
                "latency series has {} of {} I/Os",
                series.len(),
                metrics.io_count
            )
        });
        let mean =
            series.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / series.len().max(1) as f64;
        self.check(
            (mean - metrics.avg_latency_ns).abs() <= 1e-9 * metrics.avg_latency_ns,
            || {
                format!(
                    "series mean {mean} ns != reported mean {} ns",
                    metrics.avg_latency_ns
                )
            },
        );
    }

    /// The wrappers saw every round and pull, and the top-level spans cover
    /// the repetition's wall time within 5%.
    pub fn spans(&mut self, rep: &Rep) {
        for (i, cell) in rep.cells.iter().enumerate() {
            self.check(
                cell.core.rounds == cell.metrics.telemetry.sched_rounds,
                || {
                    format!(
                        "cell {i}: {} timed rounds, {} counted by the device",
                        cell.core.rounds, cell.metrics.telemetry.sched_rounds
                    )
                },
            );
            self.check(cell.pulls.pulls == cell.accepted() + 1, || {
                format!(
                    "cell {i}: {} timed pulls for {} records",
                    cell.pulls.pulls,
                    cell.accepted()
                )
            });
        }
        let coverage = span_coverage(rep);
        self.check((coverage - 1.0).abs() <= 0.05, || {
            format!(
                "spans cover {:.1}% of the repetition's wall time",
                coverage * 100.0
            )
        });
    }

    /// Failed records as a share of records attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Share of a repetition's wall time covered by its `new`, `precondition`
/// and `run_stream` spans.
fn span_coverage(rep: &Rep) -> f64 {
    (rep.setup_ns() + rep.run_ns()) as f64 / rep.wall_ns.max(1) as f64
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Largest of `values`: the repetition least slowed by other work on the host.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Nearest-rank `q` quantile of sorted latencies in ns, in µs.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

/// Simulated figures of a repetition, merged over its cells.  Time-based
/// fractions are weighted by each cell's simulated elapsed time; a
/// one-cell repetition reads exactly the program's own figures.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFigures {
    pub bandwidth_mb_per_s: f64,
    pub chip_util_pct: f64,
    pub ios: u64,
    pub transactions: u64,
    pub memory_requests: u64,
    pub flp_level: f64,
    pub bus_contention: f64,
    pub cell_busy: f64,
    pub idle: f64,
    pub inter_chip_idle: f64,
    pub intra_chip_idle: f64,
}

impl SimFigures {
    pub fn of(runs: &[RunMetrics]) -> Self {
        let elapsed_ns: u64 = runs.iter().map(|m| m.elapsed_ns).sum();
        let bytes: u64 = runs.iter().map(|m| m.bytes_read + m.bytes_written).sum();
        let by_time = |f: fn(&RunMetrics) -> f64| {
            runs.iter().map(|m| f(m) * m.elapsed_ns as f64).sum::<f64>() / elapsed_ns.max(1) as f64
        };
        let memory_requests: u64 = runs.iter().map(|m| m.memory_requests).sum();
        SimFigures {
            bandwidth_mb_per_s: bytes as f64 / (1024.0 * 1024.0) / (elapsed_ns.max(1) as f64 / 1e9),
            chip_util_pct: by_time(|m| m.chip_utilization) * 100.0,
            ios: runs.iter().map(|m| m.io_count).sum(),
            transactions: runs.iter().map(|m| m.transactions).sum(),
            memory_requests,
            flp_level: runs
                .iter()
                .map(|m| m.flp.mean_level() * m.memory_requests as f64)
                .sum::<f64>()
                / memory_requests.max(1) as f64,
            bus_contention: by_time(|m| m.execution.bus_contention),
            cell_busy: by_time(|m| m.execution.memory_operation),
            idle: by_time(|m| m.execution.idle),
            inter_chip_idle: by_time(|m| m.inter_chip_idleness),
            intra_chip_idle: by_time(|m| m.intra_chip_idleness),
        }
    }
}

/// The simulated end-to-end figures of one sample, pooled over its cells.
/// The benchmark reports the median over samples of each, so the typical
/// device sets the figure: about one gc16 sample in twelve stalls behind
/// garbage collection at ~30% less bandwidth (`ssd.min_sample_bw_mbps`
/// shows those samples).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFigures {
    pub bandwidth_mb_per_s: f64,
    pub chip_util_pct: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
}

impl SampleFigures {
    /// Pooled figures of cells with their latency series; the quantiles are
    /// exact over every I/O of the sample.
    pub fn of(runs: &[RunMetrics], series: &[Vec<(u64, u64)>]) -> Self {
        let sim = SimFigures::of(runs);
        let mut latencies: Vec<u64> = series.iter().flatten().map(|&(_, ns)| ns).collect();
        latencies.sort_unstable();
        SampleFigures {
            bandwidth_mb_per_s: sim.bandwidth_mb_per_s,
            chip_util_pct: sim.chip_util_pct,
            lat_p50_us: quantile_us(&latencies, 0.50),
            lat_p99_us: quantile_us(&latencies, 0.99),
        }
    }
}

/// The per-layer figures.  Setup spans are medians over the traced
/// repetitions, like `setup_s`; replay spans come from the fastest traced
/// repetition, like `host_ios_per_s`, so they add up to its `run_stream`
/// span.  Counts come from the untraced `reference` repetition (the traced
/// ones were checked to match it).  `min_sample_bw` is the simulated
/// bandwidth of the slowest sample of the untimed pass, in MB/s.
pub fn layer_metrics(
    reference: &Rep,
    traced: &[Rep],
    fastest_plain_run_ns: u64,
    min_sample_bw: f64,
) -> Vec<Metric> {
    let runs = reference.metrics();
    let sim = SimFigures::of(&runs);
    let ios = sim.ios.max(1) as f64;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    let fastest = traced
        .iter()
        .min_by_key(|r| r.run_ns())
        .expect("at least one traced repetition");
    let core = |rep: &Rep| rep.sum(|c| c.core.ns);
    let pulls = |rep: &Rep| rep.sum(|c| c.pulls.ns);
    let rounds = fastest.sum(|c| c.core.rounds);
    let telemetry = runs.iter().fold(
        Default::default(),
        |acc: sprinkler::sim::TelemetrySnapshot, m| acc.merged(&m.telemetry),
    );
    let write_pages = reference.sum(|c| c.tally.write_pages);
    let migrated: u64 = runs.iter().map(|m| m.gc.pages_migrated).sum();
    let count = |n: u64| n as f64;
    vec![
        Metric::new(
            "workloads.pull_ns_per_io",
            pulls(fastest) as f64 / ios,
            "ns",
        ),
        Metric::new("ssd.new_ms", per_rep(&|r| ms(r.sum(|c| c.new_ns))), "ms"),
        Metric::new(
            "ssd.new_alloc_mb",
            reference.sum(|c| c.new_alloc_bytes) as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        Metric::new(
            "ssd.precondition_ms",
            per_rep(&|r| ms(r.sum(|c| c.precondition_ns))),
            "ms",
        ),
        Metric::new(
            "ssd.replay_self_ns_per_io",
            (fastest.run_ns() - core(fastest) - pulls(fastest)) as f64 / ios,
            "ns",
        ),
        Metric::new("ssd.tail_ms", ms(fastest.sum(|c| c.pulls.tail_ns)), "ms"),
        Metric::new(
            "ssd.replay_allocs_per_io",
            reference.sum(|c| c.run_allocs) as f64 / ios,
            "allocs/io",
        ),
        Metric::new(
            "ssd.queue_stall_ms",
            ms(runs.iter().map(|m| m.queue_stall_ns).sum()),
            "ms",
        ),
        Metric::new(
            "ssd.peak_host_backlog",
            count(runs.iter().map(|m| m.peak_host_backlog).max().unwrap_or(0)),
            "count",
        ),
        Metric::new("ssd.stream_stalls", count(telemetry.stream_stalls), "count"),
        Metric::new("ssd.min_sample_bw_mbps", min_sample_bw, "MB/s"),
        Metric::new(
            "ssd.ledger_headroom_exhausted",
            count(telemetry.ledger_headroom_exhausted),
            "count",
        ),
        Metric::new("core.rounds_per_io", rounds as f64 / ios, "rounds/io"),
        Metric::new(
            "core.ns_per_round",
            core(fastest) as f64 / rounds.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "core.share_pct",
            core(fastest) as f64 / fastest.run_ns() as f64 * 100.0,
            "%",
        ),
        Metric::new(
            "core.empty_round_frac",
            fastest.sum(|c| c.core.empty_rounds) as f64 / rounds.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "core.commits_per_round",
            fastest.sum(|c| c.core.commits) as f64 / rounds.max(1) as f64,
            "commits/round",
        ),
        Metric::new(
            "core.faro_fast_path_rounds",
            count(telemetry.faro_fast_path_rounds),
            "count",
        ),
        Metric::new(
            "core.hazard_war_deferrals",
            count(telemetry.hazard_war_deferrals),
            "count",
        ),
        Metric::new(
            "core.readdress_calls",
            count(fastest.sum(|c| c.core.readdress_calls)),
            "count",
        ),
        Metric::new(
            "ftl.gc_invocations",
            count(runs.iter().map(|m| m.gc.invocations).sum()),
            "count",
        ),
        Metric::new("ftl.pages_migrated", count(migrated), "count"),
        Metric::new(
            "ftl.write_amp",
            (write_pages + migrated) as f64 / write_pages.max(1) as f64,
            "ratio",
        ),
        Metric::new("flash.txn_per_io", sim.transactions as f64 / ios, "txn/io"),
        Metric::new(
            "flash.reqs_per_txn",
            sim.memory_requests as f64 / sim.transactions.max(1) as f64,
            "req/txn",
        ),
        Metric::new("flash.flp_level", sim.flp_level, "level"),
        Metric::new("flash.bus_contention_frac", sim.bus_contention, "ratio"),
        Metric::new("flash.cell_busy_frac", sim.cell_busy, "ratio"),
        Metric::new("flash.idle_frac", sim.idle, "ratio"),
        Metric::new("flash.inter_chip_idle", sim.inter_chip_idle, "ratio"),
        Metric::new("flash.intra_chip_idle", sim.intra_chip_idle, "ratio"),
        Metric::new(
            "sim.peak_pending_events",
            count(
                runs.iter()
                    .map(|m| m.peak_pending_events)
                    .max()
                    .unwrap_or(0),
            ),
            "count",
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            (fastest.run_ns() as f64 / fastest_plain_run_ns as f64 - 1.0) * 100.0,
            "%",
        ),
        Metric::new(
            "bench.span_coverage_pct",
            per_rep(&|r| span_coverage(r) * 100.0),
            "%",
        ),
    ]
}

/// Writes the span tree of the traced repetitions to standard error: each
/// span with its parent, calls per repetition and median host time.
pub fn print_spans(traced: &[Rep]) {
    type Span = (&'static str, &'static str, fn(&Rep) -> (u64, u64));
    const SPANS: [Span; 7] = [
        ("repetition", "-", |r| (1, r.wall_ns)),
        ("new", "repetition", |r| {
            (r.cells.len() as u64, r.sum(|c| c.new_ns))
        }),
        ("precondition", "repetition", |r| {
            (r.cells.len() as u64, r.sum(|c| c.precondition_ns))
        }),
        ("run_stream", "repetition", |r| {
            (r.cells.len() as u64, r.run_ns())
        }),
        ("schedule_into", "run_stream", |r| {
            (r.sum(|c| c.core.rounds), r.sum(|c| c.core.ns))
        }),
        ("pull", "run_stream", |r| {
            (r.sum(|c| c.pulls.pulls), r.sum(|c| c.pulls.ns))
        }),
        ("tail", "run_stream", |r| {
            (r.cells.len() as u64, r.sum(|c| c.pulls.tail_ns))
        }),
    ];
    eprintln!(
        "perfbench: spans over {} traced repetitions (median per repetition)",
        traced.len()
    );
    for (name, parent, of) in SPANS {
        let calls = traced.first().map_or(0, |r| of(r).0);
        let ns: Vec<f64> = traced.iter().map(|r| of(r).1 as f64).collect();
        eprintln!(
            "  span {name:<14} parent {parent:<11} calls {calls:>9} host {:>12.3} ms",
            median(&ns) / 1e6
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty() && finite,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}
