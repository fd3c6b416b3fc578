//! The simulator's benchmark: host cost per simulated I/O and the simulated
//! device figures, on three workloads, with a separate traced run for the
//! per-layer figures.  See `README.md` next to this crate for every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paced64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod report;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use sprinkler::sim::CountingAllocator;

use report::{median, Checks, Metric, Rep, SampleFigures};
use workload::{run_cell, Mode, Workload, SAMPLES};

// Counts allocations, so `ssd.new_alloc_mb` and `ssd.replay_allocs_per_io`
// are measured; the replay loop itself does not allocate in steady state.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str =
    "usage: perfbench --workload <paced64|cold1024|gc16> --seed <n> --seconds <s> --trace <0|1>";

/// Timed repetitions always run at least this often, however short `--seconds`.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&args, &mut checks)
    } else {
        plain_run(&args, &mut checks)
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    for metric in &metrics {
        println!(
            "{} {} = {} {}",
            args.workload.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
    println!("{}", report::result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

/// Replays the first sample of the workload once.
fn run_rep(args: &Args, mode: Mode) -> Rep {
    run_samples(args, 1, mode)
}

/// Replays the first `samples` samples of the workload once.  Sample `s` is
/// cells `s * cells()` up to `(s + 1) * cells()`.
fn run_samples(args: &Args, samples: u64, mode: Mode) -> Rep {
    let start = Instant::now();
    let cells = (0..samples * args.workload.cells())
        .map(|cell| {
            run_cell(
                args.workload,
                args.seed,
                cell,
                args.workload.ios_per_cell(),
                mode,
            )
        })
        .collect();
    Rep {
        cells,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Runs `body` until `seconds` have passed and at least [`MIN_REPS`] times.
fn repeat_for(seconds: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        body();
        reps += 1;
    }
}

/// The end-to-end figures: host cost with tracing off, simulated figures from
/// a separate untimed pass over [`SAMPLES`] samples that records the per-I/O
/// latency series.
fn plain_run(args: &Args, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let mut untimed = run_samples(args, SAMPLES, Mode::Series);
    checks.outputs(&untimed);
    let mut series = Vec::new();
    for cell in &mut untimed.cells {
        let cell_series = std::mem::take(&mut cell.metrics.latency_series);
        checks.series(&cell.metrics, &cell_series);
        series.push(cell_series);
    }
    let untimed_metrics = untimed.metrics();
    let per_sample = args.workload.cells() as usize;
    let reference_metrics = untimed_metrics[..per_sample].to_vec();
    let samples: Vec<SampleFigures> = untimed_metrics
        .chunks(per_sample)
        .zip(series.chunks(per_sample))
        .map(|(runs, series)| SampleFigures::of(runs, series))
        .collect();
    let sim = |f: fn(&SampleFigures) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let peak_resident = untimed.cells[0].tally.resident_bytes;
    if peak_resident == 0 {
        return Err("could not read VmRSS from /proc/self/status".to_string());
    }

    let (mut setup_s, mut ios_per_s) = (Vec::new(), Vec::new());
    repeat_for(args.seconds, || {
        let rep = run_rep(args, Mode::Plain);
        checks.outputs(&rep);
        checks.identical("timed repetition", &reference_metrics, &rep.metrics());
        setup_s.push(rep.setup_ns() as f64 / 1e9);
        ios_per_s.push(rep.ios() as f64 / (rep.run_ns() as f64 / 1e9));
    });
    eprintln!(
        "perfbench: {} timed repetitions; failed_frac = {} ({} of {} records); \
         simulated figures are medians over {} samples of {} cells, {} I/Os in all",
        setup_s.len(),
        checks.failed_frac(),
        checks.failed,
        checks.attempted,
        samples.len(),
        per_sample,
        series.iter().map(Vec::len).sum::<usize>()
    );

    Ok(vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("host_ios_per_s", report::max(&ios_per_s), "1/s"),
        Metric::new(
            "peak_rss_mb",
            peak_resident as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        Metric::new("sim_bw_mbps", sim(|c| c.bandwidth_mb_per_s), "MB/s"),
        Metric::new("sim_lat_us.p50", sim(|c| c.lat_p50_us), "us"),
        Metric::new("sim_lat_us.p99", sim(|c| c.lat_p99_us), "us"),
        Metric::new("sim_chip_util_pct", sim(|c| c.chip_util_pct), "%"),
    ])
}

/// The per-layer figures: traced repetitions alternate with untraced ones,
/// whose difference is the tracing overhead.  An untimed pass over
/// [`SAMPLES`] samples gives the slowest sample's bandwidth; its first sample
/// is the reference the repetitions are checked against.
fn traced_run(args: &Args, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let mut reference = run_samples(args, SAMPLES, Mode::Plain);
    checks.outputs(&reference);
    let min_sample_bw = reference
        .metrics()
        .chunks(args.workload.cells() as usize)
        .map(|runs| report::SimFigures::of(runs).bandwidth_mb_per_s)
        .fold(f64::INFINITY, f64::min);
    reference.cells.truncate(args.workload.cells() as usize);
    let reference_metrics = reference.metrics();

    let mut plain_run_ns = Vec::new();
    let mut traced = Vec::new();
    repeat_for(args.seconds, || {
        let rep = run_rep(args, Mode::Plain);
        checks.outputs(&rep);
        checks.identical("untraced repetition", &reference_metrics, &rep.metrics());
        plain_run_ns.push(rep.run_ns());

        let rep = run_rep(args, Mode::Traced);
        checks.outputs(&rep);
        checks.identical("traced repetition", &reference_metrics, &rep.metrics());
        checks.spans(&rep);
        traced.push(rep);
    });
    let fastest_plain = plain_run_ns.iter().copied().min().unwrap_or(0);
    let layers = report::layer_metrics(&reference, &traced, fastest_plain, min_sample_bw);
    report::print_spans(&traced);
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler::core::SchedulerKind;
    use sprinkler::ssd::IoScheduler;
    use workload::PACED64_IOS;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "gc16",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            parsed,
            Ok(Args {
                workload: Workload::Gc16,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "gc16",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "gc16", "--seed", "1", "--seconds", "1"]).is_err());
    }

    /// paced64 must measure the device, not the trace length: its simulated
    /// mean latency at half and at full length agree within 5%.
    #[test]
    fn paced64_is_below_saturation() {
        for seed in [1, 2] {
            let half = run_cell(Workload::Paced64, seed, 0, PACED64_IOS / 2, Mode::Plain);
            let full = run_cell(Workload::Paced64, seed, 0, PACED64_IOS, Mode::Plain);
            let (half, full) = (half.metrics.avg_latency_ns, full.metrics.avg_latency_ns);
            assert!(
                (full / half - 1.0).abs() < 0.05,
                "seed {seed}: mean latency {half} ns at half length, {full} ns at full length"
            );
        }
    }

    /// The forwarding scheduler must keep SPK3's readdressing hook alive, and
    /// on gc16 the traced replay must equal the untraced one.
    #[test]
    fn timed_scheduler_is_transparent_under_gc() {
        let sink = spans::TimedScheduler::sink();
        let wrapped = spans::TimedScheduler::new(SchedulerKind::Spk3.build(), &sink);
        assert!(wrapped.supports_readdressing());

        let plain = run_cell(Workload::Gc16, 3, 0, 3000, Mode::Plain);
        let traced = run_cell(Workload::Gc16, 3, 0, 3000, Mode::Traced);
        assert!(
            plain.metrics.gc.invocations > 0,
            "gc16 must garbage collect"
        );
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(traced.core.rounds, traced.metrics.telemetry.sched_rounds);
        assert_eq!(traced.pulls.pulls, traced.accepted() + 1);
    }
}
