//! Streaming text-trace parsing.
//!
//! The paper's evaluation replays enterprise block traces (the MSR-Cambridge
//! collection of Table 1).  Those traces ship as plain text; this module parses
//! the two dominant formats, line by line, into [`TraceRecord`]s — without ever
//! materializing the trace — and exposes the result as a [`TraceSource`]:
//!
//! * **MSR-Cambridge-style CSV** —
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, with the
//!   timestamp in Windows filetime ticks (100 ns units), `Type` one of
//!   `Read`/`Write` (case-insensitive), and `Offset`/`Size` in bytes.
//! * **blkparse-style lines** —
//!   `maj,min cpu seq time pid action rwbs sector + count [process]` as printed
//!   by `blkparse`; records are taken from `Q` (queue) actions, with the
//!   sector address and count in 512-byte sectors.  Lines with other actions
//!   (`G`, `P`, `D`, `C`, …) describe the same I/Os at later lifecycle stages
//!   and are ignored.
//!
//! Timestamps are rebased so the first record arrives at `t = 0`; arrival
//! times are clamped to be nondecreasing (the [`TraceSource`] contract),
//! counting every clamp.  Malformed lines are handled per
//! [`MalformedPolicy`]: skipped with a count, or treated as a hard
//! [`ParseError`].  Zero-sized records are skipped and counted separately.
//!
//! A small embedded sample corpus ([`SAMPLE_MSR_CSV`], [`SAMPLE_BLKPARSE`])
//! keeps the parser exercised by tests, examples, and CI without
//! redistributing the original traces, and [`write_msr_csv`] renders any trace
//! back into MSR CSV so generated workloads can round-trip through the parser.

use std::fmt;
use std::io::{BufRead, BufReader, Cursor};

use sprinkler_sim::SimTime;

use crate::source::TraceSource;
use crate::trace::{TraceOp, TraceRecord};

/// The sample MSR-Cambridge-style CSV corpus embedded with the crate.
pub const SAMPLE_MSR_CSV: &str = include_str!("../data/sample_msr.csv");

/// The sample blkparse-style corpus embedded with the crate.
pub const SAMPLE_BLKPARSE: &str = include_str!("../data/sample_blkparse.txt");

/// The text formats the parser understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// MSR-Cambridge-style CSV.
    MsrCsv,
    /// blkparse-style whitespace-separated lines.
    Blkparse,
}

impl TraceFormat {
    /// Guesses the format from one line: commas with ≥ 6 fields reads as CSV,
    /// anything else as blkparse.
    pub fn detect(line: &str) -> TraceFormat {
        if line.split(',').count() >= 6 {
            TraceFormat::MsrCsv
        } else {
            TraceFormat::Blkparse
        }
    }
}

/// What to do with a line that should be a record but does not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MalformedPolicy {
    /// Skip the line and count it in [`ParseStats::skipped_malformed`].
    #[default]
    Skip,
    /// Stop the stream with a [`ParseError`] naming the line.
    Error,
}

/// Counters describing one parse run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Records successfully parsed and yielded.
    pub parsed: u64,
    /// Lines that should have been records but did not parse (only under
    /// [`MalformedPolicy::Skip`]; under `Error` the first one stops the run).
    pub skipped_malformed: u64,
    /// Well-formed records with `bytes == 0`, which describe no data movement.
    pub skipped_zero_sized: u64,
    /// Records whose timestamp ran backwards and was clamped to the previous
    /// arrival to honour the [`TraceSource`] ordering contract.
    pub clamped_out_of_order: u64,
    /// Lines that are legitimately not records: blank lines, `#` comments, and
    /// blkparse lines for non-queue actions.
    pub ignored: u64,
}

/// A malformed line under [`MalformedPolicy::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line_number: u64,
    /// The offending line.
    pub line: String,
    /// What failed to parse.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {} (in {:?})",
            self.line_number, self.message, self.line
        )
    }
}

impl std::error::Error for ParseError {}

/// A streaming [`TraceSource`] over a text trace.
///
/// # Example
///
/// ```
/// use sprinkler_workloads::parse::{sample_msr, ParseStats};
/// use sprinkler_workloads::TraceSource;
///
/// let mut source = sample_msr();
/// let mut records = 0;
/// while let Some(record) = source.next_record() {
///     assert!(record.bytes > 0);
///     records += 1;
/// }
/// assert!(records > 0);
/// assert!(source.error().is_none());
/// assert_eq!(source.stats().parsed, records);
/// ```
#[derive(Debug)]
pub struct TextTraceSource<R> {
    name: String,
    reader: R,
    format: Option<TraceFormat>,
    policy: MalformedPolicy,
    /// Declared footprint bound; `u64::MAX` means "unbounded here, validated
    /// downstream at the replay boundary".
    footprint: u64,
    stats: ParseStats,
    line_number: u64,
    next_id: u64,
    /// Absolute nanoseconds of the first record; later records are rebased.
    base_nanos: Option<u64>,
    last_arrival: SimTime,
    error: Option<ParseError>,
    done: bool,
    line_buf: String,
}

impl TextTraceSource<Cursor<Vec<u8>>> {
    /// Parses from an in-memory string (format auto-detected per first record
    /// line).
    pub fn from_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        Self::new(name, Cursor::new(text.into().into_bytes()))
    }
}

impl TextTraceSource<BufReader<std::fs::File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened.
    pub fn from_path(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        Ok(Self::new(name, BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<R: BufRead> TextTraceSource<R> {
    /// Creates a parser over any buffered reader; the format is auto-detected
    /// from the first line that is not blank or a comment.
    pub fn new(name: impl Into<String>, reader: R) -> Self {
        TextTraceSource {
            name: name.into(),
            reader,
            format: None,
            policy: MalformedPolicy::default(),
            footprint: u64::MAX,
            stats: ParseStats::default(),
            line_number: 0,
            next_id: 0,
            base_nanos: None,
            last_arrival: SimTime::ZERO,
            error: None,
            done: false,
            line_buf: String::new(),
        }
    }

    /// Fixes the format instead of auto-detecting it.
    pub fn with_format(mut self, format: TraceFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// Sets the malformed-line policy.
    pub fn with_policy(mut self, policy: MalformedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Declares a footprint bound: records with `offset + bytes` past it are
    /// treated like malformed lines (skipped with a count, or a hard error,
    /// per the policy).
    pub fn with_footprint_bytes(mut self, bound: u64) -> Self {
        self.footprint = bound.max(1);
        self
    }

    /// The counters so far (final once the stream is exhausted).
    pub fn stats(&self) -> ParseStats {
        self.stats
    }

    /// The error that stopped the stream, under [`MalformedPolicy::Error`].
    pub fn error(&self) -> Option<&ParseError> {
        self.error.as_ref()
    }

    /// The detected (or configured) format, once a record line has been seen.
    pub fn format(&self) -> Option<TraceFormat> {
        self.format
    }

    fn fail(&mut self, message: String) -> Option<TraceRecord> {
        match self.policy {
            MalformedPolicy::Skip => {
                self.stats.skipped_malformed += 1;
                None
            }
            MalformedPolicy::Error => {
                self.error = Some(ParseError {
                    line_number: self.line_number,
                    line: self.line_buf.trim_end().to_string(),
                    message,
                });
                self.done = true;
                None
            }
        }
    }
}

/// The classification of one input line.
enum LineOutcome {
    /// A record: `(absolute nanos, op, offset, bytes)`.
    Record(u64, TraceOp, u64, u64),
    /// Legitimately not a record (comment, blank, non-queue blkparse action).
    Ignored,
    /// Should have been a record but did not parse.
    Malformed(String),
}

/// Parses one trimmed, non-empty, non-comment line.  Free function on `&str`
/// (no per-line allocation beyond error messages on the failure path — this
/// runs once per line of multi-million-line traces).
fn parse_record_line(format: TraceFormat, line: &str) -> LineOutcome {
    match format {
        TraceFormat::MsrCsv => parse_msr_line(line),
        TraceFormat::Blkparse => parse_blkparse_line(line),
    }
}

fn parse_msr_line(line: &str) -> LineOutcome {
    // Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
    let mut fields = line.split(',').map(str::trim);
    let (Some(timestamp), Some(_host), Some(_disk), Some(op), Some(offset), Some(bytes)) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return LineOutcome::Malformed("expected ≥ 6 CSV fields".to_string());
    };
    let Ok(ticks) = timestamp.parse::<u64>() else {
        return LineOutcome::Malformed(format!("bad timestamp {timestamp:?}"));
    };
    let op = if op.eq_ignore_ascii_case("read") || op.eq_ignore_ascii_case("r") {
        TraceOp::Read
    } else if op.eq_ignore_ascii_case("write") || op.eq_ignore_ascii_case("w") {
        TraceOp::Write
    } else {
        return LineOutcome::Malformed(format!("bad operation {op:?}"));
    };
    let Ok(offset) = offset.parse::<u64>() else {
        return LineOutcome::Malformed(format!("bad offset {offset:?}"));
    };
    let Ok(bytes) = bytes.parse::<u64>() else {
        return LineOutcome::Malformed(format!("bad size {bytes:?}"));
    };
    // Windows filetime ticks are 100 ns units.
    LineOutcome::Record(ticks.saturating_mul(100), op, offset, bytes)
}

fn parse_blkparse_line(line: &str) -> LineOutcome {
    // maj,min cpu seq time pid action rwbs sector + count [process]
    let mut fields = line.split_whitespace();
    let (
        Some(_majmin),
        Some(_cpu),
        Some(_seq),
        Some(time),
        Some(_pid),
        Some(action),
        Some(rwbs),
        Some(sector),
        Some(plus),
        Some(count),
    ) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    )
    else {
        return LineOutcome::Malformed("expected ≥ 10 blkparse fields".to_string());
    };
    if action != "Q" {
        // Later lifecycle stages of the same I/O; not new records.
        return LineOutcome::Ignored;
    }
    let op = if rwbs.contains('R') {
        TraceOp::Read
    } else if rwbs.contains('W') {
        TraceOp::Write
    } else {
        return LineOutcome::Malformed(format!("RWBS field {rwbs:?} is neither read nor write"));
    };
    let Some(nanos) = parse_blktrace_time(time) else {
        return LineOutcome::Malformed(format!("bad timestamp {time:?}"));
    };
    let Ok(sector) = sector.parse::<u64>() else {
        return LineOutcome::Malformed(format!("bad sector {sector:?}"));
    };
    if plus != "+" {
        return LineOutcome::Malformed("expected `sector + count`".to_string());
    }
    let Ok(count) = count.parse::<u64>() else {
        return LineOutcome::Malformed(format!("bad sector count {count:?}"));
    };
    // Sectors are 512-byte units; a sector address past u64 bytes is garbage.
    let (Some(offset), Some(bytes)) = (sector.checked_mul(512), count.checked_mul(512)) else {
        return LineOutcome::Malformed(format!(
            "sector range {sector} + {count} overflows the byte address space"
        ));
    };
    LineOutcome::Record(nanos, op, offset, bytes)
}

/// Parses a blkparse `seconds.nanoseconds` timestamp into nanoseconds.
fn parse_blktrace_time(field: &str) -> Option<u64> {
    let (secs, frac) = field.split_once('.').unwrap_or((field, "0"));
    let secs: u64 = secs.parse().ok()?;
    if frac.is_empty() || frac.len() > 9 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let nanos: u64 = frac.parse::<u64>().ok()? * 10u64.pow(9 - frac.len() as u32);
    secs.checked_mul(1_000_000_000)?.checked_add(nanos)
}

impl<R: BufRead> TraceSource for TextTraceSource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        while !self.done {
            self.line_buf.clear();
            match self.reader.read_line(&mut self.line_buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.line_number += 1;
                    self.fail(format!("I/O error reading trace: {e}"));
                    return None;
                }
            }
            self.line_number += 1;
            let line = self.line_buf.trim();
            if line.is_empty() || line.starts_with('#') {
                self.stats.ignored += 1;
                continue;
            }
            let format = *self.format.get_or_insert_with(|| TraceFormat::detect(line));
            let (abs_nanos, op, offset, bytes) = match parse_record_line(format, line) {
                LineOutcome::Record(nanos, op, offset, bytes) => (nanos, op, offset, bytes),
                LineOutcome::Ignored => {
                    self.stats.ignored += 1;
                    continue;
                }
                LineOutcome::Malformed(message) => {
                    self.fail(message);
                    continue;
                }
            };
            if bytes == 0 {
                self.stats.skipped_zero_sized += 1;
                continue;
            }
            // A record whose extent does not even fit the u64 byte address
            // space is malformed, not merely out of footprint; checked math
            // here keeps `TraceRecord::pages` downstream from overflowing.
            let Some(end) = offset.checked_add(bytes) else {
                self.fail(format!(
                    "record extent {offset} + {bytes} overflows the byte address space"
                ));
                continue;
            };
            if end > self.footprint {
                self.fail(format!(
                    "record [{offset}, {end}) exceeds the declared footprint {}",
                    self.footprint
                ));
                continue;
            }
            // Rebase to the first record and clamp to nondecreasing arrivals
            // (timestamps before the base count as out of order too).
            let base = *self.base_nanos.get_or_insert(abs_nanos);
            let rebased = abs_nanos as i128 - base as i128;
            let arrival = if rebased < self.last_arrival.as_nanos() as i128 {
                if self.next_id > 0 {
                    self.stats.clamped_out_of_order += 1;
                }
                self.last_arrival
            } else {
                SimTime::from_nanos(rebased as u64)
            };
            self.last_arrival = arrival;
            let id = self.next_id;
            self.next_id += 1;
            self.stats.parsed += 1;
            return Some(TraceRecord {
                id,
                arrival,
                op,
                offset,
                bytes,
            });
        }
        None
    }
}

/// The embedded MSR-Cambridge-style sample corpus as a streaming source.
pub fn sample_msr() -> TextTraceSource<Cursor<Vec<u8>>> {
    TextTraceSource::from_text("sample_msr", SAMPLE_MSR_CSV).with_format(TraceFormat::MsrCsv)
}

/// The embedded blkparse-style sample corpus as a streaming source.
pub fn sample_blkparse() -> TextTraceSource<Cursor<Vec<u8>>> {
    TextTraceSource::from_text("sample_blkparse", SAMPLE_BLKPARSE)
        .with_format(TraceFormat::Blkparse)
}

/// Windows filetime base used by [`write_msr_csv`]; an arbitrary tick count
/// large enough to look like a real MSR timestamp.
const MSR_BASE_TICKS: u64 = 128_166_372_000_000_000;

/// Renders records as MSR-Cambridge-style CSV, the inverse of the
/// [`TraceFormat::MsrCsv`] parser: arrival times become filetime ticks
/// relative to a fixed base (so the parser rebases them back to `t = 0`).
/// Sub-tick (< 100 ns) arrival components are rounded down — byte-exact
/// round-tripping holds for offsets, sizes, operations, and arrival *order*.
pub fn write_msr_csv<'a>(
    hostname: &str,
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> String {
    let mut out = String::new();
    for record in records {
        let ticks = MSR_BASE_TICKS + record.arrival.as_nanos() / 100;
        let op = if record.op.is_read() { "Read" } else { "Write" };
        out.push_str(&format!(
            "{ticks},{hostname},0,{op},{},{},0\n",
            record.offset, record.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(source: &mut impl TraceSource) -> Vec<TraceRecord> {
        std::iter::from_fn(|| source.next_record()).collect()
    }

    #[test]
    fn msr_sample_corpus_parses_cleanly() {
        let mut source = sample_msr();
        let records = drain(&mut source);
        assert!(records.len() >= 20, "corpus has {} records", records.len());
        assert!(source.error().is_none());
        let stats = source.stats();
        assert_eq!(stats.parsed, records.len() as u64);
        assert_eq!(stats.skipped_malformed, 0);
        // First record is rebased to t = 0; arrivals never run backwards.
        assert_eq!(records[0].arrival, SimTime::ZERO);
        assert!(records.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(records.iter().any(|r| r.op.is_read()));
        assert!(records.iter().any(|r| !r.op.is_read()));
        assert!(records.iter().all(|r| r.bytes > 0));
        // Ids are assigned in stream order.
        assert!(records.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn from_path_streams_the_same_records_as_from_text() {
        let path = std::env::temp_dir().join(format!("sample_msr_{}.csv", std::process::id()));
        std::fs::write(&path, SAMPLE_MSR_CSV).unwrap();
        let mut from_file = TextTraceSource::from_path(&path).unwrap();
        let records = drain(&mut from_file);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            records,
            drain(&mut TextTraceSource::from_text("text", SAMPLE_MSR_CSV))
        );
        assert!(!records.is_empty());
        assert!(from_file.error().is_none());
        assert_eq!(
            from_file.name(),
            path.file_stem().unwrap().to_str().unwrap()
        );
        assert!(
            TextTraceSource::from_path(&path).is_err(),
            "the file is gone"
        );
    }

    #[test]
    fn blkparse_sample_corpus_parses_cleanly() {
        let mut source = sample_blkparse();
        let records = drain(&mut source);
        assert!(records.len() >= 12, "corpus has {} records", records.len());
        assert!(source.error().is_none());
        assert_eq!(source.stats().skipped_malformed, 0);
        assert!(
            source.stats().ignored > 0,
            "non-Q actions and comments are ignored"
        );
        // Sector math: offsets and sizes are 512-byte multiples.
        assert!(records.iter().all(|r| r.offset % 512 == 0));
        assert!(records.iter().all(|r| r.bytes % 512 == 0 && r.bytes > 0));
        assert!(records.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn format_detection_distinguishes_the_corpora() {
        let msr_line = SAMPLE_MSR_CSV.lines().next().unwrap();
        assert_eq!(TraceFormat::detect(msr_line), TraceFormat::MsrCsv);
        let blk_line = SAMPLE_BLKPARSE
            .lines()
            .find(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .unwrap();
        assert_eq!(TraceFormat::detect(blk_line), TraceFormat::Blkparse);
        // Auto-detection (no with_format) parses the MSR corpus identically.
        let auto = drain(&mut TextTraceSource::from_text("auto", SAMPLE_MSR_CSV));
        let fixed = drain(&mut sample_msr());
        assert_eq!(auto, fixed);
    }

    #[test]
    fn malformed_lines_skip_with_count_by_default() {
        let text = "128166372003061629,hm,1,Read,4096,8192,100\n\
                    not,a,record,at,all,x\n\
                    128166372003061700,hm,1,Write,0,512,100\n";
        let mut source = TextTraceSource::from_text("m", text);
        let records = drain(&mut source);
        assert_eq!(records.len(), 2);
        assert_eq!(source.stats().skipped_malformed, 1);
        assert!(source.error().is_none());
    }

    #[test]
    fn malformed_lines_stop_the_stream_under_error_policy() {
        let text = "128166372003061629,hm,1,Read,4096,8192,100\n\
                    garbage,line,here,x,y,z\n\
                    128166372003061700,hm,1,Write,0,512,100\n";
        let mut source = TextTraceSource::from_text("m", text).with_policy(MalformedPolicy::Error);
        assert!(source.next_record().is_some());
        assert!(source.next_record().is_none(), "stream stops at the error");
        let error = source.error().expect("error is reported");
        assert_eq!(error.line_number, 2);
        assert!(error.to_string().contains("line 2"));
        assert!(source.next_record().is_none(), "the stop is sticky");
        assert_eq!(source.stats().parsed, 1);
    }

    #[test]
    fn zero_sized_records_are_skipped_and_counted() {
        let text = "100,hm,0,Read,0,0,0\n200,hm,0,Read,0,4096,0\n";
        let mut source = TextTraceSource::from_text("z", text);
        let records = drain(&mut source);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].bytes, 4096);
        assert_eq!(source.stats().skipped_zero_sized, 1);
    }

    #[test]
    fn empty_trace_parses_to_nothing() {
        for text in ["", "\n\n", "# only a comment\n"] {
            let mut source = TextTraceSource::from_text("e", text);
            assert!(source.next_record().is_none());
            assert!(source.error().is_none());
            assert_eq!(source.stats().parsed, 0);
        }
    }

    #[test]
    fn out_of_order_timestamps_are_clamped_monotonic() {
        let text = "2000,hm,0,Read,0,512,0\n\
                    1000,hm,0,Read,512,512,0\n\
                    3000,hm,0,Read,1024,512,0\n";
        let mut source = TextTraceSource::from_text("o", text);
        let records = drain(&mut source);
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(source.stats().clamped_out_of_order, 1);
        // 3000 ticks - 2000 ticks = 1000 ticks = 100 µs.
        assert_eq!(records[2].arrival, SimTime::from_nanos(100_000));
    }

    #[test]
    fn declared_footprint_bound_rejects_oversized_records() {
        let text = "100,hm,0,Read,0,4096,0\n200,hm,0,Read,8192,4096,0\n";
        let mut source = TextTraceSource::from_text("f", text).with_footprint_bytes(8192);
        let records = drain(&mut source);
        assert_eq!(records.len(), 1, "the spilling record is dropped");
        assert_eq!(source.stats().skipped_malformed, 1);
        assert_eq!(source.footprint_bytes(), 8192);

        let mut strict = TextTraceSource::from_text("f", text)
            .with_footprint_bytes(8192)
            .with_policy(MalformedPolicy::Error);
        assert!(strict.next_record().is_some());
        assert!(strict.next_record().is_none());
        assert!(strict.error().unwrap().message.contains("footprint"));
    }

    #[test]
    fn msr_writer_round_trips_through_the_parser() {
        let trace = crate::SyntheticSpec::new("rt")
            .with_footprint_mb(64)
            .generate(200, 5);
        let csv = write_msr_csv("rt-host", trace.iter());
        let mut source = TextTraceSource::from_text("rt", csv).with_policy(MalformedPolicy::Error);
        let parsed = drain(&mut source);
        assert!(source.error().is_none());
        assert_eq!(parsed.len(), trace.len());
        for (original, back) in trace.iter().zip(&parsed) {
            assert_eq!(original.op, back.op);
            assert_eq!(original.offset, back.offset);
            assert_eq!(original.bytes, back.bytes);
            // Arrivals survive up to the 100 ns filetime tick.
            let delta = original.arrival.as_nanos() as i128 - back.arrival.as_nanos() as i128;
            assert!((0..100).contains(&delta), "arrival drifted by {delta} ns");
        }
    }

    /// Overflowing extents are malformed lines, not records: without checked
    /// math a `u64::MAX` offset would wrap in `TraceRecord::pages` and slip
    /// past the capacity boundary as an arbitrary aliased request.
    #[test]
    fn overflowing_extents_are_malformed_not_wrapped() {
        let max = u64::MAX;
        let text = format!(
            "100,hm,0,Read,{max},512,0\n\
             200,hm,0,Read,0,4096,0\n"
        );
        let mut source = TextTraceSource::from_text("ovf", text.clone());
        let records = drain(&mut source);
        assert_eq!(records.len(), 1, "only the sane record survives");
        assert_eq!(source.stats().skipped_malformed, 1);

        let mut strict =
            TextTraceSource::from_text("ovf", text).with_policy(MalformedPolicy::Error);
        assert!(strict.next_record().is_none());
        assert!(strict
            .error()
            .unwrap()
            .message
            .contains("overflows the byte address space"));

        // blkparse sector math overflows are caught at the multiply.
        let blk = format!("8,0 0 1 0.000000000 1 Q R {} + 9 [x]\n", u64::MAX / 512 + 1);
        let mut source = TextTraceSource::from_text("ovf", blk).with_format(TraceFormat::Blkparse);
        assert!(source.next_record().is_none());
        assert_eq!(source.stats().skipped_malformed, 1);
    }

    #[test]
    fn blktrace_time_parsing() {
        assert_eq!(parse_blktrace_time("0.000000000"), Some(0));
        assert_eq!(parse_blktrace_time("1.5"), Some(1_500_000_000));
        assert_eq!(parse_blktrace_time("2"), Some(2_000_000_000));
        assert_eq!(parse_blktrace_time("0.000001234"), Some(1_234));
        assert_eq!(parse_blktrace_time("x.y"), None);
        assert_eq!(parse_blktrace_time("1.0000000001"), None);
    }
}
