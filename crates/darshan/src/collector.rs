//! Runtime collector: turns the simulator's operation records into Darshan
//! counters, exactly as `libdarshan` instruments an application.
//!
//! Records live in a `Vec<FileRecord>` in first-touch order. An index keyed
//! by `(rank, file, module)` with the fixed-key Fx hasher maps each key to
//! its slot, so a record costs one Fx hash and one probe before its counters
//! are updated. [`Collector::finish`] sorts the records by
//! `(module, file, rank)`, so the log does not depend on first-touch order.

use crate::counters::{read_size_bucket, write_size_bucket, Counter, FCounter};
use crate::log::{DarshanLog, FileRecord, JobHeader};
use pfs::ops::{FileId, Module};
use pfs::trace::{OpClass, OpRecord, TraceSink};
use simcore::hash::FxBuildHasher;
use std::collections::HashMap;

/// Accumulating trace sink. Use [`Collector::finish`] to obtain the log.
#[derive(Debug)]
pub struct Collector {
    exe: String,
    nprocs: u32,
    /// Records in first-touch order.
    records: Vec<FileRecord>,
    // determinism audit (D002): point lookups only, never iterated
    index: HashMap<(u32, FileId, Module), u32, FxBuildHasher>,
    last_end: f64,
}

impl Collector {
    /// Create a collector for a job with `nprocs` ranks.
    pub fn new(exe: impl Into<String>, nprocs: u32) -> Self {
        Collector {
            exe: exe.into(),
            nprocs,
            records: Vec::new(),
            index: HashMap::default(),
            last_end: 0.0,
        }
    }

    fn entry(&mut self, rank: u32, file: FileId, module: Module) -> &mut FileRecord {
        let next = self.records.len() as u32;
        let slot = *self.index.entry((rank, file, module)).or_insert(next);
        if slot == next {
            self.records.push(FileRecord::new(rank, file, module));
        }
        &mut self.records[slot as usize]
    }

    /// Finalise: sort records, run the shared-file variance reduction, and
    /// return the completed log.
    pub fn finish(self) -> DarshanLog {
        let mut records = self.records;
        records.sort_by_key(|r| (r.module.name(), r.file, r.rank));
        let mut files: Vec<FileId> = records.iter().map(|r| r.file).collect();
        files.sort();
        files.dedup();
        let mut log = DarshanLog {
            header: JobHeader {
                exe: self.exe,
                nprocs: self.nprocs,
                runtime_secs: self.last_end,
                file_count: files.len() as u64,
            },
            records,
        };
        log.compute_shared_file_variance();
        log
    }
}

/// Fold one completed operation into its record.
fn apply(r: &mut FileRecord, rec: &OpRecord, end_secs: f64) {
    let duration = (rec.end - rec.start).as_secs_f64();
    match rec.class {
        OpClass::Read => {
            r.bump(Counter::Reads, 1);
            r.bump(Counter::BytesRead, rec.bytes as i64);
            r.raise(Counter::MaxByteRead, (rec.offset + rec.bytes) as i64);
            r.bump(read_size_bucket(rec.bytes), 1);
            r.fadd(FCounter::ReadTime, duration);
            r.fraise(FCounter::MaxReadTime, duration);
            if let Some(prev_end) = r.last_read_end {
                if rec.offset == prev_end {
                    r.bump(Counter::ConsecReads, 1);
                }
                if rec.offset >= prev_end {
                    r.bump(Counter::SeqReads, 1);
                }
            }
            r.last_read_end = Some(rec.offset + rec.bytes);
            if r.last_was_write == Some(true) {
                r.bump(Counter::RwSwitches, 1);
            }
            r.last_was_write = Some(false);
        }
        OpClass::Write => {
            r.bump(Counter::Writes, 1);
            r.bump(Counter::BytesWritten, rec.bytes as i64);
            r.raise(Counter::MaxByteWritten, (rec.offset + rec.bytes) as i64);
            r.bump(write_size_bucket(rec.bytes), 1);
            r.fadd(FCounter::WriteTime, duration);
            r.fraise(FCounter::MaxWriteTime, duration);
            if let Some(prev_end) = r.last_write_end {
                if rec.offset == prev_end {
                    r.bump(Counter::ConsecWrites, 1);
                }
                if rec.offset >= prev_end {
                    r.bump(Counter::SeqWrites, 1);
                }
            }
            r.last_write_end = Some(rec.offset + rec.bytes);
            if r.last_was_write == Some(false) {
                r.bump(Counter::RwSwitches, 1);
            }
            r.last_was_write = Some(true);
        }
        OpClass::Open => {
            r.bump(Counter::Opens, 1);
            r.fadd(FCounter::MetaTime, duration);
            // The first open sets the timestamp, even at t = 0: a zero
            // counter cannot mean "unset" when files are opened at the
            // start of a run.
            let start = rec.start.as_secs_f64();
            if r.get(Counter::Opens) == 1 || start < r.fget(FCounter::OpenStartTimestamp) {
                r.fset(FCounter::OpenStartTimestamp, start);
            }
        }
        OpClass::Stat => {
            r.bump(Counter::Stats, 1);
            r.fadd(FCounter::MetaTime, duration);
        }
        OpClass::Close => {
            r.fadd(FCounter::MetaTime, duration);
            r.fraise(FCounter::CloseEndTimestamp, end_secs);
        }
        OpClass::Unlink => {
            r.bump(Counter::Unlinks, 1);
            r.fadd(FCounter::MetaTime, duration);
        }
        OpClass::Sync => {
            r.bump(Counter::Fsyncs, 1);
            r.fadd(FCounter::MetaTime, duration);
        }
        OpClass::DirOp => {
            r.fadd(FCounter::MetaTime, duration);
        }
    }
}

impl TraceSink for Collector {
    fn record(&mut self, rec: &OpRecord) {
        let end_secs = rec.end.as_secs_f64();
        if end_secs > self.last_end {
            self.last_end = end_secs;
        }
        let Some(file) = rec.file else {
            return; // pure directory ops are not per-file records
        };
        apply(self.entry(rec.rank, file, rec.module), rec, end_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;

    fn rec(
        rank: u32,
        file: u32,
        class: OpClass,
        offset: u64,
        bytes: u64,
        t0_us: u64,
        t1_us: u64,
    ) -> OpRecord {
        OpRecord {
            rank,
            file: Some(FileId(file)),
            module: Module::Posix,
            class,
            offset,
            bytes,
            start: SimTime::from_micros(t0_us),
            end: SimTime::from_micros(t1_us),
        }
    }

    #[test]
    fn sequential_write_detection() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 100, 0, 10));
        c.record(&rec(0, 1, OpClass::Write, 100, 100, 10, 20)); // consec
        c.record(&rec(0, 1, OpClass::Write, 500, 100, 20, 30)); // seq (gap)
        c.record(&rec(0, 1, OpClass::Write, 50, 100, 30, 40)); // backwards
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::Writes), 4);
        assert_eq!(r.get(Counter::ConsecWrites), 1);
        assert_eq!(r.get(Counter::SeqWrites), 2); // consec counts as seq too
        assert_eq!(r.get(Counter::BytesWritten), 400);
        assert_eq!(r.get(Counter::MaxByteWritten), 600);
    }

    #[test]
    fn rw_switch_detection() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 1));
        c.record(&rec(0, 1, OpClass::Read, 0, 10, 1, 2));
        c.record(&rec(0, 1, OpClass::Read, 10, 10, 2, 3));
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 3, 4));
        let log = c.finish();
        assert_eq!(log.records[0].get(Counter::RwSwitches), 2);
    }

    #[test]
    fn size_histograms_fill() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 2048, 0, 1));
        c.record(&rec(0, 1, OpClass::Write, 2048, 2048, 1, 2));
        c.record(&rec(0, 1, OpClass::Write, 4096, 16 << 20, 2, 3));
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::SizeWrite1K_10K), 2);
        assert_eq!(r.get(Counter::SizeWrite10M_100M), 1);
    }

    #[test]
    fn per_rank_per_file_records() {
        let mut c = Collector::new("t", 2);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 1));
        c.record(&rec(1, 1, OpClass::Write, 10, 10, 0, 1));
        c.record(&rec(0, 2, OpClass::Read, 0, 10, 1, 2));
        let log = c.finish();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.header.file_count, 2);
        assert_eq!(log.header.nprocs, 2);
    }

    #[test]
    fn meta_time_accumulates() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 0, 100));
        c.record(&rec(0, 1, OpClass::Stat, 0, 0, 100, 250));
        c.record(&rec(0, 1, OpClass::Close, 0, 0, 250, 260));
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::Opens), 1);
        assert_eq!(r.get(Counter::Stats), 1);
        assert!((r.fget(FCounter::MetaTime) - 260e-6).abs() < 1e-9);
        assert!((r.fget(FCounter::CloseEndTimestamp) - 260e-6).abs() < 1e-9);
    }

    #[test]
    fn open_start_keeps_a_first_open_at_time_zero() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 0, 10));
        c.record(&rec(0, 1, OpClass::Close, 0, 0, 10, 20));
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 500, 510));
        let log = c.finish();
        let r = &log.records[0];
        assert_eq!(r.get(Counter::Opens), 2);
        assert_eq!(r.fget(FCounter::OpenStartTimestamp), 0.0);
    }

    #[test]
    fn open_start_is_the_first_open_when_it_is_later_than_zero() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Stat, 0, 0, 0, 5));
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 300, 310));
        c.record(&rec(0, 1, OpClass::Open, 0, 0, 700, 710));
        let log = c.finish();
        assert!((log.records[0].fget(FCounter::OpenStartTimestamp) - 300e-6).abs() < 1e-12);
    }

    #[test]
    fn runtime_tracks_last_end() {
        let mut c = Collector::new("t", 1);
        c.record(&rec(0, 1, OpClass::Write, 0, 10, 0, 5_000_000));
        let log = c.finish();
        assert!((log.header.runtime_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn directory_ops_do_not_create_file_records() {
        let mut c = Collector::new("t", 1);
        c.record(&OpRecord {
            rank: 0,
            file: None,
            module: Module::Posix,
            class: OpClass::DirOp,
            offset: 0,
            bytes: 0,
            start: SimTime::ZERO,
            end: SimTime::from_micros(10),
        });
        let log = c.finish();
        assert!(log.records.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::counters::{Counter, COUNTERS};
    use proptest::prelude::*;
    use simcore::time::SimTime;

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u64, u64)>> {
        // (class selector, file, offset, len)
        proptest::collection::vec((0u8..4, 1u32..4, 0u64..1_000_000, 1u64..100_000), 1..200)
    }

    proptest! {
        /// Byte and op counts are conserved exactly for arbitrary traces,
        /// and every size lands in exactly one histogram bucket.
        #[test]
        fn collector_conserves(ops in arb_ops()) {
            let mut c = Collector::new("prop", 4);
            let mut expect_read = 0i64;
            let mut expect_write = 0i64;
            let mut nreads = 0i64;
            let mut nwrites = 0i64;
            let mut t = 0u64;
            for (class, file, offset, len) in ops {
                t += 10;
                let (class, bytes) = match class {
                    0 => { expect_write += len as i64; nwrites += 1; (OpClass::Write, len) }
                    1 => { expect_read += len as i64; nreads += 1; (OpClass::Read, len) }
                    2 => (OpClass::Stat, 0),
                    _ => (OpClass::Open, 0),
                };
                c.record(&OpRecord {
                    rank: file % 2,
                    file: Some(FileId(file)),
                    module: Module::Posix,
                    class,
                    offset,
                    bytes,
                    start: SimTime::from_micros(t),
                    end: SimTime::from_micros(t + 5),
                });
            }
            let log = c.finish();
            let sum = |cn: Counter| -> i64 { log.records.iter().map(|r| r.get(cn)).sum() };
            prop_assert_eq!(sum(Counter::BytesWritten), expect_write);
            prop_assert_eq!(sum(Counter::BytesRead), expect_read);
            prop_assert_eq!(sum(Counter::Writes), nwrites);
            prop_assert_eq!(sum(Counter::Reads), nreads);
            // Histogram buckets partition the writes.
            let wbuckets: i64 = COUNTERS
                .iter()
                .filter(|cn| cn.name().starts_with("SIZE_WRITE"))
                .map(|&cn| sum(cn))
                .sum();
            prop_assert_eq!(wbuckets, nwrites);
            // SEQ >= CONSEC always.
            prop_assert!(sum(Counter::SeqWrites) >= sum(Counter::ConsecWrites));
            prop_assert!(sum(Counter::SeqReads) >= sum(Counter::ConsecReads));
        }
    }

    /// The collector as first written: one SipHash map entry per
    /// `(rank, file, module)`, drained and sorted at `finish`. Differential
    /// oracle for the record index.
    struct MapCollector {
        nprocs: u32,
        records: HashMap<(u32, FileId, Module), FileRecord>,
        last_end: f64,
    }

    impl TraceSink for MapCollector {
        fn record(&mut self, rec: &OpRecord) {
            let end_secs = rec.end.as_secs_f64();
            if end_secs > self.last_end {
                self.last_end = end_secs;
            }
            let Some(file) = rec.file else {
                return;
            };
            let r = self
                .records
                .entry((rec.rank, file, rec.module))
                .or_insert_with(|| FileRecord::new(rec.rank, file, rec.module));
            apply(r, rec, end_secs);
        }
    }

    impl MapCollector {
        fn finish(self) -> DarshanLog {
            let mut records: Vec<FileRecord> = self.records.into_values().collect();
            records.sort_by_key(|r| (r.module.name(), r.file, r.rank));
            let mut files: Vec<FileId> = records.iter().map(|r| r.file).collect();
            files.sort();
            files.dedup();
            let mut log = DarshanLog {
                header: JobHeader {
                    exe: "prop".into(),
                    nprocs: self.nprocs,
                    runtime_secs: self.last_end,
                    file_count: files.len() as u64,
                },
                records,
            };
            crate::log::reference::shared_file_variance(&mut log);
            log
        }
    }

    /// `((rank, file selector, module), (class, offset, len), (gap, duration))`.
    /// File selector 0 is a directory op (`file: None`), 1–2 repeat the
    /// rank's previous file, 3–7 pick file 0–4.
    type OpSpec = ((u32, u8, u8), (u8, u64, u64), (u64, u64));

    fn arb_trace() -> impl Strategy<Value = Vec<OpSpec>> {
        proptest::collection::vec(
            (
                (0u32..6, 0u8..8, 0u8..5),
                (0u8..8, 0u64..1_000_000, 0u64..100_000),
                (0u64..30, 0u64..100),
            ),
            0..300,
        )
    }

    proptest! {
        /// The indexed collector builds the same log as the map collector:
        /// interleaved ranks, all three modules, ranks at or beyond `nprocs`
        /// (4), directory ops, and ranks going back to earlier files.
        #[test]
        fn collector_matches_map_collector(trace in arb_trace()) {
            const NPROCS: u32 = 4;
            let mut indexed = Collector::new("prop", NPROCS);
            let mut map = MapCollector {
                nprocs: NPROCS,
                records: HashMap::new(),
                last_end: 0.0,
            };
            let mut prev_file = [FileId(0); 6];
            let mut t = 0u64;
            for ((rank, file_sel, m), (class, offset, len), (gap, dur)) in trace {
                let file = match file_sel {
                    0 => None,
                    1 | 2 => Some(prev_file[rank as usize]),
                    k => Some(FileId(u32::from(k) - 3)),
                };
                if let Some(f) = file {
                    prev_file[rank as usize] = f;
                }
                let class = [
                    OpClass::Read,
                    OpClass::Write,
                    OpClass::Open,
                    OpClass::Stat,
                    OpClass::Close,
                    OpClass::Unlink,
                    OpClass::DirOp,
                    OpClass::Sync,
                ][class as usize];
                let module = [
                    Module::Posix,
                    Module::Posix,
                    Module::Posix,
                    Module::MpiIo,
                    Module::Stdio,
                ][m as usize];
                let rec = OpRecord {
                    rank,
                    file,
                    module,
                    class,
                    offset,
                    bytes: len,
                    start: SimTime::from_micros(t),
                    end: SimTime::from_micros(t + dur),
                };
                indexed.record(&rec);
                map.record(&rec);
                t += gap;
            }
            crate::log::reference::assert_same_log(&indexed.finish(), &map.finish());
        }
    }
}
