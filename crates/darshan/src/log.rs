//! The log model: job header plus per-(rank, file, module) records.

use crate::counters::{Counter, FCounter, COUNTERS, FCOUNTERS};
use pfs::ops::{FileId, Module};
use serde::{Deserialize, Serialize};

/// Job-level header (Darshan's log header).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobHeader {
    /// Executable / workload name.
    pub exe: String,
    /// Number of MPI processes.
    pub nprocs: u32,
    /// Job runtime in seconds.
    pub runtime_secs: f64,
    /// Count of distinct files accessed.
    pub file_count: u64,
}

impl JobHeader {
    /// Render the header the way `darshan-parser` would summarise it.
    pub fn render(&self) -> String {
        format!(
            "# exe: {}\n# nprocs: {}\n# run time: {:.4} s\n# files: {}",
            self.exe, self.nprocs, self.runtime_secs, self.file_count
        )
    }
}

/// One per-(rank, file) record within a module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileRecord {
    /// Issuing rank.
    pub rank: u32,
    /// File identifier (Darshan record id).
    pub file: FileId,
    /// Module the record belongs to.
    pub module: Module,
    /// Integer counters, indexed by [`Counter::index`].
    pub counters: Vec<i64>,
    /// Floating-point counters, indexed by [`FCounter::index`].
    pub fcounters: Vec<f64>,
    // Internal sequential-access tracking (not serialised by Darshan).
    #[serde(skip)]
    pub(crate) last_read_end: Option<u64>,
    #[serde(skip)]
    pub(crate) last_write_end: Option<u64>,
    #[serde(skip)]
    pub(crate) last_was_write: Option<bool>,
}

impl FileRecord {
    /// Fresh zeroed record.
    pub fn new(rank: u32, file: FileId, module: Module) -> Self {
        FileRecord {
            rank,
            file,
            module,
            counters: vec![0; COUNTERS.len()],
            fcounters: vec![0.0; FCOUNTERS.len()],
            last_read_end: None,
            last_write_end: None,
            last_was_write: None,
        }
    }

    /// Read an integer counter.
    pub fn get(&self, c: Counter) -> i64 {
        self.counters[c.index()]
    }

    /// Increment an integer counter.
    pub fn bump(&mut self, c: Counter, by: i64) {
        self.counters[c.index()] += by;
    }

    /// Raise an integer counter to at least `v` (for MAX_* counters).
    pub fn raise(&mut self, c: Counter, v: i64) {
        let idx = c.index();
        if self.counters[idx] < v {
            self.counters[idx] = v;
        }
    }

    /// Read a float counter.
    pub fn fget(&self, c: FCounter) -> f64 {
        self.fcounters[c.index()]
    }

    /// Add to a float counter.
    pub fn fadd(&mut self, c: FCounter, by: f64) {
        self.fcounters[c.index()] += by;
    }

    /// Raise a float counter to at least `v`.
    pub fn fraise(&mut self, c: FCounter, v: f64) {
        let idx = c.index();
        if self.fcounters[idx] < v {
            self.fcounters[idx] = v;
        }
    }

    /// Set a float counter.
    pub fn fset(&mut self, c: FCounter, v: f64) {
        self.fcounters[c.index()] = v;
    }
}

/// A complete Darshan-like log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DarshanLog {
    /// Job header.
    pub header: JobHeader,
    /// All records, ordered by (module, file, rank).
    pub records: Vec<FileRecord>,
}

impl DarshanLog {
    /// Records of one module.
    pub fn module_records(&self, module: Module) -> impl Iterator<Item = &FileRecord> {
        self.records.iter().filter(move |r| r.module == module)
    }

    /// Distinct files touched in a module.
    pub fn files_in(&self, module: Module) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.module_records(module).map(|r| r.file).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Sum of an integer counter across all records of a module.
    pub fn total(&self, module: Module, c: Counter) -> i64 {
        self.module_records(module).map(|r| r.get(c)).sum()
    }

    /// Compute the shared-file variance reduction (Darshan computes these at
    /// log finalisation): for every file accessed by more than one rank,
    /// fill `VarianceRankTime` / `VarianceRankBytes` on each of its records.
    ///
    /// Records are grouped by `(module, file)` through a sort of
    /// `(module, file, index)` triples, so each group's sums run over its
    /// records in log order, whatever order the log holds them in.
    pub fn compute_shared_file_variance(&mut self) {
        let mut order: Vec<(Module, FileId, u32)> = (0u32..)
            .zip(&self.records)
            .map(|(i, r)| (r.module, r.file, i))
            .collect();
        order.sort_unstable();
        for group in order.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if group.len() < 2 {
                continue;
            }
            let records = &self.records;
            let vt = variance(group, |i| {
                let r = &records[i];
                r.fget(FCounter::ReadTime) + r.fget(FCounter::WriteTime)
            });
            let vb = variance(group, |i| {
                let r = &records[i];
                (r.get(Counter::BytesRead) + r.get(Counter::BytesWritten)) as f64
            });
            for &(_, _, i) in group {
                let r = &mut self.records[i as usize];
                r.fset(FCounter::VarianceRankTime, vt);
                r.fset(FCounter::VarianceRankBytes, vb);
            }
        }
    }
}

/// Population variance of `value` over the records of `group`, summed in
/// `group` order.
fn variance(group: &[(Module, FileId, u32)], value: impl Fn(usize) -> f64) -> f64 {
    let n = group.len() as f64;
    let xs = || group.iter().map(|&(_, _, i)| value(i as usize));
    let mean = xs().sum::<f64>() / n;
    xs().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counter_ops() {
        let mut r = FileRecord::new(0, FileId(1), Module::Posix);
        r.bump(Counter::Reads, 2);
        r.bump(Counter::Reads, 1);
        assert_eq!(r.get(Counter::Reads), 3);
        r.raise(Counter::MaxByteRead, 100);
        r.raise(Counter::MaxByteRead, 50);
        assert_eq!(r.get(Counter::MaxByteRead), 100);
        r.fadd(FCounter::ReadTime, 0.5);
        r.fadd(FCounter::ReadTime, 0.25);
        assert!((r.fget(FCounter::ReadTime) - 0.75).abs() < 1e-12);
        r.fraise(FCounter::MaxReadTime, 0.1);
        r.fraise(FCounter::MaxReadTime, 0.05);
        assert_eq!(r.fget(FCounter::MaxReadTime), 0.1);
    }

    #[test]
    fn variance_reduction_fills_shared_files() {
        let mut a = FileRecord::new(0, FileId(1), Module::Posix);
        a.bump(Counter::BytesWritten, 100);
        a.fadd(FCounter::WriteTime, 1.0);
        let mut b = FileRecord::new(1, FileId(1), Module::Posix);
        b.bump(Counter::BytesWritten, 300);
        b.fadd(FCounter::WriteTime, 3.0);
        let solo = FileRecord::new(0, FileId(2), Module::Posix);
        let mut log = DarshanLog {
            header: JobHeader {
                exe: "t".into(),
                nprocs: 2,
                runtime_secs: 1.0,
                file_count: 2,
            },
            records: vec![a, b, solo],
        };
        log.compute_shared_file_variance();
        // Population variance of {1,3} = 1; of {100,300} = 10000.
        assert!((log.records[0].fget(FCounter::VarianceRankTime) - 1.0).abs() < 1e-9);
        assert!((log.records[1].fget(FCounter::VarianceRankBytes) - 10_000.0).abs() < 1e-6);
        // Single-rank file untouched.
        assert_eq!(log.records[2].fget(FCounter::VarianceRankTime), 0.0);
    }

    #[test]
    fn module_filters() {
        let log = DarshanLog {
            header: JobHeader {
                exe: "t".into(),
                nprocs: 1,
                runtime_secs: 1.0,
                file_count: 2,
            },
            records: vec![
                FileRecord::new(0, FileId(1), Module::Posix),
                FileRecord::new(0, FileId(2), Module::MpiIo),
            ],
        };
        assert_eq!(log.module_records(Module::Posix).count(), 1);
        assert_eq!(log.files_in(Module::MpiIo), vec![FileId(2)]);
    }

    #[test]
    fn header_render() {
        let h = JobHeader {
            exe: "IOR_16M".into(),
            nprocs: 50,
            runtime_secs: 12.5,
            file_count: 1,
        };
        let s = h.render();
        assert!(s.contains("IOR_16M"));
        assert!(s.contains("nprocs: 50"));
    }
}

/// Differential oracles: the log-finalisation code as first written.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// The shared-file variance reduction with one `BTreeMap` entry and two
    /// `Vec`s per `(module, file)`, filled in log order.
    pub(crate) fn shared_file_variance(log: &mut DarshanLog) {
        #[derive(Default)]
        struct Agg {
            times: Vec<f64>,
            bytes: Vec<f64>,
        }
        let mut by_file: BTreeMap<(Module, FileId), Agg> = BTreeMap::new();
        for r in &log.records {
            let a = by_file.entry((r.module, r.file)).or_default();
            a.times
                .push(r.fget(FCounter::ReadTime) + r.fget(FCounter::WriteTime));
            a.bytes
                .push((r.get(Counter::BytesRead) + r.get(Counter::BytesWritten)) as f64);
        }
        let variance = |xs: &[f64]| -> f64 {
            if xs.len() < 2 {
                return 0.0;
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
        };
        let stats: BTreeMap<(Module, FileId), (f64, f64, usize)> = by_file
            .into_iter()
            .map(|(k, a)| (k, (variance(&a.times), variance(&a.bytes), a.times.len())))
            .collect();
        for r in &mut log.records {
            if let Some(&(vt, vb, n)) = stats.get(&(r.module, r.file)) {
                if n > 1 {
                    r.fset(FCounter::VarianceRankTime, vt);
                    r.fset(FCounter::VarianceRankBytes, vb);
                }
            }
        }
    }

    /// Assert two logs equal field by field, float counters bit for bit.
    pub(crate) fn assert_same_log(a: &DarshanLog, b: &DarshanLog) {
        assert_eq!(a.header.exe, b.header.exe);
        assert_eq!(a.header.nprocs, b.header.nprocs);
        assert_eq!(
            a.header.runtime_secs.to_bits(),
            b.header.runtime_secs.to_bits()
        );
        assert_eq!(a.header.file_count, b.header.file_count);
        assert_eq!(a.records.len(), b.records.len());
        let bits = |r: &FileRecord| r.fcounters.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!((x.rank, x.file, x.module), (y.rank, y.file, y.module));
            assert_eq!(x.counters, y.counters, "rank {} file {:?}", x.rank, x.file);
            assert_eq!(bits(x), bits(y), "rank {} file {:?}", x.rank, x.file);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `((module, file, rank), (read s, write s), (read B, write B))`.
    type Spec = ((u8, u32, u32), (f64, f64), (i64, i64));

    fn arb_records() -> impl Strategy<Value = Vec<Spec>> {
        proptest::collection::vec(
            (
                (0u8..3, 0u32..6, 0u32..5),
                (0.0f64..3.0, 0.0f64..0.01),
                (0i64..1 << 40, 0i64..1 << 20),
            ),
            0..60,
        )
    }

    fn log_of(specs: &[Spec]) -> DarshanLog {
        let records = specs
            .iter()
            .map(|&((m, file, rank), (rt, wt), (rb, wb))| {
                let module = [Module::Posix, Module::MpiIo, Module::Stdio][m as usize];
                let mut r = FileRecord::new(rank, FileId(file), module);
                r.fadd(FCounter::ReadTime, rt);
                r.fadd(FCounter::WriteTime, wt);
                r.bump(Counter::BytesRead, rb);
                r.bump(Counter::BytesWritten, wb);
                r
            })
            .collect();
        DarshanLog {
            header: JobHeader {
                exe: "prop".into(),
                nprocs: 5,
                runtime_secs: 1.0,
                file_count: 0,
            },
            records,
        }
    }

    proptest! {
        /// The sort-and-group reduction is bit-equal to the `BTreeMap` one
        /// on records in any order, and in the order `Collector::finish`
        /// leaves them.
        #[test]
        fn shared_file_variance_matches_btree_reduction(specs in arb_records()) {
            let mut shuffled = log_of(&specs);
            let mut sorted = log_of(&specs);
            sorted.records.sort_by_key(|r| (r.module.name(), r.file, r.rank));
            for log in [&mut shuffled, &mut sorted] {
                let mut want = log.clone();
                reference::shared_file_variance(&mut want);
                log.compute_shared_file_variance();
                reference::assert_same_log(log, &want);
            }
        }
    }
}
