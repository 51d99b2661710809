//! Golden signatures of the metadata path: every trace record, in order.
//!
//! The other golden files pin a run's wall time and `Diagnostics`; two runs
//! can agree on those and still hand a trace sink different records, or the
//! same records in a different order. Each case here runs a suite workload
//! at small scale through a [`VecSink`] and pins, beside the wall time's f64
//! bits and every `Diagnostics` counter, the record count and an FNV-1a hash
//! over every field of every record in completion order:
//!
//! * default-config MDWorkbench_8K — creates, stats, small I/O and unlinks
//!   from every rank, mostly MDS ops;
//! * MDWorkbench_2K with `llite.statahead_max` 0 — the stat path without
//!   statahead;
//! * IO500 — barriers between phases, readdir, statahead hits and shared
//!   files;
//! * MDWorkbench_8K under a seeded [`FaultPlan`].
//!
//! The signatures were recorded before the event loop learned to keep
//! running a rank that stays strictly earliest; any change to the loop's
//! scheduling machinery must reproduce them unchanged.

use pfs::model::engine::Engine;
use pfs::ops::Module;
use pfs::trace::{OpClass, OpRecord, VecSink};
use pfs::{ClusterSpec, FaultPlan, TuningConfig};
use workloads::WorkloadKind;

const SEED: u64 = 7;

/// `(case, signature)`.
const GOLDEN: &[(&str, &str)] = &[
    ("MDWorkbench_8K", "3fda175586083116 48100 088013ca6c49a36b Diagnostics { bytes_written: 49152000, bytes_read: 49152000, cache_hit_chunks: 6000, cache_miss_chunks: 0, lock_revocations: 0, dirty_stall_secs: 0.0, mds_ops: 26900, bulk_rpcs: 6000, readahead_bytes: 0, statahead_hits: 3200, disk_busy_secs: 1.5806816929999998, disk_seq_ops: 0, disk_rand_ops: 6000 }"),
    ("MDWorkbench_2K statahead_max=0", "3fddbca56029e9e7 48100 f57718d48d7e0aab Diagnostics { bytes_written: 12288000, bytes_read: 12288000, cache_hit_chunks: 6000, cache_miss_chunks: 0, lock_revocations: 0, dirty_stall_secs: 0.0, mds_ops: 30100, bulk_rpcs: 6000, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 1.548089375, disk_seq_ops: 0, disk_rand_ops: 6000 }"),
    ("IO500", "3fda80db44005760 6851 4976e58fcf1b21eb Diagnostics { bytes_written: 281007400, bytes_read: 281007400, cache_hit_chunks: 5702, cache_miss_chunks: 273, lock_revocations: 2752, dirty_stall_secs: 0.0, mds_ops: 2448, bulk_rpcs: 1068, readahead_bytes: 141543360, statahead_hits: 403, disk_busy_secs: 0.5807603170000001, disk_seq_ops: 304, disk_rand_ops: 764 }"),
    ("MDWorkbench_8K faults", "3feabadcffed2d0c 48100 780dbc4b320ec027 Diagnostics { bytes_written: 49152000, bytes_read: 49152000, cache_hit_chunks: 6000, cache_miss_chunks: 0, lock_revocations: 0, dirty_stall_secs: 0.0, mds_ops: 26900, bulk_rpcs: 6000, readahead_bytes: 0, statahead_hits: 3200, disk_busy_secs: 2.104600606, disk_seq_ops: 0, disk_rand_ops: 6000 }"),
];

/// FNV-1a, 64-bit: a fixed, platform-independent hash for the record
/// stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn record(&mut self, r: &OpRecord) {
        self.u64(r.rank as u64);
        match r.file {
            Some(f) => {
                self.u64(1);
                self.u64(f.0 as u64);
            }
            None => self.u64(0),
        }
        self.u64(match r.module {
            Module::Posix => 0,
            Module::MpiIo => 1,
            Module::Stdio => 2,
        });
        self.u64(match r.class {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::Open => 2,
            OpClass::Stat => 3,
            OpClass::Close => 4,
            OpClass::Unlink => 5,
            OpClass::DirOp => 6,
            OpClass::Sync => 7,
        });
        self.u64(r.offset);
        self.u64(r.bytes);
        self.u64(r.start.as_nanos());
        self.u64(r.end.as_nanos());
    }
}

fn signature(case: &str) -> String {
    let topo = ClusterSpec::paper_cluster();
    let mut cfg = TuningConfig::default();
    let (label, scale, plan) = match case {
        "MDWorkbench_8K" => ("MDWorkbench_8K", 0.05, None),
        "MDWorkbench_2K statahead_max=0" => {
            cfg.llite_statahead_max = 0;
            ("MDWorkbench_2K", 0.05, None)
        }
        "IO500" => ("IO500", 0.05, None),
        "MDWorkbench_8K faults" => (
            "MDWorkbench_8K",
            0.05,
            Some(FaultPlan::seeded(topo.ost_count(), SEED)),
        ),
        other => panic!("unknown case {other}"),
    };
    let streams = WorkloadKind::from_label(label)
        .expect("suite label")
        .spec_at(scale)
        .generate(&topo, SEED);
    let mut sink = VecSink::default();
    let (wall, diag) =
        Engine::with_faults(&topo, &cfg, SEED, &mut sink, plan.as_ref()).run(streams);
    let mut h = Fnv::new();
    for r in &sink.records {
        h.record(r);
    }
    format!(
        "{:016x} {} {:016x} {diag:?}",
        wall.as_secs_f64().to_bits(),
        sink.records.len(),
        h.0
    )
}

const CASES: &[&str] = &[
    "MDWorkbench_8K",
    "MDWorkbench_2K statahead_max=0",
    "IO500",
    "MDWorkbench_8K faults",
];

#[test]
fn metadata_path_reproduces_golden_trace_order() {
    let mut changed = Vec::new();
    for case in CASES {
        let got = signature(case);
        let want = GOLDEN.iter().find(|(c, _)| c == case).map(|(_, sig)| *sig);
        if want != Some(got.as_str()) {
            changed.push(format!("    ({case:?}, {got:?}),"));
        }
    }
    assert!(
        changed.is_empty(),
        "signatures changed:\n{}",
        changed.join("\n")
    );
}
