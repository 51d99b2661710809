//! Golden signatures of whole engine runs on bulk-RPC paths the default
//! configuration does not reach.
//!
//! Each case runs a suite workload at small scale, or a hand-built stream
//! mix, under one non-default condition and pins the wall time's f64 bits plus every `Diagnostics`
//! counter:
//!
//! * `stripe_count` 4 — one write or read splits into pieces that alternate
//!   OSTs through one client NIC;
//! * `osc.max_pages_per_rpc` 64 — four RPCs per MiB instead of one;
//! * `osc.short_io_bytes` 0 — small transfers take the bulk path;
//! * a seeded [`FaultPlan`] — disk service times scaled, dropped and
//!   recovered mid-run;
//! * read-back of the write-only MACSio and AMReX streams — reads of data
//!   the same client wrote (cache hits), of another client's data (misses
//!   plus readahead), and both under a small cache budget;
//! * readahead against a cache of a few MiB, where a readahead hit can
//!   evict a later chunk of the same read and readahead entries go stale
//!   when the cache takes their chunks by another path.
//!
//! The signatures were recorded before the engine's bulk path was reworked
//! to classify reads a page word at a time; any engine change that keeps
//! the simulation's semantics must reproduce them unchanged.

use pfs::model::engine::Engine;
use pfs::ops::{DirId, FileId, IoOp, Module, RankStream};
use pfs::trace::NullSink;
use pfs::{ClusterSpec, FaultPlan, TuningConfig};
use workloads::WorkloadKind;

const SCALE: f64 = 0.3;
const SEED: u64 = 7;

/// `(case, signature)`.
const GOLDEN: &[(&str, &str)] = &[
    ("IOR_16M stripe_count=4", "40155cf82392ac40 Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 154.886020258, mds_ops: 100, bulk_rpcs: 11200, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 11.052359453000001, disk_seq_ops: 8400, disk_rand_ops: 2800 }"),
    ("IOR_64K stripe_count=4", "401ca97ff321c295 Diagnostics { bytes_written: 2011955200, bytes_read: 2011955200, cache_hit_chunks: 0, cache_miss_chunks: 30700, lock_revocations: 225, dirty_stall_secs: 154.558160685, mds_ops: 100, bulk_rpcs: 54177, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 14.678166073, disk_seq_ops: 3, disk_rand_ops: 54174 }"),
    ("IOR_16M max_pages_per_rpc=64", "40270c572eee8892 Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 261.54486810200024, mds_ops: 100, bulk_rpcs: 44800, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 11.515300665, disk_seq_ops: 44100, disk_rand_ops: 700 }"),
    ("IO500 short_io_bytes=0", "400944b15e64edc9 Diagnostics { bytes_written: 1476329200, bytes_read: 1476329200, cache_hit_chunks: 32002, cache_miss_chunks: 649, lock_revocations: 9448, dirty_stall_secs: 61.30736874900004, mds_ops: 13597, bulk_rpcs: 12028, readahead_bytes: 433578976, statahead_hits: 1654, disk_busy_secs: 4.093883991, disk_seq_ops: 1463, disk_rand_ops: 10565 }"),
    ("MDWorkbench_8K short_io_bytes=0", "401b3a8e77c9dd7c Diagnostics { bytes_written: 737280000, bytes_read: 737280000, cache_hit_chunks: 90000, cache_miss_chunks: 0, lock_revocations: 0, dirty_stall_secs: 0.0, mds_ops: 442250, bulk_rpcs: 90000, readahead_bytes: 0, statahead_hits: 8000, disk_busy_secs: 23.705157025, disk_seq_ops: 0, disk_rand_ops: 90000 }"),
    ("IOR_16M faults", "402682dd2fd79a41 Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 271.03414602399937, mds_ops: 100, bulk_rpcs: 11200, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 11.244275197, disk_seq_ops: 10500, disk_rand_ops: 700 }"),
    ("IO500 faults", "4009350298136540 Diagnostics { bytes_written: 1476329200, bytes_read: 1476329200, cache_hit_chunks: 31807, cache_miss_chunks: 844, lock_revocations: 10431, dirty_stall_secs: 60.11195692999995, mds_ops: 13600, bulk_rpcs: 11105, readahead_bytes: 155127840, statahead_hits: 1651, disk_busy_secs: 4.312141737999999, disk_seq_ops: 1192, disk_rand_ops: 9913 }"),
    ("MACSio_16M read-back", "3ff3720a93e8e6c5 Diagnostics { bytes_written: 3399176192, bytes_read: 3399176192, cache_hit_chunks: 26279, cache_miss_chunks: 25732, lock_revocations: 124, dirty_stall_secs: 21.062898908999983, mds_ops: 200, bulk_rpcs: 5742, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 4.65611821, disk_seq_ops: 5375, disk_rand_ops: 367 }"),
    ("MACSio_16M read-back cached_mb=64", "3ffcd9af34b66b0c Diagnostics { bytes_written: 3399176192, bytes_read: 3399176192, cache_hit_chunks: 34, cache_miss_chunks: 51977, lock_revocations: 124, dirty_stall_secs: 21.062898908999983, mds_ops: 200, bulk_rpcs: 8296, readahead_bytes: 2097152, statahead_hits: 0, disk_busy_secs: 6.24410339, disk_seq_ops: 7827, disk_rand_ops: 469 }"),
    ("AMReX read-back", "3ffc2767dcf7d700 Diagnostics { bytes_written: 1468022784, bytes_read: 1468022784, cache_hit_chunks: 11232, cache_miss_chunks: 11200, lock_revocations: 154, dirty_stall_secs: 32.77811303200001, mds_ops: 604, bulk_rpcs: 2142, readahead_bytes: 10485760, statahead_hits: 0, disk_busy_secs: 2.0945736430000004, disk_seq_ops: 1553, disk_rand_ops: 589 }"),
    ("AMReX read-back stripe_count=4 cached_mb=64", "3fedace3b1d1dae5 Diagnostics { bytes_written: 1468022784, bytes_read: 1468022784, cache_hit_chunks: 30, cache_miss_chunks: 22402, lock_revocations: 323, dirty_stall_secs: 0.319644569, mds_ops: 604, bulk_rpcs: 2834, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 3.1384674859999997, disk_seq_ops: 70, disk_rand_ops: 2764 }"),
    ("readahead churn cached_mb=2", "4014fdba19f55230 Diagnostics { bytes_written: 54525952, bytes_read: 121634816, cache_hit_chunks: 916, cache_miss_chunks: 940, lock_revocations: 3, dirty_stall_secs: 0.011623858, mds_ops: 2, bulk_rpcs: 184, readahead_bytes: 58720256, statahead_hits: 0, disk_busy_secs: 0.168053991, disk_seq_ops: 106, disk_rand_ops: 78 }"),
    ("readahead churn cached_mb=8", "4014f5b3b71e8721 Diagnostics { bytes_written: 54525952, bytes_read: 121634816, cache_hit_chunks: 972, cache_miss_chunks: 884, lock_revocations: 3, dirty_stall_secs: 0.011623858, mds_ops: 2, bulk_rpcs: 181, readahead_bytes: 59768832, statahead_hits: 0, disk_busy_secs: 0.165327086, disk_seq_ops: 105, disk_rand_ops: 76 }"),
    ("readahead churn cached_mb=32", "4014bbf9d4869951 Diagnostics { bytes_written: 54525952, bytes_read: 121634816, cache_hit_chunks: 1376, cache_miss_chunks: 480, lock_revocations: 3, dirty_stall_secs: 0.011623858, mds_ops: 2, bulk_rpcs: 160, readahead_bytes: 67108864, statahead_hits: 0, disk_busy_secs: 0.144183512, disk_seq_ops: 106, disk_rand_ops: 54 }"),
];

/// A config change applied on top of [`TuningConfig::default`].
type Tweak = fn(&mut TuningConfig);

/// Append a read-back phase to `streams`: after a barrier, even ranks read
/// back what they wrote, odd ranks what the rank one client over wrote, each
/// extent in write order, with an `Open`/`Close` around each file's run.
fn with_read_back(mut streams: Vec<RankStream>, ranks_per_client: usize) -> Vec<RankStream> {
    let writes: Vec<Vec<(FileId, u64, u64)>> = streams
        .iter()
        .map(|s| {
            s.ops
                .iter()
                .filter_map(|op| match *op {
                    IoOp::Write { file, offset, len } => Some((file, offset, len)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let n = streams.len();
    for (i, s) in streams.iter_mut().enumerate() {
        let source = if i % 2 == 0 {
            i
        } else {
            (i + ranks_per_client) % n
        };
        s.push(IoOp::Barrier);
        let mut open: Option<FileId> = None;
        for &(file, offset, len) in &writes[source] {
            if open != Some(file) {
                if let Some(f) = open {
                    s.push(IoOp::Close { file: f });
                }
                s.push(IoOp::Open { file });
                open = Some(file);
            }
            s.push(IoOp::Read { file, offset, len });
        }
        if let Some(f) = open {
            s.push(IoOp::Close { file: f });
        }
    }
    streams
}

/// Streams that drive readahead against a small page cache. Rank 10
/// (client 1) writes a 48 MiB file; after it, on client 0, rank 0 reads
/// the file sequentially twice in 1 MiB reads, so readahead runs ahead of
/// it; rank 1 overwrites 256 KiB pieces ahead of rank 0, so the cache takes
/// chunks that readahead already covers; rank 2 reads 512 KiB pieces at
/// pseudo-random offsets, some of them evicted since.
fn readahead_churn() -> Vec<RankStream> {
    const MIB: u64 = 1 << 20;
    let file = FileId(1);
    let mut writer = RankStream::new(10, Module::Posix);
    writer.push(IoOp::Create {
        file,
        dir: DirId(0),
    });
    for i in 0..12 {
        writer.push(IoOp::Write {
            file,
            offset: i * 4 * MIB,
            len: 4 * MIB,
        });
    }
    writer.push(IoOp::Fsync { file });
    writer.push(IoOp::Close { file });
    let wait = IoOp::Compute {
        nanos: 5_000_000_000,
    };
    let mut seq = RankStream::new(0, Module::Posix);
    seq.push(wait);
    seq.push(IoOp::Open { file });
    for pass in 0..2 {
        for i in 0..48 {
            seq.push(IoOp::Read {
                file,
                offset: i * MIB,
                len: MIB,
            });
            if pass == 1 && i % 5 == 0 {
                seq.push(IoOp::Compute { nanos: 300_000 });
            }
        }
    }
    let mut over = RankStream::new(1, Module::Posix);
    over.push(wait);
    for i in 0..16 {
        over.push(IoOp::Compute { nanos: 900_000 });
        over.push(IoOp::Write {
            file,
            offset: i * 3 * MIB + MIB,
            len: MIB / 4,
        });
    }
    let mut random = RankStream::new(2, Module::Posix);
    random.push(wait);
    let mut x: u64 = 12345;
    for _ in 0..40 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        random.push(IoOp::Compute { nanos: 400_000 });
        random.push(IoOp::Read {
            file,
            offset: (x >> 33) % 94 * (MIB / 2),
            len: MIB / 2,
        });
    }
    vec![seq, over, random, writer]
}

fn signature(case: &str) -> String {
    let topo = ClusterSpec::paper_cluster();
    let (label, tweak, plan_seed, read_back): (&str, Tweak, Option<u64>, bool) = match case {
        "IOR_16M stripe_count=4" => ("IOR_16M", |c| c.stripe_count = 4, None, false),
        "IOR_64K stripe_count=4" => ("IOR_64K", |c| c.stripe_count = 4, None, false),
        "IOR_16M max_pages_per_rpc=64" => {
            ("IOR_16M", |c| c.osc_max_pages_per_rpc = 64, None, false)
        }
        "IO500 short_io_bytes=0" => ("IO500", |c| c.osc_short_io_bytes = 0, None, false),
        "MDWorkbench_8K short_io_bytes=0" => {
            ("MDWorkbench_8K", |c| c.osc_short_io_bytes = 0, None, false)
        }
        // Plan seed 18 degrades, drops and recovers OST 0, where the
        // shared IOR file lives.
        "IOR_16M faults" => ("IOR_16M", |_| {}, Some(18), false),
        "IO500 faults" => ("IO500", |_| {}, Some(SEED), false),
        "MACSio_16M read-back" => ("MACSio_16M", |_| {}, None, true),
        "MACSio_16M read-back cached_mb=64" => {
            ("MACSio_16M", |c| c.llite_max_cached_mb = 64, None, true)
        }
        "AMReX read-back" => ("AMReX", |_| {}, None, true),
        "AMReX read-back stripe_count=4 cached_mb=64" => (
            "AMReX",
            |c| {
                c.stripe_count = 4;
                c.llite_max_cached_mb = 64;
            },
            None,
            true,
        ),
        "readahead churn cached_mb=2" => ("churn", |c| c.llite_max_cached_mb = 2, None, false),
        "readahead churn cached_mb=8" => ("churn", |c| c.llite_max_cached_mb = 8, None, false),
        "readahead churn cached_mb=32" => ("churn", |c| c.llite_max_cached_mb = 32, None, false),
        other => panic!("unknown case {other}"),
    };
    let mut streams = match label {
        "churn" => readahead_churn(),
        _ => WorkloadKind::from_label(label)
            .expect("suite label")
            .spec_at(SCALE)
            .generate(&topo, SEED),
    };
    if read_back {
        streams = with_read_back(streams, topo.ranks_per_client as usize);
    }
    let mut cfg = TuningConfig::default();
    tweak(&mut cfg);
    let plan = plan_seed.map(|s| FaultPlan::seeded(topo.ost_count(), s));
    let mut sink = NullSink;
    let (wall, diag) =
        Engine::with_faults(&topo, &cfg, SEED, &mut sink, plan.as_ref()).run(streams);
    format!("{:016x} {diag:?}", wall.as_secs_f64().to_bits())
}

const CASES: &[&str] = &[
    "IOR_16M stripe_count=4",
    "IOR_64K stripe_count=4",
    "IOR_16M max_pages_per_rpc=64",
    "IO500 short_io_bytes=0",
    "MDWorkbench_8K short_io_bytes=0",
    "IOR_16M faults",
    "IO500 faults",
    "MACSio_16M read-back",
    "MACSio_16M read-back cached_mb=64",
    "AMReX read-back",
    "AMReX read-back stripe_count=4 cached_mb=64",
    "readahead churn cached_mb=2",
    "readahead churn cached_mb=8",
    "readahead churn cached_mb=32",
];

#[test]
fn rpc_paths_reproduce_golden_signatures() {
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
