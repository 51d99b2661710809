//! Golden signatures of whole engine runs under client page-cache pressure.
//!
//! The default `llite.max_cached_mb` (65536) never fills the cache, so
//! nothing else drives the CLOCK eviction path through the engine. Each case
//! runs a suite workload at small scale under one cache budget — down to the
//! registry minimum (64 MiB per client, well below what each client writes)
//! — and pins the wall time's f64 bits plus every `Diagnostics` counter.
//! The signatures were recorded with the original one-entry-per-chunk cache;
//! any cache layout must reproduce them unchanged.

use pfs::model::engine::Engine;
use pfs::trace::NullSink;
use pfs::{ClusterSpec, TuningConfig};
use workloads::WorkloadKind;

const SCALE: f64 = 0.3;
const SEED: u64 = 7;

/// `(workload, llite.max_cached_mb, signature)`.
const GOLDEN: &[(&str, u32, &str)] = &[
    ("IOR_16M", 65536, "40255e18b8f8486a Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 242.4435758239994, mds_ops: 100, bulk_rpcs: 11200, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 10.672463793, disk_seq_ops: 10500, disk_rand_ops: 700 }"),
    ("IOR_16M", 256, "40255e18b8f8486a Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 242.4435758239994, mds_ops: 100, bulk_rpcs: 11200, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 10.672463793, disk_seq_ops: 10500, disk_rand_ops: 700 }"),
    ("IOR_16M", 64, "40255e18b8f8486a Diagnostics { bytes_written: 5872025600, bytes_read: 5872025600, cache_hit_chunks: 16, cache_miss_chunks: 89584, lock_revocations: 350, dirty_stall_secs: 242.4435758239994, mds_ops: 100, bulk_rpcs: 11200, readahead_bytes: 1048576, statahead_hits: 0, disk_busy_secs: 10.672463793, disk_seq_ops: 10500, disk_rand_ops: 700 }"),
    ("IOR_64K", 65536, "40301e9ba5e353f8 Diagnostics { bytes_written: 2011955200, bytes_read: 2011955200, cache_hit_chunks: 0, cache_miss_chunks: 30700, lock_revocations: 249, dirty_stall_secs: 359.03950585000143, mds_ops: 100, bulk_rpcs: 61162, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 16.117771791, disk_seq_ops: 0, disk_rand_ops: 61162 }"),
    ("IOR_64K", 256, "40301e9ba5e353f8 Diagnostics { bytes_written: 2011955200, bytes_read: 2011955200, cache_hit_chunks: 0, cache_miss_chunks: 30700, lock_revocations: 249, dirty_stall_secs: 359.03950585000143, mds_ops: 100, bulk_rpcs: 61162, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 16.117771791, disk_seq_ops: 0, disk_rand_ops: 61162 }"),
    ("IOR_64K", 64, "40301e9ba5e353f8 Diagnostics { bytes_written: 2011955200, bytes_read: 2011955200, cache_hit_chunks: 0, cache_miss_chunks: 30700, lock_revocations: 249, dirty_stall_secs: 359.03950585000143, mds_ops: 100, bulk_rpcs: 61162, readahead_bytes: 0, statahead_hits: 0, disk_busy_secs: 16.117771791, disk_seq_ops: 0, disk_rand_ops: 61162 }"),
    ("IO500", 65536, "4009463978132e7d Diagnostics { bytes_written: 1476329200, bytes_read: 1476329200, cache_hit_chunks: 32002, cache_miss_chunks: 649, lock_revocations: 9448, dirty_stall_secs: 61.30736874900004, mds_ops: 13596, bulk_rpcs: 12028, readahead_bytes: 433578976, statahead_hits: 1655, disk_busy_secs: 4.093790149999999, disk_seq_ops: 1463, disk_rand_ops: 10565 }"),
    ("IO500", 256, "400bc09a9aa916c3 Diagnostics { bytes_written: 1476329200, bytes_read: 1476329200, cache_hit_chunks: 27877, cache_miss_chunks: 4774, lock_revocations: 10105, dirty_stall_secs: 61.30736874900004, mds_ops: 13593, bulk_rpcs: 13279, readahead_bytes: 948053728, statahead_hits: 1658, disk_busy_secs: 4.91857829, disk_seq_ops: 2121, disk_rand_ops: 11158 }"),
    ("IO500", 64, "4014baac6081dc1f Diagnostics { bytes_written: 1476329200, bytes_read: 1476329200, cache_hit_chunks: 23173, cache_miss_chunks: 9478, lock_revocations: 7054, dirty_stall_secs: 61.30736874900004, mds_ops: 13594, bulk_rpcs: 18531, readahead_bytes: 1132885152, statahead_hits: 1657, disk_busy_secs: 6.375167901, disk_seq_ops: 2428, disk_rand_ops: 16103 }"),
];

fn signature(label: &str, cached_mb: u32) -> String {
    let kind = WorkloadKind::from_label(label).expect("suite label");
    let topo = ClusterSpec::paper_cluster();
    let streams = kind.spec_at(SCALE).generate(&topo, SEED);
    let cfg = TuningConfig {
        llite_max_cached_mb: cached_mb,
        ..TuningConfig::default()
    };
    let mut sink = NullSink;
    let (wall, diag) = Engine::new(&topo, &cfg, SEED, &mut sink).run(streams);
    format!("{:016x} {diag:?}", wall.as_secs_f64().to_bits())
}

#[test]
fn eviction_path_reproduces_golden_signatures() {
    let mut changed = Vec::new();
    for label in ["IOR_16M", "IOR_64K", "IO500"] {
        for cached_mb in [65536, 256, 64] {
            let got = signature(label, cached_mb);
            let want = GOLDEN
                .iter()
                .find(|(l, mb, _)| *l == label && *mb == cached_mb)
                .map(|(_, _, sig)| *sig);
            if want != Some(got.as_str()) {
                changed.push(format!("    ({label:?}, {cached_mb}, {got:?}),"));
            }
        }
    }
    assert!(
        changed.is_empty(),
        "signatures changed:\n{}",
        changed.join("\n")
    );
}
