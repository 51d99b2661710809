//! Golden signatures of the Analysis Agent's input: the dataframes a traced
//! run turns into.
//!
//! Each case runs a suite workload at small scale through a [`Collector`],
//! finishes the log and converts it with [`to_tables`]; the signature is the
//! row count of each table plus an FNV-1a hash over the header string and
//! every table's name, column names and cell bits, in order. The cases are
//! the metadata-path runs of `crates/pfs/tests/trace_order_golden.rs` plus
//! IOR_16M, whose ranks share one file and open it more than once.
//!
//! The signatures were recorded before the collector's record index and the
//! shared-file variance reduction were rewritten; any rewrite that keeps the
//! counters' semantics must reproduce them unchanged. The IOR_16M entry was
//! re-recorded once since, when `F_OPEN_START_TIMESTAMP` stopped treating a
//! first open at t = 0 as unset (IOR opens its file at t = 0 and again for
//! the read phase).

use darshan::tables::to_tables;
use darshan::Collector;
use pfs::model::engine::Engine;
use pfs::{ClusterSpec, FaultPlan, TuningConfig};
use workloads::WorkloadKind;

const SEED: u64 = 7;

/// `(case, signature)`.
const GOLDEN: &[(&str, &str)] = &[
    ("MDWorkbench_8K", "POSIX=2000 79842f80cb1556b7"),
    (
        "MDWorkbench_2K statahead_max=0",
        "POSIX=2000 482159d9fa9a1be9",
    ),
    ("IO500", "MPI-IO=750 198f02847357288e"),
    ("MDWorkbench_8K faults", "POSIX=2000 8e3e7ca299f06e50"),
    ("IOR_16M", "MPI-IO=50 c6a5e07fbe24ce66"),
];

/// FNV-1a, 64-bit: a fixed, platform-independent hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
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
        "IOR_16M" => ("IOR_16M", 0.5, None),
        other => panic!("unknown case {other}"),
    };
    let workload = WorkloadKind::from_label(label)
        .expect("suite label")
        .spec_at(scale);
    let streams = workload.generate(&topo, SEED);
    let mut collector = Collector::new(workload.name(), topo.total_ranks());
    Engine::with_faults(&topo, &cfg, SEED, &mut collector, plan.as_ref()).run(streams);
    let (header, tables) = to_tables(&collector.finish());
    let mut h = Fnv::new();
    h.str(&header);
    let mut rows = Vec::new();
    for t in &tables {
        h.str(&t.name);
        for c in &t.columns {
            h.str(c);
        }
        for row in &t.rows {
            for v in row {
                h.bytes(&v.to_bits().to_le_bytes());
            }
        }
        rows.push(format!("{}={}", t.name, t.len()));
    }
    format!("{} {:016x}", rows.join(","), h.0)
}

const CASES: &[&str] = &[
    "MDWorkbench_8K",
    "MDWorkbench_2K statahead_max=0",
    "IO500",
    "MDWorkbench_8K faults",
    "IOR_16M",
];

#[test]
fn traced_runs_reproduce_golden_tables() {
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
