//! Client page cache: an LRU-approximating cache over fixed-size chunks with
//! a byte budget.
//!
//! Models `llite.max_cached_mb`. Data is tracked at [`CHUNK_BYTES`]
//! granularity — fine enough that an 8 KiB file is one chunk; a 128 MiB IOR
//! block is 2048 chunks. Per-chunk bookkeeping at that granularity is what
//! dominates a bulk-I/O run, so the state is stored in ranges instead:
//!
//! * residency lives in **bitset pages** keyed by `(file, chunk / 64)`, each
//!   holding a `resident` and a `referenced` word — one hash lookup covers
//!   64 chunks, and a contiguous insert sets whole words at once;
//! * the second-chance (clock) queue holds **runs** `(file, start, len)` —
//!   a contiguous insert appends one run or extends the tail run, and
//!   eviction pops one chunk at a time from the front run;
//! * a read classifies its chunks with [`PageCache::probe_range`], one
//!   page word per 64 chunks: the hits are a popcount of `resident & mask`,
//!   their referenced bits are set with one OR, and the misses come out as
//!   maximal runs ready to be issued as RPCs.
//!
//! The clock's logical key sequence is exactly the one a per-chunk queue
//! would hold, stale duplicates left by [`PageCache::invalidate_file`]
//! included, so eviction order — and with it every hit/miss pattern and
//! simulated timing — is unchanged by the range layout. Every operation
//! stays amortised O(1) per chunk even under heavy cache pressure.

use crate::ops::FileId;
use simcore::hash::FxBuildHasher;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Cache tracking granularity (64 KiB).
pub const CHUNK_BYTES: u64 = 64 * 1024;

/// Chunks per bitset page: one bit of each page word per chunk.
const PAGE_CHUNKS: u64 = 64;

/// Chunk index within a file for a byte offset.
pub fn chunk_of(offset: u64) -> u64 {
    offset / CHUNK_BYTES
}

/// Chunk range covering `[offset, offset+len)`; empty input maps to an empty
/// range.
pub fn chunks_covering(offset: u64, len: u64) -> Range<u64> {
    if len == 0 {
        return 0..0;
    }
    chunk_of(offset)..(chunk_of(offset + len - 1) + 1)
}

/// Page index and in-page bit of `chunk`.
fn split(chunk: u64) -> (u64, u64) {
    (chunk / PAGE_CHUNKS, 1 << (chunk % PAGE_CHUNKS))
}

/// Word with bits `lo..hi` set (`lo < hi <= 64`).
fn bit_range(lo: u64, hi: u64) -> u64 {
    (u64::MAX >> (PAGE_CHUNKS - (hi - lo))) << lo
}

/// Residency of 64 consecutive chunks of one file. A page is in the map only
/// while at least one of its chunks is resident; `referenced` bits are only
/// ever set on resident chunks.
#[derive(Debug, Clone, Copy, Default)]
struct Page {
    resident: u64,
    referenced: u64,
}

impl Page {
    /// Resident chunks.
    fn chunks(&self) -> u64 {
        u64::from(self.resident.count_ones())
    }
}

/// `len` consecutive chunks of `file`, in clock order. A `u32` length keeps
/// a run as small as the per-chunk key it replaces.
#[derive(Debug, Clone, Copy)]
struct Run {
    file: FileId,
    len: u32,
    start: u64,
}

/// Second-chance page cache with a byte budget.
#[derive(Debug)]
pub struct PageCache {
    budget_bytes: u64,
    used_bytes: u64,
    // Point lookups only (hit, insert, evict); the two whole-map walks —
    // the resync count and the sparse-file `retain` — are order-free, and
    // the clock rebuild sorts its keys.
    pages: HashMap<(FileId, u64), Page, FxBuildHasher>,
    // Per-file index: the inclusive page span a file has ever populated
    // since it was last invalidated, so `invalidate_file` visits the file's
    // own pages instead of the whole cache. Point lookups only.
    spans: HashMap<FileId, (u64, u64), FxBuildHasher>,
    clock: VecDeque<Run>,
}

impl PageCache {
    /// Create a cache with the given budget in bytes.
    pub fn new(budget_bytes: u64) -> Self {
        PageCache {
            budget_bytes,
            used_bytes: 0,
            pages: HashMap::default(),
            spans: HashMap::default(),
            clock: VecDeque::new(),
        }
    }

    /// Whether `chunk` of `file` is resident; sets its referenced bit.
    pub fn probe(&mut self, file: FileId, chunk: u64) -> bool {
        let (page, bit) = split(chunk);
        match self.pages.get_mut(&(file, page)) {
            Some(p) if p.resident & bit != 0 => {
                p.referenced |= bit;
                true
            }
            _ => false,
        }
    }

    /// [`PageCache::probe`] every chunk of `chunks`, a page word at a time:
    /// sets the referenced bit of each resident chunk, appends the maximal
    /// runs of missed chunks to `miss_runs` as `(first chunk, chunk count)`
    /// in ascending order, and returns the number of hits. Equal to calling
    /// `probe` on each chunk in ascending order — probes never evict, so
    /// nothing a probe does can change what a later one sees.
    pub fn probe_range(
        &mut self,
        file: FileId,
        chunks: Range<u64>,
        miss_runs: &mut Vec<(u64, u64)>,
    ) -> u64 {
        let mut hits = 0u64;
        // The open miss run `(start, end)`, carried across page boundaries.
        let mut run: Option<(u64, u64)> = None;
        let mut chunk = chunks.start;
        while chunk < chunks.end {
            let page = chunk / PAGE_CHUNKS;
            let base = page * PAGE_CHUNKS;
            let hi = (chunks.end - base).min(PAGE_CHUNKS);
            let mask = bit_range(chunk - base, hi);
            let resident = match self.pages.get_mut(&(file, page)) {
                Some(p) => {
                    let hit = p.resident & mask;
                    p.referenced |= hit;
                    hit
                }
                None => 0,
            };
            hits += u64::from(resident.count_ones());
            let mut miss = mask & !resident;
            while miss != 0 {
                let lo = u64::from(miss.trailing_zeros());
                let len = u64::from((miss >> lo).trailing_ones());
                let start = base + lo;
                run = match run {
                    Some((s, e)) if e == start => Some((s, start + len)),
                    Some((s, e)) => {
                        miss_runs.push((s, e - s));
                        Some((start, start + len))
                    }
                    None => Some((start, start + len)),
                };
                miss &= !bit_range(lo, lo + len);
            }
            chunk = base + hi;
        }
        if let Some((s, e)) = run {
            miss_runs.push((s, e - s));
        }
        hits
    }

    /// Whether `chunk` is resident, without touching recency.
    pub fn contains(&self, file: FileId, chunk: u64) -> bool {
        let (page, bit) = split(chunk);
        self.pages
            .get(&(file, page))
            .is_some_and(|p| p.resident & bit != 0)
    }

    /// Insert a chunk, evicting cold chunks if over budget. A resident chunk
    /// is only marked referenced.
    pub fn insert(&mut self, file: FileId, chunk: u64) {
        let (page, bit) = split(chunk);
        let p = page_entry(&mut self.pages, &mut self.spans, file, page);
        if p.resident & bit != 0 {
            p.referenced |= bit;
            return;
        }
        p.resident |= bit;
        self.push_clock(file, chunk, 1);
        self.used_bytes += CHUNK_BYTES;
        self.evict_to_budget();
    }

    /// Insert every chunk of `chunks`: exactly equal to calling
    /// [`PageCache::insert`] on each in ascending order. A page whose fresh
    /// chunks all fit in the budget is updated a word at a time, since no
    /// eviction can fire inside it; otherwise its chunks go one by one so
    /// inserts and evictions interleave as the per-chunk calls would.
    pub fn insert_range(&mut self, file: FileId, chunks: Range<u64>) {
        let mut chunk = chunks.start;
        while chunk < chunks.end {
            let page = chunk / PAGE_CHUNKS;
            let base = page * PAGE_CHUNKS;
            let hi = (chunks.end - base).min(PAGE_CHUNKS);
            let mask = bit_range(chunk - base, hi);
            let p = page_entry(&mut self.pages, &mut self.spans, file, page);
            let fresh = mask & !p.resident;
            let fresh_bytes = u64::from(fresh.count_ones()) * CHUNK_BYTES;
            if self.used_bytes + fresh_bytes <= self.budget_bytes {
                p.referenced |= mask & p.resident;
                p.resident |= fresh;
                self.used_bytes += fresh_bytes;
                let mut rest = fresh;
                while rest != 0 {
                    let lo = u64::from(rest.trailing_zeros());
                    let len = (rest >> lo).trailing_ones();
                    self.push_clock(file, base + lo, len);
                    rest &= !bit_range(lo, lo + u64::from(len));
                }
            } else {
                for c in chunk..base + hi {
                    self.insert(file, c);
                }
            }
            chunk = base + hi;
        }
    }

    /// Drop all chunks of `file` (unlink / remount hygiene). Clock entries
    /// are cleaned lazily during eviction.
    pub fn invalidate_file(&mut self, file: FileId) {
        let Some((lo, hi)) = self.spans.remove(&file) else {
            return;
        };
        let mut removed = 0u64;
        if hi - lo < self.pages.len() as u64 {
            for page in lo..=hi {
                if let Some(p) = self.pages.remove(&(file, page)) {
                    removed += p.chunks();
                }
            }
        } else {
            // A span wider than the whole map (huge sparse offsets): one
            // pass over the map is cheaper than walking the span.
            // detlint::allow(D002): removal by key predicate plus a sum — the
            // surviving set and the count are independent of visitation order
            self.pages.retain(|&(f, _), p| {
                if f == file {
                    removed += p.chunks();
                }
                f != file
            });
        }
        self.used_bytes -= removed * CHUNK_BYTES;
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Append `len` chunks from `start` to the clock, extending the tail run
    /// when they continue it.
    fn push_clock(&mut self, file: FileId, start: u64, len: u32) {
        if let Some(tail) = self.clock.back_mut() {
            if tail.file == file && tail.start + u64::from(tail.len) == start {
                if let Some(sum) = tail.len.checked_add(len) {
                    tail.len = sum;
                    return;
                }
            }
        }
        self.clock.push_back(Run { file, len, start });
    }

    /// Take the next chunk key off the front of the clock.
    fn pop_clock(&mut self) -> Option<(FileId, u64)> {
        let front = self.clock.front_mut()?;
        let key = (front.file, front.start);
        front.start += 1;
        front.len -= 1;
        if front.len == 0 {
            self.clock.pop_front();
        }
        Some(key)
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.budget_bytes {
            let Some((file, chunk)) = self.pop_clock() else {
                self.resync_clock();
                if self.pages.is_empty() {
                    break;
                }
                continue;
            };
            let (page, bit) = split(chunk);
            let Some(p) = self.pages.get_mut(&(file, page)) else {
                // Stale clock entry from invalidate_file: skip.
                continue;
            };
            if p.resident & bit == 0 {
                continue;
            }
            if p.referenced & bit != 0 {
                // Second chance: clear the bit and recycle.
                p.referenced &= !bit;
                self.push_clock(file, chunk, 1);
            } else {
                p.resident &= !bit;
                if p.resident == 0 {
                    self.pages.remove(&(file, page));
                }
                self.used_bytes -= CHUNK_BYTES;
            }
        }
    }

    /// Clock exhausted while over budget: recount the resident bytes and
    /// rebuild the clock from every resident chunk.
    fn resync_clock(&mut self) {
        // detlint::allow(D002): a sum is independent of visitation order
        let resident: u64 = self.pages.values().map(Page::chunks).sum();
        self.used_bytes = resident * CHUNK_BYTES;
        // Rebuild in sorted chunk order: hash order here would make future
        // eviction — and therefore hit/miss patterns and simulated timings —
        // depend on the process's hash seed.
        let mut keys: Vec<(FileId, u64)> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        for (file, page) in keys {
            let mut rest = self.pages[&(file, page)].resident;
            while rest != 0 {
                let lo = u64::from(rest.trailing_zeros());
                rest &= rest - 1;
                self.push_clock(file, page * PAGE_CHUNKS + lo, 1);
            }
        }
    }
}

/// The page of `file` at index `page`, created empty (and recorded in the
/// file's span) on first touch.
fn page_entry<'a>(
    pages: &'a mut HashMap<(FileId, u64), Page, FxBuildHasher>,
    spans: &mut HashMap<FileId, (u64, u64), FxBuildHasher>,
    file: FileId,
    page: u64,
) -> &'a mut Page {
    pages.entry((file, page)).or_insert_with(|| {
        let span = spans.entry(file).or_insert((page, page));
        *span = (span.0.min(page), span.1.max(page));
        Page::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-chunk cache the range layout replaced: one hash entry and one
    /// clock slot per chunk. Kept as the reference model the differential
    /// tests hold [`PageCache`] to.
    #[derive(Debug)]
    struct ChunkCache {
        budget_bytes: u64,
        used_bytes: u64,
        // chunk -> referenced bit
        entries: HashMap<(FileId, u64), bool, FxBuildHasher>,
        clock: VecDeque<(FileId, u64)>,
    }

    impl ChunkCache {
        fn new(budget_bytes: u64) -> Self {
            ChunkCache {
                budget_bytes,
                used_bytes: 0,
                entries: HashMap::default(),
                clock: VecDeque::new(),
            }
        }

        fn probe(&mut self, file: FileId, chunk: u64) -> bool {
            match self.entries.get_mut(&(file, chunk)) {
                Some(referenced) => {
                    *referenced = true;
                    true
                }
                None => false,
            }
        }

        fn contains(&self, file: FileId, chunk: u64) -> bool {
            self.entries.contains_key(&(file, chunk))
        }

        fn insert(&mut self, file: FileId, chunk: u64) {
            let key = (file, chunk);
            match self.entries.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() = true;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(false);
                    self.clock.push_back(key);
                    self.used_bytes += CHUNK_BYTES;
                    self.evict_to_budget();
                }
            }
        }

        fn invalidate_file(&mut self, file: FileId) {
            let before = self.entries.len();
            // detlint::allow(D002): removal by key predicate — the surviving
            // set is independent of visitation order
            self.entries.retain(|(f, _), _| *f != file);
            let removed = before - self.entries.len();
            self.used_bytes = self.used_bytes.saturating_sub(removed as u64 * CHUNK_BYTES);
        }

        fn evict_to_budget(&mut self) {
            while self.used_bytes > self.budget_bytes {
                match self.clock.pop_front() {
                    Some(key) => match self.entries.get_mut(&key) {
                        Some(referenced) if *referenced => {
                            *referenced = false;
                            self.clock.push_back(key);
                        }
                        Some(_) => {
                            self.entries.remove(&key);
                            self.used_bytes -= CHUNK_BYTES;
                        }
                        None => {}
                    },
                    None => {
                        self.used_bytes = self.entries.len() as u64 * CHUNK_BYTES;
                        if self.clock.is_empty() && !self.entries.is_empty() {
                            let mut keys: Vec<(FileId, u64)> =
                                self.entries.keys().copied().collect();
                            keys.sort_unstable();
                            self.clock.extend(keys);
                        }
                        if self.entries.is_empty() {
                            break;
                        }
                    }
                }
            }
        }

        /// Every resident chunk with its referenced bit, sorted.
        fn state(&self) -> Vec<((FileId, u64), bool)> {
            let mut v: Vec<_> = self.entries.iter().map(|(k, r)| (*k, *r)).collect();
            v.sort_unstable();
            v
        }
    }

    impl PageCache {
        /// Every resident chunk with its referenced bit, sorted.
        fn state(&self) -> Vec<((FileId, u64), bool)> {
            let mut sorted: Vec<_> = self.pages.iter().map(|(k, p)| (*k, *p)).collect();
            sorted.sort_unstable_by_key(|(k, _)| *k);
            let mut v = Vec::new();
            for ((file, page), p) in sorted {
                assert_ne!(p.resident, 0, "empty page kept in the map");
                assert_eq!(
                    p.referenced & !p.resident,
                    0,
                    "referenced bit off a resident chunk"
                );
                for bit in 0..PAGE_CHUNKS {
                    if p.resident >> bit & 1 == 1 {
                        v.push((
                            (file, page * PAGE_CHUNKS + bit),
                            p.referenced >> bit & 1 == 1,
                        ));
                    }
                }
            }
            v
        }

        /// The clock expanded to its logical per-chunk key sequence.
        fn clock_keys(&self) -> Vec<(FileId, u64)> {
            self.clock
                .iter()
                .flat_map(|r| (r.start..r.start + u64::from(r.len)).map(move |c| (r.file, c)))
                .collect()
        }
    }

    /// One step of a differential trace.
    #[derive(Debug, Clone)]
    enum Op {
        InsertRange(FileId, Range<u64>),
        Insert(FileId, u64),
        Probe(FileId, u64),
        ProbeRange(FileId, Range<u64>),
        Contains(FileId, u64),
        Invalidate(FileId),
        /// Forget the clock. Every resident chunk keeps a clock key and
        /// each insert overshoots the budget by one chunk, so the clock
        /// never runs dry on its own; dropping it and then lowering the
        /// budget is what drives the resync branch.
        DropClock,
        /// Set the budget, in chunks; the next fresh insert evicts down to it.
        Budget(u64),
    }

    /// Apply `op` to both caches and assert they agree afterwards.
    fn step(new: &mut PageCache, old: &mut ChunkCache, op: &Op) {
        match op {
            Op::InsertRange(f, r) => {
                new.insert_range(*f, r.clone());
                for c in r.clone() {
                    old.insert(*f, c);
                }
            }
            Op::Insert(f, c) => {
                new.insert(*f, *c);
                old.insert(*f, *c);
            }
            Op::Probe(f, c) => assert_eq!(new.probe(*f, *c), old.probe(*f, *c), "{op:?}"),
            Op::ProbeRange(f, r) => {
                let mut runs = vec![(7, 7)]; // pre-existing contents survive
                let hits = new.probe_range(*f, r.clone(), &mut runs);
                let mut old_hits = 0;
                let mut old_runs = vec![(7, 7)];
                for c in r.clone() {
                    if old.probe(*f, c) {
                        old_hits += 1;
                    } else {
                        let fresh = old_runs.len() > 1;
                        match old_runs.last_mut() {
                            Some((s, l)) if fresh && *s + *l == c => *l += 1,
                            _ => old_runs.push((c, 1)),
                        }
                    }
                }
                assert_eq!((hits, runs), (old_hits, old_runs), "{op:?}");
            }
            Op::Contains(f, c) => assert_eq!(new.contains(*f, *c), old.contains(*f, *c), "{op:?}"),
            Op::Invalidate(f) => {
                new.invalidate_file(*f);
                old.invalidate_file(*f);
            }
            Op::DropClock => {
                new.clock.clear();
                old.clock.clear();
            }
            Op::Budget(chunks) => {
                new.budget_bytes = chunks * CHUNK_BYTES;
                old.budget_bytes = chunks * CHUNK_BYTES;
            }
        }
        assert_eq!(new.used_bytes(), old.used_bytes, "after {op:?}");
        assert_eq!(new.state(), old.state(), "after {op:?}");
        assert_eq!(
            new.clock_keys(),
            Vec::from(old.clock.clone()),
            "after {op:?}"
        );
    }

    fn run_both(budget_chunks: u64, ops: &[Op]) -> PageCache {
        let mut new = PageCache::new(budget_chunks * CHUNK_BYTES);
        let mut old = ChunkCache::new(budget_chunks * CHUNK_BYTES);
        for op in ops {
            step(&mut new, &mut old, op);
        }
        new
    }

    /// A chunk index: mostly near zero so pages collide and runs touch,
    /// sometimes past a page boundary, sometimes huge and sparse.
    fn arb_chunk() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..200,
            0u64..200,
            0u64..200,
            (1u64 << 40)..(1u64 << 40) + 130
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let file = (1u32..4).prop_map(FileId);
        (0u8..15, file, arb_chunk(), 0u64..140).prop_map(|(kind, f, c, len)| match kind {
            0..=3 => Op::InsertRange(f, c..c + len),
            4 | 5 => Op::Insert(f, c),
            6 | 7 => Op::Probe(f, c),
            8 | 9 => Op::ProbeRange(f, c..c + len),
            10 => Op::Contains(f, c),
            11 | 12 => Op::Invalidate(f),
            13 => Op::DropClock,
            _ => Op::Budget(len % 9),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn range_cache_equals_chunk_cache(
            budget in 0u64..9,
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            run_both(budget, &ops);
        }
    }

    #[test]
    fn probe_range_joins_miss_runs_across_pages() {
        let f = FileId(1);
        let ops = [
            Op::InsertRange(f, 10..20),
            Op::InsertRange(f, 70..72),
            Op::InsertRange(f, 128..192),
            // Misses 0..10, 20..70 (across the page edge at 64) and 72..128;
            // the fully resident third page is all hits.
            Op::ProbeRange(f, 0..192),
            Op::ProbeRange(f, 5..5),
            Op::ProbeRange(FileId(2), 60..70),
        ];
        run_both(1000, &ops);
        let mut c = PageCache::new(1 << 30);
        c.insert_range(f, 10..20);
        let mut runs = Vec::new();
        assert_eq!(c.probe_range(f, 0..130, &mut runs), 10);
        assert_eq!(runs, vec![(0, 10), (20, 110)]);
    }

    #[test]
    fn invalidate_then_reinsert_keeps_stale_duplicates() {
        let f = FileId(1);
        let ops = [
            Op::InsertRange(f, 0..3),
            Op::Probe(f, 1),
            Op::Invalidate(f),
            // The clock still holds 0..3; re-inserting 1 queues a second key
            // for it, and eviction must treat the stale one as live.
            Op::Insert(f, 1),
            Op::InsertRange(FileId(2), 0..2),
            Op::InsertRange(f, 2..6),
            Op::Probe(f, 1),
            Op::InsertRange(FileId(2), 5..9),
        ];
        let cache = run_both(3, &ops);
        assert_eq!(cache.used_bytes(), 3 * CHUNK_BYTES);
    }

    #[test]
    fn exhausted_clock_resyncs_in_sorted_order() {
        let ops = [
            Op::InsertRange(FileId(2), 62..67),
            Op::InsertRange(FileId(1), 3..5),
            Op::Probe(FileId(2), 64),
            Op::DropClock,
            Op::Budget(4),
            // The fresh chunk is evicted and the cache is still over budget
            // with an empty clock: the rebuild must queue every resident
            // chunk in (file, chunk) order, and eviction resumes from it.
            Op::Insert(FileId(3), 0),
            Op::InsertRange(FileId(3), 1..4),
        ];
        let cache = run_both(7, &ops);
        assert_eq!(cache.used_bytes(), 4 * CHUNK_BYTES);
        assert!(cache.contains(FileId(2), 64), "referenced chunk survives");
    }

    #[test]
    fn fast_and_per_chunk_paths_agree_across_pages() {
        // One range spanning three pages, into a budget that fits the first
        // page's fresh chunks but not the rest, so both paths run.
        let f = FileId(1);
        let ops = [
            Op::InsertRange(f, 10..20),
            Op::InsertRange(f, 0..150),
            Op::Probe(f, 149),
        ];
        run_both(8, &ops);
        run_both(100, &ops);
        run_both(1000, &ops);
    }

    #[test]
    fn sparse_span_falls_back_to_retain() {
        let f = FileId(1);
        let ops = [
            Op::Insert(f, 0),
            Op::Insert(f, 1 << 40),
            Op::Insert(FileId(2), 0),
            Op::Invalidate(f),
            Op::Contains(f, 0),
            Op::Contains(FileId(2), 0),
        ];
        let cache = run_both(8, &ops);
        assert_eq!(cache.used_bytes(), CHUNK_BYTES);
    }

    #[test]
    fn chunk_mapping() {
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(CHUNK_BYTES - 1), 0);
        assert_eq!(chunk_of(CHUNK_BYTES), 1);
        assert_eq!(chunks_covering(0, 1), 0..1);
        assert_eq!(chunks_covering(0, CHUNK_BYTES), 0..1);
        assert_eq!(chunks_covering(0, CHUNK_BYTES + 1), 0..2);
        assert_eq!(chunks_covering(CHUNK_BYTES, CHUNK_BYTES), 1..2);
        assert_eq!(chunks_covering(10, 0), 0..0);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        let f = FileId(1);
        assert!(!c.probe(f, 0));
        c.insert(f, 0);
        assert!(c.probe(f, 0));
    }

    #[test]
    fn second_chance_protects_referenced() {
        let mut c = PageCache::new(2 * CHUNK_BYTES);
        let f = FileId(1);
        c.insert(f, 0);
        c.insert(f, 1);
        // Touch 0 so 1 becomes the victim.
        assert!(c.probe(f, 0));
        c.insert(f, 2); // evicts 1
        assert!(c.contains(f, 0));
        assert!(!c.contains(f, 1));
        assert!(c.contains(f, 2));
        assert_eq!(c.used_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        let f = FileId(1);
        c.insert(f, 0);
        c.insert(f, 0);
        c.insert_range(f, 0..2);
        assert_eq!(c.used_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn invalidate_file_frees_bytes() {
        let mut c = PageCache::new(10 * CHUNK_BYTES);
        c.insert(FileId(1), 0);
        c.insert(FileId(1), 1);
        c.insert(FileId(2), 0);
        c.invalidate_file(FileId(1));
        assert_eq!(c.used_bytes(), CHUNK_BYTES);
        assert!(!c.contains(FileId(1), 0));
        assert!(c.contains(FileId(2), 0));
    }

    #[test]
    fn eviction_skips_stale_clock_entries() {
        let mut c = PageCache::new(2 * CHUNK_BYTES);
        c.insert(FileId(1), 0);
        c.insert(FileId(1), 1);
        c.invalidate_file(FileId(1));
        // Clock still holds stale keys; inserting past budget must not panic
        // and must keep accounting consistent.
        c.insert(FileId(2), 0);
        c.insert(FileId(2), 1);
        c.insert(FileId(2), 2);
        assert_eq!(c.used_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let mut c = PageCache::new(0);
        c.insert(FileId(1), 0);
        c.insert_range(FileId(1), 0..100);
        assert!(!c.contains(FileId(1), 0));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.pages.is_empty());
    }

    #[test]
    fn heavy_pressure_stays_bounded() {
        // Sanity check for the amortised O(1) claim: a million inserts into a
        // tiny cache must finish quickly and keep size at the budget.
        let mut c = PageCache::new(16 * CHUNK_BYTES);
        for i in 0..1_000_000u64 {
            c.insert(FileId((i % 7) as u32), i);
        }
        assert_eq!(c.used_bytes(), 16 * CHUNK_BYTES);
    }

    #[test]
    fn large_range_is_one_clock_run() {
        let mut c = PageCache::new(1 << 30);
        c.insert_range(FileId(1), 0..256);
        c.insert_range(FileId(1), 256..512);
        assert_eq!(c.clock.len(), 1);
        assert_eq!(c.pages.len(), 8);
        assert_eq!(c.used_bytes(), 512 * CHUNK_BYTES);
    }
}
