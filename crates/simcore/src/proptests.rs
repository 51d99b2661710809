//! Property-based tests for the kernel primitives: the queueing-theory
//! invariants every downstream model depends on.

#![cfg(test)]

use crate::resources::{BandwidthChannel, FifoServer, Grant, MultiServer, Window};
use crate::stats::{Accumulator, Histogram};
use crate::time::{Duration, SimTime};
use crate::EventQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `Duration::from_secs_f64` as it was written before its rounding moved to
/// integer arithmetic.
fn reference_nanos(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        return 0;
    }
    (s * 1e9).round() as u64
}

fn arrivals() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (inter-arrival gap ns, service ns) pairs; gaps accumulate so arrival
    // times are nondecreasing, as the engine guarantees.
    proptest::collection::vec((0u64..5_000_000, 1u64..2_000_000), 1..60)
}

proptest! {
    /// FIFO: service intervals never overlap, never reorder, and each
    /// request starts no earlier than its arrival.
    #[test]
    fn fifo_is_work_conserving_and_ordered(reqs in arrivals()) {
        let mut srv = FifoServer::new();
        let mut t = 0u64;
        let mut last_end = SimTime::ZERO;
        let mut busy_sum = Duration::ZERO;
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let service = Duration::from_nanos(svc);
            let g = srv.schedule(arrival, service);
            prop_assert!(g.start >= arrival);
            prop_assert!(g.start >= last_end, "service overlap");
            prop_assert_eq!((g.end - g.start).as_nanos(), svc);
            last_end = g.end;
            busy_sum += service;
        }
        prop_assert_eq!(srv.busy_time(), busy_sum);
        // Utilisation can never exceed 1 over the horizon that includes all
        // service.
        prop_assert!(srv.utilization(last_end) <= 1.0 + 1e-12);
    }

    /// MultiServer with capacity k: at any instant at most k requests are in
    /// service, and its makespan is never worse than a single FIFO's.
    #[test]
    fn multiserver_respects_capacity(reqs in arrivals(), k in 1usize..6) {
        let mut pool = MultiServer::new(k);
        let mut fifo = FifoServer::new();
        let mut t = 0u64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut pool_makespan = SimTime::ZERO;
        let mut fifo_makespan = SimTime::ZERO;
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let service = Duration::from_nanos(svc);
            let g = pool.schedule(arrival, service);
            prop_assert!(g.start >= arrival);
            intervals.push((g.start.as_nanos(), g.end.as_nanos()));
            pool_makespan = pool_makespan.max(g.end);
            fifo_makespan = fifo_makespan.max(fifo.schedule(arrival, service).end);
        }
        // Concurrency check: for each interval start, count overlapping.
        for &(s, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(overlapping <= k, "{overlapping} > {k} concurrent");
        }
        prop_assert!(pool_makespan <= fifo_makespan);
    }

    /// Window: admissions never exceed capacity concurrently (when completes
    /// are reported faithfully), and admission time is never before arrival.
    #[test]
    fn window_caps_concurrency(reqs in arrivals(), k in 1usize..8) {
        let mut w = Window::new(k);
        let mut t = 0u64;
        let mut inflight: Vec<(u64, u64)> = Vec::new(); // (admit, end)
        for (gap, svc) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let admit = w.admit(arrival);
            prop_assert!(admit >= arrival);
            let end = admit + Duration::from_nanos(svc);
            w.complete(end);
            inflight.push((admit.as_nanos(), end.as_nanos()));
        }
        for &(s, _) in &inflight {
            let concurrent = inflight
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(concurrent <= k, "{concurrent} > {k}");
        }
    }

    /// Bandwidth channel: total busy time equals bytes/bandwidth plus
    /// per-op overhead, independent of arrival pattern.
    #[test]
    fn bandwidth_conserves_service(reqs in arrivals()) {
        let bw = 1e9;
        let overhead_ns = 1000u64;
        let mut ch = BandwidthChannel::new(bw, Duration::from_nanos(overhead_ns));
        let mut t = 0u64;
        let mut expected = 0.0f64;
        for (gap, bytes) in &reqs {
            t += gap;
            ch.schedule(SimTime::from_nanos(t), *bytes);
            expected += *bytes as f64 / bw + overhead_ns as f64 * 1e-9;
        }
        let total: u64 = reqs.iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(ch.bytes_moved(), total);
        prop_assert!(ch.free_at().as_secs_f64() >= expected - 1e-9);
    }

    /// MultiServer replaces its heap top in place; it must grant exactly
    /// what popping the earliest free server and pushing its new free time
    /// does, for any arrival order (ties included).
    #[test]
    fn multiserver_equals_pop_push_reference(
        reqs in proptest::collection::vec((0u64..50, 0u64..20), 1..80),
        k in 1usize..6,
    ) {
        let mut pool = MultiServer::new(k);
        let mut reference: BinaryHeap<Reverse<SimTime>> =
            (0..k).map(|_| Reverse(SimTime::ZERO)).collect();
        for (at, svc) in reqs {
            let arrival = SimTime::from_nanos(at);
            let service = Duration::from_nanos(svc);
            let Reverse(free) = reference.pop().expect("k > 0");
            let start = arrival.max(free);
            let end = start + service;
            reference.push(Reverse(end));
            prop_assert_eq!(pool.schedule(arrival, service), Grant { start, end });
            prop_assert_eq!(pool.earliest_free(), reference.peek().expect("k > 0").0);
        }
    }

    /// The bandwidth channel's remembered service time equals a fresh
    /// `transfer_time` for every request, under repeated and alternating
    /// sizes alike.
    #[test]
    fn bandwidth_memo_equals_fresh_service(
        reqs in proptest::collection::vec(
            (0u64..5_000_000, prop_oneof![Just(4096u64), Just(1 << 20), 0u64..3_000_000]),
            1..60,
        ),
    ) {
        let mut ch = BandwidthChannel::new(1.25e9, Duration::from_micros(20));
        let mut reference = FifoServer::new();
        let mut t = 0u64;
        for (gap, bytes) in reqs {
            t += gap;
            let arrival = SimTime::from_nanos(t);
            let want = reference.schedule(arrival, ch.transfer_time(bytes));
            prop_assert_eq!(ch.schedule(arrival, bytes), want);
        }
    }

    /// `Duration::from_secs_f64` equals libm rounding with `as` saturation
    /// over any bit pattern: NaN, infinities, negatives, subnormals and
    /// values past `u64::MAX` nanoseconds included.
    #[test]
    fn from_secs_f64_equals_round_any_bits(bits in 0u64..u64::MAX) {
        let s = f64::from_bits(bits);
        prop_assert_eq!(Duration::from_secs_f64(s).as_nanos(), reference_nanos(s), "{:e}", s);
    }

    /// The same over the exponents where nanosecond counts cross every
    /// rounding regime: below one half, fractional, the 2^52/2^53 edges,
    /// and saturation at 2^64.
    #[test]
    fn from_secs_f64_equals_round_near_ns(biased in 950u64..1100, mantissa in 0u64..1 << 52) {
        let s = f64::from_bits(biased << 52 | mantissa);
        prop_assert_eq!(Duration::from_secs_f64(s).as_nanos(), reference_nanos(s), "{:e}", s);
    }

    /// And over plain service times in seconds.
    #[test]
    fn from_secs_f64_equals_round_service_times(s in 0.0f64..10.0) {
        prop_assert_eq!(Duration::from_secs_f64(s).as_nanos(), reference_nanos(s));
    }

    /// EventQueue: pops are globally sorted by (time, insertion order).
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            if t == last.0 {
                prop_assert!(i > last.1 || popped == 0, "FIFO tie-break violated");
            } else {
                prop_assert!(t > last.0);
            }
            last = (t, i);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// EventQueue against a model that keeps `(time, seq, id)` triples and
    /// pops the smallest: equal times, times up to `u64::MAX`, follow-ups
    /// pushed while a batch drains (same-instant ones included), and both
    /// the batched and the one-at-a-time pop.
    #[test]
    fn event_queue_matches_sorted_model(
        high in 0u8..3,
        initial in proptest::collection::vec(0u64..48, 1..40),
        follow in proptest::collection::vec((0u8..4, 0u64..48), 0..300),
        batched in 0u8..2,
    ) {
        // Near the top of the range pushes saturate at `u64::MAX`.
        let base = [0, u64::MAX - 4_000, u64::MAX - 40][high as usize];
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<usize>, model: &mut Vec<(u64, u64, usize)>, t: u64| {
            let id = seq as usize;
            q.push(SimTime::from_nanos(t), id);
            model.push((t, seq, id));
            seq += 1;
        };
        for &off in &initial {
            push(&mut q, &mut model, base.saturating_add(off));
        }
        let model_pop = |model: &mut Vec<(u64, u64, usize)>| {
            let k = (0..model.len()).min_by_key(|&k| (model[k].0, model[k].1))?;
            Some(model.remove(k))
        };
        let mut follow = follow.into_iter();
        let mut batch = Vec::new();
        loop {
            prop_assert_eq!(q.len(), model.len());
            let head = model.iter().map(|&(t, s, _)| (t, s)).min();
            prop_assert_eq!(q.peek_time(), head.map(|(t, _)| SimTime::from_nanos(t)));
            let (now, drained) = if batched == 1 {
                let Some(now) = q.pop_run_into(&mut batch) else { break };
                let mut want = Vec::new();
                while model.iter().any(|&(t, _, _)| t == now.as_nanos()) {
                    want.push(model_pop(&mut model).expect("nonempty").2);
                }
                prop_assert_eq!(&batch, &want);
                (now, std::mem::take(&mut batch))
            } else {
                let Some((now, id)) = q.pop() else { break };
                let (t, _, want) = model_pop(&mut model).expect("model has the popped event");
                prop_assert_eq!((now.as_nanos(), id), (t, want));
                (now, vec![id])
            };
            prop_assert!(model.is_empty() || q.peek_time().is_some_and(|h| h >= now));
            for _ in drained {
                if let Some((kind, delta)) = follow.next() {
                    if kind > 0 {
                        push(&mut q, &mut model, now.as_nanos().saturating_add(delta));
                    }
                }
            }
        }
        prop_assert!(model.is_empty());
    }

    /// Accumulator merge is order-insensitive and matches sequential feed.
    #[test]
    fn accumulator_merge_associative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut whole = Accumulator::new();
        for &x in &xs { whole.add(x); }
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &xs[..split] { a.add(x); }
        for &x in &xs[split..] { b.add(x); }
        let mut ab = a.clone(); ab.merge(&b);
        let mut ba = b.clone(); ba.merge(&a);
        prop_assert!((ab.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((ba.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((ab.variance() - whole.variance()).abs() < 1e-3);
        prop_assert_eq!(ab.count(), whole.count());
        prop_assert_eq!(ab.min(), whole.min());
        prop_assert_eq!(ab.max(), whole.max());
    }

    /// Histogram counts and sums are conserved under merge.
    #[test]
    fn histogram_merge_conserves(xs in proptest::collection::vec(0u64..1_000_000_000, 1..100), split in 1usize..99) {
        let split = split.min(xs.len());
        let mut whole = Histogram::new();
        for &x in &xs { whole.add(x); }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in &xs[..split] { a.add(x); }
        for &x in &xs[split..] { b.add(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.sum(), whole.sum());
        prop_assert_eq!(a.modal_bin_floor(), whole.modal_bin_floor());
    }

    /// RNG streams with the same seed agree; derived streams are stable.
    #[test]
    fn rng_reproducibility(seed in 0u64..u64::MAX, label in "[a-z]{1,12}", idx in 0u64..1000) {
        let a = crate::SimRng::new(seed);
        let b = crate::SimRng::new(seed);
        let mut da = a.derive(&label, idx);
        let mut db = b.derive(&label, idx);
        for _ in 0..8 {
            prop_assert_eq!(da.unit().to_bits(), db.unit().to_bits());
        }
    }
}
