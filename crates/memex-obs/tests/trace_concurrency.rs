//! Flight-recorder concurrency: many threads completing traces while
//! readers drain the ring and reconfiguration swaps it out from under
//! them. Runs under the nightly TSan matrix — the interesting assertion
//! there is "no data race", but the structural invariants are checked
//! here too: every collected trace is a complete tree, and the recorder
//! never yields a torn or duplicated entry.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use memex_obs::trace::{annotate, span};
use memex_obs::{MetricsRegistry, TraceConfig, Tracer};

fn tracer(capacity: usize) -> Tracer {
    Tracer::new(TraceConfig {
        enabled: true,
        recorder_capacity: capacity,
        slow_threshold_ns: 0, // everything is "slow": exercises both sinks
        slow_capacity: 32,
        seed: 0xC0FFEE,
    })
}

#[test]
fn concurrent_completion_and_collection_yield_only_complete_trees() {
    const WRITERS: usize = 8;
    const TRACES_PER_WRITER: usize = 200;

    let t = tracer(64);
    let registry = MetricsRegistry::new();
    t.attach_registry(&registry);
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let t = t.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen = 0usize;
                // A reader may first be scheduled after the writers are
                // done: the pass that starts after `stop` is observed
                // still runs, over the full ring.
                loop {
                    let last = stop.load(Ordering::Relaxed);
                    for trace in t.collect(false, 64) {
                        assert!(trace.is_complete(), "torn trace escaped: {trace:?}");
                        assert!(trace.trace_id != 0);
                        seen += 1;
                    }
                    for trace in t.collect(true, 16) {
                        assert!(trace.is_complete(), "torn slow entry: {trace:?}");
                    }
                    if last {
                        break;
                    }
                }
                seen
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let t = t.clone();
            std::thread::spawn(move || {
                for i in 0..TRACES_PER_WRITER {
                    let guard = t.start_trace("net.req", None);
                    annotate("writer", w);
                    {
                        let _child = span("servlet");
                        annotate("i", i);
                        let _grandchild = span("store.kv.get");
                    }
                    guard.finish();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    // The readers race each other for the same ring: one of them seeing
    // nothing is a legal schedule, both seeing nothing is a bug.
    let seen: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    assert!(seen > 0, "readers saw nothing");

    // Every completion was counted; the bounded ring holds the newest
    // (distinct, complete) traces up to capacity.
    let total = (WRITERS * TRACES_PER_WRITER) as u64;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("trace.started"), total);
    assert_eq!(snap.counter("trace.completed"), total);
    let retained = t.collect(false, usize::MAX);
    assert_eq!(retained.len(), 64.min(t.recorded()));
    let ids: HashSet<u64> = retained.iter().map(|t| t.trace_id).collect();
    assert_eq!(ids.len(), retained.len(), "recorder duplicated a trace");
    assert!(retained.iter().all(|t| t.is_complete()));
}

#[test]
fn reconfiguration_races_with_writers_without_losing_structure() {
    const WRITERS: usize = 4;
    let t = tracer(16);
    let stop = Arc::new(AtomicBool::new(false));
    // Every writer finishes one trace before reconfiguration starts, so
    // the loop below runs against writers that are already live.
    let started = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let t = t.clone();
            let stop = stop.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                let trace_one = || {
                    let guard = t.start_trace("net.req", None);
                    let _child = span("servlet");
                    drop(_child);
                    guard.finish();
                };
                trace_one();
                started.wait();
                let mut produced = 1usize;
                while !stop.load(Ordering::Relaxed) {
                    trace_one();
                    produced += 1;
                }
                produced
            })
        })
        .collect();
    started.wait();

    // Flip capacity and enablement under live traffic.
    for i in 0..50 {
        t.configure(TraceConfig {
            enabled: true,
            recorder_capacity: if i % 2 == 0 { 4 } else { 32 },
            slow_threshold_ns: u64::MAX,
            slow_capacity: 8,
            seed: i,
        });
        t.set_enabled(i % 3 != 0);
        for trace in t.collect(false, 32) {
            assert!(trace.is_complete(), "resize tore a trace: {trace:?}");
        }
    }
    t.set_enabled(true);
    stop.store(true, Ordering::Relaxed);
    let produced: usize = writers.into_iter().map(|w| w.join().expect("writer")).sum();
    assert!(produced > 0);
    assert!(t.collect(false, 32).iter().all(|t| t.is_complete()));
}
