//! Property tests for the trace ring: arbitrary publish schedules
//! across arbitrary thread splits never tear a trace and never lose a
//! claim from the accounting (`claims == published + dropped`), while
//! a concurrent reader drains `recent()` the whole time.

use anyk_obs::{QueryTrace, TraceRing, STAGES};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// A trace whose every field is a deterministic function of its id —
/// the torn-read detector re-derives it and compares.
fn derived(id: u64) -> QueryTrace {
    let mut t = QueryTrace {
        id,
        route: id % 4,
        rank: id % 5,
        cache: id % 2,
        index: id % 3,
        merge_depth: id % 7,
        rows: id.wrapping_mul(3),
        limit: id % 100,
        total_us: id.wrapping_mul(13).wrapping_add(1),
        ..QueryTrace::default()
    };
    for (i, s) in t.stage_us.iter_mut().enumerate() {
        *s = id.wrapping_add(i as u64);
    }
    for (i, s) in t.member_rows.iter_mut().enumerate() {
        *s = id.wrapping_mul(i as u64 + 1);
    }
    t
}

proptest! {
    #[test]
    fn publish_storm_keeps_accounting_and_reads_consistent(
        capacity in 1usize..16,
        writers in 1usize..5,
        per_writer in 1u64..400,
    ) {
        let ring = TraceRing::new(capacity);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        ring.publish(&derived((w as u64) * per_writer + i));
                    }
                });
            }
            let ring_ref = &ring;
            let stop_ref = &stop;
            let reader = scope.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    for t in ring_ref.recent(capacity) {
                        // Any torn snapshot mixes two ids' derived
                        // fields and fails the re-derivation check.
                        assert_eq!(t, derived(t.id), "torn read");
                    }
                }
            });
            while ring.stats().claims < (writers as u64) * per_writer {
                std::hint::spin_loop();
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader");
        });
        let s = ring.stats();
        prop_assert_eq!(s.claims, (writers as u64) * per_writer);
        prop_assert_eq!(s.published + s.dropped, s.claims);
        // Quiesced, every consistent slot re-derives cleanly and the
        // window is bounded by both capacity and publishes.
        let drained = ring.recent(capacity);
        prop_assert!(drained.len() as u64 <= s.published);
        prop_assert!(drained.len() <= capacity);
        for t in drained {
            prop_assert_eq!(t, derived(t.id));
        }
        // stage serialization stays within the fixed word budget
        prop_assert_eq!(STAGES, 7);
    }
}
