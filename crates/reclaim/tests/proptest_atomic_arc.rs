//! Property-based tests for `AtomicArc`: arbitrary operation sequences
//! against a plain `Option<Arc<T>>` reference model, plus exact drop
//! accounting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use cqs_reclaim::{AtomicArc, Collector};

#[derive(Debug, Clone)]
enum Op {
    Load,
    /// Guard-scoped read; with `true` it also mints an owned `Arc`.
    LoadProtected(bool),
    Store(Option<u64>),
    Swap(Option<u64>),
    Take,
    /// Compare-exchange expecting the current value (should succeed).
    CasCurrent(Option<u64>),
    /// Compare-exchange expecting a stale pointer (should fail unless the
    /// cell is empty and the expectation is null).
    CasStale(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            2 => Just(Op::Load),
            2 => (0u64..2).prop_map(|mint| Op::LoadProtected(mint == 1)),
            2 => prop::option::of(0u64..100).prop_map(Op::Store),
            2 => prop::option::of(0u64..100).prop_map(Op::Swap),
            1 => Just(Op::Take),
            2 => prop::option::of(0u64..100).prop_map(Op::CasCurrent),
            1 => (0u64..100).prop_map(Op::CasStale),
        ],
        0..60,
    )
}

struct Tracked {
    value: u64,
    drops: Arc<AtomicUsize>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn atomic_arc_matches_reference_model(ops in ops()) {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let mut created = 0usize;
        let mut make = |v: u64| {
            created += 1;
            Arc::new(Tracked { value: v, drops: Arc::clone(&drops) })
        };

        {
            let handle = collector.register();
            let cell: AtomicArc<Tracked> = AtomicArc::null();
            let mut model: Option<u64> = None;

            for op in ops {
                let guard = handle.pin();
                match op {
                    Op::Load => {
                        let got = cell.load(&guard).map(|a| a.value);
                        prop_assert_eq!(got, model);
                    }
                    Op::LoadProtected(mint) => {
                        let got = cell.load_protected(&guard);
                        prop_assert_eq!(got.as_ref().map(|p| p.value), model);
                        prop_assert_eq!(
                            got.as_ref().map_or(std::ptr::null(), |p| p.as_ptr()),
                            cell.load_ptr(&guard)
                        );
                        if mint {
                            let owned = got.map(|p| p.to_arc());
                            prop_assert_eq!(owned.map(|a| a.value), model);
                        }
                    }
                    Op::Store(v) => {
                        cell.store(v.map(&mut make), &guard);
                        model = v;
                    }
                    Op::Swap(v) => {
                        let old = cell.swap(v.map(&mut make), &guard);
                        prop_assert_eq!(old.map(|a| a.value), model);
                        model = v;
                    }
                    Op::Take => {
                        let old = cell.take(&guard);
                        prop_assert_eq!(old.map(|a| a.value), model);
                        model = None;
                    }
                    Op::CasCurrent(v) => {
                        let current = cell.load_ptr(&guard);
                        let result = cell.compare_exchange(current, v.map(&mut make), &guard);
                        prop_assert!(result.is_ok(), "CAS on the current pointer must win");
                        model = v;
                    }
                    Op::CasStale(v) => {
                        // A dangling (never-published) expectation.
                        let bogus = 0xdead_beefusize as *const Tracked;
                        let result = cell.compare_exchange(bogus, Some(make(v)), &guard);
                        prop_assert!(result.is_err(), "CAS on a bogus pointer must fail");
                        // The rejected Arc comes back and is dropped here.
                    }
                }
            }
            drop(cell);
        }
        prop_assert!(collector.flush());
        prop_assert_eq!(
            drops.load(Ordering::SeqCst),
            created,
            "leaked or double-dropped references"
        );
    }
}
