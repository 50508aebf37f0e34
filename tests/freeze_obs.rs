//! The algebra freeze pass reports what it did as obs counters, once per
//! enumeration: the classes it found, the operations it applied, and
//! whether it overran a budget. A freeze served from the process-wide
//! cache enumerates nothing and adds nothing.
//!
//! One test in its own binary: trace sessions are process-global, so no
//! other test may freeze while this one records.

use lanecert_suite::algebra::{props, Algebra, FreezeOptions, FrozenAlgebra};
use lanecert_suite::obs::{names, TraceConfig, TraceSession};

/// The freeze counters recorded while `freeze` runs:
/// `[states, operations, overruns]`.
fn freeze_counters(freeze: impl FnOnce()) -> [u64; 3] {
    let session = TraceSession::begin(TraceConfig::new());
    freeze();
    let trace = session.end();
    [
        names::FREEZE_STATES,
        names::FREEZE_OPS,
        names::FREEZE_OVERRUNS,
    ]
    .map(|name| {
        trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    })
}

#[test]
fn freeze_counts_states_operations_and_overruns_once_per_enumeration() {
    let opts = FreezeOptions::for_interface_arity(4);
    let freeze = || {
        let frozen = FrozenAlgebra::freeze(Algebra::shared(props::Connected), &opts);
        assert!(frozen.is_total());
    };
    // 72 classes; per class one `add_vertex` below the cap, two
    // `add_edge`s, a `glue`, a `forget` and the adjacent swaps, plus a
    // `union` per fitting pair of orbit representatives.
    assert_eq!(freeze_counters(freeze), [72, 675, 0]);
    assert_eq!(
        freeze_counters(freeze),
        [0, 0, 0],
        "a cache hit must not enumerate"
    );

    let tiny = FreezeOptions {
        state_budget: 20,
        ..FreezeOptions::for_interface_arity(6)
    };
    let [states, ops, overruns] = freeze_counters(|| {
        let frozen = FrozenAlgebra::freeze(Algebra::shared(props::Connected), &tiny);
        assert!(!frozen.is_total());
    });
    assert_eq!((states, overruns), (21, 1));
    assert!(ops > 0);
}
