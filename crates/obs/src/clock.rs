//! The workspace's single blessed timing site.
//!
//! Every other crate in the workspace is barred from `Instant::now` /
//! `SystemTime::now` twice over — by the clippy `disallowed_methods`
//! list and by the `check` linter's `obs-clock` rule. All timing flows
//! through a [`Clock`] handle instead: the default monotonic clock reads
//! the OS, while [`ManualClock`] hands tests a deterministic timeline so
//! span and histogram output can be pinned byte-for-byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Nanoseconds on the process-wide monotonic timeline (first call = 0).
///
/// This function (together with [`wall_entropy_ns`]) is the one audited
/// raw-clock site in the workspace.
fn monotonic_now_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    // The audited site: raw `Instant::now` is allowed only here.
    #[allow(clippy::disallowed_methods)]
    let now = std::time::Instant::now();
    let epoch = *EPOCH.get_or_init(|| now);
    now.saturating_duration_since(epoch).as_nanos() as u64
}

/// Wall-clock entropy for fingerprint nonces, as nanoseconds since the
/// Unix epoch (0 if the system clock predates it).
///
/// The sealed-algebra fingerprint in `crates/algebra` mixes this into a
/// per-instance nonce; it is hashed, never ordered, so determinism of
/// certified outputs is unaffected. This is the only sanctioned
/// `SystemTime` read in the workspace.
pub fn wall_entropy_ns() -> u128 {
    // The audited site: raw `SystemTime::now` is allowed only here.
    #[allow(clippy::disallowed_methods)]
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// A cheap, cloneable source of nanosecond timestamps.
///
/// The default handle reads the monotonic OS clock; a handle obtained
/// from [`ManualClock::clock`] reads a shared counter that only moves
/// when the test advances it. Engine reports, bench timing, and span
/// timestamps all go through a `Clock`, so swapping in a manual one
/// makes every timing-dependent output deterministic.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    /// `None` → monotonic OS clock; `Some` → shared manual counter.
    manual: Option<Arc<AtomicU64>>,
}

impl Clock {
    /// The monotonic OS clock (same as `Clock::default()`).
    pub fn monotonic() -> Self {
        Clock { manual: None }
    }

    /// Current time in nanoseconds on this clock's timeline.
    pub fn now_ns(&self) -> u64 {
        match &self.manual {
            Some(t) => t.load(Ordering::SeqCst),
            None => monotonic_now_ns(),
        }
    }

    /// Seconds elapsed since an earlier [`Clock::now_ns`] reading.
    pub fn seconds_since(&self, start_ns: u64) -> f64 {
        self.now_ns().saturating_sub(start_ns) as f64 / 1e9
    }

    /// `true` if this handle reads a [`ManualClock`].
    pub fn is_manual(&self) -> bool {
        self.manual.is_some()
    }

    /// Label for trace headers: `"monotonic"` or `"manual"`.
    pub fn kind(&self) -> &'static str {
        if self.is_manual() {
            "manual"
        } else {
            "monotonic"
        }
    }
}

/// A test-controlled clock: time stands still until advanced.
///
/// Hand [`ManualClock::clock`] handles to the code under test, then step
/// time explicitly; every handle observes the same timeline.
#[derive(Debug, Default)]
pub struct ManualClock {
    time: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// A [`Clock`] handle reading this manual timeline.
    pub fn clock(&self) -> Clock {
        Clock {
            manual: Some(Arc::clone(&self.time)),
        }
    }

    /// Moves time forward by `delta` nanoseconds.
    pub fn advance_ns(&self, delta: u64) {
        self.time.fetch_add(delta, Ordering::SeqCst);
    }

    /// Current manual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.time.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let clock = Clock::monotonic();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        assert!(!clock.is_manual());
        assert_eq!(clock.kind(), "monotonic");
    }

    #[test]
    fn manual_clock_moves_only_when_advanced() {
        let manual = ManualClock::new();
        let clock = manual.clock();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 0);
        manual.advance_ns(250);
        assert_eq!(clock.now_ns(), 250);
        manual.advance_ns(750);
        assert_eq!(clock.now_ns(), 1_000);
        assert_eq!(clock.seconds_since(500), 0.000_000_5);
        assert!(clock.is_manual());
        assert_eq!(clock.kind(), "manual");
    }

    #[test]
    fn manual_handles_share_one_timeline() {
        let manual = ManualClock::new();
        let (a, b) = (manual.clock(), manual.clock());
        manual.advance_ns(7);
        assert_eq!(a.now_ns(), 7);
        assert_eq!(b.now_ns(), 7);
    }

    #[test]
    fn wall_entropy_is_plausible() {
        // 2020-01-01 in ns since the epoch; any sane host is past it.
        assert!(wall_entropy_ns() > 1_577_836_800_000_000_000);
    }
}
