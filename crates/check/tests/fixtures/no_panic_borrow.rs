//! Fixture: panicking `RefCell` borrows in an adversarial-wire module.
//! Expected findings: two `no-panic` (`borrow_mut`, `borrow`).

use std::cell::RefCell;

thread_local! {
    static HITS: RefCell<Vec<u64>> = RefCell::new(Vec::new());
}

pub fn record(x: u64) -> usize {
    HITS.with(|h| h.borrow_mut().push(x));
    HITS.with(|h| h.borrow().len())
}

pub fn safe_variants(x: u64) -> usize {
    // Neither may fire: a failed `try_` borrow is an `Err`, not a panic.
    HITS.with(|h| {
        if let Ok(mut h) = h.try_borrow_mut() {
            h.push(x);
        }
        h.try_borrow().map_or(0, |h| h.len())
    })
}
