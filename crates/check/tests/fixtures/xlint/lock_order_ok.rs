//! Fixture: the conforming twin of `lock_order_bad.rs` — acquisitions
//! follow the declared partial order `state < current`.

use crate::sync::Mutex;

pub struct Pair {
    state: Mutex<u64>,
    current: Mutex<u64>,
}

impl Pair {
    pub fn ordered(&self) -> u64 {
        let s = self.state.lock();
        let c = self.current.lock();
        *s + *c
    }
}
