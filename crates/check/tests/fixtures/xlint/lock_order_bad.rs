//! Fixture: acquires `state` (rank 0) while holding `current` (rank 1)
//! — an inversion of the declared partial order.

use crate::sync::Mutex;

pub struct Pair {
    state: Mutex<u64>,
    current: Mutex<u64>,
}

impl Pair {
    pub fn swapped(&self) -> u64 {
        let c = self.current.lock();
        let s = self.state.lock();
        *c + *s
    }
}
