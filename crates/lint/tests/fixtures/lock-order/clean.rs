// virtual path: crates/server/src/demo.rs
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError, RwLock};

// Documented order: acquire the catalog before the plan cache.
pub fn in_order(catalog: &RwLock<u64>, cache: &Mutex<HashMap<u64, u64>>) -> u64 {
    let epoch = catalog.read().unwrap_or_else(PoisonError::into_inner);
    let c = cache.lock().unwrap_or_else(PoisonError::into_inner);
    *epoch + c.len() as u64
}

// Sequential (non-nested) acquisitions are fine: the first guard's
// block closes before the second acquisition.
pub fn sequential(cache: &Mutex<HashMap<u64, u64>>, catalog: &RwLock<u64>) -> u64 {
    let n = {
        let c = cache.lock().unwrap_or_else(PoisonError::into_inner);
        c.len() as u64
    };
    let epoch = catalog.read().unwrap_or_else(PoisonError::into_inner);
    n + *epoch
}

// A `let` binding a *derived* value (not the guard) does not pin the
// lock: the guard temporary dies at the statement's end.
pub fn temporary_guard(
    cursors: &Mutex<HashMap<u64, u64>>,
    cache: &Mutex<HashMap<u64, u64>>,
) -> usize {
    let n = cursors.lock().unwrap_or_else(PoisonError::into_inner).len();
    let m = cache.lock().unwrap_or_else(PoisonError::into_inner).len();
    n + m
}

// The cursor table is the leaf: taken last, under the plan cache.
pub fn cursors_last(cache: &Mutex<HashMap<u64, u64>>, cursors: &Mutex<HashMap<u64, u64>>) -> usize {
    let plans = cache.lock().unwrap_or_else(PoisonError::into_inner);
    let table = cursors.lock().unwrap_or_else(PoisonError::into_inner);
    plans.len() + table.len()
}

// Socket-style `.read(&mut buf)` has arguments — never mistaken for a
// RwLock read.
pub fn io_read(stream: &mut impl std::io::Read) -> std::io::Result<usize> {
    let mut buf = [0u8; 16];
    let catalog_guard = ();
    let _ = catalog_guard;
    stream.read(&mut buf)
}
