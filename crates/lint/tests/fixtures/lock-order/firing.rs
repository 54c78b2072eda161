// virtual path: crates/server/src/demo.rs
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError, RwLock};

pub struct Shared {
    catalog: RwLock<u64>,
    cache: Mutex<HashMap<u64, u64>>,
    cursors: Mutex<HashMap<u64, u64>>,
}

impl Shared {
    // Acquires the plan cache, then the catalog: backwards — the
    // documented order is catalog < cache < cursor table.
    pub fn backwards(&self, catalog: &RwLock<u64>, cache: &Mutex<HashMap<u64, u64>>) -> u64 {
        let c = cache.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = catalog.read().unwrap_or_else(PoisonError::into_inner);
        *epoch + c.len() as u64
    }

    // Re-acquires the cursor table while already holding it.
    pub fn reentrant(&self, cursors: &Mutex<HashMap<u64, u64>>) -> usize {
        let held = cursors.lock().unwrap_or_else(PoisonError::into_inner);
        let again = cursors.lock().unwrap_or_else(PoisonError::into_inner);
        held.len() + again.len()
    }

    // Prepares under the cursor table: the plan cache comes before it.
    pub fn cache_under_cursors(
        &self,
        cursors: &Mutex<HashMap<u64, u64>>,
        cache: &Mutex<HashMap<u64, u64>>,
    ) -> usize {
        let table = cursors.lock().unwrap_or_else(PoisonError::into_inner);
        let plans = cache.lock().unwrap_or_else(PoisonError::into_inner);
        table.len() + plans.len()
    }
}
