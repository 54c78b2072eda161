// virtual path: crates/server/src/demo.rs
// Server code reading wall clocks directly instead of through an
// injected `anyk_obs::Clock`.
use std::time::{Instant, SystemTime};

pub fn stamp() -> u128 {
    Instant::now().elapsed().as_millis()
}

pub fn wall() -> SystemTime {
    SystemTime::now()
}
