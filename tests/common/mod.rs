//! Shared helpers for the integration-test suite: the instance
//! generators ([`gen`]), the brute-force ranked-join oracle
//! ([`oracle`]) and the log-log fit of a count's exponent ([`fit`]). Every test binary compiles its own copy and uses a
//! subset, hence the blanket `dead_code` allow.
#![allow(dead_code)]

pub mod fit;
pub mod gen;
pub mod oracle;
