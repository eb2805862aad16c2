//! Oracles shared by the `simba-driver` integration tests.
#![allow(
    dead_code,
    reason = "each test target uses only some of the shared oracles"
)]

pub mod row_major;
