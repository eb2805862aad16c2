//! Oracles shared by the `simba-driver` integration tests.
#![allow(dead_code)]

pub mod row_major;
