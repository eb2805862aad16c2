//! The six dashboard datasets (§6.1, Figure 6 of the paper).
//!
//! Each module reconstructs one dashboard's denormalized dataset with the
//! paper's quantitative (Q) / categorical (C) column counts:
//!
//! | Dataset | Dashboard type | Q | C |
//! |---|---|---|---|
//! | Circulation Activity | strategic decision making | 2 | 2 |
//! | Supply Chain | strategic decision making | 5 | 18 |
//! | UBC Energy Map | strategic decision making | 22 | 4 |
//! | MyRide | quantified self | 10 | 3 |
//! | IT Monitor | operational decision making | 3 | 5 |
//! | Customer Service | operational decision making | 10 | 6 |

pub mod circulation;
pub mod customer_service;
pub mod it_monitor;
pub mod my_ride;
pub mod supply_chain;
pub mod ubc_energy;

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use rand_chacha::ChaCha8Rng;
use simba_store::{Schema, Table, TableBuilder};

/// Identifier for one of the six built-in dashboard datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DashboardDataset {
    /// Circulation Activity by Library (strategic; 2Q, 2C).
    CirculationActivity,
    /// Supply Chain / "Superstore" (strategic; 5Q, 18C).
    SupplyChain,
    /// UBC Energy Map (strategic; 22Q, 4C).
    UbcEnergy,
    /// MyRide cycling telemetry (quantified self; 10Q, 3C).
    MyRide,
    /// IT Monitor system telemetry (operational; 3Q, 5C).
    ItMonitor,
    /// Customer Service call center — the paper's running example
    /// (operational; 10Q, 6C).
    CustomerService,
}

impl DashboardDataset {
    /// All six datasets, in the paper's presentation order (Figure 6).
    pub const ALL: [DashboardDataset; 6] = [
        DashboardDataset::CirculationActivity,
        DashboardDataset::SupplyChain,
        DashboardDataset::UbcEnergy,
        DashboardDataset::MyRide,
        DashboardDataset::ItMonitor,
        DashboardDataset::CustomerService,
    ];

    /// SQL table name.
    pub fn table_name(self) -> &'static str {
        match self {
            DashboardDataset::CirculationActivity => "circulation_activity",
            DashboardDataset::SupplyChain => "supply_chain",
            DashboardDataset::UbcEnergy => "ubc_energy",
            DashboardDataset::MyRide => "my_ride",
            DashboardDataset::ItMonitor => "it_monitor",
            DashboardDataset::CustomerService => "customer_service",
        }
    }

    /// Human-readable dashboard title.
    pub fn title(self) -> &'static str {
        match self {
            DashboardDataset::CirculationActivity => "Circulation Activity by Library",
            DashboardDataset::SupplyChain => "Supply Chain",
            DashboardDataset::UbcEnergy => "UBC Energy Map",
            DashboardDataset::MyRide => "MyRide",
            DashboardDataset::ItMonitor => "IT Monitor",
            DashboardDataset::CustomerService => "Customer Service",
        }
    }

    /// Parse a table name.
    pub fn from_table_name(name: &str) -> Option<DashboardDataset> {
        Self::ALL
            .into_iter()
            .find(|d| d.table_name().eq_ignore_ascii_case(name))
    }

    /// Schema of the dataset.
    pub fn schema(self) -> Schema {
        match self {
            DashboardDataset::CirculationActivity => circulation::schema(),
            DashboardDataset::SupplyChain => supply_chain::schema(),
            DashboardDataset::UbcEnergy => ubc_energy::schema(),
            DashboardDataset::MyRide => my_ride::schema(),
            DashboardDataset::ItMonitor => it_monitor::schema(),
            DashboardDataset::CustomerService => customer_service::schema(),
        }
    }

    /// Generate `rows` rows deterministically from `seed`, chunk-parallel
    /// across all available cores.
    ///
    /// The output is a pure function of `(self, rows, seed)` — see
    /// [`generate_rows_with_threads`](Self::generate_rows_with_threads).
    pub fn generate_rows(self, rows: usize, seed: u64) -> Table {
        self.generate_rows_with_threads(rows, seed, 0)
    }

    /// [`generate_rows`](Self::generate_rows) at an explicit generation
    /// thread count (`0` = one worker per available core).
    ///
    /// The thread count only affects wall-clock time: the same
    /// `(dataset, rows, seed)` triple yields a byte-identical [`Table`] at
    /// any thread count, because every [`CHUNK_ROWS`]-row chunk draws from
    /// an independent RNG derived as
    /// [`chunk_seed`](crate::chunk::chunk_seed)`(seed ^ salt, chunk_index)`
    /// and chunks are merged in index order.
    pub fn generate_rows_with_threads(self, rows: usize, seed: u64, threads: usize) -> Table {
        generate_chunked(
            self.schema(),
            rows,
            seed,
            self.chunk_salt(),
            threads,
            CHUNK_ROWS,
            |rng, ctx, b| self.fill_chunk(rng, ctx, b),
        )
    }

    /// The dataset's seed salt: folded into the master seed so the six
    /// datasets draw disjoint RNG streams from one master seed (`--seed`).
    pub fn chunk_salt(self) -> u64 {
        match self {
            DashboardDataset::CirculationActivity => circulation::SALT,
            DashboardDataset::SupplyChain => supply_chain::SALT,
            DashboardDataset::UbcEnergy => ubc_energy::SALT,
            DashboardDataset::MyRide => my_ride::SALT,
            DashboardDataset::ItMonitor => it_monitor::SALT,
            DashboardDataset::CustomerService => customer_service::SALT,
        }
    }

    /// Fill one generation chunk of this dataset (the [`crate::chunk`]
    /// contract: push exactly `ctx.len` rows derived only from `rng` and
    /// `ctx`).
    pub fn fill_chunk(self, rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
        match self {
            DashboardDataset::CirculationActivity => circulation::fill_chunk(rng, ctx, b),
            DashboardDataset::SupplyChain => supply_chain::fill_chunk(rng, ctx, b),
            DashboardDataset::UbcEnergy => ubc_energy::fill_chunk(rng, ctx, b),
            DashboardDataset::MyRide => my_ride::fill_chunk(rng, ctx, b),
            DashboardDataset::ItMonitor => it_monitor::fill_chunk(rng, ctx, b),
            DashboardDataset::CustomerService => customer_service::fill_chunk(rng, ctx, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::ColumnRole;

    #[test]
    fn role_counts_match_figure_6() {
        // (dataset, Q, C) from Figure 6 of the paper.
        let expected = [
            (DashboardDataset::CirculationActivity, 2, 2),
            (DashboardDataset::SupplyChain, 5, 18),
            (DashboardDataset::UbcEnergy, 22, 4),
            (DashboardDataset::MyRide, 10, 3),
            (DashboardDataset::ItMonitor, 3, 5),
            (DashboardDataset::CustomerService, 10, 6),
        ];
        for (ds, q, c) in expected {
            let schema = ds.schema();
            assert_eq!(
                schema.role_count(ColumnRole::Quantitative),
                q,
                "{} quantitative count",
                ds.title()
            );
            assert_eq!(
                schema.role_count(ColumnRole::Categorical),
                c,
                "{} categorical count",
                ds.title()
            );
            assert!(
                schema.role_count(ColumnRole::Temporal) >= 1,
                "{} temporal",
                ds.title()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in DashboardDataset::ALL {
            let a = ds.generate_rows(500, 7);
            let b = ds.generate_rows(500, 7);
            assert_eq!(a.row_count(), 500);
            for col in 0..a.schema().width() {
                for row in (0..500).step_by(97) {
                    assert_eq!(a.value(row, col), b.value(row, col), "{}", ds.title());
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DashboardDataset::CustomerService.generate_rows(200, 1);
        let b = DashboardDataset::CustomerService.generate_rows(200, 2);
        let mut differs = false;
        for col in 0..a.schema().width() {
            for row in 0..200 {
                if a.value(row, col) != b.value(row, col) {
                    differs = true;
                }
            }
        }
        assert!(differs);
    }

    #[test]
    fn table_names_round_trip() {
        for ds in DashboardDataset::ALL {
            assert_eq!(DashboardDataset::from_table_name(ds.table_name()), Some(ds));
        }
        assert_eq!(DashboardDataset::from_table_name("nope"), None);
    }

    #[test]
    fn schemas_match_generated_tables() {
        for ds in DashboardDataset::ALL {
            let t = ds.generate_rows(50, 3);
            assert_eq!(t.schema(), &ds.schema(), "{}", ds.title());
            assert_eq!(t.name(), ds.table_name());
        }
    }
}
