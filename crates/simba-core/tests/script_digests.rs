//! Every synthesized script, pinned.
//!
//! A batch shares one `Select` between every step that emits the same chart
//! query. Sharing may change what a script costs, never what it says: this
//! test compares each dataset's batch against digests recorded by the build
//! that still built every query of every step afresh. A memo keyed too
//! loosely (a range bound compared by value rather than by bits, a missed
//! ancestor) hands a step another state's query and fails here.
//!
//! The digest covers each session's user index, seed and model, and per
//! step its action description, then per query its visualization id and
//! printed SQL. The cases are the six datasets at 2,000 rows (seed 7),
//! four sessions (one per preset model), at 1 and at 192 interactions, and
//! the benchmark's wire batch.

use simba_core::dashboard::Dashboard;
use simba_core::markov::MarkovModel;
use simba_core::session::batch::{synthesize_scripts, BatchConfig, SessionScript};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_store::mix::Fnv1a;

const ROWS: usize = 2_000;
const SESSIONS: usize = 4;

/// FNV-1a over the batch's text (see the module docs). Every string is
/// length-prefixed, so no two batches share a byte stream.
fn digest(scripts: &[SessionScript]) -> u64 {
    let mut h = Fnv1a::new();
    let mut text = |s: &str| {
        h.write(&(s.len() as u64).to_le_bytes());
        h.write(s.as_bytes());
    };
    for script in scripts {
        text(&script.user.to_string());
        text(&script.seed.to_string());
        text(script.model);
        for step in &script.steps {
            text(&step.action);
            text(&step.queries.len().to_string());
            for q in &step.queries {
                text(&q.vis);
                text(&q.query.to_string());
            }
        }
    }
    h.finish()
}

fn batch(ds: DashboardDataset, rows: usize, sessions: usize, steps: usize) -> Vec<SessionScript> {
    let table = ds.generate_rows(rows, 7);
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let config = BatchConfig {
        base_seed: 7,
        steps_per_session: steps,
        mix: MarkovModel::presets(),
    };
    synthesize_scripts(&dashboard, &config, sessions)
}

/// `(dataset, interactions, digest)`, recorded by the build before a batch
/// shared its queries.
const PINNED: [(&str, usize, u64); 12] = [
    ("circulation_activity", 1, 0x090D_A6D4_0E76_E1C3),
    ("circulation_activity", 192, 0xA51E_0A48_B138_4A24),
    ("supply_chain", 1, 0xDE1C_D810_DAE5_6691),
    ("supply_chain", 192, 0xE355_0012_CC7A_A093),
    ("ubc_energy", 1, 0x66FA_2DEB_00AA_580C),
    ("ubc_energy", 192, 0xC3D8_EC9E_392D_CAA7),
    ("my_ride", 1, 0x9B27_A88F_BE77_107D),
    ("my_ride", 192, 0x7326_55B6_40CC_858D),
    ("it_monitor", 1, 0x5815_C0A1_DF8B_F5B1),
    ("it_monitor", 192, 0xB92C_9129_0643_C6D4),
    ("customer_service", 1, 0xA314_C4A1_4447_93BD),
    ("customer_service", 192, 0x5994_DB41_A953_B926),
];

#[test]
fn scripts_match_the_pinned_digests() {
    let mut got = Vec::new();
    for ds in DashboardDataset::ALL {
        for steps in [1, 192] {
            got.push((
                ds.table_name(),
                steps,
                digest(&batch(ds, ROWS, SESSIONS, steps)),
            ));
        }
    }
    for (name, steps, want) in PINNED {
        let (_, _, d) = got
            .iter()
            .find(|(n, s, _)| *n == name && *s == steps)
            .unwrap_or_else(|| panic!("no case for {name} at {steps}"));
        assert_eq!(*d, want, "{name} at {steps} interactions");
    }
}

/// The benchmark's scripted batch: `customer_service` at 10K rows, seed 7,
/// 12 sessions × 192 interactions.
#[test]
fn the_wire_batch_matches_its_pinned_digest() {
    let scripts = batch(DashboardDataset::CustomerService, 10_000, 12, 192);
    assert_eq!(digest(&scripts), 0x56AF_1BD0_661F_0EDA);
}
