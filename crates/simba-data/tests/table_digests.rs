//! Every dataset's bytes, pinned.
//!
//! A generator may be rewritten for speed only if the table it produces is
//! unchanged, byte for byte. [`Table::bitwise_eq`] compares two tables of
//! one build; this test compares against constants recorded by an earlier
//! build, so a rewrite that moves one RNG draw, one float rounding, one
//! dictionary entry or one column width fails here.
//!
//! The digest covers, per column, its kind, its stored width, every value
//! (floats by bit pattern, Int values and dictionary codes widened), the
//! dictionary strings in order, and the validity. The cases are the six
//! datasets at 1, `CHUNK_ROWS − 1` and `CHUNK_ROWS + 1` rows (one partial
//! chunk, one nearly full chunk, a full chunk plus a one-row chunk), seeds
//! 7 and 42, each generated at one and at two threads: both must give the
//! pinned digest.

use simba_data::chunk::CHUNK_ROWS;
use simba_data::DashboardDataset;
use simba_store::mix::Fnv1a;
use simba_store::{ColumnData, Table};

/// FNV-1a over the table's physical layout (see the module docs).
fn digest(table: &Table) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&(table.row_count() as u64).to_le_bytes());
    for c in 0..table.schema().width() {
        let valid = match table.column(c) {
            ColumnData::Int { data, valid } => {
                h.write(&[b'I', data.width() as u8]);
                for v in data.iter() {
                    h.write(&v.to_le_bytes());
                }
                valid
            }
            ColumnData::Float { data, valid } => {
                h.write(&[b'F', 8]);
                for v in data {
                    h.write(&v.to_bits().to_le_bytes());
                }
                valid
            }
            ColumnData::Bool { data, valid } => {
                h.write(&[b'B', 1]);
                h.write(&data.iter().map(|&b| u8::from(b)).collect::<Vec<_>>());
                valid
            }
            ColumnData::Str { dict, codes, valid } => {
                h.write(&[b'S', codes.width() as u8]);
                h.write(&(dict.len() as u64).to_le_bytes());
                for s in dict {
                    h.write(&(s.len() as u64).to_le_bytes());
                    h.write(s.as_bytes());
                }
                for code in codes.iter() {
                    h.write(&code.to_le_bytes());
                }
                valid
            }
        };
        h.write(&(valid.len() as u64).to_le_bytes());
        h.write(&valid.iter().map(|&b| u8::from(b)).collect::<Vec<_>>());
    }
    h.finish()
}

/// `(table, rows, seed, digest)`, recorded by the build before the
/// generators pushed typed values straight into their columns.
const PINNED: [(&str, usize, u64, u64); 36] = [
    ("circulation_activity", 1, 7, 0xFEE5_A8C9_8BE6_C8FC),
    ("circulation_activity", 1, 42, 0x59B6_9BF6_E978_2EAD),
    (
        "circulation_activity",
        CHUNK_ROWS - 1,
        7,
        0x7849_E750_6D94_14E1,
    ),
    (
        "circulation_activity",
        CHUNK_ROWS - 1,
        42,
        0xAC48_6043_32EF_94A1,
    ),
    (
        "circulation_activity",
        CHUNK_ROWS + 1,
        7,
        0xB87A_E2BC_E420_B8FF,
    ),
    (
        "circulation_activity",
        CHUNK_ROWS + 1,
        42,
        0x959D_2211_6AC0_BC92,
    ),
    ("supply_chain", 1, 7, 0x5B76_F9F5_130A_CFB2),
    ("supply_chain", 1, 42, 0x630F_C755_92B8_1404),
    ("supply_chain", CHUNK_ROWS - 1, 7, 0xF8F1_512A_C460_0972),
    ("supply_chain", CHUNK_ROWS - 1, 42, 0xC643_43B8_D5DB_D84F),
    ("supply_chain", CHUNK_ROWS + 1, 7, 0xAF54_CFF3_35BA_32E2),
    ("supply_chain", CHUNK_ROWS + 1, 42, 0xD041_0B9F_328B_EF60),
    ("ubc_energy", 1, 7, 0x38A7_87DA_9070_D9C6),
    ("ubc_energy", 1, 42, 0x8764_9B77_55F5_9B6C),
    ("ubc_energy", CHUNK_ROWS - 1, 7, 0xC48E_D9EB_C990_AF00),
    ("ubc_energy", CHUNK_ROWS - 1, 42, 0x4ED8_F472_8255_AF5B),
    ("ubc_energy", CHUNK_ROWS + 1, 7, 0x4FF1_86DC_045B_33FD),
    ("ubc_energy", CHUNK_ROWS + 1, 42, 0xDFF2_B5DE_9D6E_42C0),
    ("my_ride", 1, 7, 0x3D1E_C76A_8788_F784),
    ("my_ride", 1, 42, 0xE227_E129_B8D0_A527),
    ("my_ride", CHUNK_ROWS - 1, 7, 0x39A3_60C8_CA86_AB14),
    ("my_ride", CHUNK_ROWS - 1, 42, 0x3C8F_47D9_D34F_8857),
    ("my_ride", CHUNK_ROWS + 1, 7, 0x9E91_6249_B309_7C6A),
    ("my_ride", CHUNK_ROWS + 1, 42, 0x24AD_2637_ABFF_A0B7),
    ("it_monitor", 1, 7, 0xF048_EE18_40B7_7139),
    ("it_monitor", 1, 42, 0x8562_307C_0B6E_8B6F),
    ("it_monitor", CHUNK_ROWS - 1, 7, 0xC12A_34EF_AA35_B6EA),
    ("it_monitor", CHUNK_ROWS - 1, 42, 0x08F6_8C84_9816_3BDD),
    ("it_monitor", CHUNK_ROWS + 1, 7, 0x43C0_162B_D58B_FCEA),
    ("it_monitor", CHUNK_ROWS + 1, 42, 0x13CC_BC0F_D825_3892),
    ("customer_service", 1, 7, 0xAE39_7DD8_F39C_E874),
    ("customer_service", 1, 42, 0xF129_97F9_9F49_AF02),
    ("customer_service", CHUNK_ROWS - 1, 7, 0x5BF4_CD5A_9033_885E),
    (
        "customer_service",
        CHUNK_ROWS - 1,
        42,
        0x99A6_EDF0_C890_E9C6,
    ),
    ("customer_service", CHUNK_ROWS + 1, 7, 0xDED5_4C14_1F85_4674),
    (
        "customer_service",
        CHUNK_ROWS + 1,
        42,
        0xE135_8396_ECC3_71E4,
    ),
];

#[test]
fn every_dataset_generates_its_pinned_bytes_at_one_and_two_threads() {
    let mut wrong = Vec::new();
    for (name, rows, seed, pinned) in PINNED {
        let dataset = DashboardDataset::from_table_name(name).expect("a dataset name");
        for threads in [1, 2] {
            let got = digest(&dataset.generate_rows_with_threads(rows, seed, threads));
            if got != pinned {
                wrong.push(format!(
                    "{name} rows={rows} seed={seed} threads={threads}: {got:#018X}, pinned {pinned:#018X}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The digest sees a value and a dictionary's order move.
#[test]
fn the_digest_sees_a_value_and_the_dictionary_order() {
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};
    let build = |labels: [&str; 2], ints: [i64; 2]| {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("s"),
                ColumnDef::quantitative_int("i"),
            ],
        );
        let mut b = TableBuilder::new(schema, 2);
        for (s, i) in labels.into_iter().zip(ints) {
            b.push_row(vec![Value::str(s), Value::Int(i)]);
        }
        digest(&b.finish())
    };
    let base = build(["a", "b"], [1, 2]);
    assert_eq!(base, build(["a", "b"], [1, 2]));
    assert_ne!(base, build(["b", "a"], [1, 2]), "dictionary order");
    assert_ne!(base, build(["a", "b"], [1, 3]), "a value");
}
