//! Per-morsel zone maps: min/max statistics over fixed-size row ranges.
//!
//! A zone map lets comparison predicates skip whole morsels without touching
//! the data: if a morsel's `[min, max]` range cannot satisfy `col > 900`,
//! none of its rows can. Statistics are kept per Int/Float column only —
//! categorical filters go through dictionary-code masks instead — and cover
//! *valid* rows only, so an all-NULL morsel reports no zone (nothing in it
//! can ever match a comparison).

use crate::column::ColumnData;

/// Rows per morsel. This is also the batch size of the vectorized engines;
/// keeping the two aligned means each scan batch maps to exactly one zone.
pub const MORSEL_ROWS: usize = 2048;

/// Number of morsels needed to cover `rows` rows.
pub fn morsel_count(rows: usize) -> usize {
    rows.div_ceil(MORSEL_ROWS)
}

/// Half-open row range of morsel `m` in a table of `rows` rows.
pub fn morsel_bounds(m: usize, rows: usize) -> (usize, usize) {
    let start = m * MORSEL_ROWS;
    (start, (start + MORSEL_ROWS).min(rows))
}

/// Min/max over the valid rows of one morsel of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Zone {
    /// Int column morsel with at least one valid row.
    Int {
        /// Smallest valid value in the morsel.
        min: i64,
        /// Largest valid value in the morsel.
        max: i64,
    },
    /// Float column morsel with at least one valid row (extrema under
    /// `total_cmp`).
    Float {
        /// Smallest valid value in the morsel.
        min: f64,
        /// Largest valid value in the morsel.
        max: f64,
    },
    /// Every row in the morsel is NULL: no comparison can match.
    AllNull,
}

/// The order-preserving image of an `f64` in `i64`: `float_key(a) <
/// float_key(b)` exactly when `a.total_cmp(&b)` is `Less`. Range kernels
/// hold Float bounds as these keys, so an Int and a Float column are
/// filtered and pruned by the same integer interval test. A bijection
/// (its own inverse on the bit pattern), so every `i64` is some float's
/// key and `key ± 1` is the neighbouring float in the total order.
#[inline]
pub fn float_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Zone {
    /// The zone's extrema as ordered keys — Int values as they are, Float
    /// values through [`float_key`] — or `None` when every row is NULL.
    pub fn key_range(self) -> Option<(i64, i64)> {
        match self {
            Zone::Int { min, max } => Some((min, max)),
            Zone::Float { min, max } => Some((float_key(min), float_key(max))),
            Zone::AllNull => None,
        }
    }
}

/// Zones for one column, indexed by morsel.
#[derive(Debug, Clone)]
pub struct ColumnZones {
    zones: Vec<Zone>,
}

impl ColumnZones {
    /// Wrap a per-morsel zone vector (index = morsel number).
    pub fn new(zones: Vec<Zone>) -> ColumnZones {
        ColumnZones { zones }
    }

    /// Zone of morsel `m`.
    pub fn zone(&self, m: usize) -> Zone {
        self.zones[m]
    }

    /// All zones, indexed by morsel.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The column's extrema over every morsel, folded from the zones: the
    /// values [`ColumnData::min_max`] finds, without reading a row.
    /// [`Zone::AllNull`] when the column holds no valid row.
    pub fn bounds(&self) -> Zone {
        self.zones
            .iter()
            .fold(Zone::AllNull, |all, &zone| match (all, zone) {
                (Zone::Int { min, max }, Zone::Int { min: lo, max: hi }) => Zone::Int {
                    min: min.min(lo),
                    max: max.max(hi),
                },
                (Zone::Float { min, max }, Zone::Float { min: lo, max: hi }) => Zone::Float {
                    min: std::cmp::min_by(min, lo, f64::total_cmp),
                    max: std::cmp::max_by(max, hi, f64::total_cmp),
                },
                (all, Zone::AllNull) => all,
                (_, zone) => zone,
            })
    }

    /// Number of morsels covered.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// True when the column spans no morsels (empty table).
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }
}

/// Zone maps for every column of a table. Columns without min/max
/// statistics (Str, Bool) hold `None`.
#[derive(Debug, Clone)]
pub struct ZoneMaps {
    n_morsels: usize,
    columns: Vec<Option<ColumnZones>>,
}

impl ZoneMaps {
    /// Build zone maps over `columns`, each holding `rows` rows.
    pub fn build(columns: &[ColumnData], rows: usize) -> ZoneMaps {
        let n_morsels = morsel_count(rows);
        let columns = columns
            .iter()
            .map(|col| match col {
                ColumnData::Int { data, valid } => Some(ColumnZones {
                    zones: crate::for_width!(data, |lane| int_zones(
                        |i| lane[i] as i64,
                        valid,
                        rows
                    )),
                }),
                ColumnData::Float { data, valid } => Some(ColumnZones {
                    zones: float_zones(data, valid, rows),
                }),
                ColumnData::Bool { .. } | ColumnData::Str { .. } => None,
            })
            .collect();
        ZoneMaps { n_morsels, columns }
    }

    /// Assemble zone maps from pre-computed per-column zones — the eager
    /// path used by chunked generation, where each worker computes the
    /// zones of its own chunk and the assembler concatenates them.
    ///
    /// # Panics
    /// Panics if any `Some` column covers a number of morsels other than
    /// `n_morsels`.
    pub fn from_column_zones(n_morsels: usize, columns: Vec<Option<ColumnZones>>) -> ZoneMaps {
        for col in columns.iter().flatten() {
            assert_eq!(col.len(), n_morsels, "column zone count mismatch");
        }
        ZoneMaps { n_morsels, columns }
    }

    /// Number of morsels per column.
    pub fn n_morsels(&self) -> usize {
        self.n_morsels
    }

    /// Zones of column `idx`, if it carries statistics.
    pub fn column(&self, idx: usize) -> Option<&ColumnZones> {
        self.columns[idx].as_ref()
    }
}

/// Int zones over `rows` rows, reading row `i`'s value as `value(i)` (one
/// instance per stored width).
fn int_zones(value: impl Fn(usize) -> i64, valid: &[bool], rows: usize) -> Vec<Zone> {
    (0..morsel_count(rows))
        .map(|m| {
            let (start, end) = morsel_bounds(m, rows);
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            let mut any = false;
            for i in start..end {
                if !valid.is_empty() && !valid[i] {
                    continue;
                }
                any = true;
                let v = value(i);
                min = min.min(v);
                max = max.max(v);
            }
            if any {
                Zone::Int { min, max }
            } else {
                Zone::AllNull
            }
        })
        .collect()
}

fn float_zones(data: &[f64], valid: &[bool], rows: usize) -> Vec<Zone> {
    // Extrema are taken under `total_cmp` — the same order the comparison
    // kernels use — so the zone stays a sound bound even for -0.0 vs 0.0
    // and NaN payloads (NaN is simply the total-order maximum/minimum).
    (0..morsel_count(rows))
        .map(|m| {
            let (start, end) = morsel_bounds(m, rows);
            let mut min = 0.0f64;
            let mut max = 0.0f64;
            let mut any = false;
            for i in start..end {
                if !valid.is_empty() && !valid[i] {
                    continue;
                }
                let v = data[i];
                if !any {
                    (min, max, any) = (v, v, true);
                } else {
                    if v.total_cmp(&min) == std::cmp::Ordering::Less {
                        min = v;
                    }
                    if v.total_cmp(&max) == std::cmp::Ordering::Greater {
                        max = v;
                    }
                }
            }
            if any {
                Zone::Float { min, max }
            } else {
                Zone::AllNull
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{ColumnBuilder, DataType};

    fn int_col(vals: impl IntoIterator<Item = Option<i64>>) -> ColumnData {
        let vals: Vec<_> = vals.into_iter().collect();
        let mut b = ColumnBuilder::new(DataType::Int, vals.len());
        for v in vals {
            b.push(v.map_or(Value::Null, Value::Int));
        }
        b.finish()
    }

    #[test]
    fn morsel_arithmetic() {
        assert_eq!(morsel_count(0), 0);
        assert_eq!(morsel_count(1), 1);
        assert_eq!(morsel_count(MORSEL_ROWS), 1);
        assert_eq!(morsel_count(MORSEL_ROWS + 1), 2);
        assert_eq!(
            morsel_bounds(1, MORSEL_ROWS + 10),
            (MORSEL_ROWS, MORSEL_ROWS + 10)
        );
    }

    #[test]
    fn int_zone_spans_valid_rows_only() {
        let col = int_col([Some(5), None, Some(-3), Some(9)]);
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 4);
        assert_eq!(maps.n_morsels(), 1);
        let zones = maps.column(0).unwrap();
        assert_eq!(zones.zone(0), Zone::Int { min: -3, max: 9 });
    }

    #[test]
    fn all_null_morsel_has_no_zone() {
        let col = int_col([None, None]);
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 2);
        assert_eq!(maps.column(0).unwrap().zone(0), Zone::AllNull);
    }

    #[test]
    fn second_morsel_gets_own_bounds() {
        let n = MORSEL_ROWS + 3;
        let vals: Vec<Option<i64>> = (0..n as i64).map(Some).collect();
        let col = int_col(vals);
        let maps = ZoneMaps::build(std::slice::from_ref(&col), n);
        assert_eq!(maps.n_morsels(), 2);
        let zones = maps.column(0).unwrap();
        assert_eq!(
            zones.zone(0),
            Zone::Int {
                min: 0,
                max: MORSEL_ROWS as i64 - 1
            }
        );
        assert_eq!(
            zones.zone(1),
            Zone::Int {
                min: MORSEL_ROWS as i64,
                max: n as i64 - 1
            }
        );
    }

    #[test]
    fn float_nan_is_total_order_maximum() {
        let mut b = ColumnBuilder::new(DataType::Float, 3);
        b.push(Value::Float(1.0));
        b.push(Value::Float(f64::NAN));
        b.push(Value::Float(2.0));
        let col = b.finish();
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 3);
        match maps.column(0).unwrap().zone(0) {
            Zone::Float { min, max } => {
                assert_eq!(min, 1.0);
                assert!(max.is_nan(), "NaN sorts above +inf under total_cmp");
            }
            z => panic!("unexpected zone {z:?}"),
        }
    }

    #[test]
    fn float_negative_zero_is_the_minimum() {
        let mut b = ColumnBuilder::new(DataType::Float, 2);
        b.push(Value::Float(0.0));
        b.push(Value::Float(-0.0));
        let col = b.finish();
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 2);
        match maps.column(0).unwrap().zone(0) {
            Zone::Float { min, max } => {
                assert!(min.is_sign_negative() && min == 0.0);
                assert!(max.is_sign_positive() && max == 0.0);
            }
            z => panic!("unexpected zone {z:?}"),
        }
    }

    #[test]
    fn float_key_orders_like_total_cmp() {
        let vs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vs {
            for b in vs {
                assert_eq!(
                    float_key(a).cmp(&float_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(
            float_key(-0.0) + 1,
            float_key(0.0),
            "neighbours in the order"
        );
    }

    #[test]
    fn column_bounds_fold_to_min_max() {
        let n = 2 * MORSEL_ROWS + 2;
        let mut vals: Vec<Option<i64>> = (0..MORSEL_ROWS as i64).map(|v| Some(v - 7)).collect();
        vals.extend(std::iter::repeat_n(None, MORSEL_ROWS));
        vals.extend([Some(-9), Some(3)]);
        let col = int_col(vals);
        let maps = ZoneMaps::build(std::slice::from_ref(&col), n);
        let zones = maps.column(0).unwrap();
        assert_eq!(zones.zone(1), Zone::AllNull);
        let (min, max) = col.min_max().unwrap();
        assert_eq!(
            zones.bounds(),
            Zone::Int {
                min: min.as_i64().unwrap(),
                max: max.as_i64().unwrap()
            }
        );
        assert_eq!(
            (min, max),
            (Value::Int(-9), Value::Int(MORSEL_ROWS as i64 - 8))
        );

        let mut b = ColumnBuilder::new(DataType::Float, 3);
        for v in [0.0, -0.0, f64::NAN] {
            b.push(Value::Float(v));
        }
        let col = b.finish();
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 3);
        match maps.column(0).unwrap().bounds() {
            Zone::Float { min, max } => {
                assert!(min == 0.0 && min.is_sign_negative() && max.is_nan());
            }
            z => panic!("unexpected bounds {z:?}"),
        }

        let nulls = int_col([None, None]);
        let maps = ZoneMaps::build(std::slice::from_ref(&nulls), 2);
        assert_eq!(maps.column(0).unwrap().bounds(), Zone::AllNull);
    }

    #[test]
    fn categorical_columns_carry_no_zones() {
        let mut b = ColumnBuilder::new(DataType::Str, 1);
        b.push(Value::str("A"));
        let col = b.finish();
        let maps = ZoneMaps::build(std::slice::from_ref(&col), 1);
        assert!(maps.column(0).is_none());
    }
}
