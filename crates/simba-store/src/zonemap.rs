//! Column bounds: one min/max per Int/Float column, and the morsel grid.
//!
//! The filter compiler asks the bounds one question per query: can this
//! filter match at all? A comparison whose interval misses its column's
//! `[min, max]` — `calls > 900` on a column whose maximum is 7 — is settled
//! when the kernels compile, and the scan reads no row. Bounds are kept per
//! Int/Float column only — categorical filters go through dictionary-code
//! masks instead — and cover *valid* rows only, so an all-NULL column
//! reports no zone (nothing in it can ever match a comparison).
//!
//! There are no per-morsel statistics. Generated data is unclustered, so a
//! range that can match at all overlaps every morsel, and a min/max per
//! morsel would skip almost nothing the column bounds do not.

use crate::column::ColumnData;

/// Rows per morsel: the batch size of the vectorized engines and the grid
/// uploaded table blocks sit on.
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

/// Min/max over the valid rows of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Zone {
    /// Int column with at least one valid row.
    Int {
        /// Smallest valid value.
        min: i64,
        /// Largest valid value.
        max: i64,
    },
    /// Float column with at least one valid row (extrema under
    /// `total_cmp`).
    Float {
        /// Smallest valid value.
        min: f64,
        /// Largest valid value.
        max: f64,
    },
    /// Every row is NULL: no comparison can match.
    AllNull,
}

/// The order-preserving image of an `f64` in `i64`: `float_key(a) <
/// float_key(b)` exactly when `a.total_cmp(&b)` is `Less`. Range kernels
/// hold Float bounds as these keys, so an Int and a Float column are
/// filtered and bounded by the same integer interval test. A bijection
/// (its own inverse on the bit pattern), so every `i64` is some float's
/// key and `key ± 1` is the neighbouring float in the total order.
#[inline]
pub fn float_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The float whose [`float_key`] is `key`.
fn key_float(key: i64) -> f64 {
    f64::from_bits(float_key(f64::from_bits(key as u64)) as u64)
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

    /// The zone's extrema as `f64`s — the range a slider or a random filter
    /// draws from — or `None` when every row is NULL.
    pub fn f64_range(self) -> Option<(f64, f64)> {
        match self {
            Zone::Int { min, max } => Some((min as f64, max as f64)),
            Zone::Float { min, max } => Some((min, max)),
            Zone::AllNull => None,
        }
    }
}

/// The bounds of every column of a table. Columns without min/max
/// statistics (Str, Bool) hold `None`.
#[derive(Debug, Clone)]
pub struct ZoneMaps {
    columns: Vec<Option<Zone>>,
}

impl ZoneMaps {
    /// Bounds of `columns`: one typed fold per Int/Float column, over its
    /// values at their stored width.
    pub fn build(columns: &[ColumnData]) -> ZoneMaps {
        let columns = columns
            .iter()
            .map(|col| match col {
                ColumnData::Int { data, valid } => Some(
                    match crate::for_width!(data, |lane| key_bounds(
                        lane.iter().map(|&v| v as i64),
                        valid
                    )) {
                        Some((min, max)) => Zone::Int { min, max },
                        None => Zone::AllNull,
                    },
                ),
                // Folding the keys is folding under `total_cmp`: -0.0 sits
                // below 0.0 and NaN at the ends of the order.
                ColumnData::Float { data, valid } => Some(
                    match key_bounds(data.iter().map(|&v| float_key(v)), valid) {
                        Some((min, max)) => Zone::Float {
                            min: key_float(min),
                            max: key_float(max),
                        },
                        None => Zone::AllNull,
                    },
                ),
                ColumnData::Bool { .. } | ColumnData::Str { .. } => None,
            })
            .collect();
        ZoneMaps { columns }
    }

    /// Bounds of column `idx`, if it carries statistics.
    pub fn column(&self, idx: usize) -> Option<Zone> {
        self.columns[idx]
    }
}

/// Smallest and largest of the keys whose row is valid (`valid` empty =
/// every row is), or `None` when no row is.
fn key_bounds(keys: impl Iterator<Item = i64>, valid: &[bool]) -> Option<(i64, i64)> {
    let fold = |(min, max): (i64, i64), key: i64| (min.min(key), max.max(key));
    let (min, max) = if valid.is_empty() {
        keys.fold((i64::MAX, i64::MIN), fold)
    } else {
        keys.zip(valid)
            .filter(|&(_, &ok)| ok)
            .map(|(key, _)| key)
            .fold((i64::MAX, i64::MIN), fold)
    };
    (min <= max).then_some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{ColumnBuilder, DataType};

    fn col(data_type: DataType, vals: impl IntoIterator<Item = Value>) -> ColumnData {
        let vals: Vec<_> = vals.into_iter().collect();
        let mut b = ColumnBuilder::new(data_type, vals.len());
        for v in vals {
            b.push(v);
        }
        b.finish()
    }

    fn int_col(vals: impl IntoIterator<Item = Option<i64>>) -> ColumnData {
        col(
            DataType::Int,
            vals.into_iter().map(|v| v.map_or(Value::Null, Value::Int)),
        )
    }

    fn bounds(col: &ColumnData) -> Option<Zone> {
        ZoneMaps::build(std::slice::from_ref(col)).column(0)
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
        assert_eq!(bounds(&col), Some(Zone::Int { min: -3, max: 9 }));
    }

    #[test]
    fn all_null_morsel_has_no_zone() {
        assert_eq!(bounds(&int_col([None, None])), Some(Zone::AllNull));
        assert_eq!(
            bounds(&col(DataType::Float, [Value::Null])),
            Some(Zone::AllNull)
        );
        assert_eq!(bounds(&int_col([])), Some(Zone::AllNull), "no rows");
    }

    #[test]
    fn float_nan_is_total_order_maximum() {
        let col = col(
            DataType::Float,
            [1.0, f64::NAN, 2.0].into_iter().map(Value::Float),
        );
        match bounds(&col) {
            Some(Zone::Float { min, max }) => {
                assert_eq!(min, 1.0);
                assert!(max.is_nan(), "NaN sorts above +inf under total_cmp");
            }
            z => panic!("unexpected zone {z:?}"),
        }
    }

    #[test]
    fn float_negative_zero_is_the_minimum() {
        let col = col(DataType::Float, [Value::Float(0.0), Value::Float(-0.0)]);
        match bounds(&col) {
            Some(Zone::Float { min, max }) => {
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
            assert_eq!(key_float(float_key(a)).to_bits(), a.to_bits(), "{a}");
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

    /// The bounds are what a boxed fold over every valid row's `Value`
    /// finds — `Value`'s order compares floats by `total_cmp` — at every
    /// stored width, across NULL runs and morsel boundaries.
    #[test]
    fn column_bounds_fold_to_min_max() {
        fn naive(col: &ColumnData) -> Option<(Value, Value)> {
            let vals = (0..col.len()).filter(|&i| !col.is_null(i));
            let min = vals.clone().map(|i| col.value(i)).min()?;
            Some((min, vals.map(|i| col.value(i)).max()?))
        }
        fn as_values(zone: Option<Zone>) -> Option<(Value, Value)> {
            match zone? {
                Zone::Int { min, max } => Some((Value::Int(min), Value::Int(max))),
                Zone::Float { min, max } => Some((Value::Float(min), Value::Float(max))),
                Zone::AllNull => None,
            }
        }
        let mut spread: Vec<Option<i64>> = (0..MORSEL_ROWS as i64).map(|v| Some(v - 7)).collect();
        spread.extend(std::iter::repeat_n(None, MORSEL_ROWS));
        spread.extend([Some(-9), Some(3)]);
        let cases = [
            int_col([None, Some(5), Some(2)]),
            int_col([None]),
            int_col(spread),
            int_col([Some(i64::MIN), Some(300), None, Some(i64::MAX)]),
            int_col([Some(70_000), Some(-70_000)]),
            col(
                DataType::Float,
                [0.0, -0.0, f64::NAN, -2.5].into_iter().map(Value::Float),
            ),
            col(
                DataType::Float,
                [
                    Value::Null,
                    Value::Float(f64::NEG_INFINITY),
                    Value::Float(1e300),
                ],
            ),
        ];
        for col in &cases {
            // Debug tells the variants, -0.0 from 0.0 and NaN apart.
            let (want, got) = (naive(col), as_values(bounds(col)));
            assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
        assert_eq!(
            as_values(bounds(&cases[0])),
            Some((Value::Int(2), Value::Int(5))),
            "NULLs are skipped"
        );
        assert_eq!(bounds(&cases[1]), Some(Zone::AllNull));
        assert_eq!(
            bounds(&cases[2]),
            Some(Zone::Int {
                min: -9,
                max: MORSEL_ROWS as i64 - 8
            })
        );
    }

    #[test]
    fn categorical_columns_carry_no_zones() {
        let col = col(DataType::Str, [Value::str("A")]);
        assert!(bounds(&col).is_none());
    }
}
