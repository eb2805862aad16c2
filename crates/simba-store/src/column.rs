//! Columnar storage at the narrowest width each column's values need.
//!
//! String columns are dictionary encoded (`dict` + `codes`), which both
//! shrinks memory for the low-cardinality categorical columns dashboards
//! filter on and gives the columnar engines integer group keys. Int values
//! and dictionary codes are [`NarrowVec`]s: each column sits at the
//! narrowest of 1/2/4/8 bytes per value that holds its values (a dictionary
//! of ≤ 256 entries costs one byte per row, an hour of the day one byte, an
//! epoch timestamp four), chosen by the values alone, so every way of
//! building a column — [`ColumnBuilder`] row by row, chunk by chunk in a
//! [`TableAssembler`](crate::TableAssembler), from wire blocks — stores the
//! same values at the same width. Floats stay eight bytes (values are kept
//! bit-exact) and Bools one.

use crate::narrow::NarrowVec;
use crate::schema::DataType;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Physical data of one column. Validity is tracked separately: `valid[i]`
/// is `false` when row `i` is NULL. An empty validity vector means
/// "all valid" (the common case allocates nothing).
///
/// Int values and dictionary codes are stored narrow (see the
/// [module docs](self)); [`value`](Self::value) and [`code`](Self::code)
/// widen one row for the row-at-a-time paths, and batch readers match the
/// width once with [`for_width!`](crate::for_width).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer column (also backs temporal columns, as epoch seconds).
    Int {
        /// Row values at their narrowest width; NULL slots hold `0`.
        data: NarrowVec<i64>,
        /// Validity bitmap; empty means "all valid".
        valid: Vec<bool>,
    },
    /// 64-bit float column.
    Float {
        /// Row values; NULL slots hold `0.0`.
        data: Vec<f64>,
        /// Validity bitmap; empty means "all valid".
        valid: Vec<bool>,
    },
    /// Boolean column.
    Bool {
        /// Row values; NULL slots hold `false`.
        data: Vec<bool>,
        /// Validity bitmap; empty means "all valid".
        valid: Vec<bool>,
    },
    /// Dictionary-encoded string column.
    Str {
        /// Distinct strings in first-appearance order.
        dict: Vec<Arc<str>>,
        /// Per-row index into `dict` at its narrowest width; NULL slots
        /// hold code `0`.
        codes: NarrowVec<u32>,
        /// Validity bitmap; empty means "all valid".
        valid: Vec<bool>,
    },
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { data, .. } => data.len(),
            ColumnData::Float { data, .. } => data.len(),
            ColumnData::Bool { data, .. } => data.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        let valid = self.validity();
        !valid.is_empty() && !valid[i]
    }

    /// Value of row `i`.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnData::Int { data, .. } => Value::Int(data.get(i)),
            ColumnData::Float { data, .. } => Value::Float(data[i]),
            ColumnData::Bool { data, .. } => Value::Bool(data[i]),
            ColumnData::Str { dict, codes, .. } => Value::Str(dict[codes.get(i) as usize].clone()),
        }
    }

    /// For string columns: the dictionary code of row `i` (`None` for NULL
    /// rows or non-string columns).
    #[inline]
    pub fn code(&self, i: usize) -> Option<u32> {
        match self {
            ColumnData::Str { codes, .. } if !self.is_null(i) => Some(codes.get(i)),
            _ => None,
        }
    }

    /// For string columns: the dictionary itself.
    pub fn dictionary(&self) -> Option<&[Arc<str>]> {
        match self {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// The values of an Int column (NULL slots hold `0`; consult
    /// [`ColumnData::validity`]).
    pub fn int_data(&self) -> Option<&NarrowVec<i64>> {
        match self {
            ColumnData::Int { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw `f64` slice of a Float column (NULL slots hold `0.0`; consult
    /// [`ColumnData::validity`]).
    pub fn float_data(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Float { data, .. } => Some(data),
            _ => None,
        }
    }

    /// The dictionary codes of a Str column (NULL slots hold code `0`;
    /// consult [`ColumnData::validity`]).
    pub fn code_data(&self) -> Option<&NarrowVec<u32>> {
        match self {
            ColumnData::Str { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// The validity bitmap. Empty means every row is valid (the common
    /// case allocates nothing); otherwise `validity()[i] == false` marks
    /// row `i` NULL.
    #[inline]
    pub fn validity(&self) -> &[bool] {
        match self {
            ColumnData::Int { valid, .. }
            | ColumnData::Float { valid, .. }
            | ColumnData::Bool { valid, .. }
            | ColumnData::Str { valid, .. } => valid,
        }
    }

    /// True when no row of this column is NULL.
    pub fn all_valid(&self) -> bool {
        self.validity().is_empty()
    }

    /// Distinct non-null values, in dictionary/ascending order.
    pub fn distinct_values(&self) -> Vec<Value> {
        match self {
            ColumnData::Str { dict, .. } => {
                let mut vs: Vec<Value> = dict.iter().map(|s| Value::Str(s.clone())).collect();
                vs.sort();
                vs.dedup();
                vs
            }
            _ => {
                let mut vs: Vec<Value> = (0..self.len())
                    .filter(|&i| !self.is_null(i))
                    .map(|i| self.value(i))
                    .collect();
                vs.sort();
                vs.dedup();
                vs
            }
        }
    }

    /// Physical, bit-for-bit equality: identical variant, identical raw
    /// buffers at identical widths (floats by bit pattern), identical
    /// dictionary *order*, and identical validity representation (an empty
    /// validity vector is only equal to another empty one). The determinism
    /// tests use this — value equality would hide dictionary-order, width
    /// or representation drift.
    pub fn bitwise_eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int { data: a, valid: va }, ColumnData::Int { data: b, valid: vb }) => {
                a == b && va == vb
            }
            (
                ColumnData::Float { data: a, valid: va },
                ColumnData::Float { data: b, valid: vb },
            ) => {
                va == vb
                    && a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnData::Bool { data: a, valid: va }, ColumnData::Bool { data: b, valid: vb }) => {
                a == b && va == vb
            }
            (
                ColumnData::Str {
                    dict: da,
                    codes: ca,
                    valid: va,
                },
                ColumnData::Str {
                    dict: db,
                    codes: cb,
                    valid: vb,
                },
            ) => da == db && ca == cb && va == vb,
            _ => false,
        }
    }

    /// Heap bytes the column's data occupies: values at their stored width,
    /// one byte per validity entry, and for a string column each dictionary
    /// entry's pointer, reference counts and bytes. Spare capacity is not
    /// counted.
    pub fn byte_size(&self) -> usize {
        let values = match self {
            ColumnData::Int { data, .. } => data.byte_size(),
            ColumnData::Float { data, .. } => size_of_val(data.as_slice()),
            ColumnData::Bool { data, .. } => size_of_val(data.as_slice()),
            ColumnData::Str { dict, codes, .. } => {
                let entry = size_of::<Arc<str>>() + 2 * size_of::<usize>();
                codes.byte_size() + dict.iter().map(|s| entry + s.len()).sum::<usize>()
            }
        };
        values + self.validity().len()
    }
}

/// Incrementally builds a [`ColumnData`]: row by row from pushed
/// [`Value`]s, row by row from typed cells (a [`TableBuilder`]'s
/// [`RowWriter`]), or chunk by chunk from appended column fragments.
///
/// [`TableBuilder`]: crate::TableBuilder
/// [`RowWriter`]: crate::RowWriter
///
/// The physical type is fixed at construction; pushing a mismatched value
/// panics (generators are trusted code — schema validation happens
/// upstream). The validity vector stays empty until the first NULL.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// Builds an [`ColumnData::Int`] column.
    Int {
        /// Values so far (NULLs as `0`).
        data: NarrowVec<i64>,
        /// Per-row validity; empty until the first NULL.
        valid: Vec<bool>,
    },
    /// Builds a [`ColumnData::Float`] column.
    Float {
        /// Values so far (NULLs as `0.0`).
        data: Vec<f64>,
        /// Per-row validity; empty until the first NULL.
        valid: Vec<bool>,
    },
    /// Builds a [`ColumnData::Bool`] column.
    Bool {
        /// Values so far (NULLs as `false`).
        data: Vec<bool>,
        /// Per-row validity; empty until the first NULL.
        valid: Vec<bool>,
    },
    /// Builds a dictionary-encoded [`ColumnData::Str`] column.
    Str {
        /// Distinct strings in first-appearance order.
        dict: Vec<Arc<str>>,
        /// Reverse index from string to dictionary code.
        lookup: HashMap<Arc<str>, u32>,
        /// Per-row dictionary codes (NULLs as code `0`).
        codes: NarrowVec<u32>,
        /// Per-row validity; empty until the first NULL.
        valid: Vec<bool>,
    },
}

/// The code of `s` in a dictionary built in first-appearance order, adding
/// it as the next code if it is new.
fn dictionary_code(
    dict: &mut Vec<Arc<str>>,
    lookup: &mut HashMap<Arc<str>, u32>,
    s: &Arc<str>,
) -> u32 {
    if let Some(&code) = lookup.get(s) {
        return code;
    }
    let code = dict.len() as u32;
    dict.push(s.clone());
    lookup.insert(s.clone(), code);
    code
}

/// Append `rows` rows' validity (`src`, empty = all valid) to `valid`
/// holding `rows_before` rows, keeping the "empty = all valid" form: the
/// vector stays empty until the first NULL arrives, which fills in the
/// history.
fn append_validity(valid: &mut Vec<bool>, rows_before: usize, src: &[bool], rows: usize) {
    if src.contains(&false) {
        valid.resize(rows_before, true);
        valid.extend_from_slice(src);
    } else if !valid.is_empty() {
        valid.resize(rows_before + rows, true);
    }
}

impl ColumnBuilder {
    /// New builder for a column of `data_type`, with room for `capacity`
    /// rows (one byte each for Int values and codes, which widen as needed).
    pub fn new(data_type: DataType, capacity: usize) -> ColumnBuilder {
        match data_type {
            DataType::Int => ColumnBuilder::Int {
                data: NarrowVec::with_capacity(capacity),
                valid: Vec::new(),
            },
            DataType::Float => ColumnBuilder::Float {
                data: Vec::with_capacity(capacity),
                valid: Vec::new(),
            },
            DataType::Bool => ColumnBuilder::Bool {
                data: Vec::with_capacity(capacity),
                valid: Vec::new(),
            },
            DataType::Str => ColumnBuilder::Str {
                dict: Vec::new(),
                lookup: HashMap::new(),
                codes: NarrowVec::with_capacity(capacity),
                valid: Vec::new(),
            },
        }
    }

    /// Append a non-NULL Int.
    ///
    /// # Panics
    /// Panics if this is not an Int column.
    #[inline]
    pub(crate) fn push_int(&mut self, v: i64) {
        match self {
            ColumnBuilder::Int { data, valid } => {
                data.push(v);
                if !valid.is_empty() {
                    valid.push(true);
                }
            }
            builder => panic!("type mismatch pushing Int({v}) into {builder:?}"),
        }
    }

    /// Append a non-NULL Float.
    ///
    /// # Panics
    /// Panics if this is not a Float column.
    #[inline]
    pub(crate) fn push_float(&mut self, v: f64) {
        match self {
            ColumnBuilder::Float { data, valid } => {
                data.push(v);
                if !valid.is_empty() {
                    valid.push(true);
                }
            }
            builder => panic!("type mismatch pushing Float({v}) into {builder:?}"),
        }
    }

    /// Append a non-NULL string and return its dictionary code, which
    /// [`push_code`](Self::push_code) may repeat without a lookup.
    ///
    /// # Panics
    /// Panics if this is not a Str column.
    pub(crate) fn push_str(&mut self, s: &Arc<str>) -> u32 {
        match self {
            ColumnBuilder::Str {
                dict,
                lookup,
                codes,
                valid,
            } => {
                let code = dictionary_code(dict, lookup, s);
                codes.push(code);
                if !valid.is_empty() {
                    valid.push(true);
                }
                code
            }
            builder => panic!("type mismatch pushing {s:?} into {builder:?}"),
        }
    }

    /// Append the string [`push_str`](Self::push_str) returned `code` for.
    ///
    /// # Panics
    /// Panics if this is not a Str column.
    #[inline]
    pub(crate) fn push_code(&mut self, code: u32) {
        match self {
            ColumnBuilder::Str {
                dict, codes, valid, ..
            } => {
                debug_assert!((code as usize) < dict.len());
                codes.push(code);
                if !valid.is_empty() {
                    valid.push(true);
                }
            }
            builder => panic!("type mismatch pushing code {code} into {builder:?}"),
        }
    }

    /// Append one value.
    pub fn push(&mut self, v: Value) {
        let ok = !v.is_null();
        let (valid, rows_before) = match (self, v) {
            (ColumnBuilder::Int { data, valid }, v @ (Value::Int(_) | Value::Null)) => {
                let n = data.len();
                data.push(v.as_i64().unwrap_or(0));
                (valid, n)
            }
            (
                ColumnBuilder::Float { data, valid },
                v @ (Value::Float(_) | Value::Int(_) | Value::Null),
            ) => {
                let n = data.len();
                data.push(v.as_f64().unwrap_or(0.0));
                (valid, n)
            }
            (ColumnBuilder::Bool { data, valid }, Value::Bool(x)) => {
                let n = data.len();
                data.push(x);
                (valid, n)
            }
            (ColumnBuilder::Bool { data, valid }, Value::Null) => {
                let n = data.len();
                data.push(false);
                (valid, n)
            }
            (
                ColumnBuilder::Str {
                    dict,
                    lookup,
                    codes,
                    valid,
                },
                Value::Str(s),
            ) => {
                let n = codes.len();
                codes.push(dictionary_code(dict, lookup, &s));
                (valid, n)
            }
            (ColumnBuilder::Str { codes, valid, .. }, Value::Null) => {
                let n = codes.len();
                codes.push(0);
                (valid, n)
            }
            (builder, v) => panic!("type mismatch pushing {v:?} into {builder:?}"),
        };
        append_validity(valid, rows_before, &[ok], 1);
    }

    /// Append a whole column fragment of the same type. String codes are
    /// remapped into this builder's dictionary, whose order stays first
    /// appearance over the concatenated rows — exactly what pushing the
    /// fragment's values one by one would produce.
    ///
    /// # Panics
    /// Panics if the fragment's type differs from the builder's.
    pub(crate) fn append(&mut self, chunk: ColumnData) {
        match (self, chunk) {
            (
                ColumnBuilder::Int { data, valid },
                ColumnData::Int {
                    data: src,
                    valid: src_valid,
                },
            ) => {
                append_validity(valid, data.len(), &src_valid, src.len());
                data.extend_from(&src);
            }
            (
                ColumnBuilder::Float { data, valid },
                ColumnData::Float {
                    data: src,
                    valid: src_valid,
                },
            ) => {
                append_validity(valid, data.len(), &src_valid, src.len());
                data.extend_from_slice(&src);
            }
            (
                ColumnBuilder::Bool { data, valid },
                ColumnData::Bool {
                    data: src,
                    valid: src_valid,
                },
            ) => {
                append_validity(valid, data.len(), &src_valid, src.len());
                data.extend_from_slice(&src);
            }
            (
                ColumnBuilder::Str {
                    dict,
                    lookup,
                    codes,
                    valid,
                },
                ColumnData::Str {
                    dict: src_dict,
                    codes: src_codes,
                    valid: src_valid,
                },
            ) => {
                // Chunk dictionaries are in first-appearance order, so
                // inserting them in order reproduces the dictionary a
                // single row-at-a-time builder would have produced over the
                // concatenated stream.
                let map: Vec<u32> = src_dict
                    .iter()
                    .map(|s| dictionary_code(dict, lookup, s))
                    .collect();
                append_validity(valid, codes.len(), &src_valid, src_codes.len());
                crate::for_width!(&src_codes, |lane| if src_valid.is_empty() {
                    codes.extend(lane.iter().map(|&c| map[c as usize]));
                } else {
                    // NULL slots carry a meaningless local code; normalize
                    // them to code 0, as `push` does.
                    codes.extend(lane.iter().zip(&src_valid).map(|(&c, &ok)| {
                        if ok {
                            map[c as usize]
                        } else {
                            0
                        }
                    }));
                })
            }
            (builder, chunk) => {
                panic!("chunk type mismatch appending {chunk:?} into {builder:?}")
            }
        }
    }

    /// Make room for `additional` more rows without over-allocating. The
    /// validity vector stays unallocated until the first NULL arrives.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let valid = match self {
            ColumnBuilder::Int { data, valid } => {
                data.reserve_exact(additional);
                valid
            }
            ColumnBuilder::Float { data, valid } => {
                data.reserve_exact(additional);
                valid
            }
            ColumnBuilder::Bool { data, valid } => {
                data.reserve_exact(additional);
                valid
            }
            ColumnBuilder::Str { codes, valid, .. } => {
                codes.reserve_exact(additional);
                valid
            }
        };
        if !valid.is_empty() {
            valid.reserve_exact(additional);
        }
    }

    /// Finish building.
    pub fn finish(self) -> ColumnData {
        match self {
            ColumnBuilder::Int { data, valid } => ColumnData::Int { data, valid },
            ColumnBuilder::Float { data, valid } => ColumnData::Float { data, valid },
            ColumnBuilder::Bool { data, valid } => ColumnData::Bool { data, valid },
            ColumnBuilder::Str {
                dict, codes, valid, ..
            } => ColumnData::Str { dict, codes, valid },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zonemap::{Zone, ZoneMaps};

    #[test]
    fn builds_int_column_with_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push(Value::Int(1));
        b.push(Value::Null);
        b.push(Value::Int(3));
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.is_null(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(3));
        assert_eq!(c.validity(), [true, false, true]);
    }

    #[test]
    fn no_null_column_drops_validity() {
        // It never allocates one: validity stays empty until the first NULL.
        let mut b = ColumnBuilder::new(DataType::Int, 2);
        b.push(Value::Int(1));
        b.push(Value::Int(2));
        match &b {
            ColumnBuilder::Int { valid, .. } => {
                assert!(valid.is_empty() && valid.capacity() == 0)
            }
            _ => unreachable!(),
        }
        assert!(b.finish().all_valid());

        let mut b = ColumnBuilder::new(DataType::Str, 3);
        b.push(Value::Null);
        b.push(Value::str("a"));
        assert_eq!(b.finish().validity(), [false, true]);
    }

    #[test]
    fn string_dictionary_deduplicates() {
        let mut b = ColumnBuilder::new(DataType::Str, 4);
        for s in ["A", "B", "A", "A"] {
            b.push(Value::str(s));
        }
        let c = b.finish();
        assert_eq!(c.dictionary().unwrap().len(), 2);
        assert_eq!(c.code(0), c.code(2));
        assert_ne!(c.code(0), c.code(1));
        assert_eq!(c.value(3), Value::str("A"));
    }

    #[test]
    fn float_builder_widens_ints() {
        let mut b = ColumnBuilder::new(DataType::Float, 2);
        b.push(Value::Int(2));
        b.push(Value::Float(2.5));
        let c = b.finish();
        assert_eq!(c.value(0), Value::Float(2.0));
    }

    #[test]
    fn distinct_values_sorted() {
        let mut b = ColumnBuilder::new(DataType::Str, 3);
        for s in ["C", "A", "B", "A"] {
            b.push(Value::str(s));
        }
        let c = b.finish();
        assert_eq!(
            c.distinct_values(),
            vec![Value::str("A"), Value::str("B"), Value::str("C")]
        );
    }

    /// A column's min/max is its bounds in [`ZoneMaps`].
    fn bounds(c: &ColumnData) -> Option<Zone> {
        ZoneMaps::build(std::slice::from_ref(c)).column(0)
    }

    #[test]
    fn min_max_skips_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int, 3);
        b.push(Value::Null);
        b.push(Value::Int(5));
        b.push(Value::Int(2));
        let c = b.finish();
        assert_eq!(bounds(&c), Some(Zone::Int { min: 2, max: 5 }));
    }

    #[test]
    fn min_max_all_null_is_none() {
        let mut b = ColumnBuilder::new(DataType::Int, 1);
        b.push(Value::Null);
        assert_eq!(bounds(&b.finish()), Some(Zone::AllNull));
    }

    #[test]
    fn byte_size_counts_values_at_their_width() {
        let mut b = ColumnBuilder::new(DataType::Int, 4);
        for v in [1, 2, 300, 4] {
            b.push(Value::Int(v));
        }
        assert_eq!(b.finish().byte_size(), 4 * 2);
        let mut b = ColumnBuilder::new(DataType::Str, 3);
        for s in ["ab", "c", "ab"] {
            b.push(Value::str(s));
        }
        b.push(Value::Null);
        let entry = size_of::<Arc<str>>() + 2 * size_of::<usize>();
        assert_eq!(b.finish().byte_size(), 4 + 4 + 2 * entry + 3);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut b = ColumnBuilder::new(DataType::Int, 1);
        b.push(Value::str("oops"));
    }
}
