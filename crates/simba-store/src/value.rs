//! The dynamic value type shared by storage, engines, and result sets.

use serde::{Content, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single cell value.
///
/// Temporal values are stored as `Int` epoch seconds; the schema's
/// [`ColumnRole`](crate::schema::ColumnRole) records that a column is
/// temporal.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (also temporal epoch seconds).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Numeric view of the value (`Int` and `Float` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style three-valued *equality*: `None` when either side is NULL.
    /// Values of different type classes (e.g. string vs number) are simply
    /// not equal — matching `IN`-list membership semantics, so the
    /// normalizer's `IN (x)` ⇄ `= x` rewrite is behavior-preserving.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self == other)
    }

    /// SQL-style three-valued *ordered* comparison: `None` when either side
    /// is NULL or the values are incomparable (e.g. string vs number). Two
    /// `Int`s compare exactly, like [`Ord::cmp`] and `sql_eq`; only a mixed
    /// `Int`/`Float` pair goes through `f64`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for grouping/sorting: NULL < Bool < numbers < Str,
    /// with `Int`/`Float` compared numerically.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int/Float hash identically when numerically equal, matching Eq.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Object key marking a float shipped as raw IEEE-754 bits (see the
/// [`Serialize`] impl for when that escape hatch is taken).
const FLOAT_BITS_KEY: &str = "$f";

/// Threshold above which an integral float's JSON rendering would lose its
/// `.0` marker and re-parse as an integer; such values (and non-finite
/// ones, which JSON cannot express at all) ship as raw bits instead.
const FLOAT_AS_TEXT_LIMIT: f64 = 1e15;

impl Serialize for Value {
    /// JSON-friendly encoding that still round-trips *variant-exactly*:
    /// `Int(3)` and `Float(3.0)` must come back as different variants
    /// (fingerprints hash the `Debug` form, which distinguishes them).
    ///
    /// * `Null`/`Bool`/`Int`/`Str` map to the corresponding JSON scalars.
    /// * Finite floats map to JSON numbers: the vendored `serde_json`
    ///   prints integral floats with a trailing `.0` (below
    ///   `FLOAT_AS_TEXT_LIMIT`, 1e15) and uses Rust's shortest
    ///   round-trip formatting otherwise, so the exact bit pattern
    ///   survives.
    /// * Floats JSON cannot faithfully carry — NaN, infinities, and huge
    ///   integral values whose rendering would drop the `.0` — ship as
    ///   `{"$f": <bits>}` with the raw IEEE-754 bit pattern.
    fn to_content(&self) -> Content {
        match self {
            Value::Null => Content::Null,
            Value::Bool(b) => Content::Bool(*b),
            Value::Int(v) => Content::I64(*v),
            Value::Float(v) => {
                let printable =
                    v.is_finite() && (v.fract() != 0.0 || v.abs() < FLOAT_AS_TEXT_LIMIT);
                if printable {
                    Content::F64(*v)
                } else {
                    Content::Map(vec![(
                        FLOAT_BITS_KEY.to_string(),
                        Content::U64(v.to_bits()),
                    )])
                }
            }
            Value::Str(s) => Content::Str(s.to_string()),
        }
    }
}

impl Deserialize for Value {
    fn from_content(c: &Content) -> Result<Self, String> {
        match c {
            Content::Null => Ok(Value::Null),
            Content::Bool(b) => Ok(Value::Bool(*b)),
            Content::I64(v) => Ok(Value::Int(*v)),
            Content::U64(v) => i64::try_from(*v)
                .map(Value::Int)
                .map_err(|_| format!("integer {v} out of range for a Value")),
            Content::F64(v) => Ok(Value::Float(*v)),
            Content::Str(s) => Ok(Value::str(s)),
            // The JSON parser yields I64 for bit patterns that fit in an
            // i64 and U64 only above i64::MAX; accept both spellings.
            Content::Map(entries) => match entries.as_slice() {
                [(key, Content::U64(bits))] if key == FLOAT_BITS_KEY => {
                    Ok(Value::Float(f64::from_bits(*bits)))
                }
                [(key, Content::I64(bits))] if key == FLOAT_BITS_KEY && *bits >= 0 => {
                    Ok(Value::Float(f64::from_bits(*bits as u64)))
                }
                _ => Err("expected a value, found an object".to_string()),
            },
            Content::Seq(_) => Err("expected a value, found an array".to_string()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn hash_consistent_with_eq_across_types() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn sql_cmp_numbers_and_strings() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sql_cmp_tells_large_ints_apart() {
        // 2^53 + 1 rounds to 2^53 as an f64; Int/Int must not go through it.
        let (a, b) = (Value::Int((1 << 53) + 1), Value::Int(1 << 53));
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Greater));
        assert_eq!(b.sql_cmp(&a), Some(Ordering::Less));
        assert_eq!(a.sql_cmp(&a), Some(Ordering::Equal));
        assert_eq!(a.sql_cmp(&b), Some(a.cmp(&b)));
        // A mixed pair still compares as f64, where the two collapse.
        assert_eq!(
            a.sql_cmp(&Value::Float((1u64 << 53) as f64)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = [
            Value::str("x"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
        ];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[3], Value::str("x"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
    }

    /// Serialize → JSON text → deserialize must reproduce the value
    /// *variant-exactly* (`Debug` forms equal), not just numerically equal:
    /// result fingerprints hash the `Debug` form, so an `Int(3)` coming
    /// back as `Float(3.0)` would silently change every wire fingerprint.
    fn wire_round_trip(v: &Value) -> Value {
        let json = serde_json::to_string(v).expect("value serializes");
        serde_json::from_str(&json).expect("value re-parses")
    }

    #[test]
    fn serde_round_trips_variant_exactly() {
        let cases = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.5),
            Value::Float(-1234.25),
            Value::Float(3.0), // integral float must NOT come back as Int
            Value::Float(0.1), // classic shortest-round-trip case
            Value::str(""),
            Value::str("hello \"world\"\nline"),
        ];
        for v in &cases {
            let back = wire_round_trip(v);
            assert_eq!(
                format!("{v:?}"),
                format!("{back:?}"),
                "variant drift through the wire"
            );
        }
    }

    #[test]
    fn serde_round_trips_floats_json_cannot_express() {
        // NaN, infinities, and integral floats big enough that their JSON
        // rendering would drop the `.0` all take the raw-bits escape.
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -4.0e18,
            1.5e308, // near f64::MAX, integral
        ] {
            let back = wire_round_trip(&Value::Float(v));
            match back {
                Value::Float(b) => assert_eq!(v.to_bits(), b.to_bits(), "bits drifted for {v}"),
                other => panic!("Float({v}) came back as {other:?}"),
            }
        }
        // Negative zero keeps its sign through the plain JSON path.
        let back = wire_round_trip(&Value::Float(-0.0));
        match back {
            Value::Float(b) => assert_eq!((-0.0f64).to_bits(), b.to_bits()),
            other => panic!("Float(-0.0) came back as {other:?}"),
        }
    }

    #[test]
    fn serde_rejects_malformed_content() {
        assert!(serde_json::from_str::<Value>("[1,2]").is_err());
        assert!(serde_json::from_str::<Value>("{\"x\": 1}").is_err());
        // A bare unsigned integer beyond i64 cannot be a Value::Int.
        assert!(serde_json::from_str::<Value>("18446744073709551615").is_err());
    }
}
