//! Aggregate accumulators shared by all engines.
//!
//! The accumulator semantics (NULL skipping, `COUNT(*)` vs `COUNT(x)`,
//! integer-preserving `SUM`) are defined once here so that every engine
//! produces identical results by construction.

use crate::error::EngineError;
use crate::eval::CExpr;
use simba_sql::Func;
use simba_store::Value;
use std::collections::HashSet;

/// A compiled aggregate call: `func([DISTINCT] arg)`. `arg` is `None` for
/// `COUNT(*)`.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: Func,
    pub arg: Option<CExpr>,
    pub distinct: bool,
}

impl AggSpec {
    /// Instantiate a fresh accumulator for this aggregate.
    pub fn accumulator(&self) -> Accumulator {
        match (self.func, self.distinct) {
            (Func::Count, true) => Accumulator::CountDistinct(HashSet::new()),
            (Func::Count, false) => {
                if self.arg.is_none() {
                    Accumulator::CountStar(0)
                } else {
                    Accumulator::Count(0)
                }
            }
            (Func::Sum, _) => Accumulator::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                any: false,
            },
            (Func::Avg, _) => Accumulator::Avg { sum: 0.0, n: 0 },
            (Func::Min, _) => Accumulator::Min(None),
            (Func::Max, _) => Accumulator::Max(None),
            _ => unreachable!("non-aggregate function in AggSpec"),
        }
    }

    /// Validate the spec at plan time.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.distinct && self.func != Func::Count {
            return Err(EngineError::Unsupported(format!(
                "DISTINCT is only supported for COUNT, not {}",
                self.func.name()
            )));
        }
        if self.arg.is_none() && self.func != Func::Count {
            return Err(EngineError::Invalid(format!(
                "{}(*) is not a valid aggregate",
                self.func.name()
            )));
        }
        Ok(())
    }
}

/// A Float `SUM` or `AVG` as a value: any NaN as [`f64::NAN`]. The sign and
/// payload of a NaN an addition makes (`inf + -inf`) are unspecified and may
/// differ between two code paths adding the same values, so every engine
/// finalizes a Float sum through here.
pub fn float_sum(x: f64) -> Value {
    Value::Float(if x.is_nan() { f64::NAN } else { x })
}

/// Mutable aggregation state for one group and one aggregate.
#[derive(Debug, Clone)]
pub enum Accumulator {
    CountStar(i64),
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        any: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    /// Feed one row for `COUNT(*)`.
    #[inline]
    pub fn update_star(&mut self) {
        if let Accumulator::CountStar(n) = self {
            *n += 1;
        }
    }

    /// Feed one argument value. NULL inputs are skipped per SQL semantics.
    #[inline]
    pub fn update_value(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => *n += 1,
            Accumulator::CountDistinct(seen) => {
                seen.insert(v);
            }
            Accumulator::Sum {
                int,
                float,
                saw_float,
                any,
            } => {
                *any = true;
                match v {
                    Value::Int(x) => {
                        *int = int.wrapping_add(x);
                        *float += x as f64;
                    }
                    Value::Float(x) => {
                        *saw_float = true;
                        *float += x;
                    }
                    _ => {}
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
            Accumulator::Min(cur) => match cur {
                Some(m) if &v >= m => {}
                _ => *cur = Some(v),
            },
            Accumulator::Max(cur) => match cur {
                Some(m) if &v <= m => {}
                _ => *cur = Some(v),
            },
        }
    }

    /// Fold another accumulator's state into this one. `other` must come
    /// from the same [`AggSpec`] and must cover *later* rows: min/max ties
    /// keep `self`'s value (the keep-first rule), so merging partial states
    /// in scan order reproduces the sequential result.
    pub fn merge(&mut self, other: &Accumulator) {
        match (self, other) {
            (Accumulator::CountStar(a), Accumulator::CountStar(b))
            | (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (Accumulator::CountDistinct(a), Accumulator::CountDistinct(b)) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "set union — insertion order cannot change the resulting set or its count"
                )]
                a.extend(b.iter().cloned());
            }
            (
                Accumulator::Sum {
                    int,
                    float,
                    saw_float,
                    any,
                },
                Accumulator::Sum {
                    int: oi,
                    float: of,
                    saw_float: osf,
                    any: oa,
                },
            ) => {
                *int = int.wrapping_add(*oi);
                *float += of;
                *saw_float |= osf;
                *any |= oa;
            }
            (Accumulator::Avg { sum, n }, Accumulator::Avg { sum: os, n: on }) => {
                *sum += os;
                *n += on;
            }
            (Accumulator::Min(cur), Accumulator::Min(Some(v))) => match cur {
                Some(m) if v >= m => {}
                _ => *cur = Some(v.clone()),
            },
            (Accumulator::Max(cur), Accumulator::Max(Some(v))) => match cur {
                Some(m) if v <= m => {}
                _ => *cur = Some(v.clone()),
            },
            (Accumulator::Min(_), Accumulator::Min(None))
            | (Accumulator::Max(_), Accumulator::Max(None)) => {}
            (a, b) => unreachable!("merging mismatched accumulators: {a:?} vs {b:?}"),
        }
    }

    /// Final aggregate value for the group.
    pub fn finalize(&self) -> Value {
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => Value::Int(*n),
            Accumulator::CountDistinct(seen) => Value::Int(seen.len() as i64),
            Accumulator::Sum {
                int,
                float,
                saw_float,
                any,
            } => {
                if !*any {
                    Value::Null
                } else if *saw_float {
                    float_sum(*float)
                } else {
                    Value::Int(*int)
                }
            }
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    float_sum(*sum / *n as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: Func, has_arg: bool, distinct: bool) -> AggSpec {
        AggSpec {
            func,
            arg: if has_arg { Some(CExpr::Col(0)) } else { None },
            distinct,
        }
    }

    #[test]
    fn count_star_counts_all_rows() {
        let mut a = spec(Func::Count, false, false).accumulator();
        a.update_star();
        a.update_star();
        assert_eq!(a.finalize(), Value::Int(2));
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut a = spec(Func::Count, true, false).accumulator();
        a.update_value(Value::Int(1));
        a.update_value(Value::Null);
        a.update_value(Value::Int(3));
        assert_eq!(a.finalize(), Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let mut a = spec(Func::Count, true, true).accumulator();
        for v in [
            Value::str("A"),
            Value::str("B"),
            Value::str("A"),
            Value::Null,
        ] {
            a.update_value(v);
        }
        assert_eq!(a.finalize(), Value::Int(2));
    }

    #[test]
    fn sum_preserves_integers() {
        let mut a = spec(Func::Sum, true, false).accumulator();
        a.update_value(Value::Int(2));
        a.update_value(Value::Int(3));
        assert_eq!(a.finalize(), Value::Int(5));
    }

    #[test]
    fn sum_widens_on_float() {
        let mut a = spec(Func::Sum, true, false).accumulator();
        a.update_value(Value::Int(2));
        a.update_value(Value::Float(0.5));
        assert_eq!(a.finalize(), Value::Float(2.5));
    }

    #[test]
    fn sum_of_no_rows_is_null() {
        let a = spec(Func::Sum, true, false).accumulator();
        assert!(a.finalize().is_null());
        let mut b = spec(Func::Sum, true, false).accumulator();
        b.update_value(Value::Null);
        assert!(b.finalize().is_null());
    }

    #[test]
    fn avg_is_float() {
        let mut a = spec(Func::Avg, true, false).accumulator();
        a.update_value(Value::Int(1));
        a.update_value(Value::Int(2));
        assert_eq!(a.finalize(), Value::Float(1.5));
    }

    #[test]
    fn min_max_with_strings() {
        let mut mn = spec(Func::Min, true, false).accumulator();
        let mut mx = spec(Func::Max, true, false).accumulator();
        for v in [Value::str("pear"), Value::str("apple"), Value::Null] {
            mn.update_value(v.clone());
            mx.update_value(v);
        }
        assert_eq!(mn.finalize(), Value::str("apple"));
        assert_eq!(mx.finalize(), Value::str("pear"));
    }

    #[test]
    fn min_of_empty_group_is_null() {
        assert!(spec(Func::Min, true, false)
            .accumulator()
            .finalize()
            .is_null());
    }

    #[test]
    fn validate_rejects_sum_distinct() {
        assert!(spec(Func::Sum, true, true).validate().is_err());
        assert!(spec(Func::Count, true, true).validate().is_ok());
    }

    #[test]
    fn validate_rejects_sum_star() {
        assert!(spec(Func::Sum, false, false).validate().is_err());
    }

    #[test]
    fn merge_combines_partial_sums_and_counts() {
        let s = spec(Func::Sum, true, false);
        let mut a = s.accumulator();
        a.update_value(Value::Int(2));
        let mut b = s.accumulator();
        b.update_value(Value::Int(3));
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Int(5));

        let c = spec(Func::Count, false, false);
        let mut x = c.accumulator();
        x.update_star();
        let mut y = c.accumulator();
        y.update_star();
        y.update_star();
        x.merge(&y);
        assert_eq!(x.finalize(), Value::Int(3));
    }

    #[test]
    fn merge_min_keeps_first_on_ties() {
        let s = spec(Func::Min, true, false);
        let mut a = s.accumulator();
        a.update_value(Value::Int(4));
        let mut b = s.accumulator();
        b.update_value(Value::Int(4));
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Int(4));
        let mut empty = s.accumulator();
        empty.merge(&a);
        assert_eq!(empty.finalize(), Value::Int(4));
        a.merge(&s.accumulator());
        assert_eq!(a.finalize(), Value::Int(4));
    }

    #[test]
    fn merge_count_distinct_unions() {
        let s = spec(Func::Count, true, true);
        let mut a = s.accumulator();
        a.update_value(Value::str("A"));
        let mut b = s.accumulator();
        b.update_value(Value::str("A"));
        b.update_value(Value::str("B"));
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Int(2));
    }
}
