use std::cmp::Ordering;
use std::fmt;

use crate::pool::{StrId, StringPool};

/// A single cell value.
///
/// `Value` is the row-oriented exchange type at API boundaries; bulk data
/// lives in typed [`crate::Column`]s. Strings are interned ([`StrId`]) —
/// resolve them through the owning database's [`StringPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(StrId),
}

impl Value {
    /// Name of the value's runtime type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
        }
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints widen to f64, floats pass through.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (no coercion from float).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer the value is exactly: an int, or a float with no
    /// fraction inside `i64`'s range. [`Value::sql_eq`] compares ints
    /// with floats through it.
    pub fn as_exact_int(&self) -> Option<i64> {
        // 2^63, the first whole float past `i64::MAX`; -2^63 is `i64::MIN`.
        const BOUND: f64 = 9_223_372_036_854_775_808.0;
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) => {
                (f.fract() == 0.0 && (-BOUND..BOUND).contains(&f)).then_some(f as i64)
            }
            _ => None,
        }
    }

    /// Total order over values.
    ///
    /// `Null` sorts first; ints and floats compare numerically (cross-type,
    /// with `-0.0 = 0.0` so the order agrees with [`Value::sql_eq`]);
    /// strings compare by intern id. CaJaDE only ever *orders* numeric
    /// attributes (Definition 5 restricts categorical attributes to
    /// equality), so id-order on strings is sufficient and cheap. NaN sorts
    /// after every other float, making the order total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        // Canonicalize -0.0 so ordering agrees with SQL equality.
        fn norm(f: f64) -> f64 {
            if f == 0.0 {
                0.0
            } else {
                f
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => norm(*a).total_cmp(&norm(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&norm(*b)),
            (Float(a), Int(b)) => norm(*a).total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            // Numbers sort before strings.
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }

    /// SQL-style equality: NULL equals nothing (not even NULL), nor does
    /// NaN; an int equals a float that is exactly that integer.
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Int(a), Int(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(_)) => other.as_exact_int() == Some(*a),
            (Float(_), Int(b)) => self.as_exact_int() == Some(*b),
            _ => false,
        }
    }

    /// Renders the value using `pool` to resolve strings.
    pub fn render(&self, pool: &StringPool) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(id) => pool
                .try_resolve(*id)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("<str#{}>", id.0)),
        }
    }
}

/// Compact float formatting: integers print without a trailing `.0` noise
/// beyond two decimals (matches the paper's table style, e.g. `0.71`).
pub(crate) fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        let s = format!("{f:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", format_float(*x)),
            Value::Str(id) => write!(f, "<str#{}>", id.0),
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
impl From<StrId> for Value {
    fn from(v: StrId) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Int(0).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).sql_eq(&Value::Float(2.1)));
        // Exact, not through a rounding `as f64`.
        let two_53 = 1i64 << 53;
        assert!(!Value::Int(two_53 + 1).sql_eq(&Value::Float(two_53 as f64)));
        assert!(!Value::Int(i64::MAX).sql_eq(&Value::Float(i64::MAX as f64)));
        assert!(Value::Int(i64::MIN).sql_eq(&Value::Float(i64::MIN as f64)));
    }

    #[test]
    fn sql_null_equals_nothing() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1e300).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn render_resolves_strings() {
        let mut p = StringPool::new();
        let id = p.intern("S. Curry");
        assert_eq!(Value::Str(id).render(&p), "S. Curry");
        assert_eq!(Value::Float(0.71).render(&p), "0.71");
        assert_eq!(Value::Float(73.0).render(&p), "73");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            (0u32..1000).prop_map(|i| Value::Str(StrId(i))),
        ]
    }

    proptest! {
        /// total_cmp is antisymmetric.
        #[test]
        fn prop_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        }

        /// total_cmp is transitive (sampled).
        #[test]
        fn prop_cmp_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
            let mut v = [a, b, c];
            v.sort_by(|x, y| x.total_cmp(y));
            prop_assert!(v[0].total_cmp(&v[1]) != Ordering::Greater);
            prop_assert!(v[1].total_cmp(&v[2]) != Ordering::Greater);
            prop_assert!(v[0].total_cmp(&v[2]) != Ordering::Greater);
        }

        /// sql_eq implies total_cmp == Equal for non-null values.
        #[test]
        fn prop_eq_consistent_with_cmp(a in arb_value(), b in arb_value()) {
            if a.sql_eq(&b) {
                prop_assert_eq!(a.total_cmp(&b), Ordering::Equal);
            }
        }
    }
}
