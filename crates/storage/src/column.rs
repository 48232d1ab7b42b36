use crate::pool::StrId;
use crate::schema::DataType;
use crate::value::Value;
use crate::StorageError;

/// A null bitmap: bit `i` set means row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullMask {
    words: Vec<u64>,
    any: bool,
}

impl NullMask {
    /// An empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row's null flag.
    #[inline]
    pub fn push(&mut self, is_null: bool, row: usize) {
        let word = row / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if is_null {
            self.words[word] |= 1 << (row % 64);
            self.any = true;
        }
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if !self.any {
            return false;
        }
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// True iff any row is NULL (fast path check).
    #[inline]
    pub fn any_null(&self) -> bool {
        self.any
    }
}

/// Typed columnar storage for one attribute.
///
/// The variant matches the field's [`DataType`]; NULLs are tracked in a
/// side bitmap with an in-band placeholder in the data vector.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Row values (placeholder 0 where null).
        data: Vec<i64>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// 64-bit floats.
    Float {
        /// Row values (placeholder 0.0 where null).
        data: Vec<f64>,
        /// Null bitmap.
        nulls: NullMask,
    },
    /// Interned strings.
    Str {
        /// Row values (placeholder StrId(0) where null).
        data: Vec<StrId>,
        /// Null bitmap.
        nulls: NullMask,
    },
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Float => Column::Float {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
            DataType::Str => Column::Str {
                data: Vec::new(),
                nulls: NullMask::new(),
            },
        }
    }

    /// Creates an empty column with pre-allocated capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int {
                data: Vec::with_capacity(cap),
                nulls: NullMask::new(),
            },
            DataType::Float => Column::Float {
                data: Vec::with_capacity(cap),
                nulls: NullMask::new(),
            },
            DataType::Str => Column::Str {
                data: Vec::with_capacity(cap),
                nulls: NullMask::new(),
            },
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value, checking its type against the column.
    pub fn push(&mut self, v: Value, column_name: &str) -> Result<(), StorageError> {
        let row = self.len();
        match (self, v) {
            (Column::Int { data, nulls }, Value::Int(i)) => {
                data.push(i);
                nulls.push(false, row);
            }
            (Column::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true, row);
            }
            (Column::Float { data, nulls }, Value::Float(f)) => {
                data.push(f);
                nulls.push(false, row);
            }
            // Ints widen into float columns (convenient for generated data).
            (Column::Float { data, nulls }, Value::Int(i)) => {
                data.push(i as f64);
                nulls.push(false, row);
            }
            (Column::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true, row);
            }
            (Column::Str { data, nulls }, Value::Str(id)) => {
                data.push(id);
                nulls.push(false, row);
            }
            (Column::Str { data, nulls }, Value::Null) => {
                data.push(StrId(0));
                nulls.push(true, row);
            }
            (col, v) => {
                return Err(StorageError::TypeMismatch {
                    column: column_name.to_string(),
                    expected: col.dtype().name(),
                    got: v.type_name(),
                })
            }
        }
        Ok(())
    }

    /// Reads row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            Column::Float { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            Column::Str { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(data[i])
                }
            }
        }
    }

    /// Numeric view of row `i` (ints widen; strings/nulls are `None`).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int { data, nulls } => (!nulls.is_null(i)).then(|| data[i] as f64),
            Column::Float { data, nulls } => (!nulls.is_null(i)).then(|| data[i]),
            Column::Str { .. } => None,
        }
    }

    /// String-id view of row `i`.
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<StrId> {
        match self {
            Column::Str { data, nulls } => (!nulls.is_null(i)).then(|| data[i]),
            _ => None,
        }
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { nulls, .. } => nulls.is_null(i),
            Column::Float { nulls, .. } => nulls.is_null(i),
            Column::Str { nulls, .. } => nulls.is_null(i),
        }
    }

    /// Gathers the rows at `indices` into a new column (projection helper
    /// used by join materialization).
    pub fn gather(&self, indices: &[usize]) -> Column {
        /// The cells and null flags at `indices`.
        fn pick<T: Copy>(data: &[T], nulls: &NullMask, indices: &[usize]) -> (Vec<T>, NullMask) {
            let mut out = Vec::with_capacity(indices.len());
            let mut out_nulls = NullMask::new();
            for (row, &i) in indices.iter().enumerate() {
                out.push(data[i]);
                out_nulls.push(nulls.is_null(i), row);
            }
            (out, out_nulls)
        }
        match self {
            Column::Int { data, nulls } => {
                let (data, nulls) = pick(data, nulls, indices);
                Column::Int { data, nulls }
            }
            Column::Float { data, nulls } => {
                let (data, nulls) = pick(data, nulls, indices);
                Column::Float { data, nulls }
            }
            Column::Str { data, nulls } => {
                let (data, nulls) = pick(data, nulls, indices);
                Column::Str { data, nulls }
            }
        }
    }

    /// Approximate heap footprint in bytes (cell payloads + null bitmap).
    /// Used by cache byte-budget accounting; intentionally cheap rather
    /// than allocator-exact.
    pub fn approx_bytes(&self) -> usize {
        let payload = match self {
            Column::Int { data, .. } => data.len() * std::mem::size_of::<i64>(),
            Column::Float { data, .. } => data.len() * std::mem::size_of::<f64>(),
            Column::Str { data, .. } => data.len() * std::mem::size_of::<crate::StrId>(),
        };
        payload + self.len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nullmask_roundtrip() {
        let mut m = NullMask::new();
        for i in 0..200 {
            m.push(i % 3 == 0, i);
        }
        for i in 0..200 {
            assert_eq!(m.is_null(i), i % 3 == 0, "row {i}");
        }
        assert!(m.any_null());
    }

    #[test]
    fn nullmask_without_nulls_is_cheap() {
        let mut m = NullMask::new();
        for i in 0..100 {
            m.push(false, i);
        }
        assert!(!m.any_null());
        assert!(!m.is_null(50));
    }

    #[test]
    fn push_and_read_back() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(7), "x").unwrap();
        c.push(Value::Null, "x").unwrap();
        c.push(Value::Int(-3), "x").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(7));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(-3));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Int(2), "x").unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = Column::new(DataType::Int);
        let err = c.push(Value::Float(1.5), "pts").unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn gather_projects_rows() {
        let mut c = Column::new(DataType::Str);
        for i in 0..5 {
            c.push(Value::Str(StrId(i)), "x").unwrap();
        }
        let g = c.gather(&[4, 0, 2]);
        assert_eq!(g.value(0), Value::Str(StrId(4)));
        assert_eq!(g.value(1), Value::Str(StrId(0)));
        assert_eq!(g.value(2), Value::Str(StrId(2)));
    }
}
