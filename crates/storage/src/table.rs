use std::sync::Arc;

use crate::column::Column;
use crate::pool::StrId;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::{Result, StorageError};

/// A materialized relation: schema plus typed columns.
///
/// Each column sits behind an [`Arc`] so a reader that outlives the
/// borrow of the table — an APT is a view over base columns — can hold
/// it ([`Table::column_handle`]). Appending to a column someone else
/// holds copies it first, so a handle is a snapshot.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    num_rows: usize,
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| Arc::new(Column::new(f.dtype)))
            .collect();
        Self {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Creates an empty table with row-capacity hint.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| Arc::new(Column::with_capacity(f.dtype, rows)))
            .collect();
        Self {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// A table of `columns`, the `i`-th holding field `i` of `schema` —
    /// for a loader that appends each cell to its column as it parses it.
    /// Refused with `ArityMismatch` for a column count other than the
    /// schema's, `TypeMismatch` for a column of another type than its
    /// field, and `RowOutOfBounds` (`row` the column's length, `len` the
    /// first column's) for columns of unequal lengths.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.fields.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.fields.len(),
                got: columns.len(),
            });
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (col, field) in columns.iter().zip(&schema.fields) {
            if col.dtype() != field.dtype {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.name(),
                    got: col.dtype().name(),
                });
            }
            if col.len() != num_rows {
                return Err(StorageError::RowOutOfBounds {
                    row: col.len(),
                    len: num_rows,
                });
            }
        }
        Ok(Self {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            num_rows,
        })
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by position.
    #[inline]
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// A shared handle to the column at `idx`.
    #[inline]
    pub fn column_handle(&self, idx: usize) -> Arc<Column> {
        Arc::clone(&self.columns[idx])
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .field_index(name)
            .ok_or_else(|| StorageError::NoSuchColumn {
                table: self.schema.name.clone(),
                column: name.to_string(),
            })?;
        Ok(&self.columns[idx])
    }

    /// Cell value at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Full row as owned values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.num_rows {
            return Err(StorageError::RowOutOfBounds {
                row,
                len: self.num_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Re-flags which fields form the primary key — used by ingestion's
    /// post-load composite-key detection, which can only certify a key
    /// after seeing every row. Every named column must exist; all other
    /// fields lose their key flag.
    pub fn set_primary_key(&mut self, key_columns: &[String]) -> Result<()> {
        for name in key_columns {
            if self.schema.field_index(name).is_none() {
                return Err(StorageError::NoSuchColumn {
                    table: self.schema.name.clone(),
                    column: name.clone(),
                });
            }
        }
        for f in &mut self.schema.fields {
            f.is_pk = key_columns.contains(&f.name);
        }
        Ok(())
    }

    /// Rewrites every non-NULL `Str` cell's id `i` to `ids[i]` — how
    /// ingestion moves a table built against its own file's pool onto
    /// the database's. NULL cells keep their placeholder. Panics on an id
    /// `ids` does not cover.
    pub fn remap_strs(&mut self, ids: &[StrId]) {
        let str_columns = self
            .columns
            .iter_mut()
            .filter(|c| c.dtype() == DataType::Str);
        for col in str_columns {
            if let Column::Str { data, nulls } = Arc::make_mut(col) {
                for (row, id) in data.iter_mut().enumerate() {
                    if !nulls.is_null(row) {
                        *id = ids[id.index()];
                    }
                }
            }
        }
    }

    /// Appends a row, type-checking each value.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for ((col, field), v) in self.columns.iter_mut().zip(&self.schema.fields).zip(row) {
            Arc::make_mut(col).push(v, &field.name)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Materializes the subset of rows at `indices` (order preserved,
    /// duplicates allowed) into a new table with the same schema.
    pub fn gather(&self, indices: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(indices)))
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            num_rows: indices.len(),
        }
    }
}

/// Incremental row-at-a-time builder (kept separate from [`Table`] so
/// generators can stream rows without re-checking schema invariants).
#[derive(Debug)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Starts building a table for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            table: Table::new(schema),
        }
    }

    /// Starts building with a row-capacity hint.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        Self {
            table: Table::with_capacity(schema, rows),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<Value>) -> Result<()> {
        self.table.push_row(row)
    }

    /// Finishes and returns the table.
    pub fn finish(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrKind, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("x", DataType::Float, AttrKind::Numeric)
            .build()
    }

    #[test]
    fn push_and_read_rows() {
        let mut t = Table::new(schema());
        t.push_row(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1).unwrap(), vec![Value::Int(2), Value::Null]);
        assert_eq!(t.value(0, 1), Value::Float(0.5));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(schema());
        let err = t.push_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn remap_strs_rewrites_str_cells_and_keeps_nulls() {
        let mut t = Table::new(
            SchemaBuilder::new("s")
                .column("n", DataType::Int, AttrKind::Numeric)
                .column("s", DataType::Str, AttrKind::Categorical)
                .build(),
        );
        for (n, s) in [
            (0, Value::Str(StrId(1))),
            (1, Value::Null),
            (2, Value::Str(StrId(0))),
        ] {
            t.push_row(vec![Value::Int(n), s]).unwrap();
        }
        let before = t.clone();
        t.remap_strs(&[StrId(7), StrId(3)]);
        assert_eq!(t.value(0, 1), Value::Str(StrId(3)));
        assert_eq!(t.value(1, 1), Value::Null);
        assert_eq!(t.value(2, 1), Value::Str(StrId(7)));
        assert_eq!(t.value(2, 0), Value::Int(2));
        assert_eq!(
            before.value(0, 1),
            Value::Str(StrId(1)),
            "a clone is a snapshot"
        );
    }

    #[test]
    fn from_columns_is_the_rows_pushed_and_refuses_misfits() {
        let (mut id, mut x) = (Column::new(DataType::Int), Column::new(DataType::Float));
        let mut pushed = Table::new(schema());
        for (i, v) in [(1, Value::Float(0.5)), (2, Value::Null)] {
            id.push(Value::Int(i), "id").unwrap();
            x.push(v, "x").unwrap();
            pushed.push_row(vec![Value::Int(i), v]).unwrap();
        }
        let t = Table::from_columns(schema(), vec![id.clone(), x.clone()]).unwrap();
        assert_eq!(t.num_rows(), 2);
        for r in 0..2 {
            assert_eq!(t.row(r).unwrap(), pushed.row(r).unwrap());
        }

        let err = Table::from_columns(schema(), vec![id.clone()]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        let err = Table::from_columns(schema(), vec![x.clone(), id.clone()]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        x.push(Value::Float(1.0), "x").unwrap();
        let err = Table::from_columns(schema(), vec![id, x]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::RowOutOfBounds { row: 3, len: 2 }
        ));
    }

    #[test]
    fn row_out_of_bounds() {
        let t = Table::new(schema());
        assert!(matches!(t.row(0), Err(StorageError::RowOutOfBounds { .. })));
    }

    #[test]
    fn column_by_name_errors_mention_table() {
        let t = Table::new(schema());
        let err = t.column_by_name("zzz").unwrap_err();
        assert!(err.to_string().contains("zzz"));
    }

    #[test]
    fn gather_subsets_rows() {
        let mut t = Table::new(schema());
        for i in 0..10 {
            t.push_row(vec![Value::Int(i), Value::Float(i as f64 * 0.1)])
                .unwrap();
        }
        let g = t.gather(&[9, 9, 0]);
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.value(0, 0), Value::Int(9));
        assert_eq!(g.value(1, 0), Value::Int(9));
        assert_eq!(g.value(2, 0), Value::Int(0));
    }

    #[test]
    fn builder_finishes() {
        let mut b = TableBuilder::with_capacity(schema(), 4);
        b.push(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 1);
    }
}
