use std::collections::HashMap;
use std::sync::Arc;

use crate::pool::{StrId, StringPool};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::{Result, StorageError};

/// A foreign-key constraint: `from_table(from_cols) → to_table(to_cols)`.
///
/// Foreign keys serve double duty: referential metadata for the generators'
/// integrity tests, and the seed for the default schema graph (paper §2.2:
/// "our system can extract join conditions from the foreign key constraints
/// of a database").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing relation.
    pub from_table: String,
    /// Referencing attributes.
    pub from_cols: Vec<String>,
    /// Referenced relation.
    pub to_table: String,
    /// Referenced attributes (typically the target's key).
    pub to_cols: Vec<String>,
}

/// A catalog of tables sharing one [`StringPool`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Database name (informational).
    pub name: String,
    tables: Vec<Table>,
    by_name: HashMap<String, usize>,
    foreign_keys: Vec<ForeignKey>,
    pool: StringPool,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Interns a string in the shared pool.
    #[inline]
    pub fn intern(&mut self, s: &str) -> StrId {
        self.pool.intern(s)
    }

    /// Interns a string already shared, without copying it
    /// ([`StringPool::intern_shared`]).
    #[inline]
    pub fn intern_shared(&mut self, s: Arc<str>) -> StrId {
        self.pool.intern_shared(s)
    }

    /// Looks up an interned string without inserting.
    pub fn lookup_str(&self, s: &str) -> Option<StrId> {
        self.pool.get(s)
    }

    /// Resolves an interned string id.
    #[inline]
    pub fn resolve(&self, id: StrId) -> &str {
        self.pool.resolve(id)
    }

    /// The shared string pool.
    #[inline]
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    /// Mutable access to the shared string pool.
    #[inline]
    pub fn pool_mut(&mut self) -> &mut StringPool {
        &mut self.pool
    }

    /// Creates an empty table from `schema` and returns its index.
    pub fn create_table(&mut self, schema: Schema) -> Result<usize> {
        if self.by_name.contains_key(&schema.name) {
            return Err(StorageError::TableExists(schema.name));
        }
        let idx = self.tables.len();
        self.by_name.insert(schema.name.clone(), idx);
        self.tables.push(Table::new(schema));
        Ok(idx)
    }

    /// Inserts a fully-built table.
    pub fn insert_table(&mut self, table: Table) -> Result<usize> {
        if self.by_name.contains_key(table.name()) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        let idx = self.tables.len();
        self.by_name.insert(table.name().to_string(), idx);
        self.tables.push(table);
        Ok(idx)
    }

    /// Replaces an existing table (same name) with a new instance — used by
    /// the dataset scaler.
    pub fn replace_table(&mut self, table: Table) -> Result<()> {
        let idx = *self
            .by_name
            .get(table.name())
            .ok_or_else(|| StorageError::NoSuchTable(table.name().to_string()))?;
        self.tables[idx] = table;
        Ok(())
    }

    /// Position of the table named `name` in [`tables`](Self::tables).
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.table_index(name)
            .map(|i| &self.tables[i])
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        match self.by_name.get(name) {
            Some(&i) => Ok(&mut self.tables[i]),
            None => Err(StorageError::NoSuchTable(name.to_string())),
        }
    }

    /// All tables in creation order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Names of all tables in creation order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name()).collect()
    }

    /// Registers a foreign key after validating that its endpoints exist and
    /// have matching arity.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        if fk.from_cols.len() != fk.to_cols.len() || fk.from_cols.is_empty() {
            return Err(StorageError::InvalidForeignKey(format!(
                "{} → {}: column lists must be equal-length and non-empty",
                fk.from_table, fk.to_table
            )));
        }
        let from = self.table(&fk.from_table).map_err(|_| {
            StorageError::InvalidForeignKey(format!("missing table `{}`", fk.from_table))
        })?;
        for c in &fk.from_cols {
            if from.schema().field_index(c).is_none() {
                return Err(StorageError::InvalidForeignKey(format!(
                    "missing column `{}` in `{}`",
                    c, fk.from_table
                )));
            }
        }
        let to = self.table(&fk.to_table).map_err(|_| {
            StorageError::InvalidForeignKey(format!("missing table `{}`", fk.to_table))
        })?;
        for c in &fk.to_cols {
            if to.schema().field_index(c).is_none() {
                return Err(StorageError::InvalidForeignKey(format!(
                    "missing column `{}` in `{}`",
                    c, fk.to_table
                )));
            }
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// All registered foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Total number of rows across all tables (scale-factor sanity metric).
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }

    /// A content fingerprint of the whole catalog: schemas, foreign keys,
    /// and every cell value (strings hashed by their text, not their
    /// pool id, so logically-equal databases agree regardless of intern
    /// order). Two databases with the same fingerprint hold the same
    /// data: the ingest goldens use it as a content-identity oracle.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.name);
        for t in &self.tables {
            let schema = t.schema();
            h.write_str(&schema.name);
            for f in &schema.fields {
                h.write_str(&f.name);
                h.write_str(f.dtype.name());
                h.write_u64(matches!(f.kind, crate::AttrKind::Numeric) as u64);
                h.write_u64(f.is_pk as u64);
            }
            h.write_u64(t.num_rows() as u64);
            for c in 0..t.num_columns() {
                let col = t.column(c);
                for row in 0..col.len() {
                    match col.value(row) {
                        Value::Null => h.write_u64(0x9E3779B97F4A7C15),
                        Value::Int(i) => {
                            h.write_u64(1);
                            h.write_u64(i as u64);
                        }
                        Value::Float(f) => {
                            h.write_u64(2);
                            // Normalize so 2.0f and NaN payloads hash stably.
                            h.write_u64(if f == 0.0 { 0 } else { f.to_bits() });
                        }
                        Value::Str(id) => {
                            h.write_u64(3);
                            h.write_str(self.pool.resolve(id));
                        }
                    }
                }
            }
        }
        for fk in &self.foreign_keys {
            h.write_str(&fk.from_table);
            for c in &fk.from_cols {
                h.write_str(c);
            }
            h.write_str(&fk.to_table);
            for c in &fk.to_cols {
                h.write_str(c);
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a, kept local so fingerprints are stable across Rust
/// releases (`DefaultHasher`'s algorithm is unspecified).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrKind, DataType, SchemaBuilder};
    use crate::value::Value;

    fn db_with_two_tables() -> Database {
        let mut db = Database::new("nba");
        db.create_table(
            SchemaBuilder::new("team")
                .column_pk("team_id", DataType::Int, AttrKind::Categorical)
                .column("team", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("game_date", DataType::Str, AttrKind::Categorical)
                .column_pk("home_id", DataType::Int, AttrKind::Categorical)
                .column("winner_id", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup() {
        let db = db_with_two_tables();
        assert!(db.table("team").is_ok());
        assert!(db.table("nope").is_err());
        assert_eq!(db.table_names(), vec!["team", "game"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_two_tables();
        let err = db
            .create_table(SchemaBuilder::new("team").build())
            .unwrap_err();
        assert!(matches!(err, StorageError::TableExists(_)));
    }

    #[test]
    fn shared_pool_across_tables() {
        let mut db = db_with_two_tables();
        let gsw = db.intern("GSW");
        let date = db.intern("2016-01-22");
        db.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(gsw)])
            .unwrap();
        db.table_mut("game")
            .unwrap()
            .push_row(vec![Value::Str(date), Value::Int(1), Value::Int(1)])
            .unwrap();
        assert_eq!(db.resolve(gsw), "GSW");
        assert_eq!(db.total_rows(), 2);
    }

    #[test]
    fn foreign_key_validation() {
        let mut db = db_with_two_tables();
        db.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["winner_id".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        })
        .unwrap();
        assert_eq!(db.foreign_keys().len(), 1);

        let bad = db.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["missing".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        });
        assert!(matches!(bad, Err(StorageError::InvalidForeignKey(_))));

        let bad_arity = db.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["winner_id".into(), "home_id".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        });
        assert!(matches!(bad_arity, Err(StorageError::InvalidForeignKey(_))));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = db_with_two_tables();
        let b = db_with_two_tables();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same print");

        // A data change moves the fingerprint.
        let mut c = db_with_two_tables();
        let gsw = c.intern("GSW");
        c.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(gsw)])
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());

        // Equal strings interned in different order still agree.
        let mut d1 = db_with_two_tables();
        let x = d1.intern("x");
        let _y = d1.intern("y");
        let mut d2 = db_with_two_tables();
        let _y = d2.intern("y");
        let x2 = d2.intern("x");
        d1.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(x)])
            .unwrap();
        d2.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(x2)])
            .unwrap();
        assert_eq!(d1.fingerprint(), d2.fingerprint());

        // Foreign keys participate.
        let mut e = db_with_two_tables();
        e.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["winner_id".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        })
        .unwrap();
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn replace_table_swaps_contents() {
        let mut db = db_with_two_tables();
        let schema = db.table("team").unwrap().schema().clone();
        let mut bigger = Table::new(schema);
        bigger.push_row(vec![Value::Int(9), Value::Null]).unwrap();
        db.replace_table(bigger).unwrap();
        assert_eq!(db.table("team").unwrap().num_rows(), 1);
    }
}
