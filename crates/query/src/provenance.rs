//! Why-provenance capture (paper Definition 1).
//!
//! `PT(Q, D)` is the subset of `R_{j1} × … × R_{jp}` (the relations accessed
//! by `Q`) that satisfies the query's WHERE clause; `PT(Q, D, t)` is the
//! subset contributing to output tuple `t` (its group). We materialize the
//! full-width rows with attributes renamed using the paper's convention —
//! `prov_<rel>_<attr>` with underscores inside names doubled, e.g.
//! `player_game_stats.minutes` → `prov_player__game__stats_minutes` — and
//! record for every provenance row the output tuple it belongs to.
//!
//! This mirrors what the paper obtains from GProM/Perm, and it is the `PT`
//! node that every join graph hangs off (paper §2.2).

use std::sync::Arc;

use cajade_storage::{AttrKind, Column, DataType, Database, Value};

use crate::ast::Query;
use crate::exec::{aggregate, group, join_rows, Binder, Joined, QueryResult};
use crate::Result;

/// Renames `rel.attr` into the paper's provenance-attribute style:
/// `prov_` + rel with `_` doubled + `_` + attr with `_` doubled.
///
/// ```
/// use cajade_query::prov_attr_name;
/// assert_eq!(
///     prov_attr_name("player_game_stats", "minutes"),
///     "prov_player__game__stats_minutes"
/// );
/// assert_eq!(
///     prov_attr_name("game", "away_points"),
///     "prov_game_away__points"
/// );
/// ```
pub fn prov_attr_name(rel: &str, attr: &str) -> String {
    format!(
        "prov_{}_{}",
        rel.replace('_', "__"),
        attr.replace('_', "__")
    )
}

/// [`execute`](crate::execute) and [`ProvenanceTable::compute`] over one
/// join and one grouping of `query` — what a caller needing both (every
/// `query` op of the service) would otherwise compute twice.
pub fn execute_with_provenance(
    db: &Database,
    query: &Query,
) -> Result<(QueryResult, ProvenanceTable)> {
    let binder = Binder::new(db, query)?;
    let joined = join_rows(&binder)?;
    let grouping = group(&binder, &joined)?;
    let result = aggregate(&binder, &joined, &grouping)?;
    let pt = ProvenanceTable::from_parts(
        db,
        query,
        &binder,
        &joined,
        grouping.group_of,
        grouping.keys,
    )?;
    Ok((result, pt))
}

/// One attribute of the provenance table.
#[derive(Debug, Clone)]
pub struct PtField {
    /// Wide (renamed) attribute name.
    pub name: String,
    /// FROM entry index this attribute came from.
    pub from_idx: usize,
    /// Source relation name.
    pub table: String,
    /// Source alias in the query.
    pub alias: String,
    /// Original attribute name.
    pub attr: String,
    /// Physical type.
    pub dtype: DataType,
    /// Mining kind.
    pub kind: AttrKind,
    /// True iff this attribute is used in GROUP BY — such attributes are
    /// excluded from patterns (paper §2.4: "patterns are not allowed to
    /// include attributes used in grouping").
    pub is_group_by: bool,
}

/// Materialized why-provenance of an aggregate query.
#[derive(Debug, Clone)]
pub struct ProvenanceTable {
    /// Wide schema.
    pub fields: Vec<PtField>,
    /// Wide columns, parallel to `fields`; shared handles, so an APT can
    /// view them without copying.
    pub columns: Vec<Arc<Column>>,
    /// Number of provenance rows.
    pub num_rows: usize,
    /// Provenance row → output-tuple (group) index.
    pub group_of: Vec<u32>,
    /// Group keys (values of the GROUP BY columns), one per output tuple.
    pub group_keys: Vec<Vec<Value>>,
    /// For each output tuple, the provenance row ids contributing to it.
    pub rows_of_group: Vec<Vec<u32>>,
    /// `(table, alias)` of each FROM entry (wide column provenance).
    pub from_entries: Vec<(String, String)>,
}

impl ProvenanceTable {
    /// Computes `PT(Q, D)` with the group mapping (Definition 1).
    pub fn compute(db: &Database, query: &Query) -> Result<ProvenanceTable> {
        let binder = Binder::new(db, query)?;
        let joined = join_rows(&binder)?;
        let grouping = group(&binder, &joined)?;
        Self::from_parts(
            db,
            query,
            &binder,
            &joined,
            grouping.group_of,
            grouping.keys,
        )
    }

    fn from_parts(
        _db: &Database,
        query: &Query,
        binder: &Binder<'_>,
        joined: &Joined,
        group_of: Vec<u32>,
        group_keys: Vec<Vec<Value>>,
    ) -> Result<ProvenanceTable> {
        // Which (from_idx, col_idx) pairs are group-by attributes?
        let mut gb_cols = Vec::new();
        for col in &query.group_by {
            let b = binder.bind(col)?;
            gb_cols.push((b.from_idx, b.col_idx));
        }

        // Duplicate-table detection: if a relation appears under several
        // aliases, the alias (not the table name) disambiguates the wide
        // attribute names.
        let mut fields = Vec::new();
        let mut per_entry_rows: Vec<Vec<usize>> =
            vec![Vec::with_capacity(joined.num_rows()); query.from.len()];
        for i in 0..joined.num_rows() {
            let row = joined.row(i);
            for (k, r) in row.iter().enumerate() {
                per_entry_rows[k].push(*r as usize);
            }
        }

        let mut columns = Vec::new();
        for (k, tref) in query.from.iter().enumerate() {
            let table = binder.tables[k];
            let dup = query.from.iter().filter(|t| t.table == tref.table).count() > 1;
            let rel_label = if dup { &tref.alias } else { &tref.table };
            for (ci, f) in table.schema().fields.iter().enumerate() {
                fields.push(PtField {
                    name: prov_attr_name(rel_label, &f.name),
                    from_idx: k,
                    table: tref.table.clone(),
                    alias: tref.alias.clone(),
                    attr: f.name.clone(),
                    dtype: f.dtype,
                    kind: f.kind,
                    is_group_by: gb_cols.contains(&(k, ci)),
                });
                columns.push(Arc::new(table.column(ci).gather(&per_entry_rows[k])));
            }
        }

        let num_rows = joined.num_rows();
        let mut rows_of_group: Vec<Vec<u32>> = vec![Vec::new(); group_keys.len()];
        for (i, &g) in group_of.iter().enumerate() {
            rows_of_group[g as usize].push(i as u32);
        }

        Ok(ProvenanceTable {
            fields,
            columns,
            num_rows,
            group_of,
            group_keys,
            rows_of_group,
            from_entries: query
                .from
                .iter()
                .map(|t| (t.table.clone(), t.alias.clone()))
                .collect(),
        })
    }

    /// Index of the wide field with the given name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Number of output tuples (groups).
    pub fn num_groups(&self) -> usize {
        self.group_keys.len()
    }

    /// Size of `PT(Q, D, t)` for output tuple `t`.
    pub fn group_size(&self, group: usize) -> usize {
        self.rows_of_group[group].len()
    }

    /// Approximate heap footprint in bytes: wide columns plus the
    /// group-mapping vectors. Drives the service cache's byte budget.
    pub fn approx_bytes(&self) -> usize {
        let u32sz = std::mem::size_of::<u32>();
        self.columns.iter().map(|c| c.approx_bytes()).sum::<usize>()
            + self.group_of.len() * u32sz
            + self
                .rows_of_group
                .iter()
                .map(|g| g.len() * u32sz)
                .sum::<usize>()
            + self
                .group_keys
                .iter()
                .map(|k| std::mem::size_of::<Vec<Value>>() + k.len() * std::mem::size_of::<Value>())
                .sum::<usize>()
            + self
                .fields
                .iter()
                .map(|f| f.name.len() + std::mem::size_of::<PtField>())
                .sum::<usize>()
    }

    /// Cell accessor.
    #[inline]
    pub fn value(&self, row: usize, field: usize) -> Value {
        self.columns[field].value(row)
    }

    /// Finds the output tuple whose group key matches the given
    /// `(column, rendered value)` pairs (column names are the *original*
    /// group-by column names).
    pub fn find_group(
        &self,
        db: &Database,
        query: &Query,
        wanted: &[(&str, &str)],
    ) -> Option<usize> {
        'groups: for (g, key) in self.group_keys.iter().enumerate() {
            for (col, text) in wanted {
                let pos = query.group_by.iter().position(|c| c.column == *col)?;
                let cell = &key[pos];
                let ok = match cell {
                    Value::Str(id) => db.resolve(*id) == *text,
                    Value::Int(i) => text.parse::<i64>().is_ok_and(|t| t == *i),
                    Value::Float(f) => text.parse::<f64>().is_ok_and(|t| (t - f).abs() < 1e-9),
                    Value::Null => text.eq_ignore_ascii_case("null"),
                };
                if !ok {
                    continue 'groups;
                }
            }
            return Some(g);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_sql;
    use cajade_storage::{AttrKind, DataType, SchemaBuilder};

    /// The Example-1 Game table from Figure 1a.
    fn example1_db() -> Database {
        let mut db = Database::new("nba-example1");
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("year", DataType::Int, AttrKind::Categorical)
                .column_pk("month", DataType::Int, AttrKind::Categorical)
                .column_pk("day", DataType::Int, AttrKind::Categorical)
                .column_pk("home", DataType::Str, AttrKind::Categorical)
                .column("away", DataType::Str, AttrKind::Categorical)
                .column("home_pts", DataType::Int, AttrKind::Numeric)
                .column("away_pts", DataType::Int, AttrKind::Numeric)
                .column("winner", DataType::Str, AttrKind::Categorical)
                .column("season", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let vals = [
            (2013, 1, 2, "MIA", "DAL", 119, 109, "MIA", "2012-13"),
            (2012, 12, 5, "DET", "GSW", 97, 104, "GSW", "2012-13"),
            (2015, 10, 27, "GSW", "NOP", 111, 95, "GSW", "2015-16"),
            (2014, 1, 5, "GSW", "WAS", 96, 112, "GSW", "2013-14"),
            (2016, 1, 22, "GSW", "IND", 122, 110, "GSW", "2015-16"),
        ];
        for (y, m, d, h, a, hp, ap, w, s) in vals {
            let h = db.intern(h);
            let a = db.intern(a);
            let w = db.intern(w);
            let s = db.intern(s);
            db.table_mut("game")
                .unwrap()
                .push_row(vec![
                    Value::Int(y),
                    Value::Int(m),
                    Value::Int(d),
                    Value::Str(h),
                    Value::Str(a),
                    Value::Int(hp),
                    Value::Int(ap),
                    Value::Str(w),
                    Value::Str(s),
                ])
                .unwrap();
        }
        db
    }

    fn q1() -> Query {
        parse_sql(
            "SELECT winner as team, season, count(*) as win \
             FROM game WHERE winner = 'GSW' GROUP BY winner, season",
        )
        .unwrap()
    }

    /// Example 2: PT(Q1, D) contains g2..g5; PT(Q1, D, t1) = {g2};
    /// PT(Q1, D, t2) = {g3, g5}.
    #[test]
    fn example2_provenance_partition() {
        let db = example1_db();
        let pt = ProvenanceTable::compute(&db, &q1()).unwrap();
        assert_eq!(pt.num_rows, 4, "g2, g3, g4, g5 won by GSW");

        let t1 = pt.find_group(&db, &q1(), &[("season", "2012-13")]).unwrap();
        let t2 = pt.find_group(&db, &q1(), &[("season", "2015-16")]).unwrap();
        assert_eq!(pt.group_size(t1), 1);
        assert_eq!(pt.group_size(t2), 2);
        // And 2013-14 exists with one row.
        let t3 = pt.find_group(&db, &q1(), &[("season", "2013-14")]).unwrap();
        assert_eq!(pt.group_size(t3), 1);
    }

    #[test]
    fn wide_names_follow_paper_convention() {
        let db = example1_db();
        let pt = ProvenanceTable::compute(&db, &q1()).unwrap();
        assert!(pt.field_index("prov_game_home__pts").is_some());
        assert!(pt.field_index("prov_game_winner").is_some());
    }

    #[test]
    fn group_by_attrs_flagged() {
        let db = example1_db();
        let pt = ProvenanceTable::compute(&db, &q1()).unwrap();
        let winner = pt.field_index("prov_game_winner").unwrap();
        let season = pt.field_index("prov_game_season").unwrap();
        let pts = pt.field_index("prov_game_home__pts").unwrap();
        assert!(pt.fields[winner].is_group_by);
        assert!(pt.fields[season].is_group_by);
        assert!(!pt.fields[pts].is_group_by);
    }

    #[test]
    fn self_join_uses_aliases() {
        let mut db = Database::new("x");
        db.create_table(
            SchemaBuilder::new("lineup_player")
                .column_pk("lineupid", DataType::Int, AttrKind::Categorical)
                .column_pk("player", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let a = db.intern("A");
        let b = db.intern("B");
        for (l, p) in [(1, a), (1, b)] {
            db.table_mut("lineup_player")
                .unwrap()
                .push_row(vec![Value::Int(l), Value::Str(p)])
                .unwrap();
        }
        let q = parse_sql(
            "SELECT count(*) AS c, l1.player FROM lineup_player l1, lineup_player l2 \
             WHERE l1.lineupid = l2.lineupid GROUP BY l1.player",
        )
        .unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        // Aliases disambiguate the wide names.
        assert!(pt.field_index("prov_l1_player").is_some());
        assert!(pt.field_index("prov_l2_player").is_some());
        assert_eq!(pt.num_rows, 4); // 2x2 pairs sharing lineup 1
    }

    /// The combined entry point returns what the two separate calls do, on
    /// this module's fixtures and on `exec`'s.
    #[test]
    fn execute_with_provenance_equals_the_separate_calls() {
        let self_join = parse_sql(
            "SELECT count(*) AS c, l1.home FROM game l1, game l2 \
             WHERE l1.season = l2.season GROUP BY l1.home",
        )
        .unwrap();
        let mini = [
            "SELECT count(*) AS win, g.season FROM team t, game g \
             WHERE t.team_id = g.winner_id AND t.team = 'GSW' GROUP BY g.season",
            "SELECT avg(home_points) AS ap, min(home_points) AS mn, season \
             FROM game GROUP BY season",
        ];
        let mut cases = vec![(example1_db(), q1()), (example1_db(), self_join)];
        cases.extend(mini.map(|sql| (crate::exec::tests::mini_db(), parse_sql(sql).unwrap())));
        for (db, q) in cases {
            let (result, pt) = execute_with_provenance(&db, &q).unwrap();
            let separate = (
                crate::execute(&db, &q).unwrap(),
                ProvenanceTable::compute(&db, &q).unwrap(),
            );
            assert_eq!(format!("{result:?}"), format!("{:?}", separate.0));
            assert_eq!(format!("{pt:?}"), format!("{:?}", separate.1));
        }
    }
}
