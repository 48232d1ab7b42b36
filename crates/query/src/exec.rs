//! Query evaluation: selection pushdown, hash equi-joins over the FROM
//! list, residual filters, and hash aggregation.
//!
//! The intermediate representation is a flattened row-id matrix
//! ([`Joined`]): for every surviving combination, one `u32` row id per FROM
//! entry. Provenance capture ([`crate::ProvenanceTable`]) reuses the same
//! evaluation, so the provenance is by construction exactly the
//! why-provenance of the aggregation (Definition 1).

use std::collections::HashMap;

use bytes::BytesMut;
use cajade_storage::rowkey::{encode_group_key, encode_key_into};
use cajade_storage::{AttrKind, DataType, Database, Table, Value};

use crate::ast::*;
use crate::{QueryError, Result};

/// A resolved column: FROM-entry index + column index within that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BoundCol {
    pub from_idx: usize,
    pub col_idx: usize,
}

/// Column-resolution context for a query.
pub(crate) struct Binder<'a> {
    pub db: &'a Database,
    pub query: &'a Query,
    /// Base tables in FROM order.
    pub tables: Vec<&'a Table>,
}

impl<'a> Binder<'a> {
    pub fn new(db: &'a Database, query: &'a Query) -> Result<Self> {
        let mut tables = Vec::with_capacity(query.from.len());
        for t in &query.from {
            tables.push(db.table(&t.table)?);
        }
        // Alias uniqueness.
        for (i, a) in query.from.iter().enumerate() {
            for b in &query.from[i + 1..] {
                if a.alias == b.alias {
                    return Err(QueryError::Unsupported(format!(
                        "duplicate alias `{}` in FROM",
                        a.alias
                    )));
                }
            }
        }
        Ok(Self { db, query, tables })
    }

    /// Resolves a column reference to its FROM entry and column index.
    pub fn bind(&self, col: &ColRef) -> Result<BoundCol> {
        match &col.qualifier {
            Some(q) => {
                let from_idx = self
                    .query
                    .from
                    .iter()
                    .position(|t| t.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| QueryError::UnknownAlias(q.clone()))?;
                let col_idx = self.tables[from_idx]
                    .schema()
                    .field_index(&col.column)
                    .ok_or_else(|| QueryError::UnknownColumn(col.to_string()))?;
                Ok(BoundCol { from_idx, col_idx })
            }
            None => {
                let mut hit = None;
                for (from_idx, t) in self.tables.iter().enumerate() {
                    if let Some(col_idx) = t.schema().field_index(&col.column) {
                        if hit.is_some() {
                            return Err(QueryError::AmbiguousColumn(col.column.clone()));
                        }
                        hit = Some(BoundCol { from_idx, col_idx });
                    }
                }
                hit.ok_or_else(|| QueryError::UnknownColumn(col.column.clone()))
            }
        }
    }

    /// Interns/resolves a literal into a runtime [`Value`]. Unknown string
    /// literals resolve to a value that matches nothing (id lookup miss).
    pub fn literal_value(&self, lit: &Literal) -> Option<Value> {
        match lit {
            Literal::Int(i) => Some(Value::Int(*i)),
            Literal::Float(f) => Some(Value::Float(*f)),
            Literal::Str(s) => self.db.lookup_str(s).map(Value::Str),
        }
    }
}

/// Flattened join result: `data[row * stride + k]` is the row id in FROM
/// entry `k` for surviving combination `row`.
#[derive(Debug, Clone)]
pub(crate) struct Joined {
    pub stride: usize,
    pub data: Vec<u32>,
}

impl Joined {
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }
}

/// Classified predicates after binding.
struct Classified {
    /// Per-FROM-entry single-table predicates (literal comparisons and
    /// intra-table column comparisons) — pushed down before joining.
    per_entry: Vec<Vec<EntryPred>>,
    /// Cross-entry equality predicates, used for hash joins.
    equi: Vec<(BoundCol, BoundCol)>,
    /// Cross-entry non-equality predicates — residual filters.
    residual: Vec<(BoundCol, CmpOp, BoundCol)>,
}

enum EntryPred {
    Lit(usize, CmpOp, Value),
    /// Literal string that is not in the pool: matches nothing for Eq,
    /// everything for Ne (SQL three-valued logic collapsed: unknown strings
    /// are simply absent from the data).
    ImpossibleEq,
    Cols(usize, CmpOp, usize),
}

fn classify(binder: &Binder<'_>) -> Result<Classified> {
    let n = binder.query.from.len();
    let mut per_entry: Vec<Vec<EntryPred>> = (0..n).map(|_| Vec::new()).collect();
    let mut equi = Vec::new();
    let mut residual = Vec::new();

    for p in &binder.query.predicates {
        match p {
            Predicate::ColLit(col, op, lit) => {
                let b = binder.bind(col)?;
                match binder.literal_value(lit) {
                    Some(v) => per_entry[b.from_idx].push(EntryPred::Lit(b.col_idx, *op, v)),
                    None => {
                        // Unknown interned string.
                        if *op == CmpOp::Eq {
                            per_entry[b.from_idx].push(EntryPred::ImpossibleEq);
                        }
                        // For Ne against an unknown string every non-null row
                        // passes; nulls fail but comparing Null via sql
                        // semantics already fails, handled below by treating
                        // the predicate as absent — acceptable for this
                        // query class.
                    }
                }
            }
            Predicate::ColCol(a, op, b) => {
                let ba = binder.bind(a)?;
                let bb = binder.bind(b)?;
                if ba.from_idx == bb.from_idx {
                    per_entry[ba.from_idx].push(EntryPred::Cols(ba.col_idx, *op, bb.col_idx));
                } else if *op == CmpOp::Eq {
                    equi.push((ba, bb));
                } else {
                    residual.push((ba, *op, bb));
                }
            }
        }
    }
    Ok(Classified {
        per_entry,
        equi,
        residual,
    })
}

/// Evaluates the FROM/WHERE part of the query, returning surviving row-id
/// combinations.
pub(crate) fn join_rows(binder: &Binder<'_>) -> Result<Joined> {
    let classified = classify(binder)?;
    let n = binder.query.from.len();

    // Selection pushdown: candidate row ids per FROM entry.
    let mut candidates: Vec<Vec<u32>> = Vec::with_capacity(n);
    for (idx, table) in binder.tables.iter().enumerate() {
        let preds = &classified.per_entry[idx];
        let mut rows = Vec::new();
        'rows: for r in 0..table.num_rows() {
            for p in preds {
                match p {
                    EntryPred::ImpossibleEq => continue 'rows,
                    EntryPred::Lit(c, op, v) => {
                        let cell = table.column(*c).value(r);
                        if cell.is_null() {
                            continue 'rows;
                        }
                        if !op.eval(cell.total_cmp(v)) {
                            continue 'rows;
                        }
                    }
                    EntryPred::Cols(a, op, b) => {
                        let va = table.column(*a).value(r);
                        let vb = table.column(*b).value(r);
                        if va.is_null() || vb.is_null() {
                            continue 'rows;
                        }
                        if !op.eval(va.total_cmp(&vb)) {
                            continue 'rows;
                        }
                    }
                }
            }
            rows.push(r as u32);
        }
        candidates.push(rows);
    }

    // Iteratively join entries 0..n in FROM order.
    let mut joined = Joined {
        stride: 1,
        data: candidates[0].clone(),
    };

    let mut scratch = BytesMut::new();
    #[allow(clippy::needless_range_loop)] // k indexes tables, candidates, and combos in lockstep
    for k in 1..n {
        let table_k = binder.tables[k];
        // Equi-join conditions connecting entry k to entries < k
        // (normalized so `.0` is the earlier side and `.1` is entry k).
        let conds: Vec<(BoundCol, BoundCol)> = classified
            .equi
            .iter()
            .filter_map(|(a, b)| {
                if a.from_idx == k && b.from_idx < k {
                    Some((*b, *a))
                } else if b.from_idx == k && a.from_idx < k {
                    Some((*a, *b))
                } else {
                    None
                }
            })
            .collect();

        let mut next = Vec::new();
        if conds.is_empty() {
            // Cross join with candidates of k.
            for i in 0..joined.num_rows() {
                for &r in &candidates[k] {
                    next.extend_from_slice(joined.row(i));
                    next.push(r);
                }
            }
        } else {
            // Build hash table on entry k side.
            let mut build: HashMap<Vec<u8>, Vec<u32>> = HashMap::with_capacity(candidates[k].len());
            let key_cols_k: Vec<usize> = conds.iter().map(|(_, b)| b.col_idx).collect();
            let mut key_vals = Vec::with_capacity(key_cols_k.len());
            for &r in &candidates[k] {
                key_vals.clear();
                for &c in &key_cols_k {
                    key_vals.push(table_k.column(c).value(r as usize));
                }
                if let Some(key) = encode_key_into(&mut scratch, &key_vals) {
                    build.entry(key.to_vec()).or_default().push(r);
                }
            }
            // Probe with earlier combinations.
            let probe_cols: Vec<BoundCol> = conds.iter().map(|(a, _)| *a).collect();
            for i in 0..joined.num_rows() {
                let row = joined.row(i);
                key_vals.clear();
                for bc in &probe_cols {
                    let base_row = row[bc.from_idx] as usize;
                    key_vals.push(
                        binder.tables[bc.from_idx]
                            .column(bc.col_idx)
                            .value(base_row),
                    );
                }
                let Some(key) = encode_key_into(&mut scratch, &key_vals) else {
                    continue;
                };
                if let Some(matches) = build.get(key) {
                    for &r in matches {
                        next.extend_from_slice(row);
                        next.push(r);
                    }
                }
            }
        }
        joined = Joined {
            stride: k + 1,
            data: next,
        };
    }

    // Residual cross-entry non-equality predicates.
    if !classified.residual.is_empty() {
        let mut filtered = Vec::with_capacity(joined.data.len());
        'combo: for i in 0..joined.num_rows() {
            let row = joined.row(i);
            for (a, op, b) in &classified.residual {
                let va = binder.tables[a.from_idx]
                    .column(a.col_idx)
                    .value(row[a.from_idx] as usize);
                let vb = binder.tables[b.from_idx]
                    .column(b.col_idx)
                    .value(row[b.from_idx] as usize);
                if va.is_null() || vb.is_null() || !op.eval(va.total_cmp(&vb)) {
                    continue 'combo;
                }
            }
            filtered.extend_from_slice(row);
        }
        joined.data = filtered;
    }

    Ok(joined)
}

/// Grouping of joined rows by the GROUP BY key.
pub(crate) struct Grouping {
    /// Joined-row → group index.
    pub group_of: Vec<u32>,
    /// Group key values, one vector per group, in first-seen order.
    pub keys: Vec<Vec<Value>>,
}

pub(crate) fn group(binder: &Binder<'_>, joined: &Joined) -> Result<Grouping> {
    let bound_keys: Vec<BoundCol> = binder
        .query
        .group_by
        .iter()
        .map(|c| binder.bind(c))
        .collect::<Result<_>>()?;

    let mut by_key: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut group_of = Vec::with_capacity(joined.num_rows());

    let mut key_vals = Vec::with_capacity(bound_keys.len());
    for i in 0..joined.num_rows() {
        let row = joined.row(i);
        key_vals.clear();
        for bc in &bound_keys {
            key_vals.push(
                binder.tables[bc.from_idx]
                    .column(bc.col_idx)
                    .value(row[bc.from_idx] as usize),
            );
        }
        let key = encode_group_key(&key_vals);
        let g = *by_key.entry(key).or_insert_with(|| {
            keys.push(key_vals.clone());
            (keys.len() - 1) as u32
        });
        group_of.push(g);
    }
    Ok(Grouping { group_of, keys })
}

/// Result of executing a query: an output table whose first columns are the
/// GROUP BY attributes (schema order of the query) followed by the
/// aggregates.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows.
    pub table: Table,
    /// Names of the group-by columns in the output.
    pub group_cols: Vec<String>,
    /// Names of the aggregate columns in the output.
    pub agg_cols: Vec<String>,
}

impl QueryResult {
    /// Number of output tuples.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Finds the output tuple whose listed columns render (via `db`'s pool)
    /// to the given strings. Numeric cells compare numerically.
    pub fn find_row(&self, db: &Database, wanted: &[(&str, &str)]) -> Option<usize> {
        'rows: for r in 0..self.table.num_rows() {
            for (col, text) in wanted {
                let idx = self.table.schema().field_index(col)?;
                let cell = self.table.value(r, idx);
                let matches = match cell {
                    Value::Str(id) => db.resolve(id) == *text,
                    Value::Int(i) => text.parse::<i64>().is_ok_and(|t| t == i),
                    Value::Float(f) => text.parse::<f64>().is_ok_and(|t| (t - f).abs() < 1e-9),
                    Value::Null => text.eq_ignore_ascii_case("null"),
                };
                if !matches {
                    continue 'rows;
                }
            }
            return Some(r);
        }
        None
    }

    /// Renders the result as an aligned text table (examples / harness).
    pub fn render(&self, db: &Database) -> String {
        let schema = self.table.schema();
        let mut widths: Vec<usize> = schema.fields.iter().map(|f| f.name.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.table.num_rows());
        for r in 0..self.table.num_rows() {
            let row: Vec<String> = (0..schema.arity())
                .map(|c| self.table.value(r, c).render(db.pool()))
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        for (i, f) in schema.fields.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", f.name, w = widths[i]));
        }
        out.push('\n');
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Executes a query against `db`.
pub fn execute(db: &Database, query: &Query) -> Result<QueryResult> {
    let binder = Binder::new(db, query)?;
    let joined = join_rows(&binder)?;
    let grouping = group(&binder, &joined)?;
    aggregate(&binder, &joined, &grouping)
}

fn agg_output_type(binder: &Binder<'_>, func: &AggFunc) -> Result<DataType> {
    Ok(match func {
        AggFunc::CountStar | AggFunc::Count(_) => DataType::Int,
        AggFunc::Avg(_) | AggFunc::RateSumCount(_) => DataType::Float,
        AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) => {
            let b = binder.bind(c)?;
            let dt = binder.tables[b.from_idx].schema().fields[b.col_idx].dtype;
            if dt == DataType::Str {
                return Err(QueryError::BadAggregate(format!(
                    "cannot aggregate string column `{c}`"
                )));
            }
            dt
        }
    })
}

pub(crate) fn aggregate(
    binder: &Binder<'_>,
    joined: &Joined,
    grouping: &Grouping,
) -> Result<QueryResult> {
    let num_groups = grouping.keys.len();

    // Output schema: group-by columns then aggregates.
    let mut fields: Vec<(String, DataType, AttrKind)> = Vec::new();
    let mut group_cols = Vec::new();
    for col in &binder.query.group_by {
        let b = binder.bind(col)?;
        let f = &binder.tables[b.from_idx].schema().fields[b.col_idx];
        group_cols.push(f.name.clone());
        fields.push((f.name.clone(), f.dtype, f.kind));
    }
    let mut agg_cols = Vec::new();
    for agg in &binder.query.aggregates {
        agg_cols.push(agg.alias.clone());
        fields.push((
            agg.alias.clone(),
            agg_output_type(binder, &agg.func)?,
            AttrKind::Numeric,
        ));
    }

    // Accumulators: per aggregate, per group.
    #[derive(Clone, Copy)]
    struct Acc {
        count: u64,
        nonnull: u64,
        sum: f64,
        min: f64,
        max: f64,
    }
    let zero = Acc {
        count: 0,
        nonnull: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };
    let bound_args: Vec<Option<BoundCol>> = binder
        .query
        .aggregates
        .iter()
        .map(|a| match &a.func {
            AggFunc::CountStar => Ok(None),
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c)
            | AggFunc::RateSumCount(c) => binder.bind(c).map(Some),
        })
        .collect::<Result<_>>()?;

    let mut accs: Vec<Vec<Acc>> = vec![vec![zero; num_groups]; binder.query.aggregates.len()];
    for i in 0..joined.num_rows() {
        let g = grouping.group_of[i] as usize;
        let row = joined.row(i);
        for (ai, arg) in bound_args.iter().enumerate() {
            let acc = &mut accs[ai][g];
            acc.count += 1;
            if let Some(bc) = arg {
                let v = binder.tables[bc.from_idx]
                    .column(bc.col_idx)
                    .value(row[bc.from_idx] as usize);
                if let Some(x) = v.as_f64() {
                    acc.nonnull += 1;
                    acc.sum += x;
                    acc.min = acc.min.min(x);
                    acc.max = acc.max.max(x);
                }
            }
        }
    }

    // Materialize output table.
    let mut sb = cajade_storage::SchemaBuilder::new("query_result");
    for (name, dtype, kind) in &fields {
        sb = sb.column(name.clone(), *dtype, *kind);
    }
    let mut table = Table::with_capacity(sb.build(), num_groups);
    #[allow(clippy::needless_range_loop)]
    // g indexes both group keys and per-aggregate accumulators
    for g in 0..num_groups {
        let mut row: Vec<Value> = grouping.keys[g].clone();
        for (ai, agg) in binder.query.aggregates.iter().enumerate() {
            let acc = &accs[ai][g];
            let v = match &agg.func {
                AggFunc::CountStar => Value::Int(acc.count as i64),
                AggFunc::Count(_) => Value::Int(acc.nonnull as i64),
                AggFunc::Sum(c) => {
                    let b = binder.bind(c)?;
                    match binder.tables[b.from_idx].schema().fields[b.col_idx].dtype {
                        DataType::Int => Value::Int(acc.sum as i64),
                        _ => Value::Float(acc.sum),
                    }
                }
                AggFunc::Avg(_) => {
                    if acc.nonnull == 0 {
                        Value::Null
                    } else {
                        Value::Float(acc.sum / acc.nonnull as f64)
                    }
                }
                AggFunc::RateSumCount(_) => {
                    if acc.count == 0 {
                        Value::Null
                    } else {
                        Value::Float(acc.sum / acc.count as f64)
                    }
                }
                AggFunc::Min(c) => {
                    if acc.nonnull == 0 {
                        Value::Null
                    } else {
                        let b = binder.bind(c)?;
                        match binder.tables[b.from_idx].schema().fields[b.col_idx].dtype {
                            DataType::Int => Value::Int(acc.min as i64),
                            _ => Value::Float(acc.min),
                        }
                    }
                }
                AggFunc::Max(c) => {
                    if acc.nonnull == 0 {
                        Value::Null
                    } else {
                        let b = binder.bind(c)?;
                        match binder.tables[b.from_idx].schema().fields[b.col_idx].dtype {
                            DataType::Int => Value::Int(acc.max as i64),
                            _ => Value::Float(acc.max),
                        }
                    }
                }
            };
            row.push(v);
        }
        table.push_row(row)?;
    }

    Ok(QueryResult {
        table,
        group_cols,
        agg_cols,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parse_sql;
    use cajade_storage::{AttrKind, DataType, SchemaBuilder};

    /// Tiny two-season NBA-flavoured database.
    pub(crate) fn mini_db() -> Database {
        let mut db = Database::new("mini");
        db.create_table(
            SchemaBuilder::new("team")
                .column_pk("team_id", DataType::Int, AttrKind::Categorical)
                .column("team", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column("winner_id", DataType::Int, AttrKind::Categorical)
                .column("season", DataType::Str, AttrKind::Categorical)
                .column("home_points", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let gsw = db.intern("GSW");
        let mia = db.intern("MIA");
        let s12 = db.intern("2012-13");
        let s15 = db.intern("2015-16");
        db.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(gsw)])
            .unwrap();
        db.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(2), Value::Str(mia)])
            .unwrap();
        let games = [
            (1, 1, s12, 100),
            (2, 1, s12, 90),
            (3, 2, s12, 95),
            (4, 1, s15, 110),
            (5, 1, s15, 120),
            (6, 1, s15, 105),
            (7, 2, s15, 99),
        ];
        for (id, w, s, p) in games {
            db.table_mut("game")
                .unwrap()
                .push_row(vec![
                    Value::Int(id),
                    Value::Int(w),
                    Value::Str(s),
                    Value::Int(p),
                ])
                .unwrap();
        }
        db
    }

    #[test]
    fn count_star_group_by() {
        let db = mini_db();
        let q = parse_sql(
            "SELECT count(*) AS win, g.season FROM team t, game g \
             WHERE t.team_id = g.winner_id AND t.team = 'GSW' GROUP BY g.season",
        )
        .unwrap();
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.num_rows(), 2);
        let r12 = r.find_row(&db, &[("season", "2012-13")]).unwrap();
        let r15 = r.find_row(&db, &[("season", "2015-16")]).unwrap();
        let win_idx = r.table.schema().field_index("win").unwrap();
        assert_eq!(r.table.value(r12, win_idx), Value::Int(2));
        assert_eq!(r.table.value(r15, win_idx), Value::Int(3));
    }

    #[test]
    fn avg_and_minmax() {
        let db = mini_db();
        let q = parse_sql(
            "SELECT avg(home_points) AS ap, min(home_points) AS mn, max(home_points) AS mx, \
             season FROM game GROUP BY season",
        )
        .unwrap();
        let r = execute(&db, &q).unwrap();
        let r15 = r.find_row(&db, &[("season", "2015-16")]).unwrap();
        let ap = r
            .table
            .value(r15, r.table.schema().field_index("ap").unwrap());
        assert_eq!(ap, Value::Float((110 + 120 + 105 + 99) as f64 / 4.0));
        let mn = r
            .table
            .value(r15, r.table.schema().field_index("mn").unwrap());
        assert_eq!(mn, Value::Int(99));
        let mx = r
            .table
            .value(r15, r.table.schema().field_index("mx").unwrap());
        assert_eq!(mx, Value::Int(120));
    }

    #[test]
    fn rate_sum_count() {
        let mut db = Database::new("m");
        db.create_table(
            SchemaBuilder::new("admissions")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("insurance", DataType::Str, AttrKind::Categorical)
                .column("dead", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let med = db.intern("Medicare");
        let prv = db.intern("Private");
        for (i, ins, d) in [
            (1, med, 1),
            (2, med, 0),
            (3, med, 1),
            (4, med, 0),
            (5, prv, 0),
            (6, prv, 1),
        ] {
            db.table_mut("admissions")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Str(ins), Value::Int(d)])
                .unwrap();
        }
        let q = parse_sql(
            "SELECT insurance, 1.0*sum(dead)/count(*) AS death_rate \
             FROM admissions GROUP BY insurance",
        )
        .unwrap();
        let r = execute(&db, &q).unwrap();
        let m = r.find_row(&db, &[("insurance", "Medicare")]).unwrap();
        let dr = r
            .table
            .value(m, r.table.schema().field_index("death_rate").unwrap());
        assert_eq!(dr, Value::Float(0.5));
    }

    #[test]
    fn unknown_string_literal_matches_nothing() {
        let db = mini_db();
        let q = parse_sql(
            "SELECT count(*) AS c, season FROM game, team \
             WHERE team_id = winner_id AND team = 'NOPE' GROUP BY season",
        )
        .unwrap();
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.num_rows(), 0);
    }

    #[test]
    fn cross_join_when_no_equi_pred() {
        let db = mini_db();
        let q = parse_sql("SELECT count(*) AS c FROM team, game GROUP BY team").unwrap();
        let r = execute(&db, &q).unwrap();
        // Two teams, each paired with all 7 games.
        assert_eq!(r.num_rows(), 2);
        let idx = r.table.schema().field_index("c").unwrap();
        assert_eq!(r.table.value(0, idx), Value::Int(7));
        assert_eq!(r.table.value(1, idx), Value::Int(7));
    }

    #[test]
    fn residual_non_eq_join_pred() {
        let db = mini_db();
        // Pair each game with strictly-higher-scoring games.
        let q = parse_sql(
            "SELECT count(*) AS c, a.game_id FROM game a, game b \
             WHERE a.home_points < b.home_points GROUP BY a.game_id",
        )
        .unwrap();
        let r = execute(&db, &q).unwrap();
        // Game 5 (120 pts, the max) pairs with nothing → absent from output.
        assert!(r.find_row(&db, &[("game_id", "5")]).is_none());
        // Game 2 (90 pts, the min) pairs with all 6 others.
        let g2 = r.find_row(&db, &[("game_id", "2")]).unwrap();
        let c = r
            .table
            .value(g2, r.table.schema().field_index("c").unwrap());
        assert_eq!(c, Value::Int(6));
    }

    #[test]
    fn ambiguous_column_is_error() {
        let mut db = mini_db();
        // Add a second table that also has `season`.
        db.create_table(
            SchemaBuilder::new("other")
                .column("season", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let q = parse_sql("SELECT count(*) AS c FROM game, other GROUP BY season").unwrap();
        assert!(matches!(
            execute(&db, &q),
            Err(QueryError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn duplicate_alias_is_error() {
        let db = mini_db();
        let q = parse_sql("SELECT count(*) AS c FROM game g, team g GROUP BY season").unwrap();
        assert!(matches!(execute(&db, &q), Err(QueryError::Unsupported(_))));
    }

    #[test]
    fn render_produces_header_and_rows() {
        let db = mini_db();
        let q = parse_sql("SELECT count(*) AS c, season FROM game GROUP BY season").unwrap();
        let r = execute(&db, &q).unwrap();
        let text = r.render(&db);
        assert!(text.contains("season"));
        assert!(text.contains("2015-16"));
    }
}
