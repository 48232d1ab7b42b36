//! AST for the paper's query class: single-block SQL with equi-joins,
//! conjunctive WHERE, GROUP BY, and one or more aggregates (§2: "simple
//! single-block SQL queries with a single aggregate function … extensions
//! are discussed in Section 8" — we also allow several aggregates, which
//! the paper's own workload queries use, e.g. `Q2` over MIMIC).

use std::fmt;

/// A FROM-list entry: relation name plus alias (`game g`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Relation name in the catalog.
    pub table: String,
    /// Alias; defaults to the relation name.
    pub alias: String,
}

impl TableRef {
    /// A table reference with an explicit alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            alias: alias.into(),
        }
    }

    /// A table reference whose alias is the table name.
    pub fn named(table: impl Into<String>) -> Self {
        let t = table.into();
        Self {
            alias: t.clone(),
            table: t,
        }
    }
}

/// A (possibly qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Qualifier (table alias), if written.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            qualifier: None,
            column: column.into(),
        }
    }

    /// Qualified reference (`alias.column`).
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A literal constant in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (interned lazily at execution time).
    Str(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on an [`std::cmp::Ordering`].
    #[inline]
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `a.x <op> b.y` — column against column. Only `Eq` participates in
    /// join planning; other ops become residual filters.
    ColCol(ColRef, CmpOp, ColRef),
    /// `a.x <op> literal`.
    ColLit(ColRef, CmpOp, Literal),
}

/// Aggregate function.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)` (non-null count)
    Count(ColRef),
    /// `SUM(col)`
    Sum(ColRef),
    /// `AVG(col)`
    Avg(ColRef),
    /// `MIN(col)`
    Min(ColRef),
    /// `MAX(col)`
    Max(ColRef),
    /// `SUM(col) / COUNT(*)` — the "rate" form of the MIMIC queries
    /// (`1.0 * SUM(hospital_expire_flag) / COUNT(*)`).
    RateSumCount(ColRef),
}

impl AggFunc {
    /// The aggregated column; `None` for `COUNT(*)`.
    pub fn arg(&self) -> Option<&ColRef> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c)
            | AggFunc::RateSumCount(c) => Some(c),
        }
    }
}

/// One aggregate in the SELECT list, with its output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Aggregate function.
    pub func: AggFunc,
    /// Output column name.
    pub alias: String,
}

/// A single-block SPJA query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// FROM list (aliases must be unique).
    pub from: Vec<TableRef>,
    /// Conjunctive WHERE clause.
    pub predicates: Vec<Predicate>,
    /// GROUP BY columns, in order. The output exposes them under their
    /// column name (the paper's queries never alias group-by columns).
    pub group_by: Vec<ColRef>,
    /// Aggregates of the SELECT list.
    pub aggregates: Vec<Aggregate>,
}

impl Query {
    /// Renders the query back to SQL text. The output re-parses to an
    /// equal AST (`parse_sql(q.to_sql()) == q`), which makes queries
    /// loggable and serializable without a second representation.
    pub fn to_sql(&self) -> String {
        let mut out = String::from("SELECT ");
        let agg_text = |f: &AggFunc| -> String {
            match f {
                AggFunc::CountStar => "COUNT(*)".into(),
                AggFunc::Count(c) => format!("COUNT({c})"),
                AggFunc::Sum(c) => format!("SUM({c})"),
                AggFunc::Avg(c) => format!("AVG({c})"),
                AggFunc::Min(c) => format!("MIN({c})"),
                AggFunc::Max(c) => format!("MAX({c})"),
                AggFunc::RateSumCount(c) => format!("SUM({c}) / COUNT(*)"),
            }
        };
        let mut items: Vec<String> = self
            .aggregates
            .iter()
            .map(|a| format!("{} AS {}", agg_text(&a.func), a.alias))
            .collect();
        items.extend(self.group_by.iter().map(|c| c.to_string()));
        out.push_str(&items.join(", "));

        out.push_str(" FROM ");
        let from: Vec<String> = self
            .from
            .iter()
            .map(|t| {
                if t.alias == t.table {
                    t.table.clone()
                } else {
                    format!("{} {}", t.table, t.alias)
                }
            })
            .collect();
        out.push_str(&from.join(", "));

        if !self.predicates.is_empty() {
            out.push_str(" WHERE ");
            let preds: Vec<String> = self
                .predicates
                .iter()
                .map(|p| match p {
                    Predicate::ColCol(a, op, b) => format!("{a} {} {b}", op.symbol()),
                    Predicate::ColLit(a, op, lit) => {
                        let lit = match lit {
                            Literal::Str(s) => format!("'{}'", s.replace('\'', "''")),
                            other => other.to_string(),
                        };
                        format!("{a} {} {lit}", op.symbol())
                    }
                })
                .collect();
            out.push_str(&preds.join(" AND "));
        }

        if !self.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            let cols: Vec<String> = self.group_by.iter().map(|c| c.to_string()).collect();
            out.push_str(&cols.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval_covers_all_ops() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Lt.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Gt.eval(Greater));
        assert!(CmpOp::Ge.eval(Equal));
    }

    #[test]
    fn colref_display() {
        assert_eq!(ColRef::qualified("g", "home_id").to_string(), "g.home_id");
        assert_eq!(ColRef::new("season_name").to_string(), "season_name");
    }

    #[test]
    fn to_sql_round_trips_examples() {
        use crate::parse_sql;
        for sql in [
            "SELECT winner AS team, season, COUNT(*) AS win FROM Game g \
             WHERE winner = 'GSW' GROUP BY winner, season",
            "SELECT insurance, 1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
             FROM admissions GROUP BY insurance",
            "SELECT AVG(points) AS avg_pts, s.season_name \
             FROM player p, player_game_stats pgs, game g, season s \
             WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
               AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
               AND p.player_name = 'O''Neal' \
             GROUP BY s.season_name",
            "SELECT COUNT(*) AS c FROM t WHERE x >= 10 AND y <> 3 AND z < 1.5 GROUP BY g",
        ] {
            let q = parse_sql(sql).unwrap();
            let rendered = q.to_sql();
            let reparsed = parse_sql(&rendered)
                .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {rendered}: {e}"));
            assert_eq!(q, reparsed, "round trip changed the AST for {rendered}");
        }
    }

    #[test]
    fn prop_to_sql_round_trip_random_queries() {
        use crate::parse_sql;
        use proptest::prelude::*;

        // `z`-prefixed identifiers can never collide with SQL keywords.
        let ident = "z[a-z0-9_]{0,8}";
        let strategy = (
            proptest::string::string_regex(ident).unwrap(),
            proptest::string::string_regex(ident).unwrap(),
            proptest::collection::vec(
                (
                    proptest::string::string_regex(ident).unwrap(),
                    prop_oneof![
                        any::<i64>().prop_map(Literal::Int),
                        (-1000i64..1000).prop_map(|i| Literal::Float(i as f64 / 8.0 + 0.0625)),
                        proptest::string::string_regex("[a-zA-Z '0-9]{0,12}")
                            .unwrap()
                            .prop_map(Literal::Str),
                    ],
                    prop_oneof![
                        Just(CmpOp::Eq),
                        Just(CmpOp::Ne),
                        Just(CmpOp::Le),
                        Just(CmpOp::Ge),
                        Just(CmpOp::Lt),
                        Just(CmpOp::Gt)
                    ],
                ),
                0..4,
            ),
        );
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        runner
            .run(&strategy, |(table, group_col, preds)| {
                let q = Query {
                    from: vec![TableRef::named(table)],
                    predicates: preds
                        .into_iter()
                        .map(|(col, lit, op)| Predicate::ColLit(ColRef::new(col), op, lit))
                        .collect(),
                    group_by: vec![ColRef::new(group_col)],
                    aggregates: vec![Aggregate {
                        func: AggFunc::CountStar,
                        alias: "c".into(),
                    }],
                };
                let rendered = q.to_sql();
                let reparsed = parse_sql(&rendered).map_err(|e| {
                    proptest::test_runner::TestCaseError::fail(format!("{rendered}: {e}"))
                })?;
                prop_assert_eq!(q, reparsed);
                Ok(())
            })
            .unwrap();
    }
}
