//! Schema graphs (paper Definition 2): which joins are permissible.

use std::ops::Deref;
use std::sync::Arc;

use cajade_storage::Database;

use crate::{GraphError, Result};

/// One attribute-equality inside a join condition: `left = right`, where
/// `left` belongs to the edge's `a` relation and `right` to its `b`
/// relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrPair {
    /// Attribute of the `a`-side relation.
    pub left: String,
    /// Attribute of the `b`-side relation.
    pub right: String,
}

impl AttrPair {
    /// Convenience constructor.
    pub fn new(left: impl Into<String>, right: impl Into<String>) -> Self {
        Self {
            left: left.into(),
            right: right.into(),
        }
    }
}

/// The attribute equalities of a [`JoinCond`]: an immutable shared slice,
/// so that a join graph copied from its parent shares its conditions
/// instead of copying their attribute names.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pairs(pub(crate) Arc<[AttrPair]>);

impl Deref for Pairs {
    type Target = [AttrPair];

    fn deref(&self) -> &[AttrPair] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Pairs {
    type Item = &'a AttrPair;
    type IntoIter = std::slice::Iter<'a, AttrPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<AttrPair> for Pairs {
    fn from_iter<I: IntoIterator<Item = AttrPair>>(iter: I) -> Self {
        Pairs(iter.into_iter().collect())
    }
}

impl std::fmt::Debug for Pairs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A join condition: a conjunction of attribute equalities (only equi-joins
/// are allowed per Definition 2's `Cond`). Cloning one copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinCond {
    /// Conjunction of attribute equalities.
    pub pairs: Pairs,
}

impl JoinCond {
    /// A condition from `(left, right)` attribute-name pairs.
    pub fn on(pairs: &[(&str, &str)]) -> Self {
        Self {
            pairs: pairs.iter().map(|(l, r)| AttrPair::new(*l, *r)).collect(),
        }
    }

    /// The condition with sides swapped (for traversing an edge from its
    /// `b` endpoint).
    pub fn flipped(&self) -> JoinCond {
        JoinCond {
            pairs: self
                .pairs
                .iter()
                .map(|p| AttrPair::new(p.right.clone(), p.left.clone()))
                .collect(),
        }
    }

    /// Attribute names used on the `a` side.
    pub fn left_attrs(&self) -> Vec<&str> {
        self.pairs.iter().map(|p| p.left.as_str()).collect()
    }

    /// Attribute names used on the `b` side.
    pub fn right_attrs(&self) -> Vec<&str> {
        self.pairs.iter().map(|p| p.right.as_str()).collect()
    }

    /// Renders as `a.x = b.x ∧ a.y = b.y`.
    pub fn render(&self, a: &str, b: &str) -> String {
        self.pairs
            .iter()
            .map(|p| format!("{a}.{} = {b}.{}", p.left, p.right))
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// An undirected schema-graph edge between relations `a` and `b`, labelled
/// with a set of alternative join conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEdge {
    /// First endpoint (relation name).
    pub a: String,
    /// Second endpoint (relation name; may equal `a` for self-joins like
    /// Fig. 3's `LineupPlayer–LineupPlayer` edge).
    pub b: String,
    /// Alternative join conditions for this edge.
    pub conds: Vec<JoinCond>,
}

/// The schema graph: permissible joins for a database (Definition 2).
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    edges: Vec<SchemaEdge>,
}

impl SchemaGraph {
    /// An empty schema graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the default schema graph from a database's foreign keys
    /// (paper §2.2: "our system can extract join conditions from the
    /// foreign key constraints"). Each FK becomes one edge with one
    /// condition; parallel FKs between the same pair of tables merge into
    /// one edge with several conditions.
    pub fn from_foreign_keys(db: &Database) -> Self {
        let mut g = SchemaGraph::new();
        for fk in db.foreign_keys() {
            let pairs: Pairs = fk
                .from_cols
                .iter()
                .zip(&fk.to_cols)
                .map(|(f, t)| AttrPair::new(f.clone(), t.clone()))
                .collect();
            g.add_condition(&fk.from_table, &fk.to_table, JoinCond { pairs });
        }
        g
    }

    /// Adds a join condition between `a` and `b`, merging into an existing
    /// edge when one exists (conditions are deduplicated).
    pub fn add_condition(&mut self, a: &str, b: &str, cond: JoinCond) {
        // Normalize orientation for storage: existing edge may be (b, a).
        for e in &mut self.edges {
            if e.a == a && e.b == b {
                if !e.conds.contains(&cond) {
                    e.conds.push(cond);
                }
                return;
            }
            if e.a == b && e.b == a {
                let fl = cond.flipped();
                if !e.conds.contains(&fl) {
                    e.conds.push(fl);
                }
                return;
            }
        }
        self.edges.push(SchemaEdge {
            a: a.to_string(),
            b: b.to_string(),
            conds: vec![cond],
        });
    }

    /// Validates every condition against the database schema: each
    /// referenced attribute must exist in its relation.
    pub fn validate(&self, db: &Database) -> Result<()> {
        for e in &self.edges {
            let ta = db.table(&e.a)?;
            let tb = db.table(&e.b)?;
            for c in &e.conds {
                for p in &c.pairs {
                    if ta.schema().field_index(&p.left).is_none() {
                        return Err(GraphError::BadCondition(format!(
                            "`{}` has no attribute `{}`",
                            e.a, p.left
                        )));
                    }
                    if tb.schema().field_index(&p.right).is_none() {
                        return Err(GraphError::BadCondition(format!(
                            "`{}` has no attribute `{}`",
                            e.b, p.right
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// All edges.
    pub fn edges(&self) -> &[SchemaEdge] {
        &self.edges
    }

    /// Iterates over `(edge_index, cond_index, other_relation, condition
    /// oriented from `rel`)` for every way relation `rel` can join out.
    /// Self-loop edges yield a single traversal (the condition is symmetric
    /// modulo renaming).
    pub fn adjacent(&self, rel: &str) -> Vec<(usize, usize, &str, JoinCond)> {
        let mut out = Vec::new();
        for (ei, e) in self.edges.iter().enumerate() {
            if e.a == rel {
                for (ci, c) in e.conds.iter().enumerate() {
                    out.push((ei, ci, e.b.as_str(), c.clone()));
                }
            } else if e.b == rel {
                for (ci, c) in e.conds.iter().enumerate() {
                    out.push((ei, ci, e.a.as_str(), c.flipped()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_storage::{AttrKind, DataType, Database, ForeignKey, SchemaBuilder};

    fn fk_db() -> Database {
        let mut db = Database::new("t");
        db.create_table(
            SchemaBuilder::new("team")
                .column_pk("team_id", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column("winner_id", DataType::Int, AttrKind::Categorical)
                .column("home_id", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["winner_id".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        })
        .unwrap();
        db.add_foreign_key(ForeignKey {
            from_table: "game".into(),
            from_cols: vec!["home_id".into()],
            to_table: "team".into(),
            to_cols: vec!["team_id".into()],
        })
        .unwrap();
        db
    }

    #[test]
    fn fks_merge_into_one_edge_with_two_conditions() {
        let db = fk_db();
        let g = SchemaGraph::from_foreign_keys(&db);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].conds.len(), 2);
        g.validate(&db).unwrap();
    }

    #[test]
    fn adjacent_flips_orientation() {
        let db = fk_db();
        let g = SchemaGraph::from_foreign_keys(&db);
        // From `game`, conditions read game.attr = team.attr.
        let adj = g.adjacent("game");
        assert_eq!(adj.len(), 2);
        assert!(adj.iter().all(|(_, _, other, _)| *other == "team"));
        assert_eq!(adj[0].3.pairs[0].left, "winner_id");
        // From `team`, the same edge reads team.team_id = game.winner_id.
        let adj = g.adjacent("team");
        assert_eq!(adj[0].3.pairs[0].left, "team_id");
    }

    #[test]
    fn duplicate_conditions_dedup() {
        let mut g = SchemaGraph::new();
        g.add_condition("a", "b", JoinCond::on(&[("x", "y")]));
        g.add_condition("b", "a", JoinCond::on(&[("y", "x")])); // same, flipped
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].conds.len(), 1);
    }

    #[test]
    fn validate_rejects_bad_attribute() {
        let db = fk_db();
        let mut g = SchemaGraph::new();
        g.add_condition("game", "team", JoinCond::on(&[("nope", "team_id")]));
        assert!(matches!(g.validate(&db), Err(GraphError::BadCondition(_))));
    }

    #[test]
    fn self_loop_edge() {
        let mut g = SchemaGraph::new();
        g.add_condition(
            "lineup_player",
            "lineup_player",
            JoinCond::on(&[("lineupid", "lineupid")]),
        );
        let adj = g.adjacent("lineup_player");
        // A self loop is traversable (a-side orientation only).
        assert_eq!(adj.len(), 1);
        assert_eq!(adj[0].2, "lineup_player");
    }

    #[test]
    fn render_condition() {
        let c = JoinCond::on(&[("year", "year"), ("home", "home")]);
        assert_eq!(c.render("PT", "P"), "PT.year = P.year ∧ PT.home = P.home");
    }
}
