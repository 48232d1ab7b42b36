//! Cache keys.
//!
//! Every key embeds the owning database's registration *epoch*: when a
//! database is re-registered with different content, its epoch advances
//! and all previously-cached entries become unreachable (and are swept
//! eagerly by [`crate::ExplanationService::register_database`]). Queries
//! are keyed by their canonical SQL rendering, join graphs by their
//! canonical isomorphism key.

use cajade_graph::JoinGraphKey;

/// Key of a cached provenance + enumeration result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvKey {
    /// Registered database name.
    pub db: String,
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`).
    pub sql: String,
    /// Fingerprint of the enumeration-relevant parameters (λ#edges,
    /// λ_qcost, validity checks). Sessions with different enumeration
    /// settings must not share a prepared result — the cached join-graph
    /// list depends on them.
    pub prep_fingerprint: u64,
}

/// Key of a shared column-statistics entry (quantile bin spec + fragment
/// boundaries of one base-table column — see
/// [`cajade_mining::ColumnStats`]). Scoped to the database epoch like
/// every other cache key, plus a fingerprint of the stats-relevant mining
/// knobs ([`cajade_mining::ColumnStatsConfig`]): sessions with different
/// λ#frag or bin budgets must not share boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColStatsKey {
    /// Registered database name.
    pub db: String,
    /// Database registration epoch.
    pub epoch: u64,
    /// Base table name.
    pub table: String,
    /// Base column name.
    pub column: String,
    /// Fingerprint of the stats-relevant mining parameters.
    pub stats_fingerprint: u64,
}

impl ColStatsKey {
    /// Approximate key footprint for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        self.db.len() + self.table.len() + self.column.len() + 24
    }
}

/// Key of a cached join graph: its APT view and the mining preparation
/// made from it ([`crate::PreparedGraph`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AptKey {
    /// Registered database name.
    pub db: String,
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`).
    pub sql: String,
    /// Canonical join-graph key.
    pub graph: JoinGraphKey,
    /// Fingerprint of the mining parameters the preparation was made
    /// with: sessions that mine differently share the provenance entry,
    /// not the prepared graphs.
    pub mining_fingerprint: u64,
}

/// Key of a cached fully-answered question. Besides the database/query
/// coordinates this embeds the canonicalized question and a fingerprint
/// of the session's parameters, so sessions with different λ settings
/// never share answers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    /// Registered database name.
    pub db: String,
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`).
    pub sql: String,
    /// Fingerprint of the session parameters.
    pub params_fingerprint: u64,
    /// Canonicalized user question (see [`AnswerKey::canonical_question`]).
    pub question: String,
}

impl AnswerKey {
    /// Canonical rendering of a user question: tuple specs keep their
    /// role order (t1 vs t2 is semantically primary vs secondary) but
    /// column pairs within a spec are sorted. Each component is
    /// length-prefixed, so values containing `,`, `=`, or `|` cannot
    /// collide with a differently-structured question.
    pub fn canonical_question(question: &cajade_core::UserQuestion) -> String {
        use cajade_core::UserQuestion;
        let spec = |pairs: &[(String, String)]| -> String {
            let mut sorted: Vec<String> = pairs
                .iter()
                .map(|(c, v)| format!("{}:{}={}:{}", c.len(), c, v.len(), v))
                .collect();
            sorted.sort();
            sorted.join(",")
        };
        match question {
            UserQuestion::TwoPoint { t1, t2 } => format!("2p|{}|{}", spec(t1), spec(t2)),
            UserQuestion::SinglePoint { t } => format!("1p|{}", spec(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::AnswerKey;
    use cajade_core::UserQuestion;

    #[test]
    fn canonical_question_is_order_insensitive_within_a_spec() {
        let a = UserQuestion::two_point(&[("a", "1"), ("b", "2")], &[("c", "3")]);
        let b = UserQuestion::two_point(&[("b", "2"), ("a", "1")], &[("c", "3")]);
        assert_eq!(
            AnswerKey::canonical_question(&a),
            AnswerKey::canonical_question(&b)
        );
    }

    #[test]
    fn canonical_question_keeps_role_order() {
        let a = UserQuestion::two_point(&[("a", "1")], &[("b", "2")]);
        let b = UserQuestion::two_point(&[("b", "2")], &[("a", "1")]);
        assert_ne!(
            AnswerKey::canonical_question(&a),
            AnswerKey::canonical_question(&b)
        );
    }

    #[test]
    fn canonical_question_does_not_collide_on_separator_characters() {
        // One pair whose value embeds ",b=2" vs two separate pairs.
        let tricky = UserQuestion::two_point(&[("a", "1,1:b=1:2")], &[("c", "3")]);
        let plain = UserQuestion::two_point(&[("a", "1"), ("b", "2")], &[("c", "3")]);
        assert_ne!(
            AnswerKey::canonical_question(&tricky),
            AnswerKey::canonical_question(&plain)
        );
        let eq_sign = UserQuestion::single_point(&[("a", "x=y")]);
        let split = UserQuestion::single_point(&[("a", "x"), ("", "y")]);
        assert_ne!(
            AnswerKey::canonical_question(&eq_sign),
            AnswerKey::canonical_question(&split)
        );
    }
}
