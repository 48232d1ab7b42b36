//! Cache keys.
//!
//! A key is what identifies its value and nothing else: the owning
//! database's registration *epoch* — never reused, so it stands for one
//! name with one content and one schema graph — the query's canonical SQL
//! rendering (`Query::to_sql`), and, below that, a canonicalized question.
//! A query's join graphs have no key of their own: they are slots of its
//! [`crate::QueryEntry`], by enumeration index. Parameters are the service's
//! ([`crate::ServiceConfig::params`]), one set for every entry it holds.
//! When a database is re-registered with different content or a different
//! schema graph its epoch advances and the entries of the stale one are swept
//! ([`crate::ExplanationService::register_database`]).

/// Key of a cached query: provenance, enumeration and prepared graphs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvKey {
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`).
    pub sql: String,
}

/// Key of a cached fully-answered question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnswerKey {
    /// The query it was asked of.
    pub query: ProvKey,
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
