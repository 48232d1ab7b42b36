//! Cache keys.
//!
//! A key is what identifies its value and nothing else: the owning
//! database's registration *epoch* — one per `register` call, never
//! reused, so it stands for one registration: one name with one content
//! and one schema graph — and the query's canonical
//! SQL rendering (`Query::to_sql`). What a query entry holds below that
//! has no key of its own: a join graph is a slot of its
//! [`crate::QueryEntry`], by enumeration index, and an answered question
//! is found in the entry by its [`canonical_question`]. Parameters are the
//! service's ([`crate::ServiceConfig::params`]), one set for every entry
//! it holds. Every re-registration takes a new epoch, and the entries of
//! the registration it replaced are swept
//! ([`crate::ExplanationService::register_database`]).

/// Key of a cached query: everything its [`crate::QueryEntry`] holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvKey {
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`).
    pub sql: String,
}

/// Canonical rendering of a user question, what a query entry files its
/// answer under: tuple specs keep their role order (t1 vs t2 is
/// semantically primary vs secondary) but column pairs within a spec are
/// sorted. Each component is length-prefixed, so values containing `,`,
/// `=`, or `|` cannot collide with a differently-structured question.
pub(crate) fn canonical_question(question: &cajade_core::UserQuestion) -> String {
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

#[cfg(test)]
mod tests {
    use super::canonical_question;
    use cajade_core::UserQuestion;

    #[test]
    fn canonical_question_is_order_insensitive_within_a_spec() {
        let a = UserQuestion::two_point(&[("a", "1"), ("b", "2")], &[("c", "3")]);
        let b = UserQuestion::two_point(&[("b", "2"), ("a", "1")], &[("c", "3")]);
        assert_eq!(canonical_question(&a), canonical_question(&b));
    }

    #[test]
    fn canonical_question_keeps_role_order() {
        let a = UserQuestion::two_point(&[("a", "1")], &[("b", "2")]);
        let b = UserQuestion::two_point(&[("b", "2")], &[("a", "1")]);
        assert_ne!(canonical_question(&a), canonical_question(&b));
    }

    #[test]
    fn canonical_question_does_not_collide_on_separator_characters() {
        // One pair whose value embeds ",b=2" vs two separate pairs.
        let tricky = UserQuestion::two_point(&[("a", "1,1:b=1:2")], &[("c", "3")]);
        let plain = UserQuestion::two_point(&[("a", "1"), ("b", "2")], &[("c", "3")]);
        assert_ne!(canonical_question(&tricky), canonical_question(&plain));
        let eq_sign = UserQuestion::single_point(&[("a", "x=y")]);
        let split = UserQuestion::single_point(&[("a", "x"), ("", "y")]);
        assert_ne!(canonical_question(&eq_sign), canonical_question(&split));
    }
}
