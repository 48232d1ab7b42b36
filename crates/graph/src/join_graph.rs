//! Join graphs (paper Definition 3): one concrete way of augmenting the
//! provenance table with context relations.

use std::collections::HashMap;
use std::sync::Arc;

use crate::schema_graph::JoinCond;

/// Label of a join-graph node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeLabel {
    /// The distinguished provenance-table node (exactly one per graph).
    Pt,
    /// A context relation. Shared: the graphs of one enumeration hold one
    /// copy of each relation's name.
    Rel(Arc<str>),
}

/// A join-graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JgNode {
    /// Node label.
    pub label: NodeLabel,
}

/// A join-graph edge. The condition is stored oriented: `cond.pairs[i].left`
/// belongs to the `from` node and `.right` to the `to` node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JgEdge {
    /// Source node index (orientation of `cond`).
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// Join condition (oriented from → to).
    pub cond: JoinCond,
    /// Index of the schema-graph edge this edge instantiates.
    pub schema_edge: usize,
    /// Index of the condition within the schema edge's label set.
    pub cond_idx: usize,
    /// When `from` or `to` is the PT node: the query FROM-entry index the
    /// condition's PT-side attributes bind to. This implements the paper's
    /// alias disambiguation — a relation appearing twice in the query can
    /// give two parallel edges that differ only in this binding.
    pub pt_from_idx: Option<usize>,
}

/// What identifies a [`JgEdge`] within one schema graph: everything but
/// the condition text, which `(schema_edge, cond_idx)` and the
/// orientation determine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JgEdgeIds {
    pub from: usize,
    pub to: usize,
    pub schema_edge: usize,
    pub cond_idx: usize,
    pub pt_from_idx: Option<usize>,
}

impl JgEdge {
    pub(crate) fn ids(&self) -> JgEdgeIds {
        JgEdgeIds {
            from: self.from,
            to: self.to,
            schema_edge: self.schema_edge,
            cond_idx: self.cond_idx,
            pt_from_idx: self.pt_from_idx,
        }
    }
}

/// An undirected node/edge-labelled multigraph with one PT node
/// (Definition 3). Node 0 is always the PT node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinGraph {
    /// Nodes; index 0 is the PT node.
    pub nodes: Vec<JgNode>,
    /// Edges (multi-edges allowed; no edge may have PT as both endpoints).
    pub edges: Vec<JgEdge>,
}

impl JoinGraph {
    /// The graph consisting only of the PT node (Algorithm 2's Ω₀).
    pub fn pt_only() -> Self {
        JoinGraph {
            nodes: vec![JgNode {
                label: NodeLabel::Pt,
            }],
            edges: Vec::new(),
        }
    }

    /// Approximate heap footprint in bytes (cache accounting for whoever
    /// keeps a copy, e.g. an [`Apt`](crate::Apt)).
    pub fn approx_bytes(&self) -> usize {
        let nodes = self.nodes.iter().map(|n| {
            std::mem::size_of::<JgNode>()
                + match &n.label {
                    NodeLabel::Pt => 0,
                    NodeLabel::Rel(rel) => rel.len(),
                }
        });
        let edges = self.edges.iter().map(|e| {
            let pairs = e
                .cond
                .pairs
                .iter()
                .map(|p| std::mem::size_of::<crate::AttrPair>() + p.left.len() + p.right.len());
            std::mem::size_of::<JgEdge>() + pairs.sum::<usize>()
        });
        nodes.sum::<usize>() + edges.sum::<usize>()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Relation name of a non-PT node.
    pub fn rel_of(&self, node: usize) -> Option<&str> {
        match &self.nodes[node].label {
            NodeLabel::Pt => None,
            NodeLabel::Rel(r) => Some(&**r),
        }
    }

    /// Display aliases per node: `PT` for the PT node; a relation appearing
    /// once keeps its name, repeated relations get `name1`, `name2`, … in
    /// node order (the paper's `LineupPlayer1` / `LineupPlayer2` style).
    pub fn display_aliases(&self) -> Vec<String> {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for n in &self.nodes {
            if let NodeLabel::Rel(r) = &n.label {
                *counts.entry(&**r).or_default() += 1;
            }
        }
        let mut seen: HashMap<&str, usize> = HashMap::new();
        self.nodes
            .iter()
            .map(|n| match &n.label {
                NodeLabel::Pt => "PT".to_string(),
                NodeLabel::Rel(r) => {
                    if counts[&**r] == 1 {
                        r.to_string()
                    } else {
                        let k = seen.entry(&**r).or_default();
                        *k += 1;
                        format!("{r}{k}")
                    }
                }
            })
            .collect()
    }

    /// Compact structure description in the paper's style,
    /// e.g. `PT - player_salary - player`.
    pub fn structure_string(&self) -> String {
        let aliases = self.display_aliases();
        let mut s = aliases.join(" - ");
        let extra = self
            .edges
            .len()
            .saturating_sub(self.nodes.len().saturating_sub(1));
        if extra > 0 {
            s.push_str(&format!(
                " (+{extra} extra edge{})",
                if extra > 1 { "s" } else { "" }
            ));
        }
        s
    }

    /// Renders every edge with its condition (appendix-table style).
    pub fn describe_edges(&self) -> Vec<String> {
        let aliases = self.display_aliases();
        self.edges
            .iter()
            .map(|e| e.cond.render(&aliases[e.from], &aliases[e.to]))
            .collect()
    }

    /// The graph's canonical key: two graphs get equal keys iff they are
    /// isomorphic under a node permutation that fixes the PT node and
    /// preserves labels. Used for deduplication during enumeration —
    /// `ExtendJG` generates the same graph along many paths.
    ///
    /// The key is the minimum, over all such permutations, of (non-PT
    /// labels in permuted order, sorted edge tuples). Labels compare
    /// first, so only permutations that sort the labels can win: the
    /// labels are sorted once and the search runs over the orderings of
    /// equal-label nodes. Graph sizes are bounded by λ#edges (≤ 3 non-PT
    /// nodes at the default), so brute force is cheap.
    pub fn key(&self) -> JoinGraphKey {
        self.key_with(None)
    }

    /// The key of this graph plus one more edge — to an existing node, or,
    /// with `to == self.nodes.len()`, to a fresh node labelled `rel` —
    /// without building that graph.
    pub(crate) fn key_with(&self, extra: Option<(&JgEdgeIds, &str)>) -> JoinGraphKey {
        let mut scratch = KeyScratch::default();
        self.key_into(extra, &mut scratch);
        scratch.key
    }

    /// [`key_with`](Self::key_with) into `scratch.key`, in `scratch`'s
    /// buffers: once they have grown to the largest graph's size, a key
    /// allocates nothing. Enumeration tests every extension against the
    /// graphs seen so far this way and copies a key out only for a new one.
    pub(crate) fn key_into(&self, extra: Option<(&JgEdgeIds, &str)>, scratch: &mut KeyScratch) {
        let fresh = extra.filter(|(e, _)| e.from.max(e.to) == self.nodes.len());
        let n = self.nodes.len() + usize::from(fresh.is_some());
        let label = |node: usize| match fresh {
            Some((_, rel)) if node + 1 == n => rel,
            _ => self.rel_of(node).unwrap_or(""),
        };
        let ids = self
            .edges
            .iter()
            .map(JgEdge::ids)
            .chain(extra.map(|(e, _)| *e));
        let KeyScratch {
            key,
            order,
            mapping,
            tuples,
            heap,
        } = scratch;
        order.clear();
        order.extend(1..n);
        order.sort_by(|&a, &b| label(a).cmp(label(b)));
        key.labels.clear();
        for &v in order.iter() {
            key.labels.push_str(label(v));
            key.labels.push(LABEL_END);
        }

        mapping.clear();
        mapping.resize(n, 0);
        let mut found = false;
        heap.permute(order, &mut |perm| {
            // `perm[i]` takes position `i + 1`; PT stays 0. A permutation
            // that moves a node across a label boundary cannot be minimal.
            if perm
                .iter()
                .zip(order.iter())
                .any(|(&v, &o)| label(v) != label(o))
            {
                return;
            }
            for (new_pos, &old) in perm.iter().enumerate() {
                mapping[old] = new_pos + 1;
            }
            tuples.clear();
            tuples.extend(ids.clone().map(|e| {
                let (f, t) = (mapping[e.from], mapping[e.to]);
                // Undirected comparison: the smaller endpoint first, with
                // the condition's orientation kept as a flag.
                [
                    f.min(t),
                    f.max(t),
                    usize::from(f > t),
                    e.schema_edge,
                    e.cond_idx,
                    e.pt_from_idx.map_or(0, |i| i + 1),
                ]
            }));
            tuples.sort_unstable();
            if !found || *tuples < key.edges {
                key.edges.clone_from(tuples);
                found = true;
            }
        });
    }

    /// The canonical key rendered as a string (`PT,a,b|0>1:…;1>2:…`),
    /// for logs and messages; equal strings iff equal [`key`](Self::key)s.
    pub fn canonical_key(&self) -> String {
        self.key().to_string()
    }

    /// Like [`canonical_key`](Self::canonical_key), but edges are
    /// labelled with their *rendered join conditions* instead of
    /// `(schema edge, condition)` indices. Two graphs enumerated from
    /// **different** schema graphs (say, a declared one and a
    /// discovery-assembled one) get equal semantic keys iff they join the
    /// same relations on the same attribute pairs — the equivalence the
    /// ingestion round-trip benchmark checks. Within one schema graph,
    /// `canonical_key` is cheaper and exactly as discriminating.
    pub fn semantic_key(&self) -> String {
        let n = self.nodes.len();
        let non_pt: Vec<usize> = (1..n).collect();
        let mut best: Option<String> = None;

        let cond_fwd = |e: &JgEdge| -> String {
            e.cond
                .pairs
                .iter()
                .map(|p| format!("{}={}", p.left, p.right))
                .collect::<Vec<_>>()
                .join("&")
        };
        let cond_rev = |e: &JgEdge| -> String {
            e.cond
                .pairs
                .iter()
                .map(|p| format!("{}={}", p.right, p.left))
                .collect::<Vec<_>>()
                .join("&")
        };

        HeapPerms::default().permute(&non_pt, &mut |perm| {
            let mut mapping = vec![0usize; n];
            for (new_pos, &old) in perm.iter().enumerate() {
                mapping[old] = new_pos + 1;
            }
            let mut labels = vec![String::new(); n];
            labels[0] = "PT".into();
            for &old in perm {
                labels[mapping[old]] = match &self.nodes[old].label {
                    NodeLabel::Pt => unreachable!("only node 0 is PT"),
                    NodeLabel::Rel(r) => r.to_string(),
                };
            }
            let mut edge_keys: Vec<String> = self
                .edges
                .iter()
                .map(|e| {
                    let f = mapping[e.from];
                    let t = mapping[e.to];
                    if f <= t {
                        format!("{f}>{t}:{}:{:?}", cond_fwd(e), e.pt_from_idx)
                    } else {
                        format!("{t}<{f}:{}:{:?}", cond_rev(e), e.pt_from_idx)
                    }
                })
                .collect();
            edge_keys.sort();
            let key = format!("{}|{}", labels.join(","), edge_keys.join(";"));
            if best.as_ref().is_none_or(|b| key < *b) {
                best = Some(key);
            }
        });

        best.unwrap_or_else(|| "PT|".to_string())
    }
}

/// Terminates each label of a [`JoinGraphKey`]. Relation names cannot
/// contain it: neither a file name nor an SQL identifier can.
const LABEL_END: char = '\0';

/// One edge of a [`JoinGraphKey`]: `[min endpoint, max endpoint, 1 iff the
/// condition is oriented max → min, schema edge, condition index,
/// 1 + PT FROM-entry binding (0 for none)]`, endpoints in canonical node
/// positions.
type EdgeTuple = [usize; 6];

/// A hashable canonical join-graph key: two graphs get equal keys iff
/// they are isomorphic under a PT-fixing, label-preserving node
/// permutation (see [`JoinGraph::key`]). Enumeration computes it once per
/// graph ([`EnumeratedGraph::key`](crate::EnumeratedGraph::key)), which
/// keeps it. No cache is keyed by it: a query's graphs are indexed by
/// their position in its enumeration. The default key is Ω₀'s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct JoinGraphKey {
    /// Non-PT node labels in canonical position order, each followed by
    /// [`LABEL_END`] — one allocation per key, not one per node: a query's
    /// enumeration holds thousands of keys, and they are all freed while a
    /// re-registration waits.
    labels: String,
    /// Edges over canonical positions, sorted.
    edges: Vec<EdgeTuple>,
}

impl JoinGraphKey {
    /// Approximate heap footprint (for cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.labels.len() + self.edges.len() * std::mem::size_of::<EdgeTuple>()
    }
}

impl std::fmt::Display for JoinGraphKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PT")?;
        for l in self.labels.split_terminator(LABEL_END) {
            write!(f, ",{l}")?;
        }
        f.write_str("|")?;
        for (i, &[lo, hi, flipped, schema_edge, cond_idx, pt]) in self.edges.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            let dir = if flipped == 0 { '>' } else { '<' };
            write!(
                f,
                "{lo}{dir}{hi}:{schema_edge}:{cond_idx}:{:?}",
                pt.checked_sub(1)
            )?;
        }
        Ok(())
    }
}

/// The buffers [`JoinGraph::key_into`] computes a key in.
#[derive(Debug, Default)]
pub(crate) struct KeyScratch {
    /// The last key computed.
    pub key: JoinGraphKey,
    /// Non-PT nodes in label order.
    order: Vec<usize>,
    /// Node → canonical position under the permutation being tried.
    mapping: Vec<usize>,
    /// The edges under that permutation, sorted.
    tuples: Vec<EdgeTuple>,
    heap: HeapPerms,
}

/// Heap's algorithm over a small index set, in buffers reused from call
/// to call.
#[derive(Debug, Default)]
struct HeapPerms {
    v: Vec<usize>,
    c: Vec<usize>,
}

impl HeapPerms {
    fn permute(&mut self, items: &[usize], f: &mut impl FnMut(&[usize])) {
        let HeapPerms { v, c } = self;
        v.clear();
        v.extend_from_slice(items);
        let n = v.len();
        c.clear();
        c.resize(n, 0);
        f(v);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    v.swap(0, i);
                } else {
                    v.swap(c[i], i);
                }
                f(v);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_graph::JoinCond;

    fn rel(name: &str) -> JgNode {
        JgNode {
            label: NodeLabel::Rel(name.into()),
        }
    }

    fn edge(from: usize, to: usize, se: usize, ci: usize) -> JgEdge {
        JgEdge {
            from,
            to,
            cond: JoinCond::on(&[("x", "y")]),
            schema_edge: se,
            cond_idx: ci,
            pt_from_idx: if from == 0 || to == 0 { Some(0) } else { None },
        }
    }

    #[test]
    fn pt_only_graph() {
        let g = JoinGraph::pt_only();
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.structure_string(), "PT");
        assert!(g.canonical_key().starts_with("PT|"));
    }

    #[test]
    fn display_aliases_number_repeats() {
        let g = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("lineup_player"),
                rel("lineup_player"),
                rel("game"),
            ],
            edges: vec![],
        };
        assert_eq!(
            g.display_aliases(),
            vec!["PT", "lineup_player1", "lineup_player2", "game"]
        );
    }

    #[test]
    fn canonical_key_identifies_isomorphic_graphs() {
        // PT - a, PT - b (nodes in different order).
        let g1 = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
                rel("b"),
            ],
            edges: vec![edge(0, 1, 0, 0), edge(0, 2, 1, 0)],
        };
        let g2 = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("b"),
                rel("a"),
            ],
            edges: vec![edge(0, 2, 0, 0), edge(0, 1, 1, 0)],
        };
        assert_eq!(g1.canonical_key(), g2.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_conditions() {
        let g1 = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
            ],
            edges: vec![edge(0, 1, 0, 0)],
        };
        let g2 = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
            ],
            edges: vec![edge(0, 1, 0, 1)], // different condition index
        };
        assert_ne!(g1.canonical_key(), g2.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_topology() {
        // PT - a - b vs. PT - a, PT - b.
        let chain = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
                rel("b"),
            ],
            edges: vec![edge(0, 1, 0, 0), edge(1, 2, 1, 0)],
        };
        let star = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
                rel("b"),
            ],
            edges: vec![edge(0, 1, 0, 0), edge(0, 2, 1, 0)],
        };
        assert_ne!(chain.canonical_key(), star.canonical_key());
    }

    #[test]
    fn structure_string_notes_extra_edges() {
        let g = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("a"),
            ],
            edges: vec![edge(0, 1, 0, 0), edge(0, 1, 0, 1)],
        };
        assert!(g.structure_string().contains("extra edge"));
    }

    #[test]
    fn describe_edges_renders_conditions() {
        let g = JoinGraph {
            nodes: vec![
                JgNode {
                    label: NodeLabel::Pt,
                },
                rel("player_salary"),
            ],
            edges: vec![edge(0, 1, 0, 0)],
        };
        assert_eq!(g.describe_edges(), vec!["PT.x = player_salary.y"]);
    }
}
