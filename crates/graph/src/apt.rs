//! Augmented provenance table (APT) materialization — paper Definition 4:
//!
//! `APT(Q, D, Ω) = σ_θΩ (PT(Q, D) × S_1 × … × S_p)`
//!
//! implemented as hash joins radiating out from the PT node along the join
//! graph's edges. Each APT row remembers the PT row it extends
//! (`pt_row`), which is exactly what the Definition-7 coverage semantics
//! needs: a provenance tuple `t'` is covered by a pattern iff *some* APT
//! row extending `t'` matches.
//!
//! Per Definition 4's closing remark, duplicate (renamed) join columns are
//! removed: a context node's attributes that the joining edge equates to
//! an already-present attribute are dropped.
//!
//! # Plan → extend → view
//!
//! There is one join kernel, in three parts:
//!
//! * **plan** (`edge_order`): the order the graph's edges are applied
//!   in — breadth-first out of the PT node, each edge as soon as one of
//!   its endpoints is joined. For a graph the enumerator grew (a parent
//!   plus one pushed edge, all the way down to Ω₀) that order is index
//!   order.
//! * **extend** (`Kernel::extend`): applies one edge to a row-id matrix
//!   (`Combos`: one shared [`RowIds`] vector per joined node). An edge
//!   reaching a fresh node is a hash join through an index over the
//!   node's `(relation, key columns)`, built at most once per kernel; an
//!   edge between two joined nodes (closing or parallel) is a filter. The
//!   columns a step reads are resolved once per step. A step that keeps
//!   every input combination exactly once — an N:1 join whose every key
//!   finds its row, a filter nothing fails — shares its input's vectors
//!   and allocates at most the new node's; any other step re-emits them.
//! * **view** (`view`): wraps the final matrix as an [`Apt`]. No cell is
//!   copied: a column of the APT is a handle on the base-table (or PT)
//!   column plus its node's row-id vector ([`AptColumn`]), and whoever
//!   reads the APT — `filterAttrs`' training gather, the scoring index's
//!   encode of the selected fields, the LCA sample — pays for the cells
//!   it reads.
//!
//! # A step is keyed by what it reads
//!
//! What a step computes — which input combinations come out, how often,
//! and the new node's row ids — is a function of the cells it reads: the
//! key columns through the row-id vectors of the nodes they belong to,
//! and the target's key index. It does not depend on the graph that asked
//! or on the matrix's other vectors. The kernel therefore memoizes a step
//! by the *identity* of those inputs — per side `(column address, vector
//! address)`, plus the index for a join — and a re-emission by `(vector,
//! emission list)`; a memo entry pins every vector whose address is in
//! its key, so an address means one vector for as long as the kernel
//! lives. Nothing is compared by content: a miss only repeats work, and a
//! hit is the very vector an earlier step produced. So across one kernel
//!
//! * every graph that joins `dim1` to a PT vector no earlier step changed
//!   holds *one* `dim1` vector — the star corpus's 84 joins of 20 000
//!   probes are 4 probe loops — and a relation joined twice to the same
//!   anchor holds one vector inside one APT;
//! * graphs that put the same fan-out or lossy step on top of a shared
//!   vector share the re-emitted vector too.
//!
//! Shared vectors are what lets the mining layer recognise "the same
//! column over the same rows" in two APTs by comparing two pointers
//! (`cajade_mining::ReadShare`).
//!
//! [`Apt::materialize`] folds `extend` over one graph's plan, in a kernel
//! of its own. [`AptBuilder`] folds every graph of an enumeration through
//! one kernel: a graph *applies* one step per edge, and a step is
//! *computed* only if no graph before it read the same inputs — which, for
//! a graph the enumerator grew from a parent, is at most its last
//! ([`AptBuilder::join_steps`] / [`AptBuilder::join_steps_computed`]: 84 /
//! 4 on the star corpus, 572 / 166 for NBA's 202 graphs).
//!
//! Row order does not depend on which of the two ran: a join emits, for
//! each input combination in order, its matches in base-table order, and
//! a filter only drops combinations — so applying a closing edge's filter
//! at its position instead of after all joins yields the same rows in the
//! same order.
//!
//! # λ_qcost is counted, not estimated
//!
//! Paper §4 skips a join graph whose query costs more than λ_qcost. Here
//! a join step counts its output as it probes and stops at the probe that
//! would take it past `max_cost` rows, so its vectors never grow past the
//! bound (each may double once past it), whatever the key skew. The
//! "over" result is memoized like any other: every graph whose fold
//! reaches the step is skipped ([`AptBuilder::materialize`] returns
//! `None`) without probing again. Filters only drop rows and Ω₀ has no
//! join: neither is bounded. [`Apt::materialize`] folds with no bound.
//! The memo lives for one ask, so the next ask that misses a skipped
//! graph re-runs the over-bound step's probe loop up to that probe: at
//! most the step's input combinations probed and λ_qcost row ids copied.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cajade_query::ProvenanceTable;
use cajade_storage::rowkey::KeyIndex;
use cajade_storage::{AttrKind, Column, DataType, Database, StrId, Value};

use crate::enumerate::EnumeratedGraph;
use crate::join_graph::{JgEdge, JoinGraph, NodeLabel};
use crate::{GraphError, Result};

/// One attribute of an APT.
#[derive(Debug, Clone)]
pub struct AptField {
    /// Display name: PT fields keep their `prov_…` name, context fields
    /// are `<node alias>.<attr>`.
    pub name: String,
    /// Physical type.
    pub dtype: DataType,
    /// Mining kind.
    pub kind: AttrKind,
    /// Group-by attribute of the original query (excluded from patterns).
    pub is_group_by: bool,
    /// True iff the field comes from the PT node.
    pub from_pt: bool,
    /// Join-graph node index the field belongs to.
    pub node: usize,
    /// Name of the base-table column this field reads (without any
    /// `prov_`/alias decoration). Together with
    /// [`JoinGraph::rel_of`](crate::JoinGraph::rel_of) on `node` this
    /// identifies the shared source column of a context field — the key
    /// the cross-graph column-statistics cache is built on.
    pub base_column: String,
}

/// A shared vector of row ids: per APT row, the row of one joined node's
/// table (of the PT, for the PT node) that the APT row extends. Graphs
/// along one enumeration-tree path hold the same vector wherever a step
/// left the rows unchanged; reads as a `[u32]`.
#[derive(Clone, PartialEq, Eq)]
pub struct RowIds(Arc<Vec<u32>>);

impl RowIds {
    fn new(ids: Vec<u32>) -> Self {
        RowIds(Arc::new(ids))
    }

    /// True iff `a` and `b` are one vector — shared, not merely equal.
    pub fn ptr_eq(a: &RowIds, b: &RowIds) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The vector's address: equal for two handles iff they are
    /// [`ptr_eq`](RowIds::ptr_eq), and no other vector's for as long as
    /// some handle on this one is held. What an identity-keyed memo keys
    /// on — next to a handle it keeps.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl Deref for RowIds {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a RowIds {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl std::fmt::Debug for RowIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// One column of an APT: a base-table (or PT) column read through the
/// row-id vector of the node it belongs to. Cell `r` is the base column's
/// cell at `rows[r]`; nothing is copied until a reader asks.
#[derive(Debug, Clone)]
pub struct AptColumn {
    base: Arc<Column>,
    rows: RowIds,
}

/// What one [`AptColumn::read`] returns: the cells by physical type, and
/// where the NULLs are.
#[derive(Debug, Clone)]
pub struct Cells {
    /// One entry per row read; a NULL cell holds the storage placeholder
    /// (`0`, `0.0`, string id 0).
    pub data: CellData,
    /// Positions — into the rows read, ascending — of the NULL cells.
    pub nulls: Vec<u32>,
}

/// Typed cell payloads of a [`Cells`].
#[derive(Debug, Clone)]
pub enum CellData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Interned string ids (the pool is the dictionary).
    Str(Vec<u32>),
}

impl AptColumn {
    /// The base column's row behind APT row `r`.
    #[inline]
    fn base_row(&self, r: usize) -> usize {
        self.rows[r] as usize
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        self.base.dtype()
    }

    /// Reads row `r` as a [`Value`].
    #[inline]
    pub fn value(&self, r: usize) -> Value {
        self.base.value(self.base_row(r))
    }

    /// Numeric view of row `r` (ints widen; strings/nulls are `None`).
    #[inline]
    pub fn f64_at(&self, r: usize) -> Option<f64> {
        self.base.f64_at(self.base_row(r))
    }

    /// String-id view of row `r`.
    #[inline]
    pub fn str_at(&self, r: usize) -> Option<StrId> {
        self.base.str_at(self.base_row(r))
    }

    /// True iff row `r` is NULL.
    #[inline]
    pub fn is_null(&self, r: usize) -> bool {
        self.base.is_null(self.base_row(r))
    }

    /// The base column this column reads.
    pub fn base(&self) -> &Arc<Column> {
        &self.base
    }

    /// The row-id vector it reads it through: its node's.
    pub fn rows(&self) -> &RowIds {
        &self.rows
    }

    /// Bulk typed read of the cells at APT rows `rows`, in that order: the
    /// type is matched once per read, not once per cell, and a column
    /// without NULLs is not asked about them.
    pub fn read(&self, rows: &[u32]) -> Cells {
        let ids = &*self.rows;
        let base_rows = || rows.iter().map(|&r| ids[r as usize] as usize);
        let (data, null_mask) = match &*self.base {
            Column::Int { data, nulls } => {
                (CellData::Int(base_rows().map(|b| data[b]).collect()), nulls)
            }
            Column::Float { data, nulls } => (
                CellData::Float(base_rows().map(|b| data[b]).collect()),
                nulls,
            ),
            Column::Str { data, nulls } => (
                CellData::Str(base_rows().map(|b| data[b].0).collect()),
                nulls,
            ),
        };
        let nulls = if null_mask.any_null() {
            let at = base_rows().enumerate();
            at.filter(|&(_, b)| null_mask.is_null(b))
                .map(|(i, _)| i as u32)
                .collect()
        } else {
            Vec::new()
        };
        Cells { data, nulls }
    }
}

/// An augmented provenance table: a view over the base tables and the
/// provenance table it joins, not a copy of them.
#[derive(Debug, Clone)]
pub struct Apt {
    /// Wide schema.
    pub fields: Vec<AptField>,
    /// Wide columns, parallel to `fields`: base-column handles read
    /// through their node's row-id vector.
    pub columns: Vec<AptColumn>,
    /// Number of APT rows.
    pub num_rows: usize,
    /// APT row → originating PT row: the PT node's row-id vector.
    ///
    /// **Non-decreasing.** The PT itself is rows `0..n`, a join emits
    /// each input combination's matches in input order and a filter only
    /// drops combinations, so every extension of PT row `p` precedes
    /// every extension of `p + 1`. The scoring index's scan order relies
    /// on this (`cajade_mining::ScoreIndex`);
    /// `crates/graph/tests/apt_view.rs` checks it on whole enumerations.
    pub pt_row: RowIds,
    /// The join graph this APT materializes.
    pub graph: JoinGraph,
}

impl Apt {
    /// Materializes `APT(Q, D, Ω)` for the given provenance table and join
    /// graph.
    pub fn materialize(db: &Database, pt: &ProvenanceTable, graph: &JoinGraph) -> Result<Apt> {
        match Kernel::new(db, pt, f64::INFINITY).fold(graph)? {
            Some(combos) => view(db, pt, graph, &combos),
            None => unreachable!("no join output passes an infinite bound"),
        }
    }

    /// Cell accessor.
    #[inline]
    pub fn value(&self, row: usize, field: usize) -> Value {
        self.columns[field].value(row)
    }

    /// Index of a field by display name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Indices of the fields eligible for patterns: everything except the
    /// query's group-by attributes (§2.4).
    pub fn pattern_fields(&self) -> Vec<usize> {
        (0..self.fields.len())
            .filter(|&i| !self.fields[i].is_group_by)
            .collect()
    }

    /// Approximate heap footprint of the view itself, in bytes: the row-id
    /// vector of each joined node, the column handles, field metadata and
    /// the join graph — what [`Apt::materialize`] allocates.
    ///
    /// A vector shared *within* this APT — a relation joined twice to the
    /// same anchor holds one — is counted once; one shared with other
    /// graphs' APTs is counted in full by every APT holding it:
    /// conservative. The columns read through the
    /// vectors are **not** counted, though the handles keep them alive: a
    /// base table's are the database's, and the provenance table's are
    /// counted by whoever holds the [`ProvenanceTable`] — the service keeps
    /// a query's APTs in the cache entry that owns its provenance table.
    pub fn approx_bytes(&self) -> usize {
        let mut vectors = vec![&self.pt_row];
        for c in &self.columns {
            if !vectors.iter().any(|v| RowIds::ptr_eq(v, &c.rows)) {
                vectors.push(&c.rows);
            }
        }
        vectors.len() * self.num_rows * std::mem::size_of::<u32>()
            + self.columns.len() * std::mem::size_of::<AptColumn>()
            + self
                .fields
                .iter()
                .map(|f| f.name.len() + f.base_column.len() + std::mem::size_of::<AptField>())
                .sum::<usize>()
            + self.graph.approx_bytes()
    }
}

/// One joined node of a partial join.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Join-graph node index.
    node: usize,
    /// The edge that joined it (`None` for the PT node).
    via: Option<usize>,
}

/// The row-id matrix of a partial join, one column per joined node: row
/// `i` of every vector together is the `i`-th surviving combination.
#[derive(Debug)]
struct Combos {
    /// Joined nodes in join order; slot 0 is the PT node.
    slots: Vec<Slot>,
    /// Per slot, the node's row id in each combination.
    ids: Vec<RowIds>,
}

impl Combos {
    /// The provenance table itself — `pt_ids` is `0..n` — with no context
    /// joined yet, and room for `nodes` joined nodes.
    fn pt(pt_ids: RowIds, nodes: usize) -> Combos {
        let mut combos = Combos {
            slots: Vec::with_capacity(nodes),
            ids: Vec::with_capacity(nodes),
        };
        combos.slots.push(Slot { node: 0, via: None });
        combos.ids.push(pt_ids);
        combos
    }

    /// Number of combinations.
    fn len(&self) -> usize {
        self.ids[0].len()
    }

    fn slot_of(&self, node: usize) -> Option<usize> {
        self.slots.iter().position(|s| s.node == node)
    }
}

/// The input combinations a step emits, in emission order. A step visits
/// its input in order, so as long as each combination came out exactly
/// once the list is the identity and is not written down.
#[derive(Default)]
struct Emitted {
    /// Combinations emitted while the list was still the identity.
    once_each: u32,
    /// The list, from the first combination dropped or repeated on.
    picks: Option<Vec<u32>>,
}

impl Emitted {
    /// Input combination `i` — the next one — comes out `times` times.
    fn push(&mut self, i: usize, times: usize) {
        match &mut self.picks {
            None if times == 1 => self.once_each += 1,
            None => {
                let mut picks: Vec<u32> = (0..self.once_each).collect();
                picks.resize(picks.len() + times, i as u32);
                self.picks = Some(picks);
            }
            Some(picks) => picks.resize(picks.len() + times, i as u32),
        }
    }
}

/// What one step computed from the cells it read.
#[derive(Clone)]
struct Step {
    /// The emission list ([`Emitted::picks`]); `None` when every input
    /// combination came out exactly once, so the output shares the
    /// input's vectors. Behind an `Arc` because re-emissions are memoized
    /// by its address.
    picks: Option<Arc<Vec<u32>>>,
    /// The joined node's row id per emitted combination (`None` for a
    /// filter).
    new_ids: Option<RowIds>,
}

/// Identity of one input of a step: the column read and the row-id vector
/// it is read through, both by address.
type SideKey = (usize, usize);

/// Identity of everything a step reads.
#[derive(PartialEq, Eq, Hash)]
enum StepKey {
    /// A hash join: the anchor sides and the target's key index (the
    /// address of its cell in [`Kernel::indexes`]).
    Join(Vec<SideKey>, usize),
    /// A filter: both sides of every attribute pair.
    Filter(Vec<(SideKey, SideKey)>),
}

/// A resolved `(node, attribute)` of a step: the column to read and the
/// row ids of its node to read it at.
struct Side<'a> {
    col: &'a Column,
    ids: &'a RowIds,
}

impl Side<'_> {
    /// The attribute's value in combination `i`.
    #[inline]
    fn value(&self, i: usize) -> Value {
        self.col.value(self.ids[i] as usize)
    }

    /// The identity of what this side reads. The column outlives the
    /// kernel (it borrows the database and the provenance table); the
    /// vector is pinned by the memo entry the key goes into.
    fn key(&self) -> SideKey {
        (self.col as *const Column as usize, self.ids.addr())
    }
}

/// A memo of values computed at most once per key. The map lock is held
/// only to find the key's cell; the computation runs in the cell, so
/// distinct keys compute concurrently, one key computes once, and a
/// computation that panics leaves its cell empty for the next caller.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// A memoized value next to the vectors whose addresses are in its key,
/// kept alive with it: no other vector can be allocated at an address the
/// memo knows.
type Pinned<V> = (V, Vec<RowIds>);

fn cell_of<K: std::hash::Hash + Eq, V>(memo: &Memo<K, V>, key: K) -> Arc<OnceLock<V>> {
    // The map is only ever inserted into: valid at every step.
    let mut cells = memo.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(cells.entry(key).or_default())
}

/// The join kernel over one `(database, provenance table)` pair, with the
/// key indexes built and the steps computed so far.
struct Kernel<'a> {
    db: &'a Database,
    pt: &'a ProvenanceTable,
    /// λ_qcost: a join step whose output would pass this many rows is over
    /// the bound (module docs).
    max_cost: f64,
    /// The PT node's vector before any step: `0..pt.num_rows`, one for
    /// the kernel, so every fold starts from the same identity.
    pt_ids: RowIds,
    /// One index per `(relation, key column indices)`.
    indexes: Memo<(String, Vec<usize>), KeyIndex>,
    /// Steps by the identity of what they read (module docs); `None` for
    /// a join over λ_qcost.
    steps: Memo<StepKey, Pinned<Option<Step>>>,
    /// Re-emitted vectors by `(vector address, emission-list address)`;
    /// the list is pinned by its step's entry.
    reemitted: Memo<(usize, usize), Pinned<RowIds>>,
    join_steps: AtomicU64,
    join_steps_computed: AtomicU64,
    index_builds: AtomicU64,
}

impl<'a> Kernel<'a> {
    fn new(db: &'a Database, pt: &'a ProvenanceTable, max_cost: f64) -> Self {
        Kernel {
            db,
            pt,
            max_cost,
            pt_ids: RowIds::new((0..pt.num_rows as u32).collect()),
            indexes: Mutex::default(),
            steps: Mutex::default(),
            reemitted: Mutex::default(),
            join_steps: AtomicU64::new(0),
            join_steps_computed: AtomicU64::new(0),
            index_builds: AtomicU64::new(0),
        }
    }

    /// The graph's full join: `extend` folded over its plan, from the PT;
    /// `None` once a join step is over λ_qcost.
    fn fold(&self, graph: &JoinGraph) -> Result<Option<Combos>> {
        let mut combos = Combos::pt(self.pt_ids.clone(), graph.nodes.len());
        for ei in edge_order(graph)? {
            if !self.extend(graph, &mut combos, ei)? {
                return Ok(None);
            }
        }
        Ok(Some(combos))
    }

    /// Applies edge `ei` of `graph` to `combos`: a hash join when the edge
    /// reaches a node not joined yet, a filter when both endpoints are.
    /// `false`, with `combos` as it was, when the join is over λ_qcost.
    fn extend(&self, graph: &JoinGraph, combos: &mut Combos, ei: usize) -> Result<bool> {
        let e = &graph.edges[ei];
        self.join_steps.fetch_add(1, Ordering::Relaxed);
        match (combos.slot_of(e.from), combos.slot_of(e.to)) {
            (Some(_), Some(_)) => self.filter(graph, combos, e).map(|()| true),
            (Some(_), None) => self.join(graph, combos, ei, e.from, e.to),
            (None, Some(_)) => self.join(graph, combos, ei, e.to, e.from),
            (None, None) => Err(GraphError::Malformed(
                "join graph is not connected to PT".into(),
            )),
        }
    }

    /// The step reading `key`'s inputs — `read` are the vectors among them
    /// — from the memo, or `compute`d now: by this caller or by the one it
    /// waits for.
    fn step(
        &self,
        key: StepKey,
        read: Vec<RowIds>,
        compute: impl FnOnce() -> Option<Step>,
    ) -> Option<Step> {
        let cell = cell_of(&self.steps, key);
        let (step, _pins) = cell.get_or_init(|| {
            self.join_steps_computed.fetch_add(1, Ordering::Relaxed);
            (compute(), read)
        });
        step.clone()
    }

    /// Leaves in `combos` the vectors of the combinations a step emitted:
    /// its own when the step emitted every combination exactly once,
    /// re-emitted ones — one per `(vector, list)`, whichever graph asks —
    /// otherwise.
    fn emit(&self, combos: &mut Combos, picks: &Option<Arc<Vec<u32>>>) {
        let Some(picks) = picks else {
            return;
        };
        for ids in &mut combos.ids {
            let cell = cell_of(&self.reemitted, (ids.addr(), Arc::as_ptr(picks) as usize));
            let (out, _pins) = cell.get_or_init(|| {
                let out = picks.iter().map(|&i| ids[i as usize]).collect();
                (RowIds::new(out), vec![ids.clone()])
            });
            *ids = out.clone();
        }
    }

    /// Hash join of `combos` with the relation of `new_node` along edge
    /// `ei`, whose `anchor` endpoint is already joined; `false`, with
    /// `combos` as it was, when its output would pass λ_qcost rows.
    fn join(
        &self,
        graph: &JoinGraph,
        combos: &mut Combos,
        ei: usize,
        anchor: usize,
        new_node: usize,
    ) -> Result<bool> {
        let e = &graph.edges[ei];
        let rel = graph
            .rel_of(new_node)
            .ok_or_else(|| GraphError::Malformed("PT cannot be a join target of itself".into()))?;
        let table = self.db.table(rel)?;
        // Orient the condition: anchor-side attrs vs new-side attrs.
        let anchor_is_from = e.from == anchor;
        let mut new_cols = Vec::with_capacity(e.cond.pairs.len());
        let mut anchor_sides = Vec::with_capacity(e.cond.pairs.len());
        for p in &e.cond.pairs {
            let (anchor_attr, new_attr) = if anchor_is_from {
                (&p.left, &p.right)
            } else {
                (&p.right, &p.left)
            };
            new_cols.push(table.schema().field_index(new_attr).ok_or_else(|| {
                GraphError::BadCondition(format!("`{rel}` has no attribute `{new_attr}`"))
            })?);
            anchor_sides.push(self.side(graph, combos, anchor, anchor_attr, e.pt_from_idx)?);
        }

        let index_cell = cell_of(&self.indexes, (rel.to_string(), new_cols.clone()));
        let key = StepKey::Join(
            anchor_sides.iter().map(Side::key).collect(),
            Arc::as_ptr(&index_cell) as usize,
        );
        let read = anchor_sides.iter().map(|s| s.ids.clone()).collect();
        let step = self.step(key, read, || {
            // The most rows the join may output (the bound's floor); a
            // negative or NaN bound lets no join through.
            let cap = (self.max_cost >= 0.0).then_some(self.max_cost as usize)?;
            let index = index_cell.get_or_init(|| {
                self.index_builds.fetch_add(1, Ordering::Relaxed);
                let cols: Vec<&Column> = new_cols.iter().map(|&c| table.column(c)).collect();
                KeyIndex::build(&cols, 0..table.num_rows() as u32)
            });

            let n = combos.len();
            // Never more room than the bound: the vector may double past
            // it, not start there.
            let mut new_ids = Vec::with_capacity(n.min(cap));
            let mut emitted = Emitted::default();
            for i in 0..n {
                let matches = index.probe(anchor_sides.iter().map(|s| s.value(i)));
                if new_ids.len() + matches.len() > cap {
                    return None;
                }
                new_ids.extend_from_slice(matches);
                emitted.push(i, matches.len());
            }
            Some(Step {
                picks: emitted.picks.map(Arc::new),
                new_ids: Some(RowIds::new(new_ids)),
            })
        });
        let Some(step) = step else {
            return Ok(false);
        };
        self.emit(combos, &step.picks);
        // `Some`: the entry of a `StepKey::Join` was computed right here.
        combos.ids.extend(step.new_ids);
        combos.slots.push(Slot {
            node: new_node,
            via: Some(ei),
        });
        Ok(true)
    }

    /// Keeps the combinations satisfying the condition of `e`, an edge
    /// between two joined nodes (a cycle-closing or parallel edge).
    fn filter(&self, graph: &JoinGraph, combos: &mut Combos, e: &JgEdge) -> Result<()> {
        let mut sides = Vec::with_capacity(e.cond.pairs.len());
        for p in &e.cond.pairs {
            sides.push((
                self.side(graph, combos, e.from, &p.left, e.pt_from_idx)?,
                self.side(graph, combos, e.to, &p.right, e.pt_from_idx)?,
            ));
        }
        let key = StepKey::Filter(sides.iter().map(|(a, b)| (a.key(), b.key())).collect());
        let both = sides
            .iter()
            .flat_map(|(a, b)| [a.ids.clone(), b.ids.clone()]);
        let step = self.step(key, both.collect(), || {
            let mut emitted = Emitted::default();
            for i in 0..combos.len() {
                let passes = sides.iter().all(|(a, b)| a.value(i).sql_eq(&b.value(i)));
                emitted.push(i, passes as usize);
            }
            Some(Step {
                picks: emitted.picks.map(Arc::new),
                new_ids: None,
            })
        });
        // `Some`: a filter is never over the bound.
        if let Some(step) = step {
            self.emit(combos, &step.picks);
        }
        Ok(())
    }

    /// Resolves attribute `attr` of joined node `node` to its column.
    fn side<'c>(
        &'c self,
        graph: &JoinGraph,
        combos: &'c Combos,
        node: usize,
        attr: &str,
        pt_from_idx: Option<usize>,
    ) -> Result<Side<'c>> {
        let slot = combos
            .slot_of(node)
            .ok_or_else(|| GraphError::Malformed(format!("node {node} is not joined yet")))?;
        let col: &Column = match &graph.nodes[node].label {
            NodeLabel::Pt => &self.pt.columns[pt_field_for(self.pt, pt_from_idx, attr)?],
            NodeLabel::Rel(rel) => {
                let t = self.db.table(rel)?;
                let ci = t.schema().field_index(attr).ok_or_else(|| {
                    GraphError::BadCondition(format!("`{rel}` has no attribute `{attr}`"))
                })?;
                t.column(ci)
            }
        };
        Ok(Side {
            col,
            ids: &combos.ids[slot],
        })
    }
}

/// The plan: the order in which the graph's edges are applied —
/// breadth-first out of the PT node, an edge as soon as one of its
/// endpoints is joined (a join) or both are (a filter).
fn edge_order(graph: &JoinGraph) -> Result<Vec<usize>> {
    let mut joined = vec![false; graph.nodes.len()];
    if let Some(pt) = joined.first_mut() {
        *pt = true;
    }
    let mut used = vec![false; graph.edges.len()];
    let mut order = Vec::with_capacity(graph.edges.len());
    loop {
        let before = order.len();
        for (ei, e) in graph.edges.iter().enumerate() {
            let (Some(&from), Some(&to)) = (joined.get(e.from), joined.get(e.to)) else {
                return Err(GraphError::Malformed(format!(
                    "edge {ei} names a node the graph does not have"
                )));
            };
            if used[ei] || !(from || to) {
                continue;
            }
            used[ei] = true;
            joined[e.from] = true;
            joined[e.to] = true;
            order.push(ei);
        }
        if order.len() == before {
            break;
        }
    }
    if order.len() < graph.edges.len() {
        return Err(GraphError::Malformed(
            "join graph is not connected to PT".into(),
        ));
    }
    Ok(order)
}

/// Wraps `graph`'s full row-id matrix as its APT: per joined node, handles
/// on its columns (minus the join columns Definition 4 calls duplicates)
/// over the node's row-id vector.
fn view(db: &Database, pt: &ProvenanceTable, graph: &JoinGraph, combos: &Combos) -> Result<Apt> {
    let aliases = graph.display_aliases();
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (fi, f) in pt.fields.iter().enumerate() {
        fields.push(AptField {
            name: f.name.clone(),
            dtype: f.dtype,
            kind: f.kind,
            is_group_by: f.is_group_by,
            from_pt: true,
            node: 0,
            base_column: f.attr.clone(),
        });
        columns.push(AptColumn {
            base: Arc::clone(&pt.columns[fi]),
            rows: combos.ids[0].clone(),
        });
    }

    for (s, rows) in combos.slots.iter().zip(&combos.ids).skip(1) {
        let node = s.node;
        let (Some(rel), Some(via)) = (graph.rel_of(node), s.via) else {
            return Err(GraphError::Malformed(format!(
                "node {node} was joined without a relation or an edge"
            )));
        };
        let table = db.table(rel)?;
        // Attributes equated away by the edge that joined this node
        // (duplicate-column removal, Definition 4).
        let e = &graph.edges[via];
        let dup_attrs: Vec<&str> = if e.to == node {
            e.cond.right_attrs()
        } else {
            e.cond.left_attrs()
        };

        for (ci, f) in table.schema().fields.iter().enumerate() {
            if dup_attrs.contains(&f.name.as_str()) {
                continue;
            }
            fields.push(AptField {
                name: format!("{}.{}", aliases[node], f.name),
                dtype: f.dtype,
                kind: f.kind,
                is_group_by: false,
                from_pt: false,
                node,
                base_column: f.name.clone(),
            });
            columns.push(AptColumn {
                base: table.column_handle(ci),
                rows: rows.clone(),
            });
        }
    }

    Ok(Apt {
        fields,
        columns,
        num_rows: combos.len(),
        pt_row: combos.ids[0].clone(),
        graph: graph.clone(),
    })
}

/// Materializes the APTs of one enumeration through one kernel.
///
/// [`materialize`](AptBuilder::materialize) folds the graph from the PT,
/// as [`Apt::materialize`] does, and returns exactly what that returns —
/// but through a kernel that lives as long as the builder, so there is one
/// key index per `(relation, key columns)` and one result per step *by
/// what the step reads* (module docs). An enumerated graph is its parent
/// plus one edge: every step of its prefix was computed for the parent, or
/// for whichever sibling or cousin first read the same key columns through
/// the same vectors, and is a look-up; concurrent callers of one step wait
/// for the one that computes it. That memo is the builder's only sharing
/// mechanism — it keeps no matrix per graph and does not read
/// [`EnumeratedGraph::parent`].
///
/// A malformed step is not memoized: every graph whose fold reaches it
/// reports the error it raises, the same one on every call. A join over
/// λ_qcost is memoized: every graph whose fold reaches it is skipped
/// (module docs).
///
/// A builder is meant to live for one ask. The memo pins each vector a
/// step read or produced; a vector is freed when the builder and every
/// [`Apt`] viewing it are gone.
pub struct AptBuilder<'a> {
    kernel: Kernel<'a>,
    graphs: &'a [EnumeratedGraph],
    graphs_over_cost: AtomicU64,
}

impl<'a> AptBuilder<'a> {
    /// A builder over `graphs`, the output of
    /// [`enumerate_join_graphs`](crate::enumerate_join_graphs) for the
    /// query `pt` is the provenance of, that skips a graph once one of its
    /// joins would output more than `max_cost` rows (λ_qcost).
    pub fn new(
        db: &'a Database,
        pt: &'a ProvenanceTable,
        graphs: &'a [EnumeratedGraph],
        max_cost: f64,
    ) -> Self {
        AptBuilder {
            kernel: Kernel::new(db, pt, max_cost),
            graphs,
            graphs_over_cost: AtomicU64::new(0),
        }
    }

    /// Materializes the APT of `graphs[gi]`; `None` when one of its joins
    /// is over λ_qcost — a skip, never an error.
    pub fn materialize(&self, gi: usize) -> Result<Option<Apt>> {
        let g = self
            .graphs
            .get(gi)
            .ok_or_else(|| GraphError::Malformed(format!("no enumerated graph with index {gi}")))?;
        let Some(combos) = self.kernel.fold(&g.graph)? else {
            self.graphs_over_cost.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        view(self.kernel.db, self.kernel.pt, &g.graph, &combos).map(Some)
    }

    /// `extend` steps applied so far (hash joins and closing-edge
    /// filters): one per edge of every graph materialized, whether the
    /// step ran or was looked up.
    pub fn join_steps(&self) -> u64 {
        self.kernel.join_steps.load(Ordering::Relaxed)
    }

    /// The steps among [`join_steps`](AptBuilder::join_steps) that ran
    /// their probe or filter loop; the others read inputs — the same key
    /// columns through the same row-id vectors — an earlier step had read.
    pub fn join_steps_computed(&self) -> u64 {
        self.kernel.join_steps_computed.load(Ordering::Relaxed)
    }

    /// Key indexes built so far.
    pub fn index_builds(&self) -> u64 {
        self.kernel.index_builds.load(Ordering::Relaxed)
    }

    /// [`materialize`](AptBuilder::materialize) calls that skipped their
    /// graph over λ_qcost.
    pub fn graphs_over_cost(&self) -> u64 {
        self.graphs_over_cost.load(Ordering::Relaxed)
    }
}

/// Resolves a PT-side attribute (with its FROM-entry binding) to a wide PT
/// field index.
fn pt_field_for(pt: &ProvenanceTable, pt_from_idx: Option<usize>, attr: &str) -> Result<usize> {
    let from_idx = pt_from_idx
        .ok_or_else(|| GraphError::Malformed("PT-side edge is missing its FROM binding".into()))?;
    pt.fields
        .iter()
        .position(|f| f.from_idx == from_idx && f.attr == attr)
        .ok_or_else(|| {
            GraphError::BadCondition(format!(
                "provenance table has no attribute `{attr}` for FROM entry {from_idx}"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::{JgEdge, JgNode};
    use crate::schema_graph::JoinCond;
    use cajade_query::parse_sql;
    use cajade_storage::{SchemaBuilder, Value};

    /// Example-1 style fixture: game (PT source) + player scoring context.
    fn setup() -> (Database, ProvenanceTable, cajade_query::Query) {
        let mut db = Database::new("nba");
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("gid", DataType::Int, AttrKind::Categorical)
                .column("winner", DataType::Str, AttrKind::Categorical)
                .column("season", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("scoring")
                .column_pk("gid", DataType::Int, AttrKind::Categorical)
                .column_pk("player", DataType::Str, AttrKind::Categorical)
                .column("pts", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let gsw = db.intern("GSW");
        let mia = db.intern("MIA");
        let s12 = db.intern("2012-13");
        let s15 = db.intern("2015-16");
        let curry = db.intern("S. Curry");
        let klay = db.intern("K. Thompson");
        // Games: 1 GSW 2012-13, 2+3 GSW 2015-16, 4 MIA 2012-13.
        for (gid, w, s) in [(1, gsw, s12), (2, gsw, s15), (3, gsw, s15), (4, mia, s12)] {
            db.table_mut("game")
                .unwrap()
                .push_row(vec![Value::Int(gid), Value::Str(w), Value::Str(s)])
                .unwrap();
        }
        // Scoring: Curry plays games 1-3, Klay only 2-3; game 4 has Curry too.
        for (gid, p, pts) in [
            (1, curry, 22),
            (2, curry, 40),
            (3, curry, 39),
            (2, klay, 27),
            (3, klay, 18),
            (4, curry, 10),
        ] {
            db.table_mut("scoring")
                .unwrap()
                .push_row(vec![Value::Int(gid), Value::Str(p), Value::Int(pts)])
                .unwrap();
        }
        let query = parse_sql(
            "SELECT count(*) AS win, season FROM game WHERE winner = 'GSW' GROUP BY season",
        )
        .unwrap();
        let pt = ProvenanceTable::compute(&db, &query).unwrap();
        (db, pt, query)
    }

    fn scoring_graph() -> JoinGraph {
        let mut g = JoinGraph::pt_only();
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("scoring".into()),
        });
        g.edges.push(JgEdge {
            from: 0,
            to: 1,
            cond: JoinCond::on(&[("gid", "gid")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        });
        g
    }

    #[test]
    fn apt_matches_example4_shape() {
        let (db, pt, _q) = setup();
        let apt = Apt::materialize(&db, &pt, &scoring_graph()).unwrap();
        // PT = 3 GSW games; game1 → 1 scoring row, games 2,3 → 2 each.
        assert_eq!(apt.num_rows, 5);
        // Each APT row points back at its PT row.
        assert_eq!(apt.pt_row.len(), 5);
        // PT fields retain prov names; context fields use the node alias.
        assert!(apt.field_index("prov_game_season").is_some());
        assert!(apt.field_index("scoring.pts").is_some());
        // Duplicate join column `scoring.gid` was removed (Definition 4).
        assert!(apt.field_index("scoring.gid").is_none());
    }

    #[test]
    fn pt_only_apt_is_the_pt() {
        let (db, pt, _q) = setup();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        assert_eq!(apt.num_rows, pt.num_rows);
        assert_eq!(apt.fields.len(), pt.fields.len());
        assert_eq!(*apt.pt_row, (0..pt.num_rows as u32).collect::<Vec<_>>());
    }

    #[test]
    fn group_by_fields_excluded_from_patterns() {
        let (db, pt, _q) = setup();
        let apt = Apt::materialize(&db, &pt, &scoring_graph()).unwrap();
        let pat = apt.pattern_fields();
        let season = apt.field_index("prov_game_season").unwrap();
        assert!(!pat.contains(&season));
        let pts = apt.field_index("scoring.pts").unwrap();
        assert!(pat.contains(&pts));
    }

    #[test]
    fn apt_values_join_correctly() {
        let (db, pt, _q) = setup();
        let apt = Apt::materialize(&db, &pt, &scoring_graph()).unwrap();
        let pts_f = apt.field_index("scoring.pts").unwrap();
        let player_f = apt.field_index("scoring.player").unwrap();
        let curry = db.lookup_str("S. Curry").unwrap();
        // Sum of Curry's points across GSW games = 22 + 40 + 39.
        let total: i64 = (0..apt.num_rows)
            .filter(|&r| apt.value(r, player_f) == Value::Str(curry))
            .map(|r| apt.value(r, pts_f).as_i64().unwrap())
            .sum();
        assert_eq!(total, 101);
    }

    /// λ_qcost bounds each join's output exactly — the 5-row scoring join
    /// passes at 5 and is over at 4 — and at −1 every graph with an edge
    /// is skipped; Ω₀ never is.
    #[test]
    fn cost_threshold_skips_graphs_whose_join_passes_it() {
        let (db, pt, _q) = setup();
        let listed = |graph: JoinGraph, parent| EnumeratedGraph {
            key: graph.key(),
            graph,
            valid: true,
            parent,
        };
        let graphs = [
            listed(JoinGraph::pt_only(), None),
            listed(scoring_graph(), Some(0)),
        ];
        for (max_cost, skipped) in [(5.0, false), (4.0, true), (-1.0, true)] {
            let builder = AptBuilder::new(&db, &pt, &graphs, max_cost);
            let apt = builder.materialize(1).unwrap();
            assert_eq!(apt.is_none(), skipped, "λ_qcost {max_cost}");
            assert_eq!(builder.graphs_over_cost(), u64::from(skipped));
            let pt_only = builder.materialize(0).unwrap().expect("Ω₀ has no join");
            assert_eq!(pt_only.num_rows, pt.num_rows);
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        let (db, pt, _q) = setup();
        let mut g = JoinGraph::pt_only();
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("scoring".into()),
        });
        // No edges: the scoring node is unreachable. (Join graphs from the
        // enumerator are always connected; hand-built ones may not be.)
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("scoring".into()),
        });
        g.edges.push(JgEdge {
            from: 1,
            to: 2,
            cond: JoinCond::on(&[("gid", "gid")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: None,
        });
        assert!(matches!(
            Apt::materialize(&db, &pt, &g),
            Err(GraphError::Malformed(_))
        ));
    }

    #[test]
    fn two_hop_graph_materializes() {
        let (mut db, _, _) = setup();
        db.create_table(
            SchemaBuilder::new("player_info")
                .column_pk("player", DataType::Str, AttrKind::Categorical)
                .column("age", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let curry = db.lookup_str("S. Curry").unwrap();
        let klay = db.lookup_str("K. Thompson").unwrap();
        db.table_mut("player_info")
            .unwrap()
            .push_row(vec![Value::Str(curry), Value::Int(28)])
            .unwrap();
        db.table_mut("player_info")
            .unwrap()
            .push_row(vec![Value::Str(klay), Value::Int(26)])
            .unwrap();

        let query = parse_sql(
            "SELECT count(*) AS win, season FROM game WHERE winner = 'GSW' GROUP BY season",
        )
        .unwrap();
        let pt = ProvenanceTable::compute(&db, &query).unwrap();
        let mut g = scoring_graph();
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("player_info".into()),
        });
        g.edges.push(JgEdge {
            from: 1,
            to: 2,
            cond: JoinCond::on(&[("player", "player")]),
            schema_edge: 1,
            cond_idx: 0,
            pt_from_idx: None,
        });
        let apt = Apt::materialize(&db, &pt, &g).unwrap();
        assert_eq!(apt.num_rows, 5);
        assert!(apt.field_index("player_info.age").is_some());
        // Duplicate join column removed on the far node too.
        assert!(apt.field_index("player_info.player").is_none());
    }
}
