//! Relations: finite sets of tuples with maintained secondary indexes.
//!
//! The paper's compiled strategies run inside PostgreSQL, whose planner uses
//! B-tree indexes to make the *incrementalized* trigger programs touch only
//! `O(|ΔV|)` tuples. Our substitute keeps hash indexes on arbitrary column
//! subsets; once registered, an index is maintained incrementally under
//! inserts and deletes, so repeated index probes after warm-up are `O(1)`
//! just as in the paper's setting.
//!
//! ## Versioned tuple sets (left-right double buffering)
//!
//! The primary tuple set lives behind an [`Arc`]; a [`Relation`] can
//! publish an immutable [`RelationVersion`] of its current contents via
//! [`Relation::version`]. The naive copy-on-write scheme — share the
//! live `Arc` with every version and let [`Arc::make_mut`] clone on the
//! next mutation — makes *writers* pay `O(|relation|)` after **every**
//! publication, because the newest published version always pins the
//! live set. Under per-commit publication (the service's MVCC read
//! path) that clone tax serializes the write path on relation size.
//!
//! Instead, the first `version()` call switches the relation into
//! **left-right** mode: two shadow buffers alternate as the published
//! image, kept in sync by replaying a log of the relation's effective
//! mutations. Each publication refreshes the buffer *not* published
//! last time — by then the published snapshot has dropped it, so
//! the replay mutates in place and costs `O(delta)`, not `O(n)`. Only a
//! reader still *holding* that older version forces a one-off clone:
//! writers pay proportional to what changed, and the full-copy cost
//! lands exactly when (and only when) a snapshot is actually pinned
//! across publications. Before the first `version()` call no log is
//! kept and mutations run exactly as they always have.
//!
//! Published versions never observe in-progress mutations. Secondary
//! indexes are *not* part of a version — they are an evaluator-side
//! acceleration structure and stay owned by the live relation.
//!
//! ## Index kinds
//!
//! Two kinds of secondary index are maintained, both incrementally:
//!
//! - **Hash indexes** over arbitrary column subsets
//!   ([`Relation::ensure_index`] / [`Relation::probe`]) serve equality
//!   probes in `O(1)`.
//! - **Ordered indexes** over single columns
//!   ([`Relation::ensure_ordered_index`] / [`Relation::range_probe`]) —
//!   a `BTreeMap<Value, set>` per column — serve *range* probes
//!   (`col < k`, `col >= k`, …) in `O(log n + matches)`. They are the
//!   substitute for the B-tree indexes the paper's PostgreSQL setup
//!   leans on for comparison guards. `Value`'s total order is sort-major
//!   (Int < Float < Str < Bool), so a range probe is only answered when
//!   the indexed column is homogeneous in the bound's sort — mixed-type
//!   columns make [`Relation::range_probe`] return `None` and the caller
//!   falls back to a scan-and-filter, preserving comparison semantics
//!   (cross-sort comparisons are runtime errors upstream).
//!
//! Probes count **hits** (served by an index) and **misses** (fell back
//! to a linear scan); see [`Relation::index_hits`]. The counters make
//! planner/registration drift — a plan probing a column nobody indexed —
//! observable instead of a silent O(n) cliff.

use crate::error::{StoreError, StoreResult};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A relation instance: a named finite set of same-arity tuples.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    name: String,
    arity: usize,
    /// Primary tuple set. Before the first [`Relation::version`] call it
    /// is unshared and [`Arc::make_mut`] mutates in place; afterwards the
    /// left-right buffers in `versions` carry the published images, so
    /// the live set stays unshared again after at most one divergence.
    tuples: Arc<FxHashSet<Tuple>>,
    /// Secondary hash indexes keyed by column subset. Maintained under all
    /// mutations. `Vec<usize>` keys are sorted, deduplicated column lists.
    indexes: FxHashMap<Vec<usize>, FxHashMap<Vec<Value>, Bucket>>,
    /// Ordered (B-tree) indexes keyed by single column, for range probes.
    /// Maintained under all mutations, exactly like the hash indexes.
    ordered: FxHashMap<usize, BTreeMap<Value, Bucket>>,
    /// Probe hit/miss counters (shared so `&self` probes can count).
    stats: Arc<IndexCounters>,
    /// Left-right publication state: `None` until the first
    /// [`Relation::version`] call (no logging cost for never-versioned
    /// relations, e.g. evaluator delta overlays). Boxed — it is two
    /// pointers of payload on the always-allocated path otherwise.
    versions: Option<Box<VersionBuffers>>,
}

/// Probe accounting: how often this relation's probes were served by an
/// index versus falling back to a linear scan. Interior-mutable
/// (`&self` probes count) and `Arc`-shared so clones of a relation keep
/// feeding the same counters. Relaxed ordering: the counters are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
struct IndexCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One effective mutation, replayed into a shadow buffer at publication
/// time. Only *effective* ops are logged (an insert that was already
/// present, or a remove that missed, changes nothing), so replaying a
/// buffer from the same starting state reproduces the live set exactly.
#[derive(Debug, Clone)]
enum Op {
    Insert(Tuple),
    Remove(Tuple),
}

/// The left-right publication state of a versioned relation: two shadow
/// buffers that alternate as the published image, and the op log that
/// brings the stale one up to date at each publication.
///
/// Invariant: `bufs[i]` holds exactly the live set's contents as of
/// absolute op index `applied[i]`, and `log` holds every effective op
/// from `base` onward (`base <= min(applied)`).
#[derive(Debug, Clone)]
struct VersionBuffers {
    bufs: [Arc<FxHashSet<Tuple>>; 2],
    /// Absolute op index each buffer is synced to.
    applied: [u64; 2],
    /// Absolute op index of `log[0]`.
    base: u64,
    /// Buffer the next publication refreshes (the one published the
    /// time *before* last, whose snapshot-cell reference is gone).
    next: usize,
    log: Vec<Op>,
}

impl VersionBuffers {
    fn new(live: &Arc<FxHashSet<Tuple>>) -> VersionBuffers {
        // Both buffers start as O(1) shares of the live set; they
        // diverge lazily on their first post-publication refresh.
        VersionBuffers {
            bufs: [Arc::clone(live), Arc::clone(live)],
            applied: [0, 0],
            base: 0,
            next: 0,
            log: Vec::new(),
        }
    }

    /// Record one effective mutation.
    fn push(&mut self, op: Op) {
        self.log.push(op);
    }

    /// Bring a shadow buffer up to date and return it as the new
    /// published image. `O(delta)` since that buffer's last refresh —
    /// `O(n)` only if a reader still holds the version published from
    /// it two publications ago (then `Arc::make_mut` clones once).
    fn sync(&mut self) -> Arc<FxHashSet<Tuple>> {
        let end = self.base + self.log.len() as u64;
        let prev = self.next ^ 1;
        if self.applied[prev] == end {
            // Nothing changed since the last publication: re-share it
            // and leave the buffers as they are.
            return Arc::clone(&self.bufs[prev]);
        }
        let i = self.next;
        let set = Arc::make_mut(&mut self.bufs[i]);
        for op in &self.log[(self.applied[i] - self.base) as usize..] {
            match op {
                Op::Insert(t) => {
                    set.insert(t.clone());
                }
                Op::Remove(t) => {
                    set.remove(t);
                }
            }
        }
        self.applied[i] = end;
        self.next = prev;
        // Drop the log prefix both buffers have replayed; in steady
        // state the log holds at most two publications' worth of ops.
        let done = (self.applied[0].min(self.applied[1]) - self.base) as usize;
        if done > 0 {
            self.log.drain(..done);
            self.base += done as u64;
        }
        Arc::clone(&self.bufs[i])
    }
}

/// The tuples an index holds under one key. A key-like column gives
/// almost every key a single tuple, which is stored inline: a
/// one-element set would cost a separate ~100-byte allocation per key,
/// the bulk of a unique index's memory. `Default` is the empty set,
/// which allocates nothing.
#[derive(Debug, Clone)]
enum Bucket {
    One(Tuple),
    Many(FxHashSet<Tuple>),
}

impl Default for Bucket {
    fn default() -> Bucket {
        Bucket::Many(FxHashSet::default())
    }
}

impl Bucket {
    /// Add `t`, which the bucket does not hold yet.
    fn insert(&mut self, t: Tuple) {
        match self {
            Bucket::Many(set) if set.is_empty() => *self = Bucket::One(t),
            Bucket::Many(set) => {
                set.insert(t);
            }
            Bucket::One(held) => {
                let held = held.clone();
                *self = Bucket::Many([held, t].into_iter().collect());
            }
        }
    }

    /// Remove `t`; `true` when the bucket is left empty.
    fn remove(&mut self, t: &Tuple) -> bool {
        match self {
            Bucket::One(held) => held == t,
            Bucket::Many(set) => {
                set.remove(t);
                set.is_empty()
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Tuple> {
        let (one, many) = match self {
            Bucket::One(t) => (Some(t), None),
            Bucket::Many(set) => (None, Some(set.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// An immutable, cheaply cloneable version of a relation's contents at a
/// publication point.
///
/// Produced by [`Relation::version`] in `O(delta)` (left-right
/// publication, see the module docs). Versions are what MVCC snapshot
/// readers hold: they never change after creation, carry no secondary
/// indexes, and stay valid for as long as the reader keeps them —
/// independent of any later writes to the source relation.
#[derive(Debug, Clone)]
pub struct RelationVersion {
    name: String,
    arity: usize,
    tuples: Arc<FxHashSet<Tuple>>,
    /// Cumulative index probe hits of the source relation, as of
    /// publication (see [`Relation::index_hits`]).
    index_hits: u64,
    /// Cumulative scan-fallback probe misses, as of publication.
    index_misses: u64,
}

impl RelationVersion {
    /// Relation (predicate) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arity of every tuple in the version.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the version holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Set membership test (full-tuple lookup, `O(1)`).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterate over all tuples (arbitrary order — set semantics).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The shared tuple set.
    pub fn tuples(&self) -> &FxHashSet<Tuple> {
        &self.tuples
    }

    /// Index probe hits of the source relation as of publication.
    pub fn index_hits(&self) -> u64 {
        self.index_hits
    }

    /// Scan-fallback probe misses of the source relation as of
    /// publication. A nonzero value flags planner/registration drift: a
    /// compiled plan probed columns nobody built an index for.
    pub fn index_misses(&self) -> u64 {
        self.index_misses
    }

    /// Rebuild a live [`Relation`] sharing this version's tuple set (no
    /// indexes, no tuple copying — the checkpoint/restore path uses this).
    pub fn to_relation(&self) -> Relation {
        Relation {
            name: self.name.clone(),
            arity: self.arity,
            tuples: Arc::clone(&self.tuples),
            indexes: FxHashMap::default(),
            ordered: FxHashMap::default(),
            stats: Arc::default(),
            versions: None,
        }
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            tuples: Arc::new(FxHashSet::default()),
            indexes: FxHashMap::default(),
            ordered: FxHashMap::default(),
            stats: Arc::default(),
            versions: None,
        }
    }

    /// Create a relation pre-populated with tuples.
    ///
    /// Fails with [`StoreError::ArityMismatch`] if any tuple has the wrong
    /// arity.
    pub fn with_tuples(
        name: impl Into<String>,
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> StoreResult<Self> {
        let mut rel = Relation::new(name, arity);
        let tuples = tuples.into_iter();
        // Pre-size the primary set from the iterator's lower bound so bulk
        // loads (view materialization, benchmark datagen) don't rehash
        // log(n) times on the way up.
        Arc::make_mut(&mut rel.tuples).reserve(tuples.size_hint().0);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Build a relation directly from an owned tuple set.
    ///
    /// The set is adopted as-is — no per-tuple re-hashing — after a linear
    /// arity check. This is the fast path for turning an evaluator result
    /// set into a relation.
    pub fn from_set(
        name: impl Into<String>,
        arity: usize,
        tuples: FxHashSet<Tuple>,
    ) -> StoreResult<Self> {
        let name = name.into();
        if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
            return Err(StoreError::ArityMismatch {
                relation: name,
                expected: arity,
                found: t.arity(),
            });
        }
        Ok(Relation {
            name,
            arity,
            tuples: Arc::new(tuples),
            indexes: FxHashMap::default(),
            ordered: FxHashMap::default(),
            stats: Arc::default(),
            versions: None,
        })
    }

    /// Consume the relation, giving it a new name (tuples and indexes are
    /// kept as-is).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Relation (predicate) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arity of every tuple in the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Set membership test (full-tuple lookup, `O(1)`).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Membership test by field slice — the evaluator's fully-bound
    /// existence checks use this to avoid allocating a `Tuple` per probe.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.tuples.contains(row)
    }

    /// Iterate over all tuples (arbitrary order — set semantics).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Insert a tuple; `Ok(true)` if it was newly added.
    pub fn insert(&mut self, t: Tuple) -> StoreResult<bool> {
        if t.arity() != self.arity {
            return Err(StoreError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity,
                found: t.arity(),
            });
        }
        // Fast path: with no registered indexes (bulk loads, overlay delta
        // relations) a single hash-set insert both tests membership and
        // stores the tuple — no re-projection, no second lookup.
        if self.indexes.is_empty() && self.ordered.is_empty() {
            return Ok(match &mut self.versions {
                None => Arc::make_mut(&mut self.tuples).insert(t),
                Some(vb) => {
                    let added = Arc::make_mut(&mut self.tuples).insert(t.clone());
                    if added {
                        vb.push(Op::Insert(t));
                    }
                    added
                }
            });
        }
        if self.tuples.contains(&t) {
            return Ok(false);
        }
        for (cols, index) in self.indexes.iter_mut() {
            index.entry(t.project(cols)).or_default().insert(t.clone());
        }
        for (&col, tree) in self.ordered.iter_mut() {
            tree.entry(t[col]).or_default().insert(t.clone());
        }
        if let Some(vb) = &mut self.versions {
            vb.push(Op::Insert(t.clone()));
        }
        Arc::make_mut(&mut self.tuples).insert(t);
        Ok(true)
    }

    /// Remove a tuple; `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        // Membership test first so a miss never forces a COW clone.
        if !self.tuples.contains(t) {
            return false;
        }
        Arc::make_mut(&mut self.tuples).remove(t);
        if let Some(vb) = &mut self.versions {
            vb.push(Op::Remove(t.clone()));
        }
        for (cols, index) in self.indexes.iter_mut() {
            let key = t.project(cols);
            if index.get_mut(&key).is_some_and(|bucket| bucket.remove(t)) {
                index.remove(&key);
            }
        }
        for (&col, tree) in self.ordered.iter_mut() {
            let key = t[col];
            if tree.get_mut(&key).is_some_and(|bucket| bucket.remove(t)) {
                tree.remove(&key);
            }
        }
        true
    }

    /// Register (and build, if absent) an index on the given columns.
    ///
    /// Columns are normalized to sorted-unique order; an empty or full-arity
    /// column list is accepted but pointless (full-tuple lookups already use
    /// the primary hash set).
    pub fn ensure_index(&mut self, cols: &[usize]) -> StoreResult<()> {
        let key = normalize_cols(cols);
        if key.iter().any(|&c| c >= self.arity) {
            return Err(StoreError::BadIndexColumns {
                relation: self.name.clone(),
                arity: self.arity,
            });
        }
        if self.indexes.contains_key(&key) {
            return Ok(());
        }
        let mut index: FxHashMap<Vec<Value>, Bucket> = FxHashMap::default();
        for t in self.tuples.iter() {
            index.entry(t.project(&key)).or_default().insert(t.clone());
        }
        self.indexes.insert(key, index);
        Ok(())
    }

    /// `true` if an index over exactly these columns is registered.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indexes.contains_key(&normalize_cols(cols))
    }

    /// Probe an index: all tuples whose projection on `cols` equals `key`.
    ///
    /// `cols` and `key` must be parallel (same length, pre-normalization);
    /// the caller is expected to have called [`Relation::ensure_index`]
    /// first — probing a missing index falls back to a scan so results are
    /// always correct, just slower.
    pub fn probe<'a>(
        &'a self,
        cols: &[usize],
        key: &[Value],
    ) -> Box<dyn Iterator<Item = &'a Tuple> + 'a> {
        debug_assert_eq!(cols.len(), key.len());
        let (norm_cols, norm_key) = normalize_probe(cols, key);
        if let Some(index) = self.indexes.get(&norm_cols) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            match index.get(&norm_key) {
                Some(bucket) => Box::new(bucket.iter()),
                None => Box::new(std::iter::empty()),
            }
        } else {
            // Correct-but-slow fallback: linear scan. Counted as a miss so
            // the drift (a plan probing columns nobody indexed) shows up
            // in `stats` instead of hiding as a latency cliff.
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            let cols: Vec<usize> = cols.to_vec();
            let key: Vec<Value> = key.to_vec();
            Box::new(
                self.tuples
                    .iter()
                    .filter(move |t| cols.iter().zip(&key).all(|(&c, v)| &t[c] == v)),
            )
        }
    }

    /// Register (and build, if absent) an ordered index on one column.
    ///
    /// The index is a `BTreeMap` from column value to the tuples holding
    /// it, maintained incrementally under inserts and deletes exactly
    /// like the hash indexes. It serves [`Relation::range_probe`].
    pub fn ensure_ordered_index(&mut self, col: usize) -> StoreResult<()> {
        if col >= self.arity {
            return Err(StoreError::BadIndexColumns {
                relation: self.name.clone(),
                arity: self.arity,
            });
        }
        if self.ordered.contains_key(&col) {
            return Ok(());
        }
        let mut tree: BTreeMap<Value, Bucket> = BTreeMap::new();
        for t in self.tuples.iter() {
            tree.entry(t[col]).or_default().insert(t.clone());
        }
        self.ordered.insert(col, tree);
        Ok(())
    }

    /// `true` if an ordered index over exactly this column is registered.
    pub fn has_ordered_index(&self, col: usize) -> bool {
        self.ordered.contains_key(&col)
    }

    /// Range-probe an ordered index: all tuples whose value in `col`
    /// falls within `(lo, hi)`.
    ///
    /// Returns `None` — and counts a probe miss — when the probe cannot
    /// be answered from an index: no ordered index on `col`, or the
    /// indexed column is not homogeneous in the bounds' sort. `Value`'s
    /// total order is sort-major, so a range over a mixed-type column
    /// would silently skip tuples whose comparison against the bound is
    /// a *sort error* upstream; the caller must fall back to
    /// scan-and-filter to preserve those semantics. At least one bound
    /// must be finite (both-unbounded callers should just scan).
    ///
    /// An empty interval (`lo > hi`, or touching exclusive bounds) yields
    /// an empty iterator.
    pub fn range_probe(
        &self,
        col: usize,
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> Option<Box<dyn Iterator<Item = &Tuple> + '_>> {
        let Some(tree) = self.ordered.get(&col) else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let sort = match (&lo, &hi) {
            (Bound::Included(v) | Bound::Excluded(v), _)
            | (_, Bound::Included(v) | Bound::Excluded(v)) => v.sort(),
            (Bound::Unbounded, Bound::Unbounded) => {
                debug_assert!(false, "range_probe needs at least one finite bound");
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // Sort-homogeneity check in O(log n): keys are sort-major ordered,
        // so first and last key sharing the bound's sort means every key
        // does. (An empty index is trivially homogeneous — no tuples, no
        // skipped comparisons.)
        let homogeneous = match (tree.first_key_value(), tree.last_key_value()) {
            (Some((first, _)), Some((last, _))) => first.sort() == sort && last.sort() == sort,
            _ => true,
        };
        let same_sort_bounds = |b: &Bound<Value>| match b {
            Bound::Included(v) | Bound::Excluded(v) => v.sort() == sort,
            Bound::Unbounded => true,
        };
        if !homogeneous || !same_sort_bounds(&lo) || !same_sort_bounds(&hi) {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        // `BTreeMap::range` panics on inverted or empty exclusive ranges;
        // detect them first (the guards may genuinely be contradictory,
        // e.g. `X > 9, X < 3` — the right answer is "no tuples").
        let empty = match (&lo, &hi) {
            (Bound::Included(a), Bound::Included(b)) => a > b,
            (Bound::Included(a), Bound::Excluded(b))
            | (Bound::Excluded(a), Bound::Included(b))
            | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
            _ => false,
        };
        if empty {
            return Some(Box::new(std::iter::empty()));
        }
        Some(Box::new(
            tree.range((lo, hi)).flat_map(|(_, bucket)| bucket.iter()),
        ))
    }

    /// Number of distinct keys in an existing index over `cols` (hash
    /// first, then single-column ordered); `None` when no such index
    /// exists. The planner's selectivity estimate divides relation size
    /// by this.
    pub fn distinct_keys(&self, cols: &[usize]) -> Option<usize> {
        let key = normalize_cols(cols);
        if let Some(index) = self.indexes.get(&key) {
            return Some(index.len());
        }
        if let [col] = key[..] {
            return self.ordered.get(&col).map(BTreeMap::len);
        }
        None
    }

    /// Cumulative probes served by an index (hash or ordered).
    pub fn index_hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Cumulative probes that fell back to a linear scan (missing index,
    /// or an ordered probe over a mixed-type column).
    pub fn index_misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    /// Remove all tuples (indexes stay registered but become empty).
    pub fn clear(&mut self) {
        // Structural wipe: cheaper to restart the left-right protocol
        // (outstanding versions keep their own sets; the next
        // `version()` re-initializes from the emptied live set) than to
        // replay a per-tuple log.
        self.versions = None;
        if Arc::strong_count(&self.tuples) == 1 {
            Arc::make_mut(&mut self.tuples).clear();
        } else {
            // A published version still shares the set: detach instead of
            // cloning tuples we are about to discard.
            self.tuples = Arc::new(FxHashSet::default());
        }
        for index in self.indexes.values_mut() {
            index.clear();
        }
        for tree in self.ordered.values_mut() {
            tree.clear();
        }
    }

    /// Snapshot of the tuple set.
    pub fn tuples(&self) -> &FxHashSet<Tuple> {
        &self.tuples
    }

    /// Publish an immutable version of the current contents.
    ///
    /// The first call switches the relation into left-right mode (see
    /// the module docs) and shares the live set in `O(1)`. Each later
    /// call costs `O(delta)` — the effective mutations since the
    /// *previous* publication are replayed into the alternate shadow
    /// buffer — rising to one `O(n)` clone only when a reader still
    /// holds the version published from that buffer. With no mutations
    /// since the last call, the previous version is re-shared in
    /// `O(1)`.
    pub fn version(&mut self) -> RelationVersion {
        let tuples = match &mut self.versions {
            Some(vb) => vb.sync(),
            None => {
                self.versions = Some(Box::new(VersionBuffers::new(&self.tuples)));
                Arc::clone(&self.tuples)
            }
        };
        RelationVersion {
            name: self.name.clone(),
            arity: self.arity,
            tuples,
            index_hits: self.index_hits(),
            index_misses: self.index_misses(),
        }
    }

    /// Consume the relation, yielding its tuples (indexes dropped). The
    /// snapshot-restore path uses this to move decoded contents into a
    /// live relation without re-cloning every tuple (unless a published
    /// version still shares the set, in which case it is cloned once).
    pub fn into_tuples(mut self) -> impl Iterator<Item = Tuple> {
        // Drop the shadow buffers first: right after a `version()` call
        // they may still share the live `Arc`, which would force the
        // unwrap below into a clone.
        self.versions = None;
        Arc::try_unwrap(self.tuples)
            .unwrap_or_else(|shared| (*shared).clone())
            .into_iter()
    }

    /// Replace the entire contents of the relation (indexes are rebuilt).
    pub fn replace_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> StoreResult<()> {
        // Structural wipe — same reasoning as `clear`: restart the
        // left-right protocol instead of logging every tuple.
        self.versions = None;
        let cols: Vec<Vec<usize>> = self.indexes.keys().cloned().collect();
        let ordered_cols: Vec<usize> = self.ordered.keys().copied().collect();
        // Build the fresh set aside and swap it in, so a shared (published)
        // old set is neither cloned nor disturbed.
        let mut fresh = FxHashSet::default();
        self.indexes.clear();
        self.ordered.clear();
        for t in tuples {
            if t.arity() != self.arity {
                return Err(StoreError::ArityMismatch {
                    relation: self.name.clone(),
                    expected: self.arity,
                    found: t.arity(),
                });
            }
            fresh.insert(t);
        }
        self.tuples = Arc::new(fresh);
        for c in cols {
            self.ensure_index(&c)?;
        }
        for c in ordered_cols {
            self.ensure_ordered_index(c)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Relation {
    /// `name{t1, t2, …}` with tuples in sorted order (deterministic).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sorted: Vec<&Tuple> = self.tuples.iter().collect();
        sorted.sort();
        write!(f, "{}{{", self.name)?;
        for (i, t) in sorted.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

/// Sort + dedupe an index column list.
fn normalize_cols(cols: &[usize]) -> Vec<usize> {
    let mut v = cols.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Normalize a probe's (cols, key) pair in tandem so it matches the
/// normalized index key layout. Duplicated columns keep the first value.
fn normalize_probe(cols: &[usize], key: &[Value]) -> (Vec<usize>, Vec<Value>) {
    let mut pairs: Vec<(usize, Value)> = cols.iter().copied().zip(key.iter().copied()).collect();
    pairs.sort_by_key(|(c, _)| *c);
    pairs.dedup_by_key(|(c, _)| *c);
    (
        pairs.iter().map(|(c, _)| *c).collect(),
        pairs.iter().map(|(_, v)| *v).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel() -> Relation {
        Relation::with_tuples("r", 2, vec![tuple![1, "a"], tuple![1, "b"], tuple![2, "a"]]).unwrap()
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tuple![1, "a"]));
        assert!(!r.insert(tuple![1, "a"]).unwrap(), "duplicate insert");
        assert!(r.remove(&tuple![1, "a"]));
        assert!(!r.remove(&tuple![1, "a"]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_is_enforced() {
        let mut r = rel();
        let err = r.insert(tuple![1]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut r = rel();
        r.ensure_index(&[0]).unwrap();
        let one = Value::int(1);
        let mut via_index: Vec<&Tuple> = r.probe(&[0], &[one]).collect();
        via_index.sort();
        assert_eq!(via_index.len(), 2);
        // Fallback scan path (no index on column 1):
        let a = Value::str("a");
        let via_scan: Vec<&Tuple> = r.probe(&[1], &[a]).collect();
        assert_eq!(via_scan.len(), 2);
    }

    #[test]
    fn index_is_maintained_under_mutation() {
        let mut r = rel();
        r.ensure_index(&[0]).unwrap();
        r.insert(tuple![1, "c"]).unwrap();
        r.remove(&tuple![1, "a"]);
        let one = Value::int(1);
        let hits: Vec<&Tuple> = r.probe(&[0], &[one]).collect();
        assert_eq!(hits.len(), 2); // (1,b) and (1,c)
        assert!(hits.iter().all(|t| t[0] == Value::int(1)));
    }

    #[test]
    fn probe_with_unsorted_duplicate_columns() {
        let mut r = rel();
        r.ensure_index(&[0, 1]).unwrap();
        let one = Value::int(1);
        let a = Value::str("a");
        // cols out of order and duplicated must still hit the [0,1] index.
        let hits: Vec<&Tuple> = r.probe(&[1, 0, 0], &[a, one, one]).collect();
        assert_eq!(hits, vec![&tuple![1, "a"]]);
    }

    #[test]
    fn bad_index_columns_rejected() {
        let mut r = rel();
        assert!(matches!(
            r.ensure_index(&[5]),
            Err(StoreError::BadIndexColumns { .. })
        ));
    }

    #[test]
    fn version_is_immutable_under_later_mutation() {
        let mut r = rel();
        let v = r.version();
        assert_eq!(v.len(), 3);
        // Shared set: the first mutation after publication diverges.
        r.insert(tuple![9, "z"]).unwrap();
        r.remove(&tuple![1, "a"]);
        assert_eq!(v.len(), 3, "published version unchanged");
        assert!(v.contains(&tuple![1, "a"]));
        assert!(!v.contains(&tuple![9, "z"]));
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tuple![9, "z"]));
        // A fresh version sees the new contents and shares the live set.
        let v2 = r.version();
        assert!(v2.contains(&tuple![9, "z"]));
        assert!(!v2.contains(&tuple![1, "a"]));
    }

    #[test]
    fn version_survives_clear_and_replace_all() {
        let mut r = rel();
        let v = r.version();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(v.len(), 3, "clear detaches, does not clone-then-clear");
        let v_after_clear = r.version();
        r.replace_all(vec![tuple![7, "q"]]).unwrap();
        assert!(v_after_clear.is_empty());
        assert_eq!(r.len(), 1);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn to_relation_round_trips_contents() {
        let mut r = rel();
        let back = r.version().to_relation();
        assert_eq!(back.name(), "r");
        assert_eq!(back.arity(), 2);
        assert_eq!(back.tuples(), r.tuples());
    }

    #[test]
    fn steady_state_publication_is_in_place() {
        // Left-right warm-up: after the first two publications have
        // diverged the shadow buffers, an unpinned publication replays
        // the delta in place — same buffer allocation, no O(n) clone —
        // and the live set's allocation never changes again either.
        let mut r = rel();
        let v0 = r.version();
        r.insert(tuple![10, "w"]).unwrap();
        let v1 = r.version();
        let live_ptr = Arc::as_ptr(&r.tuples);
        r.insert(tuple![11, "w"]).unwrap();
        let v2 = r.version();
        drop(v0);
        drop(v1);
        // v1's buffer is now unpinned: the next publication refreshes it
        // in place.
        r.insert(tuple![12, "w"]).unwrap();
        let v1_buf = std::ptr::from_ref(v2.tuples()); // v3 reuses the OTHER buffer
        let v3 = r.version();
        assert_ne!(std::ptr::from_ref(v3.tuples()), v1_buf, "buffers alternate");
        drop(v2);
        r.insert(tuple![13, "w"]).unwrap();
        let reused = std::ptr::from_ref(v3.tuples()) != Arc::as_ptr(&r.tuples);
        assert!(reused, "published buffers are not the live set");
        let v4_expected_buf = v1_buf;
        let v4 = r.version();
        assert_eq!(
            std::ptr::from_ref(v4.tuples()),
            v4_expected_buf,
            "unpinned buffer is refreshed in place, not cloned"
        );
        assert_eq!(Arc::as_ptr(&r.tuples), live_ptr, "live set never re-clones");
        assert_eq!(v4.len(), 7);
        assert!(v4.contains(&tuple![13, "w"]));
        assert_eq!(v3.len(), 6, "older pinned version is frozen");
        assert!(!v3.contains(&tuple![13, "w"]));
    }

    #[test]
    fn pinned_version_forces_one_clone_and_stays_frozen() {
        let mut r = rel();
        let _warm0 = r.version();
        r.insert(tuple![20, "x"]).unwrap();
        let _warm1 = r.version();
        r.remove(&tuple![1, "a"]);
        // Hold this one across two publications: its buffer is due for
        // refresh next, so the refresh must clone rather than mutate it.
        let pinned = r.version();
        let pinned_ptr = std::ptr::from_ref(pinned.tuples());
        r.insert(tuple![21, "x"]).unwrap();
        let _v = r.version();
        r.insert(tuple![22, "x"]).unwrap();
        let after = r.version();
        assert_ne!(
            std::ptr::from_ref(after.tuples()),
            pinned_ptr,
            "refresh of a pinned buffer clones"
        );
        assert_eq!(pinned.len(), 3);
        assert!(!pinned.contains(&tuple![21, "x"]));
        assert!(!pinned.contains(&tuple![22, "x"]));
        assert_eq!(after.len(), 5);
        assert!(after.contains(&tuple![21, "x"]));
        assert!(after.contains(&tuple![22, "x"]));
    }

    #[test]
    fn versions_reflect_indexed_mutations() {
        // The op log sits on both insert paths (indexed and fast): a
        // versioned relation with indexes still publishes exact images.
        let mut r = rel();
        r.ensure_index(&[0]).unwrap();
        let v0 = r.version();
        r.insert(tuple![3, "c"]).unwrap();
        r.insert(tuple![3, "c"]).unwrap(); // no-op: must not be replayed
        r.remove(&tuple![2, "a"]);
        r.remove(&tuple![2, "a"]); // no-op
        let v1 = r.version();
        r.insert(tuple![4, "d"]).unwrap();
        let v2 = r.version();
        assert_eq!(v0.len(), 3);
        assert_eq!(v1.len(), 3);
        assert!(v1.contains(&tuple![3, "c"]));
        assert!(!v1.contains(&tuple![2, "a"]));
        assert_eq!(v2.len(), 4);
        assert!(v2.contains(&tuple![4, "d"]));
        // Index probes on the live relation still work after versioning.
        let hits: Vec<_> = r.probe(&[0], &[Value::from(3)]).collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn quiescent_publication_reshares_previous_version() {
        let mut r = rel();
        let _w0 = r.version();
        r.insert(tuple![30, "y"]).unwrap();
        let v1 = r.version();
        let v2 = r.version(); // no mutations in between
        assert_eq!(
            std::ptr::from_ref(v1.tuples()),
            std::ptr::from_ref(v2.tuples()),
            "quiescent publish is an O(1) re-share"
        );
    }

    #[test]
    fn unshared_mutation_does_not_clone() {
        // With no published version the Arc is unshared and make_mut works
        // in place — pointer identity is preserved across mutations.
        let mut r = rel();
        let before = Arc::as_ptr(&r.tuples);
        r.insert(tuple![5, "e"]).unwrap();
        r.remove(&tuple![5, "e"]);
        assert_eq!(Arc::as_ptr(&r.tuples), before);
    }

    #[test]
    fn replace_all_rebuilds_indexes() {
        let mut r = rel();
        r.ensure_index(&[0]).unwrap();
        r.replace_all(vec![tuple![7, "z"]]).unwrap();
        assert_eq!(r.len(), 1);
        let seven = Value::int(7);
        assert_eq!(r.probe(&[0], &[seven]).count(), 1);
        let one = Value::int(1);
        assert_eq!(r.probe(&[0], &[one]).count(), 0);
    }

    fn ints(ns: &[i64]) -> Relation {
        Relation::with_tuples("n", 2, ns.iter().map(|&i| tuple![i, i * 10])).unwrap()
    }

    #[test]
    fn range_probe_inclusive_and_exclusive_bounds() {
        let mut r = ints(&[1, 2, 3, 4, 5]);
        r.ensure_ordered_index(0).unwrap();
        let vals = |lo: Bound<Value>, hi: Bound<Value>| -> Vec<i64> {
            let mut v: Vec<i64> = r
                .range_probe(0, lo, hi)
                .expect("homogeneous int column")
                .map(|t| match t[0] {
                    Value::Int(i) => i,
                    _ => unreachable!(),
                })
                .collect();
            v.sort_unstable();
            v
        };
        let k = |i: i64| Value::int(i);
        assert_eq!(vals(Bound::Excluded(k(2)), Bound::Unbounded), vec![3, 4, 5]);
        assert_eq!(
            vals(Bound::Included(k(2)), Bound::Unbounded),
            vec![2, 3, 4, 5]
        );
        assert_eq!(vals(Bound::Unbounded, Bound::Excluded(k(3))), vec![1, 2]);
        assert_eq!(
            vals(Bound::Included(k(2)), Bound::Included(k(4))),
            vec![2, 3, 4]
        );
        // Empty and inverted intervals yield nothing (and must not panic).
        assert_eq!(
            vals(Bound::Excluded(k(3)), Bound::Excluded(k(3))),
            Vec::<i64>::new()
        );
        assert_eq!(
            vals(Bound::Included(k(9)), Bound::Included(k(1))),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn range_probe_is_maintained_under_mutation() {
        let mut r = ints(&[1, 5]);
        r.ensure_ordered_index(0).unwrap();
        r.insert(tuple![3, 30]).unwrap();
        r.remove(&tuple![5, 50]);
        let hits: Vec<&Tuple> = r
            .range_probe(0, Bound::Excluded(Value::int(1)), Bound::Unbounded)
            .unwrap()
            .collect();
        assert_eq!(hits, vec![&tuple![3, 30]]);
    }

    #[test]
    fn range_probe_refuses_mixed_sort_columns() {
        let mut r = Relation::with_tuples("m", 1, vec![tuple![1], tuple!["x"]]).unwrap();
        r.ensure_ordered_index(0).unwrap();
        assert!(
            r.range_probe(0, Bound::Excluded(Value::int(0)), Bound::Unbounded)
                .is_none(),
            "mixed-sort column must fall back to filter"
        );
        // Bound sort differing from a homogeneous column also refuses.
        let mut s = ints(&[1, 2]);
        s.ensure_ordered_index(0).unwrap();
        assert!(s
            .range_probe(0, Bound::Excluded(Value::str("a")), Bound::Unbounded)
            .is_none());
    }

    #[test]
    fn range_probe_preserves_string_lexicographic_order() {
        let mut r = Relation::with_tuples(
            "d",
            1,
            vec![
                tuple!["2020-01-15"],
                tuple!["2020-06-01"],
                tuple!["2021-03-09"],
            ],
        )
        .unwrap();
        r.ensure_ordered_index(0).unwrap();
        let hits: Vec<&Tuple> = r
            .range_probe(
                0,
                Bound::Included(Value::str("2020-06-01")),
                Bound::Excluded(Value::str("2021-01-01")),
            )
            .unwrap()
            .collect();
        assert_eq!(hits, vec![&tuple!["2020-06-01"]]);
    }

    #[test]
    fn ordered_index_survives_clear_and_replace_all() {
        let mut r = ints(&[1, 2, 3]);
        r.ensure_ordered_index(0).unwrap();
        r.clear();
        assert!(r.has_ordered_index(0));
        assert_eq!(
            r.range_probe(0, Bound::Unbounded, Bound::Included(Value::int(9)))
                .unwrap()
                .count(),
            0
        );
        r.replace_all(vec![tuple![7, 70], tuple![8, 80]]).unwrap();
        assert_eq!(
            r.range_probe(0, Bound::Excluded(Value::int(7)), Bound::Unbounded)
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn probe_counters_track_hits_and_misses() {
        let mut r = rel();
        assert_eq!((r.index_hits(), r.index_misses()), (0, 0));
        let one = Value::int(1);
        r.probe(&[0], &[one]).count(); // no index yet: scan fallback
        assert_eq!((r.index_hits(), r.index_misses()), (0, 1));
        r.ensure_index(&[0]).unwrap();
        r.probe(&[0], &[one]).count();
        assert_eq!((r.index_hits(), r.index_misses()), (1, 1));
        // Ordered probes count too: a miss without the index, a hit with.
        assert!(r
            .range_probe(1, Bound::Excluded(Value::str("a")), Bound::Unbounded)
            .is_none());
        assert_eq!((r.index_hits(), r.index_misses()), (1, 2));
        r.ensure_ordered_index(1).unwrap();
        r.range_probe(1, Bound::Excluded(Value::str("a")), Bound::Unbounded)
            .unwrap()
            .count();
        assert_eq!((r.index_hits(), r.index_misses()), (2, 2));
        // Versions snapshot the counters at publication time.
        let v = r.version();
        assert_eq!((v.index_hits(), v.index_misses()), (2, 2));
    }

    #[test]
    fn distinct_keys_reports_index_cardinality() {
        let mut r = ints(&[1, 1, 2, 3]); // tuples (1,10),(2,20),(3,30)
        assert_eq!(r.distinct_keys(&[0]), None, "no index, no estimate");
        r.ensure_index(&[0]).unwrap();
        assert_eq!(r.distinct_keys(&[0]), Some(3));
        r.ensure_ordered_index(1).unwrap();
        assert_eq!(r.distinct_keys(&[1]), Some(3), "ordered index counts too");
        assert_eq!(r.distinct_keys(&[0, 1]), None);
    }

    #[test]
    fn keys_grow_and_shrink_between_one_and_many_tuples() {
        let mut r = Relation::new("r", 2);
        r.ensure_index(&[0]).unwrap();
        r.ensure_ordered_index(0).unwrap();
        let key = Value::int(1);
        let probed = |r: &Relation| {
            let mut hash: Vec<Tuple> = r.probe(&[0], &[key]).cloned().collect();
            let mut tree: Vec<Tuple> = r
                .range_probe(0, Bound::Included(key), Bound::Included(key))
                .expect("int column")
                .cloned()
                .collect();
            hash.sort();
            tree.sort();
            assert_eq!(hash, tree, "hash and ordered index agree");
            hash
        };
        r.insert(tuple![1, "a"]).unwrap();
        assert_eq!(probed(&r), vec![tuple![1, "a"]]);
        r.insert(tuple![1, "b"]).unwrap();
        assert_eq!(probed(&r), vec![tuple![1, "a"], tuple![1, "b"]]);
        r.remove(&tuple![1, "a"]);
        assert_eq!(probed(&r), vec![tuple![1, "b"]]);
        r.remove(&tuple![1, "b"]);
        assert!(probed(&r).is_empty());
        assert_eq!(r.distinct_keys(&[0]), Some(0), "emptied keys are dropped");
        r.insert(tuple![1, "c"]).unwrap();
        assert_eq!(probed(&r), vec![tuple![1, "c"]]);
    }
}
