//! Reported bytes are real bytes.
//!
//! `rep_bytes_per_tuple` is gated on `HeapSize::heap_bytes`, so that
//! number must be what the allocator actually hands out for the Theorem 1
//! pair `(T, D)` and for Theorem 2's bags — neither a structure that
//! silently re-fattens nor an accounting that under-reports may pass. Four
//! gates on one fixed triangle database, a fifth and a sixth on a path
//! database:
//!
//! * the counting allocator's live-byte growth across building the tree
//!   and the dictionary is within ±10 % of what they report;
//! * the cost oracle is a build-time object: once the tree is costed,
//!   `release_tree_side` frees every `[free | bound]` index the plan does
//!   not also use;
//! * across a whole `Theorem1Structure::build_pooled` on a private pool
//!   that is then dropped, live bytes are the plan's tries (each
//!   allocation once) + the grid + tree + dictionary, within 2 KiB (the
//!   view definition, the cover and the grid sizes), less the tries in
//!   their relation's own order — those are the database's stored
//!   relations, allocated before the build; `base_indexes()` is exactly
//!   those tries and `heap_bytes()` is the whole figure. The
//!   `direct` recipe (Theorem 1 at τ = ∞) is a row of this gate with no
//!   dictionary to speak of: tries + grid + a one-leaf tree (a bit and a
//!   directory entry), and an empty dictionary of no byte; beside it, on a hub instance, its
//!   bytes stay below `materialize`'s, whose one bag holds every answer;
//! * a layout pin met with equality: the tree's split points are one bit
//!   column of `⌈(6·µ·levels + Σ_ℓ n_ℓ·Σ_i w_{ℓ,i}) / 64⌉ · 8` bytes —
//!   `µ` 6-bit widths per level with an internal node, then each of the
//!   `n_ℓ` internal nodes of level `ℓ` as offsets from its interval's lower
//!   endpoint, `w_{ℓ,i}` the bit length of the level's largest offset in
//!   coordinate `i` (a leaf has no row, and no child id is stored: the
//!   internal node of rank `r` owns slots `2r + 1` and `2r + 2`), one bit per slot in
//!   `⌈(2·internal + 1)/64⌉` words and a rank directory of one value per
//!   word, plus the grid sizes; the dictionary `|V_b|·cands` values (the root's
//!   entries), two child bits per entry in `⌈2·entries/64⌉` words and a
//!   rank directory of one value per word, plus one bit an entry — each
//!   column at `⌈log₂(max + 1)⌉` bits a value, the maximum, the internal
//!   count and every set child bit (`2e` or `2e + 1`, `e` the parent's
//!   entry for the child's candidate) taken from the structures' public
//!   walks (docs/ARCHITECTURE.md, "Packed integer columns"); each trie is, per depth `d`, `k_d` keys
//!   (`k_d` the distinct prefixes of length `d + 1` under its order, the
//!   rows at the last depth) and, above the last depth, `k_d + 1` child
//!   offsets, each column `⌈len·w/64⌉·8` bytes, plus its column order and a
//!   column header per column; each grid domain is `⌈len·w/64⌉·8`, with
//!   `w` ∈ {8, 16, 32, 64} the whole word size of the column's largest
//!   value (read off the database's rows, the next depth's node count and
//!   the domain's top) — on every Theorem 1 row, `direct`'s included;
//! * Theorem 2, the largest resident part once the d-representation is its
//!   δ ≡ 0 case: across a whole build, live bytes are `heap_bytes()` plus
//!   the headers it leaves out, **to the byte** for δ ≡ 0 structures on the
//!   2- and 3-path and within Theorem 1's own 2 KiB window per delay-tuned
//!   bag for a mixed one on the 4-path. A root-check relation is the
//!   database's stored relation, so `heap_bytes()` (which counts its name
//!   and packed index per holder) exceeds the allocator's figure by exactly
//!   that content: the 3-path `bbbf` row, where `R1` and `R2` are inside
//!   `V_b`, shows it.
//!   Beside it a layout pin per materialized bag, met with equality:
//!   `heap_bytes` of its storage is `bw·keys` key values, `keys + 1`
//!   offsets, `fw·rows` free-column ranks and `Σ distinct` domain values,
//!   each column packed at its width — offsets at the row count's, ranks
//!   at `Σ distinct − 1`'s, keys and values no wider than the database's
//!   largest value. The `materialize` recipe's
//!   one bag (`{V_b} → {V}` at δ ≡ 0, built through `CompressedView`) is
//!   held to the same two rules on the 2-path and the 3-path `bbbf`;
//! * Proposition 1 is the same rule with every relation inside `V_b`: an
//!   all-bound view, built through `CompressedView`, is Theorem 2 over the
//!   root bag alone, so building it over three relations grows live bytes
//!   by less than one of them, and `heap_bytes()` is, to the byte, each
//!   relation's content plus the root checks' variable lists and the
//!   bound head. A relation's content is a width formula: its name and its
//!   trie in its own order, by the same rule as the third gate's.
//!
//! Sabotage, checked once when the third gate was written: a structure
//! that keeps its `CostEstimator` in a field, or one `Arc` to a
//! `[free | bound]` index leaked out of `build_pooled`, leaves 77 KB or
//! more live that nothing reports, and the 2 KiB bound turns red on the
//! first pattern; building the candidate dictionary under a root leaf
//! (dropping the `deepest_internal_level` guard in
//! `Theorem1Structure::build_pooled`) fails the `direct` row at `bff` on
//! its build-work count: 399 root candidates joined where none can be used
//! (none is kept — a candidate no entry references is dropped — so the
//! bytes no longer show it). The layout pin: a `u32` column left in place
//! of a packed one fails its row — `β` as `Vec<u32>` the tree's; a zeroed
//! `internal + 1` offsets column at the old CSR width kept beside the child
//! bits (`kick-tires.sh`'s dictionary sabotage) fails the dictionary's at
//! `bff`, 49 208 B for 78 746 entries; `internal × width_for(nodes)` zero
//! bits kept beside the slot bits, the size of the right-id column the
//! level-order slots replaced, fails the tree's, 24 416 B for `bff`'s
//! 11 631 nodes against 10 560; every `β` width raised to at least 6 bits
//! (`kick-tires.sh`'s tree sabotage) fails its `β` column, 12 352 B
//! against 8 560 — and a `u64`
//! column left
//! in place of a searchable one fails the trie row (depth 0 of every trie
//! stored at 64 bits: the `bff` `R` trie reports 47 560 B against the
//! pin's smaller figure), as does every searched column at 64 bits; a grid
//! domain packed bit-tight (`Packed::new` in `Domain::new`) fails the grid
//! row (456 B where whole bytes take 800). (Keeping the candidates
//! no entry references is the oracle's to catch, in `prop_roundtrip.rs`:
//! every one is referenced on this instance.) For the fifth gate: a
//! `MaterializedBag` that keeps its
//! own copy of the two variable lists beside its bag's (32 B a bag, the
//! layout before the d-representation became Theorem 2 at δ ≡ 0) fails
//! the `bff` row; a root check that deep-copies its relation
//! (`Arc::new((*rel).clone())`) fails the `bbbf` row by 11.6 KB. The
//! layout pin: a `u32` rank column left in place of the packed one
//! (`Box<[u32]>` for `free`), or keys stored as full `u64` values, fails
//! the `bff` row. For the sixth: the same deep copy in `root_checks`
//! fails it, live bytes then exceeding the smallest relation; and a stored
//! relation that keeps its rows as a `Vec<Value>` beside its packed index
//! (modelled as one more `8 · len · arity` B per root check in
//! `Theorem2Structure::heap_bytes`) fails its width-formula equality,
//! 19 542 B against 2 518 — after failing the fifth gate's `bbbf` row.
//!
//! Everything is in one `#[test]` so no other test thread allocates while
//! live bytes are being compared.

use cqc_common::alloc::{live_bytes, CountingAlloc};
use cqc_common::heap::HeapSize;
use cqc_common::packed::{width_for, Packed};
use cqc_common::value::Value;
use cqc_core::cost::CostEstimator;
use cqc_core::dictionary::{Entry, HeavyDictionary};
use cqc_core::fbox::FInterval;
use cqc_core::theorem1::Theorem1Structure;
use cqc_core::theorem2::Theorem2Structure;
use cqc_core::{CompressedView, Strategy};
use cqc_decomp::TreeDecomposition;
use cqc_join::plan::ViewPlan;
use cqc_lp::covers::slack;
use cqc_query::parser::parse_adorned;
use cqc_query::{AdornedView, Var, VarSet};
use cqc_storage::{Database, IndexPool, Relation, SortedIndex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes of a packed column of `len` values at `width` bits each.
fn packed(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(64) * 8
}

/// Heap bytes of a packed column of `len` values whose largest is `max`:
/// `⌈log₂(max + 1)⌉` bits a value, at least one.
fn column(len: usize, max: u64) -> usize {
    packed(len, width_for(max))
}

/// The whole word size, in bits, that holds `max`: 8, 16, 32 or 64 — the
/// width a searched column is stored at, stated here rather than read from
/// the library.
fn word_bits(max: u64) -> u32 {
    [8, 16, 32, 64]
        .into_iter()
        .find(|&w| w == 64 || max >> w == 0)
        .unwrap()
}

/// The trie of relation `name` under attribute `order`, met with
/// equality: its column order; per depth `d` a key column header and
/// `⌈k_d·w/64⌉·8` bytes, `k_d` the distinct prefixes of length `d + 1`
/// under `order` (the rows, at the last depth) and `w` the whole word size
/// of that column's largest value; per depth but the last an offsets
/// column header and `⌈(k_d + 1)·w/64⌉·8` bytes, `w` the whole word size
/// of `k_{d+1}` — read off the relation's rows, not its layout.
fn trie_bytes(db: &Database, name: &str, order: &[usize]) -> usize {
    let relation = db.require(name).unwrap();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut scan = relation.scan();
    while let Some(row) = scan.next_row() {
        rows.push(order.iter().map(|&c| row[c]).collect());
    }
    rows.sort_unstable();
    let prefixes = |d: usize| {
        let mut p: Vec<&[Value]> = rows.iter().map(|r| &r[..=d]).collect();
        p.dedup();
        p.len()
    };
    let k: Vec<usize> = (0..order.len()).map(prefixes).collect();
    let header = std::mem::size_of::<Packed>();
    let keys: usize = order
        .iter()
        .zip(&k)
        .map(|(&c, &k)| {
            let max = relation.column_values(c).last().copied().unwrap_or(0);
            header + packed(k, word_bits(max))
        })
        .sum();
    let offsets: usize = k
        .windows(2)
        .map(|k| header + packed(k[0] + 1, word_bits(k[1] as u64)))
        .sum();
    std::mem::size_of_val(order) + keys + offsets
}

/// A stored relation's packed trie: [`trie_bytes`] in its own order. A
/// trie in the relation's own order is this same allocation.
fn stored_index_bytes(db: &Database, name: &str) -> usize {
    let arity = db.require(name).unwrap().arity();
    trie_bytes(db, name, &(0..arity).collect::<Vec<_>>())
}

/// Bytes of the tries of `s` that are the database's own stored relations
/// (a trie in a relation's own order is the relation): reported per
/// holder, each allocation once, but allocated by the database, not by the
/// build.
fn held_by_database(s: &Theorem1Structure, db: &Database) -> usize {
    let mut seen = Vec::new();
    s.base_indexes()
        .zip(&s.view().query().atoms)
        .filter(|(ix, atom)| Arc::ptr_eq(ix, &db.get_arc(&atom.relation).unwrap()))
        .filter(|(ix, _)| {
            let first = !seen.contains(&Arc::as_ptr(ix));
            seen.push(Arc::as_ptr(ix));
            first
        })
        .map(|(ix, _)| ix.heap_bytes() + std::mem::size_of::<SortedIndex>())
        .sum()
}

/// What a delay-tuned bag adds to a Theorem 2 structure's unreported
/// bytes: Theorem 1's own (its view, cover and grid sizes — the third
/// gate's 2 KiB) and the box it lives in.
const UNREPORTED_PER_TRADEOFF_BAG: usize = 2048 + 512;

/// A skewed triangle database: one friendship graph of `edges` edges under
/// three names.
fn triangle_db(edges: usize) -> Database {
    let edges = cqc_workload::graphs::friendship_graph(&mut cqc_workload::rng(7), 400, edges, 0.8);
    let rows: Vec<Vec<u64>> = edges.iter().map(<[u64]>::to_vec).collect();
    let mut db = Database::new();
    for name in ["R", "S", "T"] {
        db.add(Relation::new(name, 2, rows.clone())).unwrap();
    }
    db
}

#[test]
fn reported_bytes_are_live_bytes_and_layout_is_pinned() {
    let weights = [0.5, 0.5, 0.5];
    // `bfb` and `bbf` have one free variable, so only pairs heavy by work
    // grow their trees: at 3 000 edges they keep 91 nodes, at 6 000 143.
    for (pattern, tau, edges) in [
        ("bff", 2.0, 3000),
        ("bfb", 1.0, 6000),
        ("bbf", 1.0, 6000),
        ("fff", 4.0, 3000),
    ] {
        let db = triangle_db(edges);
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
        let alpha = slack(&view.query().hypergraph(), &weights, view.free_vars()).max(1.0);
        let est = CostEstimator::build(&view, &db, &weights, alpha).unwrap();
        let plan = ViewPlan::build(&view, &db).unwrap();

        // The tree as the structure stores it: split where the dictionary's
        // walk goes, cut below every internal node that holds no entry.
        let before = live_bytes();
        let (tree, dict) = HeavyDictionary::build(&plan, &est, tau).unwrap();
        let live = (live_bytes() - before) as f64;

        let (tree_bytes, dict_bytes) = (tree.heap_bytes(), dict.heap_bytes());
        let reported = (tree_bytes + dict_bytes) as f64;
        assert!(
            dict.num_entries() > 100 && tree.len() > 100,
            "{pattern}: the instance must exercise the structure ({} nodes, {} entries)",
            tree.len(),
            dict.num_entries()
        );
        assert!(
            (live - reported).abs() <= 0.10 * reported,
            "{pattern}: allocator says {live} live bytes, heap_bytes says {reported}"
        );

        // Tree built: the oracle lets its `[free | bound]` side go. With
        // the pool's pin released, every index the plan does not hold
        // under the same order dies on the spot.
        let pool = IndexPool::new();
        let mut oracle = CostEstimator::build_pooled(&view, &db, &weights, alpha, &pool).unwrap();
        let tries = ViewPlan::build_pooled(&view, &db, &pool).unwrap();
        pool.release();
        let (before, held) = (live_bytes(), pool.stats());
        oracle.release_tree_side();
        let left = pool.stats();
        // (A trie in its relation's own order is the stored relation, which
        // the store hands out but does not file.)
        let own_order = tries
            .indexes()
            .iter()
            .zip(&view.query().atoms)
            .filter(|(ix, atom)| Arc::ptr_eq(ix, &db.get_arc(&atom.relation).unwrap()))
            .count();
        assert_eq!(left.indexes, tries.indexes().len() - own_order, "{pattern}");
        // (With no bound variable the two sides are one order.)
        assert_eq!(
            held.indexes > left.indexes,
            pattern.contains('b'),
            "{pattern}: {held:?}"
        );
        // (The store's figure leaves out each allocation's `Arc` header
        // and column-order vector.)
        let (freed, reported) = ((before - live_bytes()) as usize, held.bytes - left.bytes);
        let headers = 64 * (held.indexes - left.indexes);
        assert!(
            (reported..=reported + headers).contains(&freed),
            "{pattern}: {freed} B freed, the store reports {reported}"
        );
        drop((oracle, tries, pool));

        // The same inputs through the public builder report the same
        // split, and the whole structure is what the allocator holds: the
        // oracle is gone when the build returns.
        let before = live_bytes();
        let pool = IndexPool::new();
        let s = Theorem1Structure::build_pooled(&view, &db, &weights, tau, &pool).unwrap();
        let tries = ViewPlan::build_pooled(&view, &db, &pool).unwrap();
        assert!(
            s.base_indexes()
                .map(Arc::as_ptr)
                .eq(tries.indexes().iter().map(Arc::as_ptr)),
            "{pattern}: the structure holds the plan's tries and nothing else"
        );
        drop((tries, pool));
        let live = (live_bytes() - before) as usize;
        let space = s.space_breakdown();
        let resident = space.base_index_distinct_bytes + space.nonlinear_bytes();
        let built = resident - held_by_database(&s, &db);
        assert!(
            (built..built + 2048).contains(&live),
            "{pattern}: allocator says {live} live bytes, tries + grid + tree + dict is \
             {resident}, {built} of it not the database's"
        );
        // The three relations are three allocations, so no trie is shared
        // and the per-holder figure is the resident one: the grid sizes and
        // the cover are all `heap_bytes` adds.
        assert_eq!(space.base_index_bytes, space.base_index_distinct_bytes);
        assert_eq!(
            s.heap_bytes(),
            resident + 8 * (view.mu() + weights.len()),
            "{pattern}"
        );
        assert_eq!(space.tree_bytes, tree_bytes, "{pattern}");
        assert_eq!(space.dict_bytes, dict_bytes, "{pattern}");
        assert_eq!(space.nonlinear_bytes(), tree_bytes + dict_bytes);
        let stats = s.stats();
        assert_eq!(
            (stats.tree_bytes, stats.dict_bytes),
            (space.tree_bytes, space.dict_bytes)
        );
        assert_eq!(
            (stats.base_index_bytes, stats.base_index_distinct_bytes),
            (space.base_index_bytes, space.base_index_distinct_bytes)
        );
        assert_eq!(stats.heap_bytes, s.heap_bytes());
        tries_and_grid_are_at_their_widths(&s, &db, pattern);

        // Layout pin, met with equality: every column at the width of its
        // largest value, each width and count read off the structure
        // through its public walk, not its layout. Tree: a bit per slot in
        // 64-bit words and, per word, the internal nodes before it (the
        // rank directory); one bit column of `β` — 6 bits per width, `µ`
        // widths per level with an internal node, then per internal node
        // at level `ℓ` its offsets `(β_i − lo_i) mod |D_i|` at the level's
        // widths `w_{ℓ,i}`, each the bit length of the level's largest
        // offset in that coordinate; plus the grid sizes. A leaf has no
        // row, and each child sits at the slot its parent's rank names,
        // `2r + 1` (left) or `2r + 2` (right). Dictionary: `|V_b|`
        // values per kept candidate, which are the root's entries; two
        // child bits per entry in 64-bit words and, per word, the set bits
        // before it; and one bit per entry. Entry `e`'s child bits are
        // `2e` (left) and `2e + 1` (right), set when that child stores
        // `e`'s candidate: each set one is read off the entry numbers the
        // walk yields at a node and at its parent.
        let (nodes, entries, cands) = (tree.len(), dict.num_entries(), dict.num_candidates());
        let (mu, nb) = (view.mu(), view.bound_head().len());
        let grid: Vec<usize> = s.domains().iter().map(|d| d.len()).collect();
        // Per level with an internal node: how many, and the largest
        // offset in each coordinate.
        let mut levels: Vec<(usize, Vec<usize>)> = Vec::new();
        // The internal nodes' slots, by rank.
        let mut internal_slots: Vec<u32> = Vec::new();
        // Per node: its parent and which child it is (`1`: the right one).
        let mut parent: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
        let mut walked = 0;
        for c in tree.cursors() {
            let FInterval { lo, hi } = tree.interval(c);
            let node = tree.node(c, &lo, &hi, &mut vec![0; mu]);
            walked += 1;
            for (side, child) in [node.left, node.right].into_iter().enumerate() {
                if let Some(child) = child {
                    assert_eq!(
                        child.node as usize,
                        2 * internal_slots.len() + 1 + side,
                        "{pattern}: a child's slot is its parent's rank's"
                    );
                    parent.insert(child.node, (c.node, side));
                }
            }
            if let Some(beta) = tree.beta(c.node) {
                internal_slots.push(c.node);
                let level = usize::from(c.level);
                if levels.len() == level {
                    levels.push((0, vec![0; mu]));
                }
                let (count, max) = &mut levels[level];
                *count += 1;
                for (i, m) in max.iter_mut().enumerate() {
                    *m = (*m).max((beta[i] + grid[i] - lo[i]) % grid[i]);
                }
            }
        }
        let bit_length = |m: usize| (usize::BITS - m.leading_zeros()) as usize;
        let beta_bits: usize = levels
            .iter()
            .map(|(count, max)| 6 * mu + count * max.iter().map(|&m| bit_length(m)).sum::<usize>())
            .sum();
        assert_eq!(tree.beta_levels(), levels.len(), "{pattern}");
        assert_eq!(tree.beta_bytes(), beta_bits.div_ceil(64) * 8, "{pattern}");
        let internal = internal_slots.len();
        let words = (2 * internal + 1).div_ceil(64);
        let directory_max = internal_slots
            .iter()
            .filter(|&&w| (w as usize) < 64 * (words - 1))
            .count();
        assert_eq!(walked, nodes, "{pattern}");
        assert_eq!(tree.num_leaves(), nodes - internal, "{pattern}");
        assert_eq!(
            tree_bytes,
            beta_bits.div_ceil(64) * 8 + 8 * words + column(words, directory_max as u64) + 8 * mu,
            "{pattern}: tree {tree_bytes} B for {nodes} nodes, {internal} internal"
        );
        let keys: BTreeSet<Vec<u64>> = dict.entries(&tree).map(|(_, vb, _)| vb).collect();
        assert_eq!(
            keys.len(),
            cands,
            "{pattern}: every kept candidate is referenced"
        );
        let max_value = keys.iter().flatten().copied().max().unwrap_or(0);
        // Each node's entries, ascending by candidate, by node id.
        let mut held: BTreeMap<u32, Vec<Entry>> = BTreeMap::new();
        dict.walk(&tree, |step| {
            held.insert(step.cursor.node, step.entries.to_vec());
            true
        });
        let mut child_bits: Vec<usize> = Vec::new();
        for (w, entries) in &held {
            let Some(&(p, side)) = parent.get(w) else {
                continue;
            };
            let above = &held[&p];
            for e in entries {
                let i = above.binary_search_by_key(&e.cand, |a| a.cand).unwrap();
                child_bits.push(2 * above[i].entry as usize + side);
            }
        }
        assert_eq!(child_bits.len(), entries - cands, "{pattern}");
        let child_words = (2 * entries).div_ceil(64);
        let before_last = child_bits
            .iter()
            .filter(|&&p| p < 64 * child_words.saturating_sub(1))
            .count();
        assert_eq!(
            dict_bytes,
            column(nb * cands, max_value)
                + 8 * child_words
                + column(child_words, before_last as u64)
                + 8 * entries.div_ceil(64),
            "{pattern}: dictionary {dict_bytes} B for {entries} entries, {cands} candidates"
        );
    }
    let db = triangle_db(3000);
    direct_holds_tries_grid_and_tree(&db);
    theorem2_reports_what_it_holds();
    bound_only_holds_handles_not_copies();
}

/// The base-index layout pin, met with equality: each trie holds what
/// [`trie_bytes`] counts for its relation and order — keys and child
/// offsets at the whole word size (8, 16, 32 or 64 bits) of their largest
/// value, read off the database's rows, not the layout; each grid domain
/// holds its values at the whole word size of its top value.
fn tries_and_grid_are_at_their_widths(s: &Theorem1Structure, db: &Database, pattern: &str) {
    let atoms = &s.view().query().atoms;
    assert_eq!(s.base_indexes().count(), atoms.len(), "{pattern}");
    for (ix, atom) in s.base_indexes().zip(atoms) {
        assert_eq!(
            ix.heap_bytes(),
            trie_bytes(db, &atom.relation, ix.order()),
            "{pattern}: the {} trie over {} rows, order {:?}",
            atom.relation,
            ix.len(),
            ix.order()
        );
    }
    for (p, d) in s.domains().iter().enumerate() {
        assert_eq!(
            d.heap_bytes(),
            packed(d.len(), word_bits(d.top().unwrap_or(0))),
            "{pattern}: grid domain {p} of {} values",
            d.len()
        );
    }
}

/// The `direct` row of the third gate (called from the one test: see the
/// header), then the two §2.3 extremes side by side on a hub instance.
fn direct_holds_tries_grid_and_tree(db: &Database) {
    for pattern in ["bff", "bfb", "fff"] {
        let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
        let before = live_bytes();
        let pool = IndexPool::new();
        let cv = CompressedView::build_pooled(&view, db, Strategy::Direct, &pool).unwrap();
        drop(pool);
        let live = (live_bytes() - before) as usize;
        let CompressedView::Tradeoff(s) = &cv else {
            panic!("{pattern}: direct is Theorem 1, got {}", cv.describe());
        };
        // One leaf and an empty dictionary only: no heavy pair, no root
        // candidate, no build work past the root's cost. The leaf is one
        // bit (a word) and one directory entry; the tree adds the grid
        // sizes.
        let (stats, space) = (s.stats(), s.space_breakdown());
        let tree = s.tree().unwrap();
        let internal = tree.cursors().filter(|c| !tree.is_leaf(c.node)).count();
        assert_eq!((stats.tree_nodes, stats.dict_entries), (1, 0), "{pattern}");
        assert_eq!((stats.tree_leaves, internal), (1, 0), "{pattern}");
        assert_eq!(stats.dict_candidates, 0, "{pattern}");
        assert_eq!(stats.dict_evaluations + stats.dict_probes, 0, "{pattern}");
        assert_eq!(space.dict_bytes, 0, "{pattern}");
        assert_eq!(
            space.tree_bytes,
            8 + column(1, 0) + 8 * view.mu(),
            "{pattern}"
        );
        let resident = space.base_index_distinct_bytes + space.nonlinear_bytes();
        let built = resident - held_by_database(s, db);
        assert!(
            (built..built + 2048).contains(&live),
            "{pattern}: allocator says {live} live bytes, tries + grid + tree is {resident}, \
             {built} of it not the database's"
        );
        tries_and_grid_are_at_their_widths(s, db, pattern);
        assert_eq!(
            s.heap_bytes(),
            resident + 8 * (view.mu() + view.query().atoms.len()),
            "{pattern}"
        );
    }

    // A hub: 30 × 30 answers through the one shared middle value, from 60
    // input tuples. Materializing stores every answer; answering directly
    // stores the input.
    let mut db = Database::new();
    db.add(Relation::from_pairs("R", (0..30).map(|i| (i, 1000))))
        .unwrap();
    db.add(Relation::from_pairs("S", (0..30).map(|j| (1000, j))))
        .unwrap();
    let view = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z)", "fff").unwrap();
    let materialize = CompressedView::build(&view, &db, Strategy::Materialize).unwrap();
    let direct = CompressedView::build(&view, &db, Strategy::Direct).unwrap();
    let CompressedView::Decomposed(m) = &materialize else {
        panic!("materialize is Theorem 2, got {}", materialize.describe());
    };
    assert_eq!(m.stats().materialized_tuples, 900);
    assert!(m.stats().materialized_tuples > db.size());
    assert!(
        direct.heap_bytes() < materialize.heap_bytes(),
        "direct {} B, materialize {} B",
        direct.heap_bytes(),
        materialize.heap_bytes()
    );
}

/// The sixth gate (called from the one test: see the header).
fn bound_only_holds_handles_not_copies() {
    let mut rng = cqc_workload::rng(21);
    let mut db = Database::new();
    for name in ["R1", "R2", "R3"] {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 400, 40))
            .unwrap();
    }
    let view = cqc_workload::queries::path(3, "bbbb").unwrap();
    let before = live_bytes();
    let cv = CompressedView::build(&view, &db, Strategy::Factorized).unwrap();
    let live = (live_bytes() - before) as usize;
    let CompressedView::Decomposed(s) = &cv else {
        panic!("an all-bound view is Theorem 2, got {}", cv.describe());
    };
    assert_eq!(s.stats().bags, 0, "{}", cv.describe());
    let content = |name: &str| name.len() + stored_index_bytes(&db, name);
    let one_relation = content("R1").min(content("R2")).min(content("R3"));
    assert!(
        live < one_relation,
        "an all-bound view over three relations holds {live} live bytes; the smallest \
         relation alone is {one_relation}"
    );
    // It reports each relation's content per holder — its name and its
    // packed index, to the byte — plus each root check's two variables (in
    // `Vec`'s smallest allocation of four) and the four bound head
    // variables.
    let vars = 3 * 4 * std::mem::size_of::<Var>() + 4 * std::mem::size_of::<Var>();
    assert_eq!(
        cv.heap_bytes(),
        content("R1") + content("R2") + content("R3") + vars
    );
}

/// The fifth gate (called from the one test: see the header).
fn theorem2_reports_what_it_holds() {
    let names = ["R1", "R2", "R3", "R4"];
    let mut rng = cqc_workload::rng(21);
    let mut db = Database::new();
    for name in names {
        db.add(cqc_workload::uniform_relation(&mut rng, name, 2, 400, 40))
            .unwrap();
    }
    let constant_delay = |v: &AdornedView| Theorem2Structure::build_constant_delay(v, &db).unwrap();
    // Example 10's decomposition of the 4-path, its middle bag delay-tuned:
    // root {x1,x5} → {x2,x4 | x1,x5} (δ = 0.3) → {x3 | x2,x4} (δ = 0).
    let bag = |vars: &[u32]| vars.iter().map(|&v| Var(v)).collect::<VarSet>();
    let td = TreeDecomposition::new(
        vec![bag(&[0, 4]), bag(&[0, 1, 3, 4]), bag(&[1, 2, 3])],
        vec![None, Some(0), Some(1)],
    )
    .unwrap();
    let mixed = |v: &AdornedView| Theorem2Structure::build(v, &db, &td, &[0.0, 0.3, 0.0]).unwrap();
    // The `materialize` recipe: one bag, `Q(D)` keyed by the bound prefix.
    let materialize =
        |v: &AdornedView| match CompressedView::build(v, &db, Strategy::Materialize).unwrap() {
            CompressedView::Decomposed(s) => s,
            other => panic!("materialize is Theorem 2, got {}", other.describe()),
        };
    type Build<'a> = &'a dyn Fn(&AdornedView) -> Theorem2Structure;
    // (atoms, pattern, builder, tradeoff bags expected, root-check relations)
    let cases: [(usize, &str, Build, bool, &[&str]); 6] = [
        (2, "bff", &constant_delay, false, &[]),
        (3, "bfff", &constant_delay, false, &[]),
        (4, "bfffb", &mixed, true, &[]),
        (3, "bbbf", &constant_delay, false, &["R1", "R2"]),
        (2, "bff", &materialize, false, &[]),
        (3, "bbbf", &materialize, false, &["R1", "R2"]),
    ];
    let max_value = names
        .iter()
        .flat_map(|name| {
            let relation = db.require(name).unwrap();
            (0..relation.arity()).filter_map(|c| relation.column_values(c).last().copied())
        })
        .max()
        .unwrap();
    for (atoms, pattern, build, tradeoff, inside_vb) in cases {
        let view = cqc_workload::queries::path(atoms, pattern).unwrap();
        let before = live_bytes();
        let copy = view.clone();
        let view_bytes = (live_bytes() - before) as usize;
        drop(copy);

        let before = live_bytes();
        let s = build(&view);
        let live = (live_bytes() - before) as usize;
        let stats = s.stats();
        assert_eq!(stats.tradeoff_bags > 0, tradeoff, "{pattern}: {stats:?}");
        assert!(stats.materialized_tuples > 100, "{pattern}: {stats:?}");
        let shared: usize = inside_vb
            .iter()
            .map(|name| name.len() + stored_index_bytes(&db, name))
            .sum();
        assert_eq!(shared > 0, !inside_vb.is_empty());

        // Layout pin, per materialized bag, met with equality: each key
        // once, an offset per key plus one, a rank per free value of a
        // row, each distinct free value of a column once — every column at
        // the width of its largest value. Offsets and ranks take theirs
        // from the counts (the row count; the last rank, `Σ distinct − 1`);
        // keys and values from the bag, no wider than the database's
        // largest value. The bag's two variable lists (4 B a variable) are
        // the rest of what it reports.
        let mut bag_bytes = 0;
        for r in s.bag_reports().iter().filter(|r| r.kind == "materialized") {
            let (bw, fw, w) = (r.bound_vars, r.free_vars, r.widths);
            let (rows, distinct) = (r.tuples_or_entries, r.domain_values);
            assert!(
                w.keys.max(w.values) <= width_for(max_value),
                "{atoms}-path {pattern}, node {}: {w:?} for values up to {max_value}",
                r.node
            );
            let storage = r.heap_bytes - 4 * (bw + fw);
            let pin = packed(bw * r.keys, w.keys)
                + column(r.keys + 1, rows as u64)
                + column(fw * rows, distinct.saturating_sub(1) as u64)
                + packed(distinct, w.values);
            assert_eq!(
                storage, pin,
                "{atoms}-path {pattern}, node {}: {storage} B for {} keys, {rows} rows, \
                 {distinct} distinct free values (bound width {bw}, free width {fw}, {w:?})",
                r.node, r.keys
            );
            bag_bytes += storage;
        }
        assert_eq!(bag_bytes, stats.materialized_bytes, "{pattern}");

        // What the structure holds and `heap_bytes` leaves out, term by
        // term (every decomposition here is a chain): per bag its header
        // (node id, two variable-list handles, four packed columns and
        // two widths), parent slot and child-list header; per inner bag a
        // child list at its first growth; a delay per decomposition node;
        // the root-check list (atom, handle, variable list: 40 B a check)
        // at its first growth; the view definition.
        let bags = stats.bags;
        let bag_header = 8 + 2 * 16 + 4 * std::mem::size_of::<Packed>() + 2 * 8;
        let unreported = (bag_header + 16 + 24) * bags
            + 32 * (bags - 1)
            + 8 * (bags + 1)
            + if inside_vb.is_empty() { 0 } else { 4 * 40 }
            + view_bytes;
        let held = s.heap_bytes() - shared + unreported;
        let window = UNREPORTED_PER_TRADEOFF_BAG * stats.tradeoff_bags;
        assert!(
            (held..=held + window).contains(&live),
            "{atoms}-path {pattern}: the allocator says {live} live bytes; heap_bytes() less \
             the {shared} B shared with the database plus {unreported} B of headers is {held}"
        );
    }
}
