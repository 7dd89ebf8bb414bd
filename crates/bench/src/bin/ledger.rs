//! Writes the exact-counts ledger: the paper's examples (exp1–exp10 and
//! exp12) at small scale, one JSON line per (instance, view, recipe, τ/δ)
//! row. Every value is a count read off a structure or the work counters,
//! and no clock is read, so two runs write the same bytes.
//!
//! ```bash
//! cargo run --release -p cqc-bench --bin ledger -- --json=LEDGER.json
//! ```
//!
//! `LEDGER.json` is committed; `scripts/kick-tires.sh` regenerates it and
//! fails on any byte difference, so a change that moves a count commits the
//! new file and its diff is the before/after table. Each row's answers are
//! sorted and compared, request by request, with the naive oracle
//! ([`cqc_join::naive::evaluate_view`]); a mismatch exits 1 before anything
//! is written, so a row's `fnv` hashes a checked stream.
//!
//! A row's key is `<experiment> <view>, <generator>(<seed>, <sizes>…)/<recipe>`.
//! A structure row holds |D| (`D`), the request, answer and non-empty
//! request counts, the heap bytes (`bytes`) and their parts, the tree and
//! dictionary sizes and build work of a Theorem 1 structure or the bag
//! counts of a Theorem 2 one, the enumeration work over all requests
//! (`enum_work`: trie seeks + count probes + dictionary lookups), the most
//! work between two consecutive answers of one request (`max_gap_work`, the
//! final "done" included), the same maximum over the bound valuations that
//! bind rather than the sampled witnesses (`worst_gap_work`: every
//! valuation when there are at most 25 000, else every dictionary candidate
//! and a seeded sample) and the FNV-1a of the answer stream. exp8 adds
//! Figure 3's nodes and exp9 the §6 covers: the only floats, at fixed
//! precision.

use cqc_bench::harness_main;
use cqc_common::heap::HeapSize;
use cqc_common::measure::{json_string, write_json_summary};
use cqc_common::metrics;
use cqc_common::value::{Tuple, Value};
use cqc_common::AnswerSink;
use cqc_core::compressed::{CompressedView, Strategy};
use cqc_core::dbtree::DelayBalancedTree;
use cqc_core::theorem1::Theorem1Structure;
use cqc_core::theorem2::Theorem2Structure;
use cqc_decomp::TreeDecomposition;
use cqc_join::naive::evaluate_view;
use cqc_lp::fractional::{min_delay_cover, min_space_cover};
use cqc_query::{AdornedView, Var, VarSet};
use cqc_storage::{Database, Relation};
use cqc_workload::{graphs, queries, witness_requests};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn main() {
    harness_main(|json| {
        let mut ledger = Ledger::default();
        exp1_triangle(&mut ledger)?;
        exp2_bound_only(&mut ledger)?;
        exp3_factorized(&mut ledger)?;
        exp4_loomis_whitney(&mut ledger)?;
        exp5_star_slack(&mut ledger)?;
        exp6_set_intersection(&mut ledger)?;
        exp7_path(&mut ledger)?;
        exp8_running_example(&mut ledger)?;
        exp9_covers(&mut ledger)?;
        exp10_build_work(&mut ledger)?;
        exp12_community_locality(&mut ledger)?;
        match json {
            Some(path) => write_json_summary(path, &ledger.rows),
            None => {
                ledger.rows.iter().for_each(|row| println!("{row}"));
                Ok(())
            }
        }
    });
}

/// A dataset, one view over it, its access requests and the naive
/// oracle's answers to each, sorted.
struct Instance {
    view: AdornedView,
    db: Database,
    requests: Vec<Vec<Value>>,
    expected: Vec<Vec<Tuple>>,
}

impl Instance {
    fn new(view: AdornedView, db: Database, requests: Vec<Vec<Value>>) -> Res<Instance> {
        let expected = requests
            .iter()
            .map(|r| evaluate_view(&view, &db, r))
            .collect::<cqc_common::Result<_>>()
            .map_err(err)?;
        Ok(Instance {
            view,
            db,
            requests,
            expected,
        })
    }

    /// Theorem 1 at cover `weights` and threshold `tau`.
    fn theorem1(&self, weights: &[f64], tau: f64) -> Res<CompressedView> {
        Theorem1Structure::build(&self.view, &self.db, weights, tau)
            .map(CompressedView::Tradeoff)
            .map_err(err)
    }

    fn recipe(&self, strategy: Strategy) -> Res<CompressedView> {
        CompressedView::build(&self.view, &self.db, strategy).map_err(err)
    }
}

/// A database of the given relations.
fn database(relations: impl IntoIterator<Item = Relation>) -> Res<Database> {
    let mut db = Database::new();
    for r in relations {
        db.add(r).map_err(err)?;
    }
    Ok(db)
}

/// The friendship graph `R` of `nodes` nodes and `edges` edges, from
/// `seed`.
fn friendship(seed: u64, nodes: u64, edges: usize) -> Res<Database> {
    let mut rng = cqc_workload::rng(seed);
    database([graphs::friendship_graph(&mut rng, nodes, edges, 1.0)])
}

/// FNV-1a over `u64` words: order-sensitive, so it pins enumeration order.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The most work spent between two consecutive answers of one request,
/// the final "done" included.
struct Gaps {
    last_work: u64,
    max_gap: u64,
}

impl Gaps {
    fn start() -> Gaps {
        Gaps {
            last_work: metrics::snapshot().work(),
            max_gap: 0,
        }
    }

    fn gap(&mut self) {
        let now = metrics::snapshot().work();
        self.max_gap = self.max_gap.max(now - self.last_work);
        self.last_work = now;
    }
}

impl AnswerSink for Gaps {
    fn push(&mut self, _: &[Value]) -> bool {
        self.gap();
        true
    }
}

/// Keeps one request's answers and its [`Gaps`].
struct Collect {
    answers: Vec<Tuple>,
    gaps: Gaps,
}

impl AnswerSink for Collect {
    fn push(&mut self, tuple: &[Value]) -> bool {
        self.gaps.gap();
        self.answers.push(tuple.to_vec());
        true
    }
}

/// `worst_gap_work` is taken over every bound valuation — the product of
/// the bound variables' active domains — when there are at most this many.
const ALL_VALUATIONS: usize = 25_000;

/// Otherwise over every root candidate of a Theorem 1 dictionary (the
/// valuations it stores anything for) and this many seeded uniform draws.
const SAMPLED_VALUATIONS: usize = 2_000;

/// The requests `worst_gap_work` is taken over (see [`ALL_VALUATIONS`]).
fn gap_requests(inst: &Instance, rep: &CompressedView) -> Res<Vec<Vec<Value>>> {
    let domains = inst.view.query().active_domains(&inst.db).map_err(err)?;
    let bound: Vec<_> = inst
        .view
        .bound_head()
        .iter()
        .map(|v| &domains[v.index()])
        .collect();
    let count = bound
        .iter()
        .try_fold(1usize, |n, d| n.checked_mul(d.len()))
        .filter(|&n| n <= ALL_VALUATIONS);
    if let Some(count) = count {
        // Lexicographic order, the last variable fastest.
        return Ok((0..count)
            .map(|mut i| {
                let mut vb = vec![0; bound.len()];
                for (slot, d) in vb.iter_mut().zip(&bound).rev() {
                    *slot = d.value(i % d.len());
                    i /= d.len();
                }
                vb
            })
            .collect());
    }
    let mut requests = Vec::new();
    if let CompressedView::Tradeoff(s) = rep {
        let dict = s.dictionary();
        for c in 0..dict.num_candidates() as u32 {
            let mut vb = Vec::new();
            dict.candidate_into(c, &mut vb);
            requests.push(vb);
        }
    }
    let mut rng = cqc_workload::rng(18);
    requests.extend(cqc_workload::random_requests(
        &mut rng,
        &inst.view,
        &inst.db,
        SAMPLED_VALUATIONS,
    ));
    Ok(requests)
}

/// The rows, each one line `"<key>": {…}`.
#[derive(Default)]
struct Ledger {
    rows: Vec<String>,
}

impl Ledger {
    fn row(&mut self, key: &str, fields: &[(&str, String)]) {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        self.rows
            .push(format!("{}: {{{}}}", json_string(key), body.join(", ")));
    }

    /// Serves every request of `inst` from `rep` through one reused
    /// enumerator, checks each answer list against the oracle, and writes
    /// the row `key` with `extra` fields appended.
    fn structure(
        &mut self,
        key: &str,
        inst: &Instance,
        rep: &CompressedView,
        extra: &[(&str, String)],
    ) -> Res<()> {
        self.structure_with(key, inst, rep, |_| extra.to_vec())
    }

    /// [`Ledger::structure`] with the appended fields a function of the
    /// row's `worst_gap_work`.
    fn structure_with<'a>(
        &mut self,
        key: &str,
        inst: &Instance,
        rep: &CompressedView,
        extra: impl FnOnce(u64) -> Vec<(&'a str, String)>,
    ) -> Res<()> {
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        let (mut answers, mut nonempty, mut max_gap) = (0usize, 0usize, 0u64);
        let mut enumerator = rep.enumerator();
        let before = metrics::snapshot();
        for (bound, expected) in inst.requests.iter().zip(&inst.expected) {
            let mut sink = Collect {
                answers: Vec::new(),
                gaps: Gaps::start(),
            };
            enumerator.answer_into(bound, &mut sink).map_err(err)?;
            sink.gaps.gap();
            // A Theorem 2 structure enumerates in its decomposition's order,
            // not always the free head's: the oracle is compared with the
            // sorted answers, the hash taken over the stream as served.
            let mut sorted = sink.answers.clone();
            sorted.sort_unstable();
            if sorted != *expected {
                return Err(format!(
                    "{key}: request {bound:?} gave {} answers, the naive oracle {}",
                    sink.answers.len(),
                    expected.len()
                ));
            }
            max_gap = max_gap.max(sink.gaps.max_gap);
            answers += sink.answers.len();
            nonempty += usize::from(!sink.answers.is_empty());
            sink.answers.iter().flatten().for_each(|&v| fnv.word(v));
            fnv.word(sink.answers.len() as u64);
        }
        let enum_work = metrics::snapshot().delta_since(&before).work();
        let mut worst_gap = 0u64;
        for bound in gap_requests(inst, rep)? {
            let mut sink = Gaps::start();
            enumerator.answer_into(&bound, &mut sink).map_err(err)?;
            sink.gap();
            worst_gap = worst_gap.max(sink.max_gap);
        }

        let mut fields = vec![
            ("D", inst.db.size().to_string()),
            ("requests", inst.requests.len().to_string()),
            ("answers", answers.to_string()),
            ("nonempty", nonempty.to_string()),
            ("bytes", rep.heap_bytes().to_string()),
        ];
        match rep {
            CompressedView::Tradeoff(s) => {
                let st = s.stats();
                fields.extend([
                    ("base_bytes", st.base_index_bytes.to_string()),
                    (
                        "base_distinct_bytes",
                        st.base_index_distinct_bytes.to_string(),
                    ),
                    ("tree_bytes", st.tree_bytes.to_string()),
                    ("dict_bytes", st.dict_bytes.to_string()),
                    ("tree_nodes", st.tree_nodes.to_string()),
                    ("tree_leaves", st.tree_leaves.to_string()),
                    ("tree_depth", st.tree_depth.to_string()),
                    ("dict_entries", st.dict_entries.to_string()),
                    ("dict_candidates", st.dict_candidates.to_string()),
                    ("tree_count_probes", st.tree_count_probes.to_string()),
                    ("dict_evaluations", st.dict_evaluations.to_string()),
                    ("dict_probes", st.dict_probes.to_string()),
                    ("dict_light_by_work", st.dict_light_by_work.to_string()),
                ]);
            }
            CompressedView::Decomposed(s) => {
                let st = s.stats();
                fields.extend([
                    ("bag_bytes", st.materialized_bytes.to_string()),
                    ("bags", st.bags.to_string()),
                    ("delay_tuned_bags", st.tradeoff_bags.to_string()),
                    ("bag_tuples", st.materialized_tuples.to_string()),
                    ("dict_entries", st.dict_entries.to_string()),
                ]);
            }
            CompressedView::AlwaysEmpty(_) => return Err(format!("{key}: no structure built")),
        }
        fields.extend([
            ("enum_work", enum_work.to_string()),
            ("max_gap_work", max_gap.to_string()),
            ("worst_gap_work", worst_gap.to_string()),
            ("fnv", format!("\"{:016x}\"", fnv.0)),
        ]);
        fields.extend(extra(worst_gap));
        self.row(key, &fields);
        Ok(())
    }
}

/// EXP-1: the intro/Prop. 3 triangle tradeoff `S = O(N^{3/2}/τ)`,
/// `δ = Õ(τ)`, between the §2.3 extremes: Theorem 2 at δ ≡ 0 over
/// `{V_b} → {V}` and Theorem 1 at τ = ∞.
fn exp1_triangle(ledger: &mut Ledger) -> Res<()> {
    let view = queries::triangle_self("bfb").map_err(err)?;
    let db = friendship(1, 200, 1500)?;
    let requests = witness_requests(&mut cqc_workload::rng(2), &view, &db, 150);
    let inst = Instance::new(view, db, requests)?;
    let name = "exp1 triangle bfb, friendship(1, 200, 1500)";
    for (recipe, strategy) in [
        ("materialize", Strategy::Materialize),
        ("direct", Strategy::Direct),
    ] {
        let rep = inst.recipe(strategy)?;
        ledger.structure(&format!("{name}/{recipe}"), &inst, &rep, &[])?;
    }
    let n = inst.db.size() as f64;
    for (label, tau) in [
        ("1", 1.0),
        ("N^0.25", n.powf(0.25)),
        ("N^0.5", n.sqrt()),
        ("N^0.75", n.powf(0.75)),
    ] {
        let rep = inst.theorem1(&[0.5; 3], tau)?;
        let ratios = |worst_gap| theorem1_ratios(&inst, &rep, worst_gap);
        ledger.structure_with(
            &format!("{name}/theorem 1 tau={label}"),
            &inst,
            &rep,
            ratios,
        )?;
    }
    Ok(())
}

/// A Theorem 1 row's counts over its bounds, at 3 decimals: `space_ratio`
/// is `bytes` over `|D| + Π|R_F|^{u_F}/τ^α` (Theorem 1's space),
/// `gap_ratio` `worst_gap_work` over τ (its delay), and `build_ratio` the
/// counted build work — tree count probes, dictionary evaluations and
/// capped-run units — over `|D| + Π|R_F|^{u_F}` (its preprocessing). Each
/// is the constant its `Õ` hides on this instance: `scripts/kick-tires.sh`
/// holds each to a stated ceiling.
fn theorem1_ratios(
    inst: &Instance,
    rep: &CompressedView,
    worst_gap: u64,
) -> Vec<(&'static str, String)> {
    let CompressedView::Tradeoff(s) = rep else {
        unreachable!("theorem1 builds a Theorem 1 structure")
    };
    let product: f64 = (inst.view.query().atoms.iter())
        .zip(s.weights())
        .map(|(atom, &u)| {
            let rows = inst.db.get(&atom.relation).map_or(0, |r| r.len());
            (rows as f64).powf(u)
        })
        .product();
    let (d, st) = (inst.db.size() as f64, s.stats());
    let build = st.tree_count_probes + st.dict_evaluations + st.dict_capped_work;
    [
        (
            "space_ratio",
            rep.heap_bytes() as f64 / (d + product / s.tau().powf(s.alpha())),
        ),
        ("gap_ratio", worst_gap as f64 / s.tau()),
        ("build_ratio", build as f64 / (d + product)),
    ]
    .map(|(name, ratio)| (name, format!("{ratio:.3}")))
    .into()
}

/// EXP-2: Prop. 1, all-bound views: Theorem 2 over the root bag `{V_b}`
/// (every recipe builds it for an all-bound view); `nonempty` is the hits.
fn exp2_bound_only(ledger: &mut Ledger) -> Res<()> {
    for edges in [500usize, 1000, 2000] {
        let view = queries::triangle_self("bbb").map_err(err)?;
        let db = friendship(3, (edges / 5) as u64, edges)?;
        let requests = witness_requests(&mut cqc_workload::rng(4), &view, &db, 2000);
        let inst = Instance::new(view, db, requests)?;
        let rep = inst.recipe(Strategy::Factorized)?;
        let key = format!(
            "exp2 triangle bbb, friendship(3, {}, {edges})/factorized",
            edges / 5
        );
        ledger.structure(&key, &inst, &rep, &[])?;
    }
    Ok(())
}

/// EXP-3: Props. 2/4, the star S_3 fully free: a d-representation of
/// linear size against the materialized result.
fn exp3_factorized(ledger: &mut Ledger) -> Res<()> {
    let view = queries::star(3, "ffff").map_err(err)?;
    let mut rng = cqc_workload::rng(5);
    let db = database(
        (1..=3).map(|i| cqc_workload::uniform_relation(&mut rng, &format!("R{i}"), 2, 400, 40)),
    )?;
    let inst = Instance::new(view, db, vec![Vec::new()])?;
    let name = "exp3 star3 ffff, uniform(5, 400, 40)";
    let f = Theorem2Structure::build_constant_delay(&inst.view, &inst.db).map_err(err)?;
    let f = CompressedView::Decomposed(f);
    ledger.structure(&format!("{name}/factorized (Prop 2)"), &inst, &f, &[])?;
    let m = inst.recipe(Strategy::Materialize)?;
    ledger.structure(&format!("{name}/materialize"), &inst, &m, &[])
}

/// EXP-4: Example 6, Loomis–Whitney LW_3 at linear space (τ = √N).
fn exp4_loomis_whitney(ledger: &mut Ledger) -> Res<()> {
    let view = queries::loomis_whitney(3, "bff").map_err(err)?;
    let mut rng = cqc_workload::rng(6);
    let db = database(
        (1..=3).map(|i| cqc_workload::uniform_relation(&mut rng, &format!("S{i}"), 2, 500, 50)),
    )?;
    let requests = witness_requests(&mut rng, &view, &db, 100);
    let inst = Instance::new(view, db, requests)?;
    let n = inst.db.size() as f64;
    for (label, tau) in [("1", 1.0), ("N^0.5", n.sqrt()), ("N", n)] {
        let rep = inst.theorem1(&[0.5; 3], tau)?;
        let key = format!("exp4 LW3 bff, uniform(6, 500, 50)/theorem 1 tau={label}");
        ledger.structure(&key, &inst, &rep, &[])?;
    }
    Ok(())
}

/// EXP-5: Example 7, the slack of the star join: its dictionary decays
/// like τ^{-α} with α = n, not τ^{-1}. Zipf-skewed centres give a long
/// tail of heavy pairs.
fn exp5_star_slack(ledger: &mut Ledger) -> Res<()> {
    for n in [2usize, 3] {
        let view = queries::star(n, &("b".repeat(n) + "f")).map_err(err)?;
        let mut rng = cqc_workload::rng(7);
        let zipf = cqc_workload::Zipf::new(40, 1.1);
        let db =
            database((1..=n).map(|i| {
                cqc_workload::gen::zipf_pairs(&mut rng, &format!("R{i}"), 300, 60, &zipf)
            }))?;
        let requests = witness_requests(&mut rng, &view, &db, 100);
        let inst = Instance::new(view, db, requests)?;
        for tau in [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
            let rep = inst.theorem1(&vec![1.0; n], tau)?;
            let CompressedView::Tradeoff(s) = &rep else {
                unreachable!("theorem1 builds a Theorem 1 structure")
            };
            let alpha = format!("{:.2}", s.alpha());
            let key = format!("exp5 star{n}, zipf(7, 300, 60, 40)/theorem 1 tau={tau}");
            ledger.structure(&key, &inst, &rep, &[("alpha", alpha)])?;
        }
    }
    Ok(())
}

/// EXP-6: §3.1 set intersection and §3.3 k-SetDisjointness over Zipf
/// memberships; `nonempty` is the intersecting pairs.
fn exp6_set_intersection(ledger: &mut Ledger) -> Res<()> {
    let view = queries::set_intersection().map_err(err)?;
    let mut rng = cqc_workload::rng(8);
    let zipf = cqc_workload::Zipf::new(300, 0.9);
    let db = database([cqc_workload::gen::zipf_pairs(
        &mut rng, "R", 4000, 150, &zipf,
    )])?;
    let set_zipf = cqc_workload::Zipf::new(150, 0.8);
    let requests = (0..300)
        .map(|_| vec![set_zipf.sample(&mut rng), set_zipf.sample(&mut rng)])
        .collect();
    let inst = Instance::new(view, db, requests)?;
    for tau in [1.0, 8.0, 64.0, 512.0] {
        let rep = inst.theorem1(&[1.0, 1.0], tau)?;
        let key = format!("exp6 set intersection, zipf(8, 4000, 150, 300)/theorem 1 tau={tau}");
        ledger.structure(&key, &inst, &rep, &[])?;
    }
    Ok(())
}

/// EXP-7: Example 10, the path P_4^{bfffb}: Theorem 1 at the chain cover
/// against Theorem 2 at the paper's decomposition in three delay regimes.
fn exp7_path(ledger: &mut Ledger) -> Res<()> {
    let view = queries::path(4, &queries::path_pattern(4)).map_err(err)?;
    let mut rng = cqc_workload::rng(9);
    let db = database(
        (1..=4).map(|i| cqc_workload::uniform_relation(&mut rng, &format!("R{i}"), 2, 300, 60)),
    )?;
    let requests = witness_requests(&mut rng, &view, &db, 60);
    let inst = Instance::new(view, db, requests)?;
    let name = "exp7 path4 bfffb, uniform(9, 300, 60)";
    for tau in [16.0, 64.0] {
        let rep = inst.theorem1(&[1.0; 4], tau)?;
        ledger.structure(&format!("{name}/theorem 1 tau={tau}"), &inst, &rep, &[])?;
    }
    let vs = |vars: &[u32]| -> VarSet { vars.iter().map(|&v| Var(v)).collect() };
    let td = TreeDecomposition::new(
        vec![vs(&[0, 4]), vs(&[0, 1, 3, 4]), vs(&[1, 2, 3])],
        vec![None, Some(0), Some(1)],
    )
    .map_err(err)?;
    for delta in [[0.0, 0.0, 0.0], [0.0, 0.25, 0.25], [0.0, 0.5, 0.5]] {
        let s = Theorem2Structure::build(&inst.view, &inst.db, &td, &delta).map_err(err)?;
        let key = format!("{name}/theorem 2 delta=({}, {})", delta[1], delta[2]);
        // The delay-tuned bags' tree build work, summed.
        let st = s.stats();
        let probes = [("tree_count_probes", st.tree_count_probes.to_string())];
        let extra = if st.tradeoff_bags > 0 {
            &probes[..]
        } else {
            &[]
        };
        ledger.structure(&key, &inst, &CompressedView::Decomposed(s), extra)?;
    }
    Ok(())
}

/// EXP-8: the running example's golden facts (Examples 13–15, Figure 3):
/// a row per tree node, then the structure's row with the two dictionary
/// lookups and `Q[(1,1,1)]`.
fn exp8_running_example(ledger: &mut Ledger) -> Res<()> {
    let rows = |rows: [[Value; 3]; 5]| rows.iter().map(|r| r.to_vec()).collect();
    let db = database([
        Relation::new(
            "R1",
            3,
            rows([[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1], [3, 1, 1]]),
        ),
        Relation::new(
            "R2",
            3,
            rows([[1, 1, 2], [1, 2, 1], [1, 2, 2], [2, 1, 1], [2, 1, 2]]),
        ),
        Relation::new(
            "R3",
            3,
            rows([[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 1, 2]]),
        ),
    ])?;
    let view = queries::running_example().map_err(err)?;
    let inst = Instance::new(view, db, vec![vec![1, 1, 1]])?;
    let name = "exp8 running example";
    let s = Theorem1Structure::build(&inst.view, &inst.db, &[1.0; 3], 4.0).map_err(err)?;
    // Figure 3 is the built tree: the structure keeps only what its
    // dictionary can reach, and keeps no cost oracle, so both are a fresh
    // estimator's.
    let est = cqc_core::cost::CostEstimator::build(&inst.view, &inst.db, s.weights(), s.alpha())
        .map_err(err)?;
    let built = DelayBalancedTree::build(&est, s.tau()).ok_or("the running example has a tree")?;
    for c in built.cursors() {
        let interval = built.interval(c);
        let beta = built.beta(c.node).map(|b| est.ranks_to_values(&b));
        ledger.row(
            &format!("{name}/node {}", c.node),
            &[
                ("level", c.level.to_string()),
                ("lo", format!("{:?}", est.ranks_to_values(&interval.lo))),
                ("hi", format!("{:?}", est.ranks_to_values(&interval.hi))),
                ("beta", beta.map_or("null".into(), |b| format!("{b:?}"))),
                (
                    "T",
                    format!("{:.3}", est.t_interval(&interval, &est.sizes())),
                ),
                ("tau_level", format!("{:.3}", built.threshold_of(c.level))),
            ],
        );
    }
    // `D(w, (1,1,1))` at the stored node in slot `w`, `null` for ⊥: r is
    // slot 0, and r_r is slot 2 (the left child r_l is slot 1, a leaf)
    // whenever r is stored as internal.
    let lookup = |w: u32| {
        s.tree()
            .filter(|t| t.cursors().any(|c| c.node == w))
            .and_then(|t| s.dictionary().get(t, t.internal_rank(w)?, &[1, 1, 1]))
            .map_or("null".into(), |b| b.to_string())
    };
    let extra = [
        ("dict_r_111", lookup(0)),
        ("dict_rr_111", lookup(2)),
        ("answers_111", format!("{:?}", inst.expected[0])),
    ];
    ledger.structure(
        &format!("{name}/theorem 1 tau=4"),
        &inst,
        &CompressedView::Tradeoff(s),
        &extra,
    )
}

/// EXP-9: the §6 programs. MinDelayCover across queries and space budgets
/// (unit relation sizes), then MinSpaceCover on the triangle.
fn exp9_covers(ledger: &mut Ledger) -> Res<()> {
    let cases = [
        ("triangle fff", queries::triangle_self("fff")),
        ("triangle bfb", queries::triangle_self("bfb")),
        ("star3 bbbf", queries::star(3, "bbbf")),
        ("LW3 fff", queries::loomis_whitney(3, "fff")),
        ("path4 bfffb", queries::path(4, &queries::path_pattern(4))),
    ];
    for (name, view) in cases {
        let view = view.map_err(err)?;
        let h = view.query().hypergraph();
        let sizes = vec![1.0; h.num_edges()];
        for budget in [1.0, 1.5, 2.0] {
            let c = min_delay_cover(&h, view.free_vars(), &sizes, budget).map_err(err)?;
            ledger.row(
                &format!("exp9 {name}/MinDelayCover S<=N^{budget}"),
                &[
                    ("cover", format!("{:.2?}", c.weights)),
                    ("alpha", format!("{:.2}", c.alpha)),
                    ("log_tau", format!("{:.3}", c.log_tau)),
                ],
            );
        }
    }
    let view = queries::triangle_self("fff").map_err(err)?;
    let h = view.query().hypergraph();
    for d in [0.0, 0.25, 0.5, 0.75] {
        let c = min_space_cover(&h, view.free_vars(), &[1.0; 3], d).map_err(err)?;
        ledger.row(
            &format!("exp9 triangle fff/MinSpaceCover tau<=N^{d}"),
            &[
                ("log_space", format!("{:.3}", c.log_space)),
                ("alpha", format!("{:.2}", c.alpha)),
            ],
        );
    }
    Ok(())
}

/// EXP-10: compression work against |D| at τ = √N (Theorem 1's T_C): the
/// build-work counters of each row.
fn exp10_build_work(ledger: &mut Ledger) -> Res<()> {
    for edges in [500usize, 1000, 2000, 4000] {
        let view = queries::triangle_self("bfb").map_err(err)?;
        let db = friendship(11, (edges / 5) as u64, edges)?;
        let requests = witness_requests(&mut cqc_workload::rng(12), &view, &db, 50);
        let inst = Instance::new(view, db, requests)?;
        let rep = inst.theorem1(&[0.5; 3], (inst.db.size() as f64).sqrt())?;
        let key = format!(
            "exp10 triangle bfb, friendship(11, {}, {edges})/theorem 1 tau=N^0.5",
            edges / 5
        );
        ledger.structure(&key, &inst, &rep, &[])?;
    }
    Ok(())
}

/// EXP-12: graph clustering against the triangle view's compression:
/// community structure concentrates triangles on intra-cluster pairs,
/// the heavy sub-instances the dictionary memoizes.
fn exp12_community_locality(ledger: &mut Ledger) -> Res<()> {
    for locality in [0.0f64, 0.5, 0.9] {
        let view = queries::triangle_self("bfb").map_err(err)?;
        let mut rng = cqc_workload::rng(13);
        let db = database([graphs::community_graph(&mut rng, 160, 8, 3000, locality)])?;
        let requests = witness_requests(&mut rng, &view, &db, 150);
        let inst = Instance::new(view, db, requests)?;
        let name = format!("exp12 triangle bfb, community(13, 160, 8, 3000, {locality})");
        // τ = N^{1/4}: low enough that heavy pairs exist, high enough that
        // only genuinely hot pairs are memoized.
        let rep = inst.theorem1(&[0.5; 3], (inst.db.size() as f64).powf(0.25))?;
        ledger.structure(&format!("{name}/theorem 1 tau=N^0.25"), &inst, &rep, &[])?;
        let rep = inst.recipe(Strategy::Direct)?;
        ledger.structure(&format!("{name}/direct"), &inst, &rep, &[])?;
    }
    Ok(())
}
