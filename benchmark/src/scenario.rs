//! Seed → inputs. Everything a workload feeds the program is made here,
//! from the seed alone, before any timing starts.
//!
//! The database is one skewed friendship graph stored under three
//! relation names, so that the views hash-partition (a self-join over one
//! relation would replicate it to every shard and leave nothing to
//! merge). Requests bind Zipf-ranked nodes: node 0 is the biggest hub and
//! the most requested, so the head of the latency distribution is hub
//! traffic and the tail is the long list of small nodes, and both repeat
//! from seed to seed because a Zipf graph's degree sequence does.

use crate::stats::Fnv;
use cqc_storage::{Database, Delta, PartitionSpec, Relation};
use rand::rngs::StdRng;
use rand::Rng;

/// Graph size. Set-up cost is dominated by the `tri_lo` dictionary and
/// grows faster than linearly in the edge count; this size keeps one
/// set-up under a second so five fit in a run.
pub const NODES: u64 = 6000;
pub const EDGE_DRAWS: usize = 12_000;
pub const GRAPH_SKEW: f64 = 0.8;
/// Popularity of a node as a request binding.
pub const REQUEST_SKEW: f64 = 1.0;

pub const RELATIONS: [&str; 3] = ["R", "S", "T"];

const TRI: &str = "V(x, y, z) :- R(x, y), S(y, z), T(z, x)";
const P3: &str = "P(a, b, c, d) :- R(a, b), S(b, c), T(c, d)";
const P2: &str = "Q(a, b, c) :- R(a, b), S(b, c)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Tri,
    P3,
    P2,
}

#[derive(Debug, Clone, Copy)]
pub struct ViewDef {
    pub name: &'static str,
    pub shape: Shape,
    pub query: &'static str,
    pub pattern: &'static str,
    pub strategy: &'static str,
}

/// The registered views: the triangle at both ends of Theorem 1's
/// τ knob, two paths the policy resolves to d-representations, and the
/// two near-fully-bound access patterns the point workload uses.
pub const VIEWS: [ViewDef; 6] = [
    ViewDef {
        name: "tri_lo",
        shape: Shape::Tri,
        query: TRI,
        pattern: "bff",
        strategy: "tau:8",
    },
    ViewDef {
        name: "tri_hi",
        shape: Shape::Tri,
        query: TRI,
        pattern: "bff",
        strategy: "tau:1024",
    },
    ViewDef {
        name: "p3",
        shape: Shape::P3,
        query: P3,
        pattern: "bbff",
        strategy: "auto",
    },
    ViewDef {
        name: "p2",
        shape: Shape::P2,
        query: P2,
        pattern: "bff",
        strategy: "factorized",
    },
    ViewDef {
        name: "tri_pt",
        shape: Shape::Tri,
        query: TRI,
        pattern: "bbf",
        strategy: "auto",
    },
    ViewDef {
        name: "p3_pt",
        shape: Shape::P3,
        query: P3,
        pattern: "bbbf",
        strategy: "auto",
    },
];

pub const SCAN_VIEWS: [usize; 4] = [0, 1, 2, 3];
pub const POINT_VIEWS: [usize; 2] = [4, 5];
/// `churn-durable` leaves `tri_lo` out: maintaining its dictionary costs
/// a quarter of a second per delta, which would leave a run with a dozen
/// update samples.
pub const CHURN_VIEWS: [usize; 5] = [1, 2, 3, 4, 5];

pub const SCAN_REQUESTS: usize = 1000;
pub const POINT_REQUESTS: usize = 2000;
/// A point request returns at most this many answers.
pub const POINT_MAX_ANSWERS: usize = 20;
/// A churn pass is `CHURN_DELTAS` deltas and then their inverses, one at
/// a time, each followed by `CHURN_READS_PER_UPDATE` reads, so the pass
/// ends on the database it started from.
pub const CHURN_DELTAS: usize = 5;
pub const CHURN_READS_PER_UPDATE: usize = 100;
const CHURN_DELTA_INSERTS: usize = 4;
const CHURN_DELTA_REMOVES: usize = 4;

/// Every view hashes `R` on its second column and `S` on its first (the
/// join variable they share) and replicates `T`.
pub fn partition_spec() -> PartitionSpec {
    PartitionSpec::new()
        .hash("R", 1)
        .hash("S", 0)
        .replicate("T")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into [`VIEWS`].
    pub view: usize,
    pub bound: Vec<u64>,
}

/// One churn step: a delta and the delta that undoes it.
#[derive(Debug, Clone)]
pub struct DeltaPair {
    pub forward: Delta,
    pub inverse: Delta,
}

#[derive(Debug)]
pub struct Scenario {
    pub seed: u64,
    pub db: Database,
    /// Out-neighbours per node, ascending.
    pub adjacency: Vec<Vec<u64>>,
    pub gen_ms: f64,
}

fn stream(seed: u64, stream: u64) -> StdRng {
    cqc_workload::rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

impl Scenario {
    pub fn generate(seed: u64) -> Scenario {
        let t0 = std::time::Instant::now();
        let graph = cqc_workload::graphs::friendship_graph(
            &mut stream(seed, 1),
            NODES,
            EDGE_DRAWS,
            GRAPH_SKEW,
        );
        let mut adjacency = vec![Vec::new(); NODES as usize];
        let mut flat = Vec::with_capacity(graph.len() * 2);
        for row in graph.iter() {
            adjacency[row[0] as usize].push(row[1]);
            flat.extend_from_slice(row);
        }
        let mut db = Database::new();
        for name in RELATIONS {
            db.add(Relation::from_flat(name, 2, flat.clone()))
                .expect("fresh relation name");
        }
        Scenario {
            seed,
            db,
            adjacency,
            gen_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    pub fn tuples(&self) -> usize {
        self.db.size()
    }

    fn degree(&self, node: u64) -> usize {
        self.adjacency[node as usize].len()
    }

    /// A uniformly chosen neighbour, or any node when there is none (the
    /// request is then simply empty).
    fn neighbour(&self, rng: &mut StdRng, node: u64) -> u64 {
        let n = &self.adjacency[node as usize];
        if n.is_empty() {
            rng.gen_range(0..NODES)
        } else {
            n[rng.gen_range(0..n.len())]
        }
    }

    /// The bound values of a request on `view`: `first`, then a random
    /// edge out of each bound node for the next one.
    pub fn walk(&self, rng: &mut StdRng, view: usize, first: u64) -> Vec<u64> {
        let mut bound = vec![first];
        while bound.len() < VIEWS[view].pattern.matches('b').count() {
            let last = bound[bound.len() - 1];
            bound.push(self.neighbour(rng, last));
        }
        bound
    }

    /// How many answers a point request has, from the adjacency lists.
    fn point_answers(&self, view: usize, bound: &[u64]) -> usize {
        let adjacent = |x: u64, y: u64| self.adjacency[x as usize].binary_search(&y).is_ok();
        match (VIEWS[view].shape, bound) {
            // z leaves y and enters x; the graph is symmetric.
            (Shape::Tri, &[x, y]) if adjacent(x, y) => {
                intersection_size(&self.adjacency[x as usize], &self.adjacency[y as usize]) as usize
            }
            (Shape::P3, &[a, b, c]) if adjacent(a, b) && adjacent(b, c) => self.degree(c),
            _ => 0,
        }
    }

    /// `count` requests, the same number for each of `views`, in seeded
    /// random order. Each binds a Zipf-ranked node to the first bound
    /// variable and walks random edges for the rest, so multi-bound
    /// requests mostly have answers.
    ///
    /// The ranks are a *stratified* Zipf sample (one draw per equal slice
    /// of the distribution), so every seed asks for the biggest hub about
    /// as often: with independent draws the number of hub requests, and
    /// with it a pass's answer count and its p99, would swing by a fifth
    /// from seed to seed. Point views keep only requests with at most
    /// [`POINT_MAX_ANSWERS`] answers, for the same reason.
    pub fn requests(&self, stream_id: u64, views: &[usize], count: usize) -> Vec<Request> {
        assert_eq!(
            count % views.len(),
            0,
            "the same number of requests per view"
        );
        let per_view = count / views.len();
        let mut rng = stream(self.seed, stream_id);
        let cdf = zipf_cdf(NODES as usize, REQUEST_SKEW);
        let mut lists: Vec<Vec<Request>> = Vec::with_capacity(views.len());
        for &view in views {
            let point = POINT_VIEWS.contains(&view);
            let draws = if point { 4 * per_view } else { per_view };
            let mut kept = Vec::with_capacity(draws);
            for k in 0..draws {
                let u = (k as f64 + rng.gen_range(0.0..1.0)) / draws as f64;
                let first = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
                let bound = self.walk(&mut rng, view, first);
                if !point || self.point_answers(view, &bound) <= POINT_MAX_ANSWERS {
                    kept.push(Request { view, bound });
                }
            }
            assert!(
                kept.len() >= per_view,
                "too few point requests survive the answer cap"
            );
            // Evenly spaced survivors keep the strata; then shuffle.
            let mut list: Vec<Request> = (0..per_view)
                .map(|j| kept[j * kept.len() / per_view].clone())
                .collect();
            for i in (1..list.len()).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
            lists.push(list);
        }
        (0..count)
            .map(|i| lists[i % views.len()][i / views.len()].clone())
            .collect()
    }

    pub fn scan_requests(&self) -> Vec<Request> {
        self.requests(2, &SCAN_VIEWS, SCAN_REQUESTS)
    }

    pub fn point_requests(&self) -> Vec<Request> {
        self.requests(3, &POINT_VIEWS, POINT_REQUESTS)
    }

    pub fn churn_reads(&self) -> Vec<Request> {
        self.requests(4, &CHURN_VIEWS, 2 * CHURN_DELTAS * CHURN_READS_PER_UPDATE)
    }

    /// The churn deltas, each generated against the base database (every
    /// forward delta is applied to it, because its inverse ran before the
    /// next one starts).
    pub fn churn_deltas(&self) -> Vec<DeltaPair> {
        let mut rng = stream(self.seed, 5);
        (0..CHURN_DELTAS)
            .map(|_| {
                let forward = cqc_workload::mixed_delta(
                    &mut rng,
                    &self.db,
                    &RELATIONS,
                    CHURN_DELTA_INSERTS,
                    CHURN_DELTA_REMOVES,
                );
                let mut inverse = Delta::new();
                for (rel, tuples) in forward.groups() {
                    let base = self.db.get(rel).expect("delta names a base relation");
                    for t in tuples.iter().filter(|t| !base.contains(t)) {
                        inverse.remove(rel, t.clone());
                    }
                }
                for (rel, tuples) in forward.remove_groups() {
                    inverse.insert_all(rel, tuples.iter().cloned());
                }
                DeltaPair { forward, inverse }
            })
            .collect()
    }

    /// Tuples in the full (all-free) result of `shape`, counted from the
    /// adjacency lists and not by the program under test.
    pub fn output_tuples(&self, shape: Shape) -> u64 {
        let mut incoming = vec![Vec::new(); NODES as usize];
        for (x, out) in self.adjacency.iter().enumerate() {
            for &y in out {
                incoming[y as usize].push(x as u64);
            }
        }
        let edges = || {
            self.adjacency
                .iter()
                .enumerate()
                .flat_map(|(x, out)| out.iter().map(move |&y| (x as u64, y)))
        };
        match shape {
            // R(x,y), S(y,z), T(z,x): z leaves y and enters x.
            Shape::Tri => edges()
                .map(|(x, y)| intersection_size(&self.adjacency[y as usize], &incoming[x as usize]))
                .sum(),
            // R(a,b), S(b,c), T(c,d): an S edge, entered and left.
            Shape::P3 => edges()
                .map(|(b, c)| (incoming[b as usize].len() * self.degree(c)) as u64)
                .sum(),
            Shape::P2 => (0..NODES)
                .map(|b| (incoming[b as usize].len() * self.degree(b)) as u64)
                .sum(),
        }
    }

    /// Bytes of the materialised full outputs of `views`, as flat `u64`
    /// columns: the yardstick the representation sizes are held against.
    pub fn output_bytes(&self, views: &[usize]) -> u64 {
        let per_shape = |s| self.output_tuples(s);
        let (tri, p3, p2) = (
            per_shape(Shape::Tri),
            per_shape(Shape::P3),
            per_shape(Shape::P2),
        );
        views
            .iter()
            .map(|&v| match VIEWS[v].shape {
                Shape::Tri => tri * 3 * 8,
                Shape::P3 => p3 * 4 * 8,
                Shape::P2 => p2 * 3 * 8,
            })
            .sum()
    }
}

/// Cumulative probabilities of a Zipf(`s`) distribution over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// `|a ∩ b|` for ascending slices.
fn intersection_size(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Fingerprint of a request list (views and bindings, in order).
pub fn request_hash(requests: &[Request]) -> u64 {
    let mut h = Fnv::default();
    for r in requests {
        h.bytes(VIEWS[r.view].name.as_bytes());
        for &b in &r.bound {
            h.word(b);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a = Scenario::generate(11);
        let b = Scenario::generate(11);
        let c = Scenario::generate(12);
        assert_eq!(a.scan_requests(), b.scan_requests());
        assert_eq!(
            request_hash(&a.point_requests()),
            request_hash(&b.point_requests())
        );
        assert_ne!(
            request_hash(&a.scan_requests()),
            request_hash(&c.scan_requests())
        );
        assert_ne!(
            request_hash(&a.scan_requests()),
            request_hash(&a.point_requests())
        );
    }

    #[test]
    fn any_seed_fills_every_request_list() {
        // The point lists drop requests over the answer cap and panic
        // when too few are left; no seed the driver might pass may do so.
        for seed in (0..40).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let s = Scenario::generate(seed);
            assert_eq!(s.scan_requests().len(), SCAN_REQUESTS, "seed {seed}");
            assert_eq!(s.point_requests().len(), POINT_REQUESTS, "seed {seed}");
            assert_eq!(
                s.churn_reads().len(),
                2 * CHURN_DELTAS * CHURN_READS_PER_UPDATE,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn passes_are_large_enough_for_a_p99() {
        assert!(crate::stats::supports(SCAN_REQUESTS, 0.99));
        assert!(crate::stats::supports(POINT_REQUESTS, 0.99));
        let churn_reads = 2 * CHURN_DELTAS * CHURN_READS_PER_UPDATE;
        assert!(crate::stats::supports(churn_reads, 0.99));
        // Update latencies are pooled over a run's measured passes: ten
        // of them at the `run_seconds` of BENCHMARK.json.
        assert!(crate::stats::supports(10 * 2 * CHURN_DELTAS, 0.9));
    }

    #[test]
    fn inverse_deltas_restore_the_base_database() {
        let s = Scenario::generate(3);
        let mut db = s.db.clone();
        for pair in s.churn_deltas() {
            db.apply(&pair.forward).unwrap();
            db.apply(&pair.inverse).unwrap();
            for name in RELATIONS {
                assert_eq!(db.get(name), s.db.get(name), "{name}");
            }
        }
    }

    #[test]
    fn output_counts_match_the_naive_join_on_a_small_graph() {
        // The counting shortcuts against the oracle, on a graph small
        // enough for the nested-loop join.
        let mut s = Scenario::generate(5);
        let keep = 40u64;
        for (x, out) in s.adjacency.iter_mut().enumerate() {
            if x as u64 >= keep {
                out.clear();
            }
            out.retain(|&y| y < keep);
        }
        let pairs: Vec<(u64, u64)> = s
            .adjacency
            .iter()
            .enumerate()
            .flat_map(|(x, out)| out.iter().map(move |&y| (x as u64, y)))
            .collect();
        let mut db = Database::new();
        for name in RELATIONS {
            db.add(Relation::from_pairs(name, pairs.clone())).unwrap();
        }
        for (shape, query) in [(Shape::Tri, TRI), (Shape::P3, P3), (Shape::P2, P2)] {
            let pattern = "f".repeat(if shape == Shape::P3 { 4 } else { 3 });
            let view = cqc_query::parser::parse_adorned(query, &pattern).unwrap();
            let full = cqc_join::naive::evaluate_full(view.query(), &db).unwrap();
            assert_eq!(s.output_tuples(shape), full.len() as u64, "{shape:?}");
        }
    }
}
