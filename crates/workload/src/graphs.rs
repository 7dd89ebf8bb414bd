//! Graph-shaped data for the §1 applications.

use crate::gen::Zipf;
use cqc_common::value::Value;
use cqc_storage::Relation;
use rand::rngs::StdRng;
use rand::Rng;

/// A symmetric friendship relation with power-law degrees: `edges`
/// undirected edges over `nodes` vertices, both directions stored
/// (Example 1's symmetric binary relation `R`).
pub fn friendship_graph(rng: &mut StdRng, nodes: u64, edges: usize, skew: f64) -> Relation {
    let zipf = Zipf::new(nodes as usize, skew);
    let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let a = zipf.sample(rng);
        let b = zipf.sample(rng);
        if a == b {
            continue;
        }
        pairs.push((a, b));
        pairs.push((b, a));
    }
    Relation::from_pairs("R", pairs)
}

/// A directed Erdős–Rényi-style relation: `edges` uniform pairs over
/// `nodes` vertices.
pub fn erdos_renyi(rng: &mut StdRng, name: &str, nodes: u64, edges: usize) -> Relation {
    let mut pairs = Vec::with_capacity(edges);
    for _ in 0..edges {
        pairs.push((rng.gen_range(0..nodes), rng.gen_range(0..nodes)));
    }
    Relation::from_pairs(name, pairs)
}

/// An author–paper bipartite relation `R(author, paper)` (the DBLP shape of
/// §1): each of `authors` authors writes a Zipf-skewed number of the
/// `papers` papers, and hub papers attract many authors.
pub fn author_paper(
    rng: &mut StdRng,
    authors: u64,
    papers: u64,
    rows: usize,
    skew: f64,
) -> Relation {
    let paper_zipf = Zipf::new(papers as usize, skew);
    let mut pairs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let a = rng.gen_range(0..authors);
        let p = paper_zipf.sample(rng);
        pairs.push((a, p));
    }
    Relation::from_pairs("R", pairs)
}

/// A clustered (community-structured) friendship graph: `communities`
/// groups of `nodes / communities` members; each edge stays inside its
/// community with probability `locality`, otherwise it crosses communities
/// uniformly. Symmetric, self-loop-free.
///
/// Community structure concentrates triangles inside clusters — the shape
/// on which triangle-view compression is most valuable (many hot pairs
/// share heavy neighborhoods).
pub fn community_graph(
    rng: &mut StdRng,
    nodes: u64,
    communities: u64,
    edges: usize,
    locality: f64,
) -> Relation {
    assert!(communities >= 1 && nodes >= communities);
    assert!((0.0..=1.0).contains(&locality));
    let per = nodes / communities;
    let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(edges * 2);
    for _ in 0..edges {
        let c = rng.gen_range(0..communities);
        let a = c * per + rng.gen_range(0..per);
        let b = if rng.gen_range(0.0..1.0) < locality {
            c * per + rng.gen_range(0..per)
        } else {
            rng.gen_range(0..nodes)
        };
        if a == b {
            continue;
        }
        pairs.push((a, b));
        pairs.push((b, a));
    }
    Relation::from_pairs("R", pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rng;

    #[test]
    fn friendship_is_symmetric() {
        let g = friendship_graph(&mut rng(1), 100, 500, 1.0);
        let stored = cqc_storage::SortedIndex::pack(&g);
        for row in g.iter() {
            assert!(stored.contains(&[row[1], row[0]]), "missing reverse edge");
            assert_ne!(row[0], row[1], "no self loops");
        }
    }

    #[test]
    fn erdos_renyi_in_range() {
        let g = erdos_renyi(&mut rng(2), "E", 50, 300);
        assert!(g.iter().all(|t| t[0] < 50 && t[1] < 50));
        assert!(g.len() <= 300);
    }

    #[test]
    fn community_graph_is_clustered() {
        let g = community_graph(&mut rng(4), 100, 5, 1500, 0.9);
        // Symmetric and loop-free.
        let stored = cqc_storage::SortedIndex::pack(&g);
        for row in g.iter() {
            assert!(stored.contains(&[row[1], row[0]]));
            assert_ne!(row[0], row[1]);
        }
        // Most edges stay within a community (nodes/communities = 20).
        let within = g.iter().filter(|t| t[0] / 20 == t[1] / 20).count();
        assert!(
            within * 10 > g.len() * 7,
            "expected ≥70% intra-community edges, got {within}/{}",
            g.len()
        );
    }

    #[test]
    fn author_paper_has_hubs() {
        let g = author_paper(&mut rng(3), 200, 500, 3000, 1.1);
        // Paper 0 (the hub) must appear far more often than a tail paper.
        let hub = g.iter().filter(|t| t[1] == 0).count();
        let tail = g.iter().filter(|t| t[1] == 400).count();
        assert!(hub > tail, "hub {hub} <= tail {tail}");
    }
}
