//! Query streams and their ground truth: seeded vertex samplers, and the
//! answer every point query must get, from the paper's closed forms.

use kron::KronProduct;
use kron_serve::{Query, ServeEngine};

/// A small seeded generator (SplitMix64).
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = crate::common::splitmix(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(s) over `0..n`, mapped through a seeded permutation so the hot
/// vertices are spread over the id space (and over the shards).
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u64> = (0..n).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        Zipf { cdf, perm }
    }

    /// One sample: a Zipf rank, mapped through the permutation.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.perm.len() - 1);
        self.perm[rank]
    }
}

/// A uniformly chosen neighbour of `v`, if it has any.
pub fn some_neighbor(prod: &KronProduct, v: u64, rng: &mut Rng) -> Option<u64> {
    let row = prod.neighbors(v);
    (!row.is_empty()).then(|| row[rng.below(row.len() as u64) as usize])
}

/// The query kind's short name.
pub fn kind(q: &Query) -> &'static str {
    match q {
        Query::Degree(_) => "degree",
        Query::HasEdge(..) => "has_edge",
        Query::Neighbors(_) => "neighbors",
        Query::EdgeTriangles(..) => "tri_edge",
        Query::VertexTriangles(_) => "tri_vertex",
    }
}

/// The body a server must answer `q` with, from the closed forms.
pub fn expected(prod: &KronProduct, q: &Query) -> String {
    let answer = match *q {
        Query::Degree(v) => prod.degree(v).to_string(),
        Query::HasEdge(u, v) => prod.has_edge(u, v).to_string(),
        Query::Neighbors(v) => {
            let row: Vec<String> = prod.neighbors(v).iter().map(u64::to_string).collect();
            row.join(" ")
        }
        Query::EdgeTriangles(u, v) => match prod.edge_triangles(u, v) {
            Some(d) => d.to_string(),
            None => "not-an-edge".into(),
        },
        Query::VertexTriangles(v) => prod.vertex_triangles(v).to_string(),
    };
    answer + "\n"
}

/// Answer `q` in process, as the server would, with the wedge checks it
/// made.
///
/// # Errors
///
/// The engine's error, as text.
pub fn engine_answer(engine: &ServeEngine, q: &Query) -> Result<(String, u64), String> {
    let e = |e: kron_serve::ServeError| e.to_string();
    Ok(match *q {
        Query::Degree(v) => (engine.degree(v).map_err(e)?.to_string(), 0),
        Query::HasEdge(u, v) => (engine.has_edge(u, v).map_err(e)?.to_string(), 0),
        Query::Neighbors(v) => {
            let row: Vec<String> = engine
                .neighbors(v)
                .map_err(e)?
                .iter()
                .map(u64::to_string)
                .collect();
            (row.join(" "), 0)
        }
        Query::EdgeTriangles(u, v) => match engine.edge_triangles_with_checks(u, v).map_err(e)? {
            Some((d, checks)) => (d.to_string(), checks),
            None => ("not-an-edge".into(), 0),
        },
        Query::VertexTriangles(v) => {
            let (t, checks) = engine.vertex_triangles_with_checks(v).map_err(e)?;
            (t.to_string(), checks)
        }
    })
    .map(|(a, c)| (a + "\n", c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_seeded() {
        let z = Zipf::new(1000, 1.0, &mut Rng(7));
        let mut rng = Rng(9);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // rank 1 of Zipf(1) over 1000 ids carries ~13% of the mass
        assert!(sorted[0] > 2000, "hottest vertex drew {}", sorted[0]);
        let z2 = Zipf::new(1000, 1.0, &mut Rng(7));
        let (mut a, mut b) = (Rng(3), Rng(3));
        assert!((0..100).all(|_| z.sample(&mut a) == z2.sample(&mut b)));
    }
}
