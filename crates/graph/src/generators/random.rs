//! Random graph models: Erdős–Rényi `G(n,p)`, the Configuration Model and the
//! Chung–Lu model.
//!
//! The paper (Section 1) cites [19] for the fact that Configuration-Model and
//! Chung–Lu graphs with specified asymptotic degree sequences are
//! asymptotically almost surely contained in a bounded expansion class; these
//! generators realise exactly those models with truncated power-law
//! sequences. `G(n,p)` with growing average degree serves as a *negative*
//! control: it is not of bounded expansion and the constant-factor behaviour
//! of the algorithms is expected to degrade on it.

use super::rng_from_seed;
use crate::graph::{Graph, GraphBuilder, Vertex};

/// Erdős–Rényi `G(n, p)`. Uses the geometric skip sampling trick so the
/// running time is proportional to the number of generated edges rather than
/// `n²`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let n = n.max(1);
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    let mut rng = rng_from_seed(seed);
    if p >= 1.0 {
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                b.add_edge(u, v);
            }
        }
        return b.build();
    }
    // Iterate over the upper triangle with geometric jumps.
    let log_q = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    while (v as usize) < n {
        let r: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while w >= v && (v as usize) < n {
            w -= v;
            v += 1;
        }
        if (v as usize) < n {
            b.add_edge(w as Vertex, v as Vertex);
        }
    }
    b.build()
}

/// `G(n, p)` parameterised by target average degree `d` (so `p = d/(n-1)`).
pub fn gnp_with_average_degree(n: usize, d: f64, seed: u64) -> Graph {
    let n = n.max(2);
    let p = (d / (n as f64 - 1.0)).clamp(0.0, 1.0);
    gnp(n, p, seed)
}

/// Samples a truncated power-law degree sequence with exponent `gamma`,
/// minimum degree `min_deg` and maximum degree `max_deg`, adjusted to have an
/// even sum (required by the configuration model).
pub fn power_law_degree_sequence(
    n: usize,
    gamma: f64,
    min_deg: usize,
    max_deg: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(min_deg >= 1 && max_deg >= min_deg);
    let mut rng = rng_from_seed(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Inverse-CDF sampling of P(k) ∝ k^(-gamma) over {min_deg, …, max_deg}.
    let weights: Vec<f64> = (min_deg..=max_deg)
        .map(|k| (k as f64).powf(-gamma))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| {
            let u = rng.gen_f64();
            let idx = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            min_deg + idx
        })
        .collect();
    if degrees.iter().sum::<usize>() % 2 == 1 {
        // Fix parity by bumping one vertex (staying within the cap).
        if let Some(d) = degrees.iter_mut().find(|d| **d < max_deg) {
            *d += 1;
        } else {
            degrees[0] -= 1;
        }
    }
    degrees
}

/// Configuration model: takes a degree sequence, creates that many half-edge
/// "stubs" per vertex, and matches stubs uniformly at random. Self-loops and
/// multi-edges produced by the matching are discarded (the standard "erased"
/// configuration model), which changes degrees only by lower-order terms.
pub fn configuration_model(degrees: &[usize], seed: u64) -> Graph {
    let n = degrees.len();
    let mut rng = rng_from_seed(seed);
    let mut stubs: Vec<Vertex> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        for _ in 0..d {
            stubs.push(v as Vertex);
        }
    }
    rng.shuffle(&mut stubs);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        // The builder drops self-loops and duplicate edges, implementing the
        // erased configuration model.
        b.add_edge(pair[0], pair[1]);
    }
    b.build()
}

/// Configuration model with a truncated power-law degree sequence — the
/// "scale-free but bounded expansion" family from \[19\] as cited by the paper.
pub fn configuration_model_power_law(
    n: usize,
    gamma: f64,
    min_deg: usize,
    max_deg: usize,
    seed: u64,
) -> Graph {
    let degrees = power_law_degree_sequence(n, gamma, min_deg, max_deg, seed);
    configuration_model(&degrees, seed)
}

/// Chung–Lu model: each vertex `v` has a weight `w_v`; edge `{u,v}` appears
/// independently with probability `min(1, w_u w_v / Σw)`. Implemented with
/// the efficient "Miller–Hagberg" style bucketed procedure restricted to a
/// direct double loop over weight-sorted prefixes with geometric skips, which
/// is near-linear for bounded weight sums.
fn chung_lu(weights: &[f64], seed: u64) -> Graph {
    let n = weights.len();
    let mut rng = rng_from_seed(seed);
    let total: f64 = weights.iter().sum();
    let mut b = GraphBuilder::new(n);
    if total <= 0.0 || n < 2 {
        return b.build();
    }
    // Sort vertices by decreasing weight; within the loop for vertex u we skip
    // geometrically using the maximum remaining probability, then accept with
    // the exact ratio — the standard near-linear Chung–Lu sampler.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
    let w: Vec<f64> = order.iter().map(|&i| weights[i]).collect();
    for i in 0..n - 1 {
        let mut j = i + 1;
        let mut p = (w[i] * w[j] / total).min(1.0);
        while j < n && p > 0.0 {
            if p < 1.0 {
                let r: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / (1.0 - p).ln()).floor() as usize;
                j += skip;
            }
            if j >= n {
                break;
            }
            let q = (w[i] * w[j] / total).min(1.0);
            if rng.gen_f64() < q / p {
                b.add_edge(order[i] as Vertex, order[j] as Vertex);
            }
            p = q;
            j += 1;
        }
    }
    b.build()
}

/// Chung–Lu with truncated power-law weights in `[min_w, max_w]`.
pub fn chung_lu_power_law(n: usize, gamma: f64, min_w: f64, max_w: f64, seed: u64) -> Graph {
    let n = n.max(2);
    let mut rng = rng_from_seed(seed ^ 0x5bd1_e995);
    // Inverse-CDF sample of a continuous truncated Pareto distribution.
    let a = 1.0 - gamma;
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u = rng.gen_f64();
            if (a).abs() < 1e-9 {
                (min_w.ln() + u * (max_w.ln() - min_w.ln())).exp()
            } else {
                let lo = min_w.powf(a);
                let hi = max_w.powf(a);
                (lo + u * (hi - lo)).powf(1.0 / a)
            }
        })
        .collect();
    chung_lu(&weights, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_edge_count_close_to_expectation() {
        let n = 2000;
        let p = 0.004;
        let g = gnp(n, p, 123);
        let expected = p * (n as f64) * (n as f64 - 1.0) / 2.0;
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 0.25 * expected,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let g0 = gnp(50, 0.0, 1);
        assert_eq!(g0.num_edges(), 0);
        let g1 = gnp(20, 1.0, 1);
        assert_eq!(g1.num_edges(), 20 * 19 / 2);
        let tiny = gnp(1, 0.5, 1);
        assert_eq!(tiny.num_edges(), 0);
    }

    #[test]
    fn gnp_average_degree_parameterisation() {
        let g = gnp_with_average_degree(3000, 6.0, 7);
        let avg = g.average_degree();
        assert!((avg - 6.0).abs() < 1.0, "avg = {avg}");
    }

    #[test]
    fn power_law_sequence_within_bounds_and_even() {
        let degs = power_law_degree_sequence(501, 2.5, 2, 10, 3);
        assert_eq!(degs.len(), 501);
        assert!(degs.iter().all(|&d| (2..=10).contains(&d) || d == 1));
        assert_eq!(degs.iter().sum::<usize>() % 2, 0);
        // Power law: small degrees dominate.
        let twos = degs.iter().filter(|&&d| d == 2).count();
        let tens = degs.iter().filter(|&&d| d == 10).count();
        assert!(twos > tens);
    }

    #[test]
    fn configuration_model_degrees_close_to_prescribed() {
        let degrees = vec![3usize; 400];
        let g = configuration_model(&degrees, 17);
        assert_eq!(g.num_vertices(), 400);
        // Erased model: most vertices keep their degree.
        let exact = g.vertices().filter(|&v| g.degree(v) == 3).count();
        assert!(exact > 350, "only {exact} vertices kept degree 3");
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn chung_lu_respects_expected_density() {
        let weights = vec![4.0; 1000];
        let g = chung_lu(&weights, 5);
        // Expected edges ≈ n²w²/(2·nw) = nw/2 = 2000.
        let m = g.num_edges() as f64;
        assert!((m - 2000.0).abs() < 400.0, "m = {m}");
    }

    #[test]
    fn chung_lu_power_law_is_sparse() {
        let g = chung_lu_power_law(2000, 2.5, 2.0, 14.0, 9);
        assert!(g.average_degree() < 12.0);
        assert!(g.num_edges() > 1000);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gnp(300, 0.01, 4), gnp(300, 0.01, 4));
        assert_eq!(
            configuration_model_power_law(300, 2.5, 2, 8, 4),
            configuration_model_power_law(300, 2.5, 2, 8, 4)
        );
        assert_eq!(
            chung_lu_power_law(300, 2.5, 2.0, 10.0, 4),
            chung_lu_power_law(300, 2.5, 2.0, 10.0, 4)
        );
    }
}
