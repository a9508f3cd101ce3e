//! Micro-benches for the numerical kernels — the measured counterparts
//! of the per-phase numbers in Figure 1 and Table III. Runs on the
//! in-tree timing harness (`mmsb_bench::timing`).

use mmsb::core::kernels::theta::update_theta;
use mmsb::core::PHI_MIN;
use mmsb::prelude::*;
use mmsb::rand::dist::Normal;
use mmsb_bench::timing::{black_box, Suite};
use mmsb_simd::{PhiScratch, ThetaScratch};

fn simplex_row(rng: &mut Xoshiro256PlusPlus, k: usize) -> Vec<f32> {
    let raw: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
    let s: f64 = raw.iter().sum();
    raw.iter().map(|&x| (x / s) as f32).collect()
}

/// The scalar (width-1 lane emulation) backend and the widest one this
/// host runs, once each.
fn backends() -> Vec<Backend> {
    let mut out = vec![Backend::Scalar];
    if Backend::detect() != Backend::Scalar {
        out.push(Backend::detect());
    }
    out
}

/// One full SGRLD row update: gradient, coordinate-order polar noise,
/// vectorized finish — the sequence the samplers run per vertex.
fn bench_update_phi(suite: &mut Suite, backend: Backend) {
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let n_neighbors = 32;
        let phi_a: Vec<f64> = (0..k).map(|_| 0.1 + rng.next_f64()).collect();
        let beta: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.next_f64()).collect();
        let rows: Vec<f32> = (0..n_neighbors)
            .flat_map(|_| simplex_row(&mut rng, k))
            .collect();
        let linked: Vec<bool> = (0..n_neighbors).map(|_| rng.coin()).collect();
        let (alpha, eps) = (1.0 / k as f64, 0.01);
        let mut scratch = PhiScratch::new(k);
        let (mut u, mut s, mut noise) = (vec![0.0f64; k], vec![0.0f64; k], vec![0.0f64; k]);
        let mut out = vec![0.0f64; k];
        suite.bench(&format!("update_phi_row/{backend}/{k}"), || {
            mmsb_simd::phi_gradient(
                backend,
                black_box(&phi_a),
                black_box(&beta),
                &rows,
                k,
                &linked,
                1e-5,
                &mut scratch,
                &mut out,
            );
            for c in 0..k {
                (u[c], s[c]) = Normal::standard_accept(&mut rng);
            }
            mmsb_simd::polar_normal(backend, &u, &s, &mut noise);
            mmsb_simd::sgrld_step(
                backend,
                &phi_a,
                &noise,
                alpha,
                0.5 * eps,
                100.0,
                eps.sqrt(),
                PHI_MIN,
                &mut out,
            );
            black_box(&out);
        });
    }
}

fn bench_theta(suite: &mut Suite, backend: Backend) {
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let pi_a = simplex_row(&mut rng, k);
        let pi_b = simplex_row(&mut rng, k);
        let theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + rng.next_f64()).collect();
        let beta: Vec<f64> = (0..k)
            .map(|c| theta[2 * c + 1] / (theta[2 * c] + theta[2 * c + 1]))
            .collect();
        let mut scratch = ThetaScratch::new(k);
        mmsb_simd::theta_chunk_begin(&beta, &theta, 1e-5, &mut scratch);
        suite.bench(&format!("theta/gradient_pair/{backend}/{k}"), || {
            mmsb_simd::theta_accumulate_pair(
                backend,
                &mut scratch,
                black_box(&pi_a),
                black_box(&pi_b),
                true,
                100.0,
            );
            black_box(&scratch);
        });
    }
}

/// The theta SGRLD step; backend-independent.
fn bench_theta_update(suite: &mut Suite) {
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut theta: Vec<f64> = (0..2 * k).map(|_| 0.5 + rng.next_f64()).collect();
        let grad: Vec<f64> = (0..2 * k).map(|_| rng.next_f64() - 0.5).collect();
        suite.bench(&format!("theta/update/{k}"), || {
            update_theta(&mut theta, &grad, 1.0, (1.0, 1.0), 0.001, &mut rng);
            black_box(&theta);
        });
    }
}

fn bench_perplexity(suite: &mut Suite) {
    for k in [16usize, 64, 256] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let pi_a = simplex_row(&mut rng, k);
        let pi_b = simplex_row(&mut rng, k);
        let beta: Vec<f64> = (0..k).map(|_| rng.next_f64()).collect();
        suite.bench(&format!("link_probability/{k}"), || {
            black_box(link_probability(
                black_box(&pi_a),
                black_box(&pi_b),
                &beta,
                1e-5,
                true,
            ))
        });
    }
}

fn main() {
    let mut suite = Suite::from_args("kernels");
    for backend in backends() {
        bench_update_phi(&mut suite, backend);
        bench_theta(&mut suite, backend);
    }
    bench_theta_update(&mut suite);
    bench_perplexity(&mut suite);
    suite.finish();
}
