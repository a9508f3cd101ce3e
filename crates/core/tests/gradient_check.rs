//! Gradient checks of the `mmsb-simd` update kernels against separately
//! written likelihoods, on every backend the host can run.
//!
//! The phi gradient (Eq. 6) is compared with central finite differences
//! of the pair log-likelihood `sum_b log p(y_ab | phi_a, pi_b, beta)`,
//! and the theta gradient (Eq. 4) with finite differences of the pair
//! marginal `log Z(theta)`. Both references are written in the textbook
//! form, independent of the kernels' rearranged algebra. The cases cover
//! community counts whose lane tails differ (`K` in {1, 3, 4, 5, 8}),
//! `phi` entries at `PHI_MIN`, `beta` at `1e-6` and `1 - 1e-6`, and small
//! and large `delta`. Behaviour tests pin what the gradients must do:
//! pull toward linked communities, raise `beta` under repeated links, and
//! reject observations without neighbor rows.

use mmsb_core::kernels::theta::update_theta;
use mmsb_core::PHI_MIN;
use mmsb_rand::dist::Normal;
use mmsb_rand::{Rng, Xoshiro256PlusPlus};
use mmsb_simd::{Backend, PhiScratch, ThetaScratch};

const KS: [usize; 5] = [1, 3, 4, 5, 8];
const DELTAS: [f64; 2] = [1e-6, 0.3];
const NEIGHBORS: usize = 7;

/// Finite differences against the analytic gradients: relative step
/// `1e-6` of the parameter scale, agreement to `1e-5 * (1 + |fd|)`.
const FD_STEP: f64 = 1e-6;
const FD_TOL: f64 = 1e-5;

fn backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

fn simplex(rng: &mut Xoshiro256PlusPlus, k: usize) -> Vec<f32> {
    let raw: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
    let s: f64 = raw.iter().sum();
    raw.iter().map(|&x| (x / s) as f32).collect()
}

/// The `beta` regimes: interior values, and the two extremes alternating.
fn beta_cases(rng: &mut Xoshiro256PlusPlus, k: usize) -> [Vec<f64>; 2] {
    let interior = (0..k).map(|_| 0.05 + 0.9 * rng.next_f64()).collect();
    let extreme = (0..k)
        .map(|c| if c % 2 == 0 { 1e-6 } else { 1.0 - 1e-6 })
        .collect();
    [interior, extreme]
}

/// The `phi` regimes: interior values, and every odd entry at `PHI_MIN`.
fn phi_cases(rng: &mut Xoshiro256PlusPlus, k: usize) -> [Vec<f64>; 2] {
    let interior: Vec<f64> = (0..k).map(|_| 0.1 + rng.next_f64()).collect();
    let at_floor = interior
        .iter()
        .enumerate()
        .map(|(c, &x)| if c % 2 == 1 { PHI_MIN } else { x })
        .collect();
    [interior, at_floor]
}

/// One phi-gradient case: `phi_a`, `beta`, flat neighbor rows (stride
/// `K`), observations, `delta`.
struct PhiCase {
    phi_a: Vec<f64>,
    beta: Vec<f64>,
    rows: Vec<f32>,
    linked: Vec<bool>,
    delta: f64,
}

/// Every combination of `K`, `delta` and one boundary regime at a time
/// (`phi` at the floor with interior `beta`, or extreme `beta` with
/// interior `phi`).
fn phi_case_grid() -> Vec<PhiCase> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let mut cases = Vec::new();
    for &k in &KS {
        for &delta in &DELTAS {
            let [phi_interior, phi_floor] = phi_cases(&mut rng, k);
            let [beta_interior, beta_extreme] = beta_cases(&mut rng, k);
            for (phi_a, beta) in [
                (phi_interior.clone(), beta_interior.clone()),
                (phi_floor, beta_interior),
                (phi_interior, beta_extreme),
            ] {
                let rows = (0..NEIGHBORS).flat_map(|_| simplex(&mut rng, k)).collect();
                let linked = (0..NEIGHBORS).map(|_| rng.coin()).collect();
                cases.push(PhiCase {
                    phi_a,
                    beta,
                    rows,
                    linked,
                    delta,
                });
            }
        }
    }
    cases
}

/// Reference: `sum_b log sum_c pi_ac (p_eq pi_bc + p_ne (1 - pi_bc))`.
fn phi_log_likelihood(case: &PhiCase, phi_a: &[f64]) -> f64 {
    let k = phi_a.len();
    let s: f64 = phi_a.iter().sum();
    let mut total = 0.0;
    for (pi_b, &y) in case.rows.chunks_exact(k).zip(&case.linked) {
        let p_ne = if y { case.delta } else { 1.0 - case.delta };
        let mut z = 0.0;
        for c in 0..k {
            let p_eq = if y { case.beta[c] } else { 1.0 - case.beta[c] };
            let pi_bc = pi_b[c] as f64;
            z += phi_a[c] / s * (p_eq * pi_bc + p_ne * (1.0 - pi_bc));
        }
        total += z.ln();
    }
    total
}

fn phi_gradient(backend: Backend, case: &PhiCase) -> Vec<f64> {
    let k = case.phi_a.len();
    let mut scratch = PhiScratch::new(k);
    let mut grad = vec![f64::NAN; k];
    mmsb_simd::phi_gradient(
        backend,
        &case.phi_a,
        &case.beta,
        &case.rows,
        k,
        &case.linked,
        case.delta,
        &mut scratch,
        &mut grad,
    );
    grad
}

/// One full SGRLD row update (Eq. 5), noise drawn in coordinate order.
fn phi_step(backend: Backend, case: &PhiCase, eps: f64, rng: &mut Xoshiro256PlusPlus) -> Vec<f64> {
    let k = case.phi_a.len();
    let mut out = phi_gradient(backend, case);
    let (u, s): (Vec<f64>, Vec<f64>) = (0..k).map(|_| Normal::standard_accept(rng)).unzip();
    let mut noise = vec![0.0; k];
    mmsb_simd::polar_normal(backend, &u, &s, &mut noise);
    mmsb_simd::sgrld_step(
        backend,
        &case.phi_a,
        &noise,
        0.1,
        0.5 * eps,
        100.0,
        eps.sqrt(),
        PHI_MIN,
        &mut out,
    );
    out
}

#[test]
fn phi_gradient_matches_finite_differences() {
    for backend in backends() {
        for (i, case) in phi_case_grid().iter().enumerate() {
            let grad = phi_gradient(backend, case);
            // The likelihood depends on phi through phi / S, so the step
            // scales with the row sum.
            let h = FD_STEP * case.phi_a.iter().sum::<f64>();
            for c in 0..case.phi_a.len() {
                let mut plus = case.phi_a.clone();
                plus[c] += h;
                let mut minus = case.phi_a.clone();
                minus[c] -= h;
                let fd = (phi_log_likelihood(case, &plus) - phi_log_likelihood(case, &minus))
                    / (2.0 * h);
                assert!(
                    (grad[c] - fd).abs() <= FD_TOL * (1.0 + fd.abs()),
                    "{backend} case {i} (K={}, delta={}) component {c}: analytic {} vs fd {fd}",
                    case.phi_a.len(),
                    case.delta,
                    grad[c]
                );
            }
        }
    }
}

#[test]
fn phi_gradient_matches_two_pass_reference() {
    // The textbook two-pass form `sum_b (f_c / (Z phi_c) - 1/S)`; the
    // kernels' rearranged single pass agrees to the parity bound of the
    // `mmsb-simd` unit suite.
    for backend in backends() {
        for (i, case) in phi_case_grid().iter().enumerate() {
            let k = case.phi_a.len();
            let s: f64 = case.phi_a.iter().sum();
            let mut expect = vec![0.0f64; k];
            for (pi_b, &y) in case.rows.chunks_exact(k).zip(&case.linked) {
                let p_ne = if y { case.delta } else { 1.0 - case.delta };
                let f: Vec<f64> = (0..k)
                    .map(|c| {
                        let p_eq = if y { case.beta[c] } else { 1.0 - case.beta[c] };
                        let pi_bc = pi_b[c] as f64;
                        case.phi_a[c] / s * (p_eq * pi_bc + p_ne * (1.0 - pi_bc))
                    })
                    .collect();
                let z: f64 = f.iter().sum();
                for c in 0..k {
                    expect[c] += f[c] / (z * case.phi_a[c]) - 1.0 / s;
                }
            }
            let grad = phi_gradient(backend, case);
            for c in 0..k {
                assert!(
                    (grad[c] - expect[c]).abs() <= 1e-9 * (1.0 + expect[c].abs()),
                    "{backend} case {i} component {c}: {} vs {}",
                    grad[c],
                    expect[c]
                );
            }
        }
    }
}

#[test]
fn phi_gradient_without_neighbors_is_zero() {
    for backend in backends() {
        for case in phi_case_grid() {
            let empty = PhiCase {
                rows: Vec::new(),
                linked: Vec::new(),
                ..case
            };
            assert!(
                phi_gradient(backend, &empty).iter().all(|&g| g == 0.0),
                "{backend} K={}",
                empty.phi_a.len()
            );
        }
    }
}

#[test]
fn phi_gradient_pulls_toward_linked_communities() {
    // One linked neighbor almost entirely in community 0, equal phi and
    // a high beta everywhere: component 0 must get the largest gradient.
    for backend in backends() {
        for &k in KS.iter().filter(|&&k| k > 1) {
            let mut row = vec![0.02 / (k - 1) as f32; k];
            row[0] = 0.98;
            let case = PhiCase {
                phi_a: vec![1.0; k],
                beta: vec![0.9; k],
                rows: row,
                linked: vec![true],
                delta: 1e-5,
            };
            let grad = phi_gradient(backend, &case);
            for c in 1..k {
                assert!(grad[0] > grad[c], "{backend} K={k}: {grad:?}");
            }
        }
    }
}

#[test]
fn phi_gradient_rejects_observations_without_rows() {
    for backend in backends() {
        let case = PhiCase {
            phi_a: vec![1.0; 4],
            beta: vec![0.5; 4],
            rows: vec![0.25; 3 * 4],
            linked: vec![true; 5],
            delta: 0.01,
        };
        let caught = std::panic::catch_unwind(|| phi_gradient(backend, &case));
        assert!(
            caught.is_err(),
            "{backend} accepted 5 observations over 3 rows"
        );
    }
}

#[test]
fn phi_step_keeps_phi_positive_and_finite() {
    for backend in backends() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for case in phi_case_grid() {
            for _ in 0..20 {
                let out = phi_step(backend, &case, 0.01, &mut rng);
                assert!(
                    out.iter().all(|&x| x >= PHI_MIN && x.is_finite()),
                    "{backend}: {out:?}"
                );
            }
        }
    }
}

#[test]
fn phi_step_is_deterministic_given_rng() {
    for backend in backends() {
        for case in phi_case_grid() {
            let mut r1 = Xoshiro256PlusPlus::seed_from_u64(5);
            let mut r2 = Xoshiro256PlusPlus::seed_from_u64(5);
            let o1 = phi_step(backend, &case, 0.005, &mut r1);
            let o2 = phi_step(backend, &case, 0.005, &mut r2);
            assert_eq!(o1, o2, "{backend}");
        }
    }
}

#[test]
fn zero_step_size_freezes_phi() {
    // With eps = 0 both drift and noise vanish: phi* = phi.
    for backend in backends() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        for case in phi_case_grid() {
            let out = phi_step(backend, &case, 0.0, &mut rng);
            for (a, b) in out.iter().zip(&case.phi_a) {
                assert!((a - b).abs() < 1e-15, "{backend}: {a} vs {b}");
            }
        }
    }
}

/// One theta-gradient case: endpoint rows, observation, `theta`, `delta`.
struct ThetaCase {
    pi_a: Vec<f32>,
    pi_b: Vec<f32>,
    y: bool,
    theta: Vec<f64>,
    delta: f64,
}

fn beta_of(theta: &[f64]) -> Vec<f64> {
    theta
        .chunks_exact(2)
        .map(|t| t[1] / (t[0] + t[1]))
        .collect()
}

/// Every combination of `K`, `delta`, `y` and the `theta` regime
/// (interior, or `beta` alternating at `1e-6` and `1 - 1e-6`).
fn theta_case_grid() -> Vec<ThetaCase> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
    let mut cases = Vec::new();
    for &k in &KS {
        for &delta in &DELTAS {
            for y in [true, false] {
                let interior: Vec<f64> = (0..2 * k).map(|_| 0.5 + 2.0 * rng.next_f64()).collect();
                // beta = t1 / (t0 + t1) = 1e-6 or 1 - 1e-6.
                let extreme: Vec<f64> = (0..k)
                    .flat_map(|c| {
                        if c % 2 == 0 {
                            [1.0, 1e-6 / (1.0 - 1e-6)]
                        } else {
                            [1e-6 / (1.0 - 1e-6), 1.0]
                        }
                    })
                    .collect();
                for theta in [interior, extreme] {
                    cases.push(ThetaCase {
                        pi_a: simplex(&mut rng, k),
                        pi_b: simplex(&mut rng, k),
                        y,
                        theta,
                        delta,
                    });
                }
            }
        }
    }
    cases
}

/// Reference: `log Z` with `Z = sum_c (p_eq pi_ac pi_bc + p_ne pi_ac (1 - pi_bc))`
/// and `beta` recomputed from `theta`.
fn theta_log_z(case: &ThetaCase, theta: &[f64]) -> f64 {
    let p_ne = if case.y { case.delta } else { 1.0 - case.delta };
    let mut z = 0.0;
    for (c, beta_c) in beta_of(theta).into_iter().enumerate() {
        let p_eq = if case.y { beta_c } else { 1.0 - beta_c };
        let pa = case.pi_a[c] as f64;
        let pb = case.pi_b[c] as f64;
        z += p_eq * pa * pb + p_ne * pa * (1.0 - pb);
    }
    z.ln()
}

/// The weighted theta gradient of `repeats` copies of the case's pair.
fn theta_gradient(backend: Backend, case: &ThetaCase, weight: f64, repeats: usize) -> Vec<f64> {
    let k = case.pi_a.len();
    let mut scratch = ThetaScratch::new(k);
    mmsb_simd::theta_chunk_begin(&beta_of(&case.theta), &case.theta, case.delta, &mut scratch);
    for _ in 0..repeats {
        mmsb_simd::theta_accumulate_pair(
            backend,
            &mut scratch,
            &case.pi_a,
            &case.pi_b,
            case.y,
            weight,
        );
    }
    let mut grad = vec![f64::NAN; 2 * k];
    mmsb_simd::theta_chunk_finish(&scratch, &mut grad);
    grad
}

#[test]
fn theta_gradient_matches_finite_differences() {
    for backend in backends() {
        for (i, case) in theta_case_grid().iter().enumerate() {
            let grad = theta_gradient(backend, case, 1.0, 1);
            for j in 0..case.theta.len() {
                // log Z varies on two scales in theta_j: theta_j itself
                // (through a tiny beta or 1 - beta) and the community's
                // sum (through beta's denominator). The step is their
                // geometric mean times FD_STEP: small enough for the
                // first, large enough that Z's rounding stays below the
                // difference for the second.
                let sum = case.theta[j & !1] + case.theta[j | 1];
                let h = FD_STEP * (case.theta[j] * sum).sqrt();
                let mut plus = case.theta.clone();
                plus[j] += h;
                let mut minus = case.theta.clone();
                minus[j] -= h;
                let fd = (theta_log_z(case, &plus) - theta_log_z(case, &minus)) / (2.0 * h);
                assert!(
                    (grad[j] - fd).abs() <= FD_TOL * (1.0 + fd.abs()),
                    "{backend} case {i} (K={}, y={}, delta={}) component {j}: analytic {} vs fd {fd}",
                    case.pi_a.len(),
                    case.y,
                    case.delta,
                    grad[j]
                );
            }
        }
    }
}

#[test]
fn theta_gradient_scales_linearly_with_weight() {
    for backend in backends() {
        for case in theta_case_grid() {
            let unit = theta_gradient(backend, &case, 1.0, 1);
            let scaled = theta_gradient(backend, &case, 5.0, 1);
            for (u, s) in unit.iter().zip(&scaled) {
                assert!(
                    (5.0 * u - s).abs() <= 1e-12 * (1.0 + s.abs()),
                    "{backend}: {u} vs {s}"
                );
            }
        }
    }
}

#[test]
fn theta_gradient_accumulates_across_pairs() {
    for backend in backends() {
        for case in theta_case_grid() {
            let once = theta_gradient(backend, &case, 1.0, 1);
            let twice = theta_gradient(backend, &case, 1.0, 2);
            for (o, t) in once.iter().zip(&twice) {
                assert!(
                    (2.0 * o - t).abs() <= 1e-12 * (1.0 + t.abs()),
                    "{backend}: {o} vs {t}"
                );
            }
        }
    }
}

#[test]
fn beta_rises_under_repeated_links() {
    // Many positive updates on a linked pair concentrated in community 0
    // must grow beta_0.
    for backend in backends() {
        let mut case = ThetaCase {
            pi_a: vec![0.95, 0.05],
            pi_b: vec![0.95, 0.05],
            y: true,
            theta: vec![1.0; 4],
            delta: 1e-5,
        };
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..300 {
            let grad = theta_gradient(backend, &case, 1.0, 1);
            update_theta(&mut case.theta, &grad, 50.0, (1.0, 1.0), 0.005, &mut rng);
        }
        let beta0 = beta_of(&case.theta)[0];
        assert!(beta0 > 0.7, "{backend}: beta0 = {beta0}");
    }
}
