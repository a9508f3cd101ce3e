//! The global-parameter update (Eq. 3): SGRLD step on `theta`. The
//! gradient it consumes (Eq. 4) is accumulated by the `mmsb-simd` theta
//! kernel on every backend.

use crate::state::PHI_MIN;
use mmsb_rand::dist::Normal;
use mmsb_rand::RngCore;

/// One full SGRLD step (Eq. 3) on `theta` given the accumulated mini-batch
/// gradient and the batch scale `h(E_n)`. Updates `theta` in place; the
/// caller recomputes `beta` afterwards.
pub fn update_theta<R: RngCore>(
    theta: &mut [f64],
    grad: &[f64],
    h_scale: f64,
    eta: (f64, f64),
    eps: f64,
    rng: &mut R,
) {
    assert_eq!(theta.len(), grad.len(), "gradient/theta length mismatch");
    assert_eq!(theta.len() % 2, 0, "theta must be K x 2");
    let half_eps = 0.5 * eps;
    let noise_scale = eps.sqrt();
    for (j, t) in theta.iter_mut().enumerate() {
        let prior = if j % 2 == 0 { eta.0 } else { eta.1 };
        let drift = half_eps * (prior - *t + h_scale * grad[j]);
        let noise = t.sqrt() * noise_scale * Normal::standard_sample(rng);
        let next = (*t + drift + noise).abs();
        debug_assert!(next.is_finite(), "theta update produced {next}");
        *t = next.max(PHI_MIN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::Xoshiro256PlusPlus;

    #[test]
    fn update_keeps_theta_positive() {
        let mut theta = vec![0.001, 2.0, 5.0, 0.01];
        let grad = vec![-100.0, 100.0, -5.0, 3.0];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        for _ in 0..100 {
            update_theta(&mut theta, &grad, 10.0, (1.0, 1.0), 0.01, &mut rng);
            assert!(theta.iter().all(|&t| t >= PHI_MIN && t.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn update_rejects_mismatched_grad() {
        let mut theta = vec![1.0, 1.0];
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        update_theta(&mut theta, &[0.0], 1.0, (1.0, 1.0), 0.01, &mut rng);
    }

    #[test]
    fn deterministic_given_rng() {
        let mut t1 = vec![1.0, 2.0];
        let mut t2 = vec![1.0, 2.0];
        let grad = vec![0.5, -0.5];
        let mut r1 = Xoshiro256PlusPlus::seed_from_u64(4);
        let mut r2 = Xoshiro256PlusPlus::seed_from_u64(4);
        update_theta(&mut t1, &grad, 2.0, (1.0, 1.0), 0.01, &mut r1);
        update_theta(&mut t2, &grad, 2.0, (1.0, 1.0), 0.01, &mut r2);
        assert_eq!(t1, t2);
    }
}
