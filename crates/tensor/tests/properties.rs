//! Property-style tests for the linear-algebra substrate, exercised over
//! seeded deterministic sampling loops (the container has no `proptest`).

use nfm_tensor::activation::{sigmoid, softmax, tanh, Activation};
use nfm_tensor::matrix::Matrix;
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::stats::Histogram;
use nfm_tensor::vector::{dot, Vector};

fn vec_f32(rng: &mut DeterministicRng, len: usize, low: f32, high: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(low, high)).collect()
}

#[test]
fn dot_product_is_commutative_and_linear() {
    let mut rng = DeterministicRng::seed_from_u64(20);
    for _ in 0..96 {
        let len = 1 + rng.index(63);
        let a = vec_f32(&mut rng, len, -10.0, 10.0);
        let b = vec_f32(&mut rng, len, -10.0, 10.0);
        let k = rng.uniform(-4.0, 4.0);
        let ab = dot(&a, &b).unwrap();
        let ba = dot(&b, &a).unwrap();
        assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
        let ka: Vec<f32> = a.iter().map(|x| x * k).collect();
        let kab = dot(&ka, &b).unwrap();
        assert!((kab - k * ab).abs() <= 1e-2 * (1.0 + (k * ab).abs()));
    }
}

#[test]
fn matvec_is_linear_in_the_vector() {
    let mut outer = DeterministicRng::seed_from_u64(21);
    for _ in 0..96 {
        let rows = 1 + outer.index(7);
        let cols = 1 + outer.index(7);
        let seed = outer.index(1000) as u64;
        let k = outer.uniform(-3.0, 3.0);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let m = nfm_tensor::init::Initializer::XavierUniform.matrix(&mut rng, rows, cols);
        let x = Vector::from_fn(cols, |_| rng.uniform(-1.0, 1.0));
        let y = m.matvec(&x).unwrap();
        let ky = m.matvec(&x.scale(k)).unwrap();
        for i in 0..rows {
            assert!((ky[i] - k * y[i]).abs() < 1e-3);
        }
    }
}

#[test]
fn transpose_is_an_involution() {
    let mut outer = DeterministicRng::seed_from_u64(22);
    for _ in 0..96 {
        let rows = 1 + outer.index(5);
        let cols = 1 + outer.index(5);
        let seed = outer.index(100) as u64;
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let m = Matrix::from_fn(rows, cols, |_, _| rng.uniform(-5.0, 5.0));
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn add_is_elementwise() {
    let mut rng = DeterministicRng::seed_from_u64(23);
    for _ in 0..96 {
        let len = 1 + rng.index(31);
        let a = Vector::from(vec_f32(&mut rng, len, -5.0, 5.0));
        let b = Vector::from(vec_f32(&mut rng, len, -5.0, 5.0));
        let s = a.add(&b).unwrap();
        for i in 0..a.len() {
            assert_eq!(s[i], a[i] + b[i]);
        }
    }
}

#[test]
fn sigmoid_and_tanh_are_monotone_and_bounded() {
    let mut rng = DeterministicRng::seed_from_u64(24);
    for _ in 0..256 {
        let a = rng.uniform(-30.0, 30.0);
        let b = rng.uniform(-30.0, 30.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(sigmoid(lo) <= sigmoid(hi) + 1e-6);
        assert!(tanh(lo) <= tanh(hi) + 1e-6);
        assert!((0.0..=1.0).contains(&sigmoid(a)));
        assert!(tanh(a).abs() <= 1.0);
        assert!((0.0..=1.0).contains(&Activation::HardSigmoid.apply(a)));
    }
}

#[test]
fn softmax_is_a_distribution() {
    let mut rng = DeterministicRng::seed_from_u64(25);
    for _ in 0..96 {
        let len = 1 + rng.index(15);
        let values = vec_f32(&mut rng, len, -20.0, 20.0);
        let p = softmax(&values);
        assert_eq!(p.len(), values.len());
        assert!(p.iter().all(|&v| v >= 0.0));
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}

#[test]
fn histogram_conserves_samples() {
    let mut rng = DeterministicRng::seed_from_u64(29);
    for _ in 0..96 {
        let len = rng.index(128);
        let values = vec_f32(&mut rng, len, -2.0, 2.0);
        let mut h = Histogram::new(-1.0, 1.0, 8).unwrap();
        h.extend(values.iter().copied());
        let binned: u64 = h.counts().iter().sum();
        let (below, above) = h.out_of_range();
        assert_eq!(binned + below + above, values.len() as u64);
        assert_eq!(h.total(), values.len() as u64);
    }
}
