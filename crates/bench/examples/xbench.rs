//! Crypto microbenchmarks, one line per kernel and per layer: the field
//! operations, scalar reduction, the fixed-base comb, the variable-time
//! double-scalar multiply, the X25519 ladder, and the signature operations
//! built on them. These per-operation costs set the floor for attestation
//! throughput (`attestation_service_stats`) and fleet latency
//! (`fleet_stats`, `perfbench --workload fleet_closed`).
//!
//! Run with:
//! `cargo run --release -p sanctorum-bench --example xbench`

use sanctorum_crypto::ed25519::{verify_batch, EdwardsPoint, Keypair, PublicKey, Signature};
use sanctorum_crypto::field::FieldElement;
use sanctorum_crypto::scalar::Scalar;
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_crypto::x25519;
use std::hint::black_box;
use std::time::Instant;

/// Times `n` calls of `op` and prints the mean cost per call, in
/// nanoseconds for the field and scalar kernels and microseconds for the rest.
fn report(label: &str, n: u32, nanos: bool, mut op: impl FnMut(u32)) {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    if nanos {
        println!("{label:<34} {ns:>8.1} ns/op");
    } else {
        println!("{label:<34} {:>8.1} us/op", ns / 1000.0);
    }
}

/// A binary field operation under test.
type FieldOp = fn(FieldElement, FieldElement) -> FieldElement;

/// `s·B + k·A` with public scalars: the multiply inside single verify.
fn double_scalar_mul(s: &Scalar, k: &Scalar, a: &EdwardsPoint) -> EdwardsPoint {
    EdwardsPoint::vartime_multiscalar_mul(s, &[(*k, *a)])
}

fn main() {
    let fe = |seed: u8| FieldElement::from_bytes(&[seed; 32]).square();
    let (a, b) = (fe(3), fe(5));
    let field_ops: [(&str, FieldOp); 4] = [
        ("field mul:", |x, y| x * y),
        ("field square:", |x, _| x.square()),
        ("field add:", |x, y| x + y),
        ("field sub:", |x, y| x - y),
    ];
    for (label, op) in field_ops {
        report(label, 2_000_000, true, |_| {
            black_box(op(black_box(a), black_box(b)));
        });
    }

    let wide: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(151).wrapping_add(7));
    report("scalar reduce (64 B mod l):", 200_000, true, |i| {
        let mut w = wide;
        w[0] = i as u8;
        black_box(Scalar::from_bytes_mod_order(black_box(&w)));
    });
    let scalars: Vec<Scalar> = (0..64u8)
        .map(|i| Scalar::from_bytes_mod_order(&[i.wrapping_mul(37) ^ 0x5a; 64]))
        .collect();
    report("basepoint_mul (comb):", 5_000, false, |i| {
        black_box(EdwardsPoint::basepoint_mul(&scalars[i as usize % 64]));
    });
    let point = EdwardsPoint::basepoint_mul(&scalars[1]);
    report("double-scalar mul (verify's):", 2_000, false, |i| {
        let s = &scalars[i as usize % 64];
        black_box(double_scalar_mul(
            s,
            &scalars[(i as usize + 7) % 64],
            &point,
        ));
    });

    let secret = x25519::clamp_scalar([0x11; 32]);
    let peer = x25519::public_key(&[0x22; 32]);
    report("x25519 shared_secret (ladder):", 2_000, false, |_| {
        black_box(x25519::shared_secret(&secret, black_box(&peer)));
    });
    report("x25519 public_key (comb):", 2_000, false, |i| {
        black_box(x25519::public_key(&[i as u8; 32]));
    });

    let msg = [0u8; 64];
    report("sha3-256 (64 B):", 20_000, false, |_| {
        black_box(Sha3_256::digest(black_box(&msg)));
    });

    let kp = Keypair::from_seed([7u8; 32]);
    let sig = kp.sign(&msg);
    report("ed25519 verify (single):", 1_000, false, |_| {
        assert!(kp.public().verify(&msg, &sig));
    });
    report("ed25519 sign:", 1_000, false, |i| {
        black_box(kp.sign(&[i as u8; 64]));
    });
    report("ed25519 from_seed + sign:", 200, false, |i| {
        black_box(Keypair::from_seed([i as u8; 32]).sign(&msg));
    });

    for batch_size in [4usize, 8, 16] {
        let keys: Vec<Keypair> = (0..batch_size)
            .map(|i| Keypair::from_seed([i as u8 + 1; 32]))
            .collect();
        let messages: Vec<Vec<u8>> = (0..batch_size)
            .map(|i| format!("attestation report {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..batch_size)
            .map(|i| (keys[i].public(), messages[i].as_slice(), &sigs[i]))
            .collect();
        let rounds = 200u32;
        let t = Instant::now();
        for _ in 0..rounds {
            assert!(verify_batch(&batch));
        }
        let per_sig = t.elapsed().as_micros() as f64 / (rounds as usize * batch_size) as f64;
        println!(
            "{:<34} {per_sig:>8.1} us/sig",
            format!("ed25519 verify (batch of {batch_size:>2}):")
        );
    }
}
