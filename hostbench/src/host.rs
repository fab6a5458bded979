//! Roofline context: what this host does on the kernel's inner loop
//! shape (i16 × i16 products summed in i64) and on a large copy, so a slow
//! host can be told from a slow kernel.

use crate::stats::{median, secs};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;

/// Multiply-accumulates per second of an L1-resident i16 dot product into
/// an i64 accumulator, in GMAC/s.
pub fn i64_mac_gmac_per_s() -> f64 {
    const LEN: usize = 4096;
    const PASSES: usize = 2000;
    let a: Vec<i16> = (0..LEN).map(|i| ((i * 37) % 2001) as i16 - 1000).collect();
    let b: Vec<i16> = (0..LEN).map(|i| ((i * 91) % 1999) as i16 - 999).collect();
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0i64;
            for _ in 0..PASSES {
                let (a, b) = (black_box(&a), black_box(&b));
                for (x, y) in a.iter().zip(b) {
                    acc += i64::from(*x) * i64::from(*y);
                }
            }
            black_box(acc);
            (LEN * PASSES) as f64 / secs(t, Instant::now()) / 1e9
        })
        .collect();
    median(&rates)
}

/// Bytes per second of a 16 MiB `copy_from_slice`, in GB/s.
pub fn copy_gb_per_s() -> f64 {
    const BYTES: usize = 16 << 20;
    let src = vec![7u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            BYTES as f64 / secs(t, Instant::now()) / 1e9
        })
        .collect();
    median(&rates)
}
