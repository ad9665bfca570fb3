//! The persistent pool behind `spark_util::par`: parallel results equal
//! sequential ones at every length, nested calls complete in order, and a
//! panicking chunk reaches its caller without taking the pool down.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use spark_util::par::{join, par_chunks_mut, par_map, thread_count};

const LENGTHS: [usize; 7] = [0, 1, 2, 3, 7, 33, 100_003];

fn weight(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ x
}

#[test]
fn par_map_equals_sequential_at_every_length() {
    for len in LENGTHS {
        let items: Vec<u64> = (0..len as u64).collect();
        let want: Vec<u64> = items.iter().map(|&x| weight(x)).collect();
        assert_eq!(par_map(&items, |&x| weight(x)), want, "len {len}");
    }
}

#[test]
fn par_chunks_mut_equals_sequential_at_every_length() {
    for len in LENGTHS {
        let want: Vec<u64> = (0..len as u64).map(weight).collect();
        for chunk_len in [1, 2, 5, len.div_ceil(thread_count()).max(1)] {
            let mut got = vec![0u64; len];
            par_chunks_mut(&mut got, chunk_len, |ci, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = weight((ci * chunk_len + off) as u64);
                }
            });
            assert_eq!(got, want, "len {len}, chunk_len {chunk_len}");
        }
    }
}

#[test]
fn join_equals_sequential_at_every_length() {
    for len in LENGTHS {
        let items: Vec<u64> = (0..len as u64).collect();
        let (sum, mapped) = join(
            || items.iter().map(|&x| weight(x)).fold(0u64, u64::wrapping_add),
            || items.iter().rev().map(|&x| weight(x)).collect::<Vec<_>>(),
        );
        assert_eq!(sum, items.iter().map(|&x| weight(x)).fold(0u64, u64::wrapping_add));
        assert_eq!(mapped, items.iter().rev().map(|&x| weight(x)).collect::<Vec<_>>());
    }
}

#[test]
fn par_map_nested_three_deep_completes_in_order() {
    let outer: Vec<u64> = (0..5).collect();
    let got = par_map(&outer, |&a| {
        let mid: Vec<u64> = (0..4).collect();
        par_map(&mid, |&b| {
            let inner: Vec<u64> = (0..3).collect();
            par_map(&inner, |&c| a * 100 + b * 10 + c)
        })
    });
    let want: Vec<Vec<Vec<u64>>> = (0..5)
        .map(|a| (0..4).map(|b| (0..3).map(|c| a * 100 + b * 10 + c).collect()).collect())
        .collect();
    assert_eq!(got, want);
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[test]
fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
    let items: Vec<u64> = (0..64).collect();
    for round in 0..8 {
        // The panic sits in the last chunk, which a pool worker claims
        // whenever one wakes before the caller reaches it.
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 63, "chunk boom");
                x
            })
        }))
        .expect_err("the chunk's panic must reach the caller");
        assert_eq!(message(&*err), Some("chunk boom"), "round {round}");

        let err = catch_unwind(AssertUnwindSafe(|| join(|| 1, || -> u32 { panic!("join boom") })))
            .expect_err("join's second closure panicked");
        assert_eq!(message(&*err), Some("join boom"));

        let mut data = vec![0u8; 64];
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut data, 8, |ci, _| assert!(ci != 7, "chunks boom"));
        }))
        .expect_err("the last chunk panicked");
        assert_eq!(message(&*err), Some("chunks boom"));

        // The next call still runs every chunk.
        assert_eq!(par_map(&items, |&x| x + 1), (1..=64).collect::<Vec<u64>>());
    }
}
