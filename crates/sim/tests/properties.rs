//! Property-style tests of the simulation kernel: the determinism and
//! ordering guarantees every experiment in this repository rests on.
//!
//! The offline build has no proptest, so cases are generated from the
//! crate's own seeded [`DetRng`] — many random instances per property,
//! fully reproducible from the literal seeds below.

use reset_sim::{DetRng, SimTime, Simulator};

const CASES: u64 = 64;

/// Events always come out in non-decreasing time order, with FIFO
/// tie-breaks for equal timestamps.
#[test]
fn events_delivered_in_order() {
    let mut gen = DetRng::new(0x5EED_0001);
    for case in 0..CASES {
        let n = 1 + gen.below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| gen.below(10_000)).collect();
        let mut sim = Simulator::new(0);
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut prev_t = None;
        let mut delivered = 0;
        while let Some((t, idx)) = sim.next_event() {
            delivered += 1;
            assert!(t >= last_time, "case {case}: time went backwards");
            if prev_t == Some(t) {
                // FIFO among equal timestamps: scheduling index increases.
                assert!(
                    seen_at_time.last().is_none_or(|&p| p < idx),
                    "case {case}: FIFO violated at {t}"
                );
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            prev_t = Some(t);
            last_time = t;
        }
        assert_eq!(delivered, times.len());
    }
}

/// The same seed yields bit-identical random streams; different seeds
/// diverge quickly.
#[test]
fn rng_determinism() {
    let mut gen = DetRng::new(0x5EED_0003);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(seed.wrapping_add(1));
        let matches = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(matches < 8, "distinct seeds should diverge");
    }
}

/// Bounded generation never exceeds the bound.
#[test]
fn below_stays_in_bounds() {
    let mut gen = DetRng::new(0x5EED_0004);
    for _ in 0..CASES {
        let seed = gen.next_u64();
        let bound = 1 + gen.below(999);
        let mut rng = DetRng::new(seed);
        for _ in 0..500 {
            assert!(rng.below(bound) < bound);
        }
    }
}

/// Forked streams never mirror their parent.
#[test]
fn forked_streams_independent() {
    let mut gen = DetRng::new(0x5EED_0005);
    for _ in 0..CASES {
        let mut parent = DetRng::new(gen.next_u64());
        let mut child = parent.fork();
        let matches = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(matches < 8);
    }
}
