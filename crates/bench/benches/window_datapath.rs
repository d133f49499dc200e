//! Bench: anti-replay window datapath throughput.
//!
//! The per-packet cost of the §2 receiver — check + accept — across
//! window sizes and traffic patterns (in-order, in-window reorder, full
//! replay). Regenerates the datapath side of the paper's premise that the
//! window check is negligible next to a 4 µs message time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use anti_replay::{AntiReplayWindow, SeqNum};
use reset_sim::DetRng;

fn bench_in_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("window/in_order");
    for &w in &[32u64, 64, 256, 1024] {
        g.throughput(Throughput::Elements(10_000));
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                let mut win = AntiReplayWindow::new(w);
                for s in 1..=10_000u64 {
                    std::hint::black_box(win.check_and_accept(SeqNum::new(s)));
                }
                win
            })
        });
    }
    g.finish();
}

fn bench_reordered(c: &mut Criterion) {
    let mut g = c.benchmark_group("window/reordered");
    for &w in &[64u64, 1024] {
        // Pre-generate a stream shuffled within half-window chunks so
        // every arrival stays in-window (reorder degree < w).
        let mut rng = DetRng::new(9);
        let mut seqs: Vec<u64> = (1..=10_000u64).collect();
        for chunk in seqs.chunks_mut((w as usize / 2).max(2)) {
            rng.shuffle(chunk);
        }
        g.throughput(Throughput::Elements(seqs.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(w), &seqs, |b, seqs| {
            b.iter(|| {
                let mut win = AntiReplayWindow::new(w);
                for &s in seqs {
                    std::hint::black_box(win.check_and_accept(SeqNum::new(s)));
                }
                win
            })
        });
    }
    g.finish();
}

fn bench_replay_storm(c: &mut Criterion) {
    // Worst case for the defender: every packet is a replay (pure
    // rejection path, no window mutation).
    let mut g = c.benchmark_group("window/replay_storm");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("w=64", |b| {
        let mut win = AntiReplayWindow::new(64);
        for s in 1..=100u64 {
            win.check_and_accept(SeqNum::new(s));
        }
        b.iter(|| {
            for s in 1..=10_000u64 {
                std::hint::black_box(win.check(SeqNum::new(s % 100 + 1)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_in_order, bench_reordered, bench_replay_storm);
criterion_main!(benches);
