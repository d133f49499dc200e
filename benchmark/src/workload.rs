//! The five workloads and the seeded traffic generator.
//!
//! The generator owns every random choice. The gateways under test see
//! only what it emits: payload bytes to `protect`, wire bytes to
//! `push_wire_batch`. Each batch is planned (untimed), sealed by the
//! sender gateway (timed by the caller), then assembled into the
//! receive queue together with what the oracle should expect (untimed).

use std::collections::VecDeque;
use std::ops::Range;

use bytes::Bytes;
use reset_ipsec::SentFrame;
use reset_sim::DetRng;

/// Frames per batch: one sample of every per-frame metric.
pub const BATCH: usize = 4096;
/// Consecutive frames one SA contributes to a round-robin batch.
pub const RUN: usize = 16;
/// Anti-replay window size on every workload.
pub const WINDOW: u64 = 64;
/// SPI of SA index 0; SA `i` is `SPI_BASE + i`.
pub const SPI_BASE: u32 = 0x1000;
/// Keying material every SA's keys derive from (per-SPI label).
pub const MASTER: &[u8] = b"gateway-benchmark-master";
/// [`Spec::reset_every`] of a stream that never resets.
pub const NEVER: u64 = u64::MAX;
/// How many of an SA's most recent frames a duplicate may copy.
const RING: usize = 8;

/// How a batch chooses the SA of each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Runs of [`RUN`] frames per SA, round-robin over the sample.
    Runs,
    /// Every frame's SA drawn uniformly from the whole fleet.
    Uniform,
}

/// Which persistent store backs every SA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// `MemStable`.
    Mem,
    /// `WalStable` on a real file, `Durability::ProcessCrash` (page
    /// cache, no fsync).
    Wal,
}

/// One named workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The name `--workload` and `BENCHMARK.json` use.
    pub name: &'static str,
    /// SA pairs installed on each gateway.
    pub sas: u32,
    /// Payload bytes per frame.
    pub payload: usize,
    /// SAVE interval `K`.
    pub k: u64,
    /// `Some(n)`: the receiver is a `ShardedGateway` with `n` shards.
    pub shards: Option<usize>,
    /// Store behind every SA.
    pub store: StoreKind,
    /// SA choice per frame.
    pub pick: Pick,
    /// Percent of frames that are in-window duplicates.
    pub dup_pct: u64,
    /// Percent of frames that arrive one position late.
    pub reorder_pct: u64,
    /// Batches between in-stream resets; [`NEVER`] for a stream without.
    pub reset_every: u64,
    /// Steps of the counting pass: fixed, so counts repeat for a seed.
    /// It ends half a reset interval after the last in-stream reset — a
    /// sender that has just leaped `2K` ahead and sent nothing since
    /// would hide the sacrifice of the closing receiver reset.
    pub counting_batches: u64,
    /// In-stream resets alternate receiver/sender and the adversary
    /// replays the recorded history after each (otherwise the sender
    /// alone resets in-stream, which sacrifices no traffic).
    pub storm: bool,
    /// DPD armed on every inbound SA.
    pub dpd: bool,
}

impl Spec {
    /// Batches after a receiver reset until every sampled SA has been
    /// sent more than `2K` fresh frames, so its sacrifice is complete.
    pub fn convergence_batches(&self) -> u64 {
        (2 * self.k).div_ceil(RUN as u64) + 2
    }
}

const STEADY: Spec = Spec {
    name: "steady_small",
    sas: 256,
    payload: 64,
    k: 64,
    shards: None,
    store: StoreKind::Mem,
    pick: Pick::Runs,
    dup_pct: 0,
    reorder_pct: 0,
    reset_every: 4,
    counting_batches: 74,
    storm: false,
    dpd: false,
};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 5] = [
    STEADY,
    Spec {
        name: "steady_mtu",
        payload: 1400,
        ..STEADY
    },
    Spec {
        name: "fleet_wide",
        sas: 262_144,
        pick: Pick::Uniform,
        // A sender's leap makes every receiving SA owe a SAVE at its next
        // frame, and here the next frame of most SAs is a reset interval
        // away: in-stream resets would keep the whole fleet in that state.
        reset_every: NEVER,
        counting_batches: 32,
        dpd: true,
        ..STEADY
    },
    Spec {
        name: "sharded_small",
        shards: Some(2),
        ..STEADY
    },
    Spec {
        name: "reset_storm",
        k: 16,
        store: StoreKind::Wal,
        dup_pct: 10,
        reorder_pct: 5,
        reset_every: 32,
        counting_batches: 144,
        storm: true,
        ..STEADY
    },
];

/// What the oracle should see for one pushed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A sequence number never pushed before: delivered with its
    /// payload, unless a receiver leap sacrificed it.
    Fresh,
    /// A copy of a frame pushed earlier: dropped by the window.
    Replay,
}

/// The generator's record of one pushed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sent {
    /// SA index (SPI − [`SPI_BASE`]).
    pub sa: u32,
    /// The sequence number the sender sealed into the frame.
    pub seq: u64,
    /// Expected verdict class.
    pub expect: Expect,
    /// The payload's place in the generator's pool (empty for replays).
    pub payload: Range<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Fresh,
    /// A fresh frame that arrives one position late.
    Late,
    /// A copy of the `n`-th most recent frame of the same SA.
    Dup(usize),
}

/// One planned batch: what to `protect`, and how the sealed frames
/// become the receive queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `(sa, payload range in the pool)` per `protect` call, in order.
    pub protects: Vec<(u32, Range<usize>)>,
    slots: Vec<(u32, Slot)>,
}

/// A received batch plus the generator's record of it.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The wire bytes, in arrival order.
    pub wires: Vec<Bytes>,
    /// One record per wire.
    pub sent: Vec<Sent>,
}

/// Seeded traffic source for one workload.
#[derive(Debug)]
pub struct Generator {
    rng: DetRng,
    sas: u32,
    payload: usize,
    dup_pct: u64,
    reorder_pct: u64,
    /// Random bytes payloads are sliced from.
    pool: Vec<u8>,
    /// The SAs round-robin batches cycle over: the whole fleet when it
    /// fits one batch, else a seeded sample of it.
    sample: Vec<u32>,
    /// Per SA, its most recent `(seq, wire)` frames — duplicates copy
    /// from here. Empty unless the workload has duplicates.
    ring: Vec<VecDeque<(u64, Bytes)>>,
}

impl Generator {
    /// A generator for `spec`; the same `seed` yields the same traffic.
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        let mut rng = DetRng::new(seed);
        let mut pool = vec![0u8; BATCH * spec.payload + 4096];
        rng.fill_bytes(&mut pool);
        let runs = (BATCH / RUN) as u32;
        let sample = if spec.sas <= runs {
            (0..spec.sas).collect()
        } else {
            let mut s: Vec<u32> = Vec::new();
            while s.len() < runs as usize {
                s.extend((s.len()..runs as usize).map(|_| rng.below(spec.sas as u64) as u32));
                s.sort_unstable();
                s.dedup();
            }
            s
        };
        let ring = if spec.dup_pct > 0 {
            vec![VecDeque::with_capacity(RING); spec.sas as usize]
        } else {
            Vec::new()
        };
        Generator {
            rng,
            sas: spec.sas,
            payload: spec.payload,
            dup_pct: spec.dup_pct,
            reorder_pct: spec.reorder_pct,
            pool,
            sample,
            ring,
        }
    }

    /// Payload bytes behind a [`Sent::payload`] range.
    pub fn payload(&self, range: &Range<usize>) -> &[u8] {
        &self.pool[range.clone()]
    }

    /// Plans one batch of [`BATCH`] received frames.
    pub fn plan(&mut self, pick: Pick) -> Plan {
        let offset = self.rng.below(4096) as usize;
        let mut protects = Vec::with_capacity(BATCH);
        let mut slots = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            let sa = match pick {
                Pick::Runs => self.sample[(i / RUN) % self.sample.len()],
                Pick::Uniform => self.rng.below(self.sas as u64) as u32,
            };
            // Steady workloads draw nothing here, so their SPI stream
            // depends on the seed through `Uniform` picks alone.
            let roll = if self.dup_pct + self.reorder_pct > 0 {
                self.rng.below(100)
            } else {
                100
            };
            let slot = if roll < self.dup_pct && !self.ring[sa as usize].is_empty() {
                Slot::Dup(self.rng.below(RING as u64) as usize)
            } else if roll < self.dup_pct + self.reorder_pct {
                Slot::Late
            } else {
                Slot::Fresh
            };
            if !matches!(slot, Slot::Dup(_)) {
                let start = offset + protects.len() * self.payload;
                protects.push((sa, start..start + self.payload));
            }
            slots.push((sa, slot));
        }
        Plan { protects, slots }
    }

    /// Turns the sealed frames of `plan` (one per `protects` entry, in
    /// order) into the receive queue and its expectations.
    pub fn assemble(&mut self, plan: &Plan, sealed: Vec<SentFrame>) -> Batch {
        assert_eq!(sealed.len(), plan.protects.len(), "one frame per protect");
        let mut batch = Batch {
            wires: Vec::with_capacity(BATCH),
            sent: Vec::with_capacity(BATCH),
        };
        let mut fresh = sealed.into_iter().zip(&plan.protects);
        let mut late: Option<(Bytes, Sent)> = None;
        for &(sa, slot) in &plan.slots {
            // A late frame waits for the next frame of its own SA; a
            // change of SA (or another late frame) releases it first.
            if late.as_ref().is_some_and(|(_, s)| s.sa != sa) {
                self.emit(&mut batch, late.take());
            }
            let next = match slot {
                Slot::Dup(back) => {
                    let ring = &self.ring[sa as usize];
                    let (seq, wire) = &ring[ring.len() - 1 - back % ring.len()];
                    Some((
                        wire.clone(),
                        Sent {
                            sa,
                            seq: *seq,
                            expect: Expect::Replay,
                            payload: 0..0,
                        },
                    ))
                }
                Slot::Fresh | Slot::Late => {
                    let (frame, (_, payload)) = fresh.next().expect("planned");
                    debug_assert_eq!(frame.spi, SPI_BASE + sa);
                    Some((
                        frame.wire,
                        Sent {
                            sa,
                            seq: frame.seq.value(),
                            expect: Expect::Fresh,
                            payload: payload.clone(),
                        },
                    ))
                }
            };
            if slot == Slot::Late && late.is_none() {
                late = next;
            } else {
                self.emit(&mut batch, next);
                self.emit(&mut batch, late.take());
            }
        }
        self.emit(&mut batch, late);
        batch
    }

    fn emit(&mut self, batch: &mut Batch, frame: Option<(Bytes, Sent)>) {
        let Some((wire, sent)) = frame else { return };
        if sent.expect == Expect::Fresh && !self.ring.is_empty() {
            let ring = &mut self.ring[sent.sa as usize];
            if ring.len() == RING {
                ring.pop_front();
            }
            ring.push_back((sent.seq, wire.clone()));
        }
        batch.wires.push(wire);
        batch.sent.push(sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anti_replay::SeqNum;

    fn storm() -> Spec {
        WORKLOADS[4].clone()
    }

    /// Seals a plan with a stand-in sender: per-SA counters, the wire
    /// bytes naming (sa, seq) so copies are recognisable.
    fn seal(plan: &Plan, next: &mut [u64]) -> Vec<SentFrame> {
        plan.protects
            .iter()
            .map(|(sa, _)| {
                let seq = next[*sa as usize];
                next[*sa as usize] += 1;
                SentFrame {
                    spi: SPI_BASE + sa,
                    seq: SeqNum::new(seq),
                    wire: Bytes::copy_from_slice(
                        &[sa.to_be_bytes(), (seq as u32).to_be_bytes()].concat(),
                    ),
                }
            })
            .collect()
    }

    fn stream(spec: &Spec, seed: u64, batches: usize) -> Vec<Sent> {
        let mut g = Generator::new(spec, seed);
        let mut next = vec![1u64; spec.sas as usize];
        let mut all = Vec::new();
        for _ in 0..batches {
            let plan = g.plan(spec.pick);
            let sealed = seal(&plan, &mut next);
            let batch = g.assemble(&plan, sealed);
            assert_eq!(batch.wires.len(), BATCH);
            all.extend(batch.sent);
        }
        all
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in [
            storm(),
            Spec {
                sas: 4096,
                ..WORKLOADS[2].clone()
            },
        ] {
            assert_eq!(stream(&spec, 7, 3), stream(&spec, 7, 3), "{}", spec.name);
            assert_ne!(stream(&spec, 7, 3), stream(&spec, 8, 3), "{}", spec.name);
        }
    }

    #[test]
    fn steady_batches_are_runs_of_sixteen_fresh_frames() {
        let sent = stream(&WORKLOADS[0], 1, 1);
        assert!(sent.iter().all(|s| s.expect == Expect::Fresh));
        for (i, s) in sent.iter().enumerate() {
            assert_eq!(s.sa, (i / RUN) as u32);
            assert_eq!(s.seq, 1 + (i % RUN) as u64);
        }
    }

    #[test]
    fn storm_mix_has_duplicates_and_late_frames_in_the_stated_shares() {
        let sent = stream(&storm(), 3, 8);
        let n = sent.len() as f64;
        let dups = sent.iter().filter(|s| s.expect == Expect::Replay).count() as f64;
        assert!((0.08..0.12).contains(&(dups / n)), "dups {}", dups / n);
        // A late frame shows as a fresh sequence number below its
        // predecessor's on the same SA.
        let mut last = vec![0u64; 256];
        let mut late = 0usize;
        for s in sent.iter().filter(|s| s.expect == Expect::Fresh) {
            if s.seq < last[s.sa as usize] {
                late += 1;
                assert_eq!(s.seq + 1, last[s.sa as usize], "one position late");
            }
            last[s.sa as usize] = last[s.sa as usize].max(s.seq);
        }
        assert!(
            (0.02..0.06).contains(&(late as f64 / n)),
            "late {}",
            late as f64 / n
        );
        // Every duplicate copies a frame already pushed on its SA.
        let mut seen = std::collections::HashSet::new();
        for s in &sent {
            match s.expect {
                Expect::Fresh => assert!(seen.insert((s.sa, s.seq)), "fresh twice"),
                Expect::Replay => assert!(seen.contains(&(s.sa, s.seq)), "copy of nothing"),
            }
        }
    }

    #[test]
    fn wide_fleet_sample_is_distinct_and_round_robin_probes_cover_it() {
        let spec = &WORKLOADS[2];
        let mut g = Generator::new(spec, 5);
        assert_eq!(g.sample.len(), BATCH / RUN);
        let plan = g.plan(Pick::Runs);
        let mut sas: Vec<u32> = plan.protects.iter().map(|(sa, _)| *sa).collect();
        sas.dedup();
        assert_eq!(sas, g.sample);
        assert_eq!(spec.convergence_batches(), 10);
    }
}
