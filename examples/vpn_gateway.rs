//! A VPN gateway with many SAs rebooting: renegotiate everything (the
//! IETF remedy) vs the `Gateway` engine's SAVE/FETCH recovery (the
//! paper's).
//!
//! ```text
//! cargo run --release -p system-tests --example vpn_gateway
//! ```
//!
//! Establishes N SA pairs through the real (simplified) ISAKMP handshake
//! with OAKLEY group-1 Diffie–Hellman, installs them into one
//! [`reset_ipsec::Gateway`], pushes traffic through each, reboots the
//! gateway, and times both recovery strategies on this host.

use std::time::Instant;

use bytes::Bytes;
use reset_harness::{oakley_group1, run_handshake, CostModel};
use reset_ipsec::{GatewayBuilder, GatewayEvent};
use reset_stable::{Durability, WalStable};
use reset_telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_sas = 8u32;
    println!("=== gateway with {n_sas} SAs (each established via ISAKMP + OAKLEY group 1) ===");

    // 1. Establish N SAs the expensive way, timing it, and install each
    //    negotiated SA pair into the engine.
    let mut gw = GatewayBuilder::in_memory()
        .save_interval(25)
        .window(64)
        .build();
    let t0 = Instant::now();
    let mut total_cost = None;
    for i in 0..n_sas {
        let pair = run_handshake(
            oakley_group1(),
            b"gateway-psk",
            format!("initiator-secret-{i}").as_bytes(),
            format!("responder-secret-{i}").as_bytes(),
            0x1000 + i,
            0x2000 + i,
        )?;
        gw.install_pair(pair.sa_i2r);
        total_cost = Some(pair.cost);
    }
    let establish_elapsed = t0.elapsed();
    println!(
        "established {n_sas} SAs in {establish_elapsed:?} ({} messages, {} modexps each)",
        total_cost.map(|c| c.messages).unwrap_or(0),
        total_cost.map(|c| c.modexps).unwrap_or(0),
    );

    // 2. Traffic on every SA (sealed and received by this host — the
    //    tunnel loops back for the demo); background saves land.
    for spi in 0x1000..0x1000 + n_sas {
        for _ in 0..60 {
            let frame = gw.protect(spi, b"tunnel payload")?.expect("up");
            gw.push_wire(&frame.wire)?;
        }
    }
    let delivered = gw
        .poll_events()
        .iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered as u32, 60 * n_sas);
    gw.save_completed()?;
    println!("pushed 60 packets through each SA");

    // 3. The gateway reboots.
    gw.reset();
    println!("gateway rebooted: all volatile counters lost");

    // 4a. The paper's path: one engine call — FETCH + leap + SAVE for
    //     every SA.
    let t1 = Instant::now();
    let recovered = gw.recover()?;
    let recover_elapsed = t1.elapsed();
    assert!(matches!(
        gw.poll_events()[..],
        [GatewayEvent::Recovered { .. }]
    ));
    println!("SAVE/FETCH recover: {recovered} SA directions in {recover_elapsed:?}");

    // 4b. The IETF path (for comparison): a full re-handshake per SA.
    let t2 = Instant::now();
    for i in 0..n_sas {
        let _ = run_handshake(
            oakley_group1(),
            b"gateway-psk",
            format!("initiator-secret2-{i}").as_bytes(),
            format!("responder-secret2-{i}").as_bytes(),
            0x3000 + i,
            0x4000 + i,
        )?;
    }
    let rehandshake_elapsed = t2.elapsed();
    println!("IETF re-establishment:  {n_sas} handshakes in {rehandshake_elapsed:?}");

    // 5. The paper-era estimate (Pentium III + WAN) for context.
    if let Some(cost) = total_cost {
        let est = cost.estimate_ns(&CostModel::paper_era()) as f64 / 1e6;
        println!("paper-era estimate: {est:.1} ms per handshake vs 0.2 ms per SAVE/FETCH recovery");
    }

    let speedup = rehandshake_elapsed.as_nanos() as f64 / recover_elapsed.as_nanos().max(1) as f64;
    println!(
        "\nresult: SAVE/FETCH recovery is {speedup:.0}x faster than renegotiating {n_sas} SAs"
    );
    assert!(speedup > 2.0, "recovery must win decisively");

    // 6. And the recovered SAs still work.
    let frame = gw.protect(0x1000, b"after reboot")?.expect("up");
    gw.push_wire(&frame.wire)?;
    println!("recovered SA verified: traffic flows again without renegotiation");

    // 7. Fleet scale-out: the same reboot story on a 256-SA sharded
    //    gateway. SAs are partitioned by SPI hash across worker shards,
    //    each owned permanently by a long-lived pool thread spawned
    //    here, at build time; the batched receive path and recover()
    //    are jobs on the shards' work queues, and every SA wakes up
    //    through FETCH + 2K — still no renegotiation anywhere.
    let fleet_sas = 256u32;
    // One constant for both the builder and the 2K assertions below —
    // the sacrifice bound is a function of this exact save interval.
    let k = 25u64;
    let shards = std::thread::available_parallelism().map_or(4, |p| p.get());
    println!("\n=== fleet scale-out: {fleet_sas} SAs on a {shards}-shard gateway ===");
    let mut fleet = GatewayBuilder::in_memory_sharded(shards)
        .save_interval(k)
        .window(64)
        .build_sharded();
    for spi in 1..=fleet_sas {
        fleet.add_peer(spi, b"fleet-master");
    }
    let frames: Vec<Bytes> = (0..8)
        .flat_map(|_| {
            (1..=fleet_sas)
                .map(|spi| {
                    fleet
                        .protect(spi, b"fleet payload")
                        .unwrap()
                        .expect("up")
                        .wire
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let t3 = Instant::now();
    fleet.push_wire_batch(&frames)?;
    let drain_elapsed = t3.elapsed();
    let delivered = fleet
        .poll_events()
        .iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, frames.len());
    println!(
        "drained {} frames across {fleet_sas} SAs in {drain_elapsed:?} ({} ns/frame)",
        frames.len(),
        drain_elapsed.as_nanos() / frames.len() as u128
    );
    fleet.save_completed()?;
    fleet.reset();
    let t4 = Instant::now();
    let recovered = fleet.recover()?;
    let fleet_recover = t4.elapsed();
    assert_eq!(recovered, 2 * fleet_sas as usize);
    assert!(matches!(
        fleet.poll_events()[..],
        [GatewayEvent::Recovered { .. }]
    ));
    println!(
        "shard-parallel SAVE/FETCH reboot: {recovered} SA directions in {fleet_recover:?} \
         (vs one IKE handshake per SA for the IETF remedy)"
    );
    // The paper's condition (ii) on the recovered fleet: the leap may
    // sacrifice at most 2K fresh frames per SA before traffic flows.
    let mut sacrificed = 0u64;
    loop {
        let frame = fleet.protect(1, b"fleet after reboot")?.expect("up");
        fleet.push_wire(&frame.wire)?;
        match fleet.poll_events().pop() {
            Some(GatewayEvent::Delivered { .. }) => break,
            Some(GatewayEvent::ReplayDropped { .. }) => {
                sacrificed += 1;
                assert!(sacrificed <= 2 * k, "sacrifice exceeded the 2K bound");
            }
            other => panic!("unexpected post-reboot verdict: {other:?}"),
        }
    }
    println!(
        "fleet verified: traffic flows again after sacrificing {sacrificed} frame(s) \
         to the leap (bound: 2K = {})",
        2 * k
    );

    // 8. Pipelined receive: submit_batch hands a chunk to the worker
    //    shards and returns immediately, so the next chunk is sealed
    //    while the previous one is verified — on a multi-core host the
    //    seal cost hides behind the shards' work. drain_events is the
    //    one barrier at the end.
    let chunks = 8usize;
    let per_chunk = 512usize;
    let t5 = Instant::now();
    for _ in 0..chunks {
        let chunk: Vec<Bytes> = (0..per_chunk)
            .map(|i| {
                let spi = 1 + (i as u32 % fleet_sas);
                fleet
                    .protect(spi, b"pipelined payload")
                    .unwrap()
                    .expect("up")
                    .wire
            })
            .collect();
        fleet.submit_batch(&chunk); // shards chew while we seal the next chunk
    }
    let events = fleet.drain_events()?;
    let pipelined_elapsed = t5.elapsed();
    assert_eq!(events.len(), chunks * per_chunk, "one verdict per frame");
    let delivered = events
        .iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count();
    // SPIs other than 1 are still inside their post-reboot sacrifice
    // windows, so a bounded prefix of each SA's stream is dropped —
    // condition (ii) again, never more than 2K per SA.
    let sacrificed = events
        .iter()
        .filter(|e| matches!(e, GatewayEvent::ReplayDropped { .. }))
        .count();
    assert_eq!(delivered + sacrificed, chunks * per_chunk);
    assert!(sacrificed <= fleet_sas as usize * 2 * k as usize);
    assert!(delivered > 0);
    println!(
        "pipelined seal+drain: {} frames in {pipelined_elapsed:?} ({} ns/frame) via \
         submit_batch/drain_events over {shards} shard worker(s); {delivered} delivered, \
         {sacrificed} sacrificed to the fleet's remaining leap windows",
        chunks * per_chunk,
        pipelined_elapsed.as_nanos() / (chunks * per_chunk) as u128
    );

    // 9. Choosing the store backend. Everything above ran on MemStable,
    //    which only survives the *simulated* reboot of reset(): drop the
    //    process and the counters are gone. reset-stable ships three
    //    backends behind the same StableStore trait:
    //
    //      MemStable   volatile      tests/benchmarks; dies with the process
    //      FileStable  file per slot small SADBs; Durability::PowerLoss adds
    //                                file+dir fsync per SAVE
    //      WalStable   shared log    fleets: a SAVE is one 37-byte CRC'd
    //                                generation-stamped append to a log the
    //                                whole shard shares (>=5x cheaper per
    //                                slot than file-per-slot at 1024 SAs;
    //                                ~300x measured), compacted in place
    //
    //    Here the reboot is real: the gateway is dropped, then rebuilt
    //    from nothing but the WAL's on-disk bytes.
    println!("\n=== durable reboot: counters outlive the gateway via a shared WAL ===");
    let wal_dir = std::env::temp_dir().join(format!("vpn-gateway-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir)?;
    let wal_path = wal_dir.join("gateway.wal");
    let spi = 9u32;
    let replayed_wire;
    {
        let wal = WalStable::open(&wal_path, Durability::ProcessCrash)?;
        let mut durable = GatewayBuilder::with_stores(move |_spi, _dir| wal.clone())
            .save_interval(k)
            .window(64)
            .build();
        durable.add_peer(spi, b"durable-master");
        let mut last = None;
        for _ in 0..60 {
            let frame = durable.protect(spi, b"durable payload")?.expect("up");
            durable.push_wire(&frame.wire)?;
            last = Some(frame.wire);
        }
        durable.save_completed()?;
        replayed_wire = last.expect("sent frames");
        // The gateway is dropped here: unlike reset(), nothing volatile
        // survives. Only the WAL file does.
    }
    // The reborn gateway carries a telemetry handle: every event kind,
    // recovery latency and WAL append below is counted by the engine
    // itself, and the final tallies print from one snapshot instead of
    // hand-kept counters.
    let telemetry = Telemetry::new();
    let wal = WalStable::open(&wal_path, Durability::ProcessCrash)?;
    wal.attach_telemetry(&telemetry);
    let mut reborn = GatewayBuilder::with_stores(move |_spi, _dir| wal.clone())
        .save_interval(k)
        .window(64)
        .telemetry(telemetry.clone())
        .build();
    reborn.add_peer(spi, b"durable-master");
    // A rebuilt SA must not trust its zeroed counters: FETCH + leap
    // first, exactly as after any other reset.
    reborn.reset();
    reborn.recover()?;
    reborn.poll_events();
    // The adversary kept a pre-reboot frame; the leaped window has
    // moved past the entire old conversation, so it dies as a replay.
    reborn.push_wire(&replayed_wire)?;
    assert!(
        matches!(
            reborn.poll_events()[..],
            [GatewayEvent::ReplayDropped { .. }]
        ),
        "pre-reboot traffic must stay dead after a durable restart"
    );
    // Fresh traffic flows within the 2K sacrifice bound, and the
    // outbound counter provably leaped past everything ever sent.
    let seq = loop {
        let frame = reborn.protect(spi, b"after durable reboot")?.expect("up");
        reborn.push_wire(&frame.wire)?;
        match reborn.poll_events().pop() {
            Some(GatewayEvent::Delivered { .. }) => break frame.seq.value(),
            Some(GatewayEvent::ReplayDropped { .. }) => {}
            other => panic!("unexpected post-reboot verdict: {other:?}"),
        }
    };
    assert!(seq > 60, "counter must resume above all pre-reboot traffic");
    println!(
        "rebuilt the gateway from {} alone: pre-reboot replay rejected, fresh \
         traffic delivered at seq {seq}",
        wal_path.display()
    );

    // 10. The engine counted all of it — one snapshot replaces every
    //     hand-kept tally. The replayed frame and the leap's sacrificed
    //     fresh frames are both window rejections; the bound covers
    //     them together.
    let snap = telemetry.snapshot();
    let sacrificed = snap.event("replay_dropped").saturating_sub(1);
    assert!(sacrificed <= 2 * k, "sacrifice exceeded the 2K bound");
    println!("\n=== final telemetry snapshot (reborn gateway) ===");
    for (name, count) in snap.events.iter().filter(|(_, c)| *c > 0) {
        println!("  event {name:<16} {count}");
    }
    println!(
        "  recoveries        {} (mean {:.1} us)",
        snap.recover_ns.count,
        snap.recover_ns.mean() / 1e3
    );
    println!(
        "  wal               {} appends ({} bytes), {} compaction(s)",
        snap.wal_appends, snap.wal_append_bytes, snap.wal_compactions
    );
    for class in &snap.classes {
        println!(
            "  class {:<24} installs={} recoveries={}",
            class.label, class.installs, class.recoveries
        );
    }
    println!(
        "  sacrificed to the leap: {sacrificed} frame(s) (bound 2K = {})",
        2 * k
    );
    assert_eq!(snap.event("delivered"), 1, "one fresh frame delivered");
    assert!(snap.recover_ns.count >= 1, "recovery latency recorded");
    assert!(snap.wal_appends > 0, "WAL appends recorded");
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(())
}
