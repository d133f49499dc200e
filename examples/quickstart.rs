//! Quickstart: a gateway pair surviving a receiver reset via SAVE/FETCH.
//!
//! ```text
//! cargo run -p system-tests --example quickstart
//! ```
//!
//! The scenario of the paper in ~60 lines, driven entirely through the
//! [`reset_ipsec::Gateway`] engine API: gateway `p` streams real ESP
//! frames (ChaCha20-Poly1305 by default) to gateway `q`; `q` is reset
//! mid-stream; thanks to the periodic SAVE and the FETCH + `2K` leap at
//! recovery, replayed ciphertext is rejected and fresh traffic resumes
//! after a bounded gap. Every verdict arrives as a
//! [`reset_ipsec::GatewayEvent`] from `poll_events()`.
//!
//! The `GatewayBuilder` owns suite, save interval, window and stores in
//! one place, `add_peer` installs the SA pair, and the *event stream*
//! carries every verdict. The layer types underneath (`Outbound`,
//! `Inbound`, `Sadb`) are public too — see the `reset_ipsec` crate docs
//! for how they map onto the engine.

use reset_ipsec::{GatewayBuilder, GatewayEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One SA pair between two gateways; in production the keys come
    //    from IKE (see the vpn_gateway example). K = 25 is the paper's
    //    calibrated save interval.
    const SPI: u32 = 0x1001;
    let mut p = GatewayBuilder::in_memory()
        .save_interval(25)
        .window(64)
        .build();
    let mut q = GatewayBuilder::in_memory()
        .save_interval(25)
        .window(64)
        .build();
    p.add_peer(SPI, b"demo-master-secret");
    q.add_peer(SPI, b"demo-master-secret");

    // 2. Steady traffic; the adversary records every frame.
    let mut recorded = Vec::new();
    for i in 0..100u32 {
        let frame = p
            .protect(SPI, format!("packet {i}").as_bytes())?
            .expect("up");
        recorded.push(frame.wire.clone());
        q.push_wire(&frame.wire)?;
    }
    let delivered = q
        .poll_events()
        .iter()
        .filter(|e| matches!(e, GatewayEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, 100);
    // Let the background SAVE reach the disk.
    q.save_completed()?;
    println!(
        "sent and delivered {delivered} packets; receiver edge = {}",
        q.right_edge(SPI).expect("installed")
    );

    // 3. The receiver gateway is reset: volatile windows gone.
    q.reset();
    println!("receiver reset! (window and counters forgotten)");

    // 4. Recover: FETCH the saved edge, leap by 2K, SAVE synchronously.
    q.recover()?;
    assert!(matches!(
        q.poll_events()[..],
        [GatewayEvent::Recovered { .. }]
    ));
    println!(
        "receiver recovered; leaped right edge = {}",
        q.right_edge(SPI).expect("installed")
    );

    // 5. The adversary replays the entire recorded history. Nothing is
    //    accepted — every frame authenticates but bounces off the window.
    for wire in &recorded {
        q.push_wire(wire)?;
    }
    let events = q.poll_events();
    assert!(
        events
            .iter()
            .all(|e| matches!(e, GatewayEvent::ReplayDropped { .. })),
        "a replay got through: {events:?}"
    );
    println!(
        "adversary replayed {} frames: all {} rejected",
        recorded.len(),
        events.len()
    );

    // 6. Fresh traffic resumes; at most 2K packets are sacrificed while
    //    the sender's counter catches up with the leaped edge.
    let mut sacrificed = 0;
    loop {
        let frame = p.protect(SPI, b"post-reset data")?.expect("up");
        q.push_wire(&frame.wire)?;
        match q.poll_events().pop().expect("one event per frame") {
            GatewayEvent::Delivered { seq, .. } => {
                println!(
                    "traffic resumed at {seq} after sacrificing {sacrificed} packets (bound: {})",
                    2 * 25
                );
                break;
            }
            _ => sacrificed += 1,
        }
        assert!(sacrificed <= 2 * 25, "condition (ii) violated");
    }
    println!("convergence achieved: no replay accepted, loss bounded by 2K");
    Ok(())
}
