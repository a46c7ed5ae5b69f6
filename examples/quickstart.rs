//! Quickstart: establish the MEE-cache covert channel and leak a message
//! across cores.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mee_covert::prelude::*;

fn main() -> Result<(), ModelError> {
    // Build the testbed: an SGX machine with the trojan and spy in
    // separate enclaves on separate cores (the paper's threat model, §2.3).
    // The default machine includes realistic DRAM jitter and OS stalls.
    let mut setup = mee_covert::testbed::noisy_setup(mee_covert::testbed::SEED)?;
    println!(
        "machine up: {} cores, MEE cache {:?}",
        setup.machine.config().cores,
        {
            let c = setup.machine.mee().cache().config();
            (c.sets, c.ways, c.line_size)
        }
    );

    // Phase 1 — reverse engineering + handshake. The trojan runs the
    // paper's Algorithm 1 to find 8 virtual addresses whose versions lines
    // collide in one MEE-cache set; the spy then finds a monitor address in
    // the same set.
    let session = Session::establish(&mut setup, &ChannelConfig::default())?;
    println!(
        "channel established: eviction set of {} addresses, monitor at {}",
        session.eviction_set.len(),
        session.monitor
    );

    // Phase 2 — transmission. One bit per 15000-cycle window: the trojan
    // sweeps its eviction set for a '1' (evicting the spy's versions line),
    // idles for a '0'; the spy times a single protected read per window.
    let message = b"MEE!";
    let bits: Vec<bool> = message
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
        .collect();
    let out = session.transmit(&mut setup, &bits)?;

    let received: Vec<u8> = out
        .received
        .chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
        .collect();
    println!(
        "sent {:?}, received {:?} ({} bit errors, {:.1} KBps)",
        String::from_utf8_lossy(message),
        String::from_utf8_lossy(&received),
        out.errors.count(),
        out.kbps
    );
    println!("probe times: '0' reads ≈480 cycles (versions hit), '1' reads ≈750 (miss):");
    for (bit, probe) in out.sent.iter().zip(out.probe_times.iter().skip(1)).take(8) {
        println!("  sent {} → probe {probe}", *bit as u8);
    }
    Ok(())
}
