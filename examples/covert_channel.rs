//! End-to-end covert-channel session with framing and error correction: the
//! trojan leaks an AES-like key through the MEE cache; the spy recovers it
//! even with bit errors, using the Hamming(7,4) extension.
//!
//! ```text
//! cargo run --example covert_channel
//! ```

use mee_covert::attack::channel::coding::{deframe, frame};
use mee_covert::attack::channel::{ChannelConfig, Session};
use mee_covert::types::ModelError;

fn main() -> Result<(), ModelError> {
    let mut setup = mee_covert::testbed::noisy_setup(1337)?;
    let session = Session::establish(&mut setup, &ChannelConfig::default())?;

    // The secret the trojan exfiltrates: a 128-bit key.
    let key: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    let key_bits: Vec<bool> = key
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect();

    // Frame: sync preamble + Hamming(7,4) so isolated window errors (the
    // channel's dominant error mode) are corrected.
    let framed = frame(&key_bits);
    println!(
        "sending {} data bits as {} framed bits (preamble + Hamming(7,4))",
        key_bits.len(),
        framed.len()
    );
    let out = session.transmit(&mut setup, &framed)?;
    println!(
        "raw channel: {} bit errors in {} bits ({:.2}%), {:.1} KBps",
        out.errors.count(),
        framed.len(),
        out.errors.rate() * 100.0,
        out.kbps
    );

    let decoded =
        deframe(&out.received, key_bits.len(), 8).ok_or_else(|| ModelError::InvalidConfig {
            reason: "preamble not found in received stream".into(),
        })?;
    let recovered: Vec<u8> = decoded
        .chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
        .collect();
    println!("key sent      : {key:02x?}");
    println!("key recovered : {recovered:02x?}");
    println!(
        "exact match   : {}",
        if recovered == key {
            "YES"
        } else {
            "no — raise the coding rate"
        }
    );
    Ok(())
}
