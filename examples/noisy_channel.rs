//! The Figure-8 scenario as an application: the channel running while a
//! third tenant hammers the MEE cache, and while a stress-ng-like load
//! hammers ordinary memory — showing which noise actually matters.
//!
//! ```text
//! cargo run --example noisy_channel
//! ```

use mee_covert::attack::channel::{paper_100_pattern, ChannelConfig, Session};
use mee_covert::attack::noise::{MeeNoiseActor, MemStressActor};
use mee_covert::machine::{ActorRef, CoreId, NoopHook};
use mee_covert::types::ModelError;

fn main() -> Result<(), ModelError> {
    let bits = paper_100_pattern(128);
    let noise_core = CoreId::new(2);

    // Environment (b): ordinary-memory stress. The MEE cache is untouched,
    // so the channel barely notices (§5.4).
    {
        let mut setup = mee_covert::testbed::noisy_setup(88)?;
        let session = Session::establish(&mut setup, &ChannelConfig::default())?;
        let (proc, mut actor) = MemStressActor::install_on(&mut setup, 512)?;
        let mut noise: Vec<ActorRef<'_>> = vec![(noise_core, proc, &mut actor)];
        let out = session.transmit_hooked(&mut setup, &bits, &mut noise, &mut NoopHook)?;
        println!(
            "LLC/DRAM stress  : {:>2} errors in 128 bits ({:.1}%)",
            out.errors.count(),
            out.errors.rate() * 100.0
        );
    }

    // Environments (c)/(d): another tenant streaming integrity-tree data
    // through the MEE cache — the noise that actually hurts.
    for (label, stride, pages) in [
        ("MEE noise 512 B ", 512usize, 128usize),
        ("MEE noise 4 KiB ", 4096, 256),
    ] {
        let mut setup = mee_covert::testbed::noisy_setup(88)?;
        let session = Session::establish(&mut setup, &ChannelConfig::default())?;
        let (proc, mut actor) = MeeNoiseActor::install_on(&mut setup, stride, pages)?;
        let mut noise: Vec<ActorRef<'_>> = vec![(noise_core, proc, &mut actor)];
        let out = session.transmit_hooked(&mut setup, &bits, &mut noise, &mut NoopHook)?;
        println!(
            "{label}: {:>2} errors in 128 bits ({:.1}%) at positions {:?}",
            out.errors.count(),
            out.errors.rate() * 100.0,
            out.errors.positions
        );
    }

    println!("paper (Figure 8): quiet 1 error; memory stress ≈ quiet; MEE noise 4–5 errors");
    Ok(())
}
