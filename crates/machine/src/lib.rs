#![warn(missing_docs)]
//! The simulated machine: a multi-core SGX CPU with private L1/L2 caches, a
//! shared inclusive LLC, and the MEE in the memory controller.
//!
//! This crate is the substitution for the paper's Intel i7-6700K testbed.
//! It provides:
//!
//! * [`Machine`] — the hardware: per-core clocks and private caches, the
//!   shared LLC with inclusive back-invalidation, DRAM, and the MEE;
//! * processes ([`ProcId`]) with regular or enclave address spaces, page
//!   allocation (enclave pages come from the PRM, scattered physically by
//!   the randomized frame allocator), and optional hugepage-backed
//!   allocation for *regular* processes only (SGX has none — challenge 3);
//! * instruction primitives with SGX semantics: `read`/`write`, `clflush`
//!   (evicts from the whole on-chip hierarchy but **not** the MEE cache —
//!   challenge 1), `mfence`, `rdtsc` (faults in enclave mode — challenge 4),
//!   the hyperthread timer-mailbox read of Figure 2(c), and an OCALL-based
//!   timestamp for comparison;
//! * the [`Actor`] abstraction plus [`run_actor_refs_hooked`] — the one
//!   deterministic scheduler, which interleaves one actor per core in
//!   global clock order (each step goes to the actor whose core clock is
//!   furthest behind, the first binding slot on ties) and consults a
//!   [`StepHook`] (the fault injector, or [`NoopHook`]) before steps; it is
//!   how the trojan, the spy, and the noise programs execute
//!   "concurrently".
//!
//! # Example
//!
//! ```
//! use mee_machine::{Machine, MachineConfig};
//! use mee_mem::AddressSpaceKind;
//! use mee_types::VirtAddr;
//!
//! # fn main() -> Result<(), mee_types::ModelError> {
//! let mut m = Machine::new(MachineConfig::small())?;
//! let enclave = m.create_process(AddressSpaceKind::Enclave);
//! let base = VirtAddr::new(0x10000);
//! m.map_pages(enclave, base, 4)?;
//!
//! let core = mee_machine::CoreId::new(0);
//! let cold = m.read(core, enclave, base)?;
//! let warm = m.read(core, enclave, base)?;
//! assert!(warm < cold); // second read hits on-chip caches
//!
//! // rdtsc faults inside an enclave (paper challenge 4).
//! assert!(m.rdtsc(core, enclave).is_err());
//! # Ok(())
//! # }
//! ```

mod actor;
mod config;
mod machine;

pub use actor::{
    run_actor_refs_hooked, Actor, ActorRef, CoreHandle, HookSchedule, NoopHook, StepHook,
    StepOutcome,
};
pub use config::{MachineConfig, PolicyKind};
pub use machine::{CoreId, Machine, ProcId};
