//! Mixed-criticality demo: a hard-real-time driver thread driven by a
//! periodic device interrupt, co-located with an *adversarial* best-effort
//! thread that hammers the kernel with long-running system calls (big
//! retypes). Under the *before* kernel the retype's unpreemptible clearing
//! delays interrupt delivery by milliseconds; under the *after* kernel the
//! 1 KiB preemption points (§3.5) bound the response.
//!
//! [`report`] drives both kernels through `System::run`, so its output is
//! also a golden for the user-side driver loop (`tests/tests/goldens.rs`).

use std::fmt::Write;

use crate::cyc;
use rt_hw::{HwConfig, IrqLine};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::kernel::{Kernel, KernelConfig};
use rt_kernel::syscall::Syscall;
use rt_kernel::system::{Action, System, ThreadScript};
use rt_kernel::untyped::RetypeKind;

const IRQ: u8 = 5;
const PERIOD: u64 = 400_000; // ~0.75 ms at 532 MHz

fn run(out: &mut String, config: KernelConfig, label: &str) -> (u64, u64, usize) {
    let mut k = Kernel::new(config, HwConfig::default());
    let cnode = k.boot_cnode(10);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 22,
        guard: 0,
    };
    // High-priority RT driver bound to the device interrupt.
    let driver = k.boot_tcb("rt-driver", 250);
    let ntfn = k.boot_ntfn();
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 1),
        CapType::Notification {
            obj: ntfn,
            badge: Badge(1),
            rights: Rights::ALL,
        },
        None,
    );
    k.irq_table.issue(IRQ);
    k.irq_table.bind(IRQ, ntfn, Badge(1));
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 4),
        CapType::IrqHandler(IRQ),
        None,
    );
    // Adversarial best-effort thread with a large untyped region.
    let adversary = k.boot_tcb("adversary", 10);
    let ut = k.boot_untyped(22); // 4 MiB
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 2),
        CapType::Untyped(ut),
        None,
    );
    insert_cap(&mut k.objs, SlotRef::new(cnode, 3), root.clone(), None);
    for t in [driver, adversary] {
        k.objs.tcb_mut(t).cspace_root = root.clone();
    }
    k.boot_resume(driver);
    k.boot_resume(adversary);
    // Periodic device interrupts for 40 periods.
    for i in 1..=40 {
        k.machine.irq.schedule(i * PERIOD, IrqLine(IRQ));
    }

    let mut sys = System::new(k);
    // Driver: wait for each interrupt, do a little control work.
    sys.set_script(
        driver,
        ThreadScript::forever(vec![
            Action::Syscall(Syscall::Wait { cptr: 1 }),
            Action::Compute(2_000),
            // seL4 IRQ protocol: the line stays masked until acknowledged.
            Action::Syscall(Syscall::IrqAck { handler: 4 }),
        ]),
    );
    // Adversary: repeatedly retype 64 KiB frames out of the untyped region
    // (each requires clearing 64 KiB — 64 preemption points in the after
    // kernel, zero in the before kernel), polluting the caches in between.
    sys.set_script(
        adversary,
        ThreadScript::forever(vec![
            Action::Pollute,
            Action::Syscall(Syscall::Retype {
                untyped: 2,
                kind: RetypeKind::Frame { size_bits: 16 },
                count: 1,
                dest_cnode: 3,
                dest_offset: 16,
            }),
            Action::Syscall(Syscall::Delete { cptr: 16 }),
        ]),
    );
    sys.run(41 * PERIOD);

    let k = &sys.kernel;
    let responses: Vec<u64> = k
        .irq_log
        .iter()
        .filter_map(|r| r.delivered.map(|d| d - r.raised))
        .collect();
    let worst = responses.iter().copied().max().unwrap_or(0);
    let avg = if responses.is_empty() {
        0
    } else {
        responses.iter().sum::<u64>() / responses.len() as u64
    };
    let _ = writeln!(out, "\n=== {label} ===");
    let _ = writeln!(out, "interrupts delivered: {}", responses.len());
    let _ = writeln!(out, "worst response:       {}", cyc(worst));
    let _ = writeln!(out, "average response:     {}", cyc(avg));
    let _ = writeln!(out, "preemption points hit: {}", k.stats.preemptions);
    let _ = writeln!(out, "system-call restarts:  {}", k.stats.restarts);
    rt_kernel::invariants::assert_all(k);
    (worst, avg, responses.len())
}

/// Runs the demo under both kernels and returns the report the
/// `mixed_criticality` binary prints.
pub fn report() -> String {
    let mut out = format!(
        "An RT driver (prio 250) shares the CPU with an adversary (prio 10)\n\
         that retypes 64 KiB frames in a loop. Device IRQ every {PERIOD} cycles.\n"
    );
    let (worst_before, _, n_b) = run(
        &mut out,
        KernelConfig::before(),
        "BEFORE kernel (no preemption points)",
    );
    let (worst_after, _, n_a) = run(
        &mut out,
        KernelConfig::after(),
        "AFTER kernel (1 KiB preemption points)",
    );
    let _ = writeln!(out, "\n=== Verdict ===");
    assert!(n_b > 0 && n_a > 0);
    let _ = writeln!(
        out,
        "worst-case interrupt response improved {:.1}x ({} -> {})",
        worst_before as f64 / worst_after as f64,
        cyc(worst_before),
        cyc(worst_after),
    );
    out
}
