//! Layer probes for the traced run: short, repeated calls into one layer
//! each, timed in host nanoseconds, plus the simulated-cycle probes the
//! `rt-bench` micro benchmarks print (choose-thread per scheduler design,
//! capability decode per cspace depth, warm versus cold ILP solves).
//!
//! Probes run outside the timed batches, so they never touch an
//! end-to-end number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rt_bench::workloads::badged_queue_kernel;
use rt_hw::{AccessKind, HwConfig, MemSystem, Replacement};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::kernel::{EntryPoint, Kernel, KernelConfig, SchedKind};
use rt_kernel::syscall::Syscall;
use rt_kernel::tcb::ThreadState;
use rt_wcet::AnalysisConfig;

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Host ns per call of `f`: five rounds, each of enough calls to fill
/// about 2 ms, reporting the median round.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed().as_micros() >= 2_000 || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Median host ns of `measure`, which builds its own state and returns
/// the ns of the one call it times (for calls that consume their setup).
fn median_ns(reps: usize, mut measure: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| measure()).collect::<Vec<_>>())
}

/// rt-hw: one L1 hit and one memory-bound miss through
/// [`MemSystem::access`] (L2 off, the paper's baseline).
pub fn hw_access(out: &mut Values) {
    let mut mem = MemSystem::new(false, Replacement::RoundRobin);
    out.insert(
        "hw.access_hit_ns",
        ns_per_call(|| {
            black_box(mem.access(AccessKind::Read, black_box(0x1000)));
        }),
    );
    // Walking 1 MiB line by line misses the 16 KiB L1 on every access.
    let mut addr = 0u32;
    out.insert(
        "hw.access_miss_ns",
        ns_per_call(|| {
            addr = (addr + 32) % (1 << 20);
            black_box(mem.access(AccessKind::Read, 0x10_0000 + addr));
        }),
    );
}

/// rt-kernel: snapshot capture, restore into a live kernel, and the
/// invariant checker, averaged over `kernels`.
pub fn kernel_state(kernels: &[Kernel], out: &mut Values) {
    let n = kernels.len().max(1) as f64;
    let (mut snap, mut restore, mut inv) = (0.0, 0.0, 0.0);
    for k in kernels {
        snap += ns_per_call(|| {
            black_box(k.snapshot());
        });
        let s = k.snapshot();
        let mut scratch = s.restore();
        restore += ns_per_call(|| s.restore_into(black_box(&mut scratch)));
        inv += ns_per_call(|| {
            black_box(rt_kernel::invariants::check_all(k));
        });
    }
    out.insert("kernel.snapshot_ns", snap / n);
    out.insert("kernel.restore_ns", restore / n);
    out.insert("kernel.invariants_ns", inv / n);
}

/// One `chooseThread` under `sched`, with `blocked` stale lazy-queue
/// entries: simulated cycles and host ns of the yielding system call.
/// The stale entries sit above the yielding server's priority, so the
/// lazy scheduler has to walk and dequeue them before it finds a thread.
fn choose_thread(sched: SchedKind, blocked: u32) -> (u64, f64) {
    let cfg = KernelConfig {
        sched,
        ..KernelConfig::after()
    };
    let (mut k, _, _) = badged_queue_kernel(cfg, HwConfig::default(), 0, 0);
    let runnable = k.boot_tcb("runnable", 5);
    k.objs.tcb_mut(runnable).state = ThreadState::Running;
    k.queues.enqueue(&mut k.objs, runnable);
    if sched == SchedKind::Lazy {
        for i in 0..blocked {
            let t = k.boot_tcb(&format!("stale{i}"), 255);
            k.objs.tcb_mut(t).state = ThreadState::Running;
            k.queues.enqueue(&mut k.objs, t);
            k.objs.tcb_mut(t).state = ThreadState::BlockedOnReply;
        }
    }
    let c0 = k.machine.now();
    let t0 = Instant::now();
    let _ = black_box(k.handle_syscall(Syscall::Yield));
    let ns = t0.elapsed().as_nanos() as f64;
    (k.machine.now() - c0, ns)
}

/// One capability decode through a `depth`-level cspace (each level
/// resolves `32 / depth` bits, at most 8 of them by radix and the rest by
/// guard): simulated cycles and host ns of a `Signal` on a non-notification,
/// which decodes and fails — pure decode plus fixed overhead.
fn decode(depth: u32) -> (u64, f64) {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let ep = k.boot_endpoint();
    let bits = 32 / depth;
    let radix = bits.min(8);
    let guard_bits = (bits - radix) as u8;
    let cptr = 1u32;
    let root = k.boot_cnode(radix as u8);
    let mut node = root;
    for level in 0..depth {
        let index = (cptr >> (32 - bits * (level + 1))) & ((1 << radix) - 1);
        let slot = SlotRef::new(node, index);
        if level + 1 == depth {
            let leaf = CapType::Endpoint {
                obj: ep,
                badge: Badge::NONE,
                rights: Rights::ALL,
            };
            insert_cap(&mut k.objs, slot, leaf, None);
        } else {
            let child = k.boot_cnode(radix as u8);
            let cap = CapType::CNode {
                obj: child,
                guard_bits,
                guard: 0,
            };
            insert_cap(&mut k.objs, slot, cap, None);
            node = child;
        }
    }
    let tcb = k.boot_tcb("t", 10);
    k.objs.tcb_mut(tcb).cspace_root = CapType::CNode {
        obj: root,
        guard_bits,
        guard: 0,
    };
    k.objs.tcb_mut(tcb).state = ThreadState::Running;
    k.force_current_for_test(tcb);
    k.machine.pollute(0x4000_0000);
    let c0 = k.machine.now();
    let t0 = Instant::now();
    let _ = black_box(k.handle_syscall(Syscall::Signal { cptr }));
    let ns = t0.elapsed().as_nanos() as f64;
    (k.machine.now() - c0, ns)
}

/// The `rt-bench` micro groups as layer probes: choose-thread per
/// scheduler design (lazy with 256 stale entries), decode at depth 1, 8
/// and 32, and the IPET solver warm versus cold on the headline
/// system-call instance.
pub fn micro(out: &mut Values) {
    const REPS: usize = 15;
    for (sched, c, n) in [
        (
            SchedKind::Lazy,
            "kernel.choose_thread_cycles.lazy",
            "kernel.choose_thread_ns.lazy",
        ),
        (
            SchedKind::Benno,
            "kernel.choose_thread_cycles.benno",
            "kernel.choose_thread_ns.benno",
        ),
        (
            SchedKind::BennoBitmap,
            "kernel.choose_thread_cycles.bitmap",
            "kernel.choose_thread_ns.bitmap",
        ),
    ] {
        out.insert(c, choose_thread(sched, 256).0 as f64);
        out.insert(n, median_ns(REPS, || choose_thread(sched, 256).1));
    }
    for (depth, c, n) in [
        (1, "kernel.decode_cycles.depth1", "kernel.decode_ns.depth1"),
        (8, "kernel.decode_cycles.depth8", "kernel.decode_ns.depth8"),
        (
            32,
            "kernel.decode_cycles.depth32",
            "kernel.decode_ns.depth32",
        ),
    ] {
        out.insert(c, decode(depth).0 as f64);
        out.insert(n, median_ns(REPS, || decode(depth).1));
    }
    let ilp = rt_wcet::ipet_ilp(EntryPoint::Syscall, &AnalysisConfig::after_l2_off());
    let cold = ilp
        .model
        .solve_cold()
        .expect("IPET instance solves cold")
        .stats;
    let warm = ilp.model.solve().expect("IPET instance solves warm").stats;
    out.insert("ilp.cold_pivots", cold.pivots() as f64);
    out.insert("ilp.warm_pivots", warm.pivots() as f64);
    out.insert(
        "ilp.cold_solve_ns",
        median_ns(3, || {
            let t = Instant::now();
            black_box(ilp.model.solve_cold().expect("IPET instance solves cold"));
            t.elapsed().as_nanos() as f64
        }),
    );
    out.insert(
        "ilp.warm_solve_ns",
        median_ns(3, || {
            let t = Instant::now();
            black_box(ilp.model.solve().expect("IPET instance solves warm"));
            t.elapsed().as_nanos() as f64
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_cost_grows_with_depth() {
        let (c1, _) = decode(1);
        let (c8, _) = decode(8);
        let (c32, _) = decode(32);
        assert!(c1 < c8 && c8 < c32, "decode cycles {c1} {c8} {c32}");
    }

    #[test]
    fn lazy_pays_for_stale_entries() {
        let (lazy, _) = choose_thread(SchedKind::Lazy, 256);
        let (bitmap, _) = choose_thread(SchedKind::BennoBitmap, 256);
        assert!(lazy > bitmap, "lazy {lazy} vs bitmap {bitmap}");
    }
}
