//! The kernel driver step: run the current thread one step.
//!
//! Everything that drives a simulated kernel from "userspace" — the
//! [`crate::system::System`] harness, the load engine's shard loop and
//! the schedule explorer — steps threads through this module, so the
//! user-side half of the §2.1 restart contract lives in one place:
//!
//! * a `Restart`-state thread **re-issues its trapped system call**
//!   ("simply re-executing the original system call will continue the
//!   operation") before it runs anything else;
//! * a `Restart` state with no system call (a cancelled IPC) is cleared
//!   and the thread runs on;
//! * otherwise the thread takes its next [`Action`] from an
//!   [`ActionSource`], and is parked when the source has none;
//! * a `Compute` is split at the next scheduled interrupt, so the IRQ
//!   entry happens at its programmed cycle and the remainder goes back to
//!   the source.
//!
//! [`step`] adds the kernel-level half around [`run_thread`]: service a
//! pending interrupt, or fast-forward an idle kernel to the next one.
//! Each function returns what it did ([`Stepped`]); measuring, oracles,
//! stop conditions and fault injection stay with the caller.

use rt_hw::{Addr, Cycles};

use crate::kernel::Kernel;
use crate::obj::ObjId;
use crate::syscall::{Syscall, SyscallOutcome};
use crate::system::Action;
use crate::tcb::ThreadState;

/// Address region an [`Action::Pollute`] dirty-fills the caches from.
pub const POLLUTION_BASE: Addr = 0x4000_0000;

/// Supplies user programs' actions, one per thread step.
pub trait ActionSource {
    /// `tcb`'s next action, or `None` when it has none (the driver then
    /// parks the thread).
    fn next(&mut self, tcb: ObjId) -> Option<Action>;

    /// Takes back the unrun `cycles` of a `Compute` the driver split at
    /// an interrupt: `tcb`'s next action must be `Compute(cycles)`.
    fn defer(&mut self, tcb: ObjId, cycles: Cycles);
}

/// What one driver step did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stepped {
    /// Took the IRQ entry: a pending interrupt, the idle fast-forward
    /// target, or the interrupt a `Compute` was split at.
    Interrupt,
    /// Idle, with no interrupt scheduled before the horizon.
    Quiescent,
    /// A system-call kernel visit (fresh, or a §2.1 re-issue): its cycles
    /// on the entering core's clock and its outcome.
    Syscall {
        /// Cycles from trap to kernel exit.
        cycles: Cycles,
        /// Completed, or preempted (the thread is now `Restart`).
        outcome: SyscallOutcome,
    },
    /// Cleared a `Restart` state that had no system call to re-issue.
    Resumed,
    /// Suspended the thread: it had no action, or its action was `Stop`.
    Parked,
    /// Ran a user-level action (compute, fault, pollution).
    User,
}

/// One top-level step: service a pending interrupt; else, on an idle
/// kernel, advance to the next scheduled interrupt (if it is before
/// `horizon`) and take it; else [`run_thread`]. A cleared `Restart`
/// falls through to the thread's next action within the same step.
#[inline]
pub fn step<S: ActionSource>(k: &mut Kernel, src: &mut S, horizon: Cycles) -> Stepped {
    if k.machine.irq.has_pending() {
        k.handle_interrupt();
        return Stepped::Interrupt;
    }
    if k.is_idle() {
        return match k.machine.irq.next_scheduled() {
            Some(at) if at < horizon => {
                let now = k.machine.now();
                k.machine.advance(at.saturating_sub(now).max(1));
                k.handle_interrupt();
                Stepped::Interrupt
            }
            _ => Stepped::Quiescent,
        };
    }
    match run_thread(k, src) {
        Stepped::Resumed => run_thread(k, src),
        done => done,
    }
}

/// Steps the current thread once: re-issue a `Restart` thread's trapped
/// system call, or clear a `Restart` that has none, or run the source's
/// next action — parking the thread when there is none, and splitting a
/// `Compute` at the next scheduled interrupt.
#[inline]
pub fn run_thread<S: ActionSource>(k: &mut Kernel, src: &mut S) -> Stepped {
    let cur = k.current();
    let t = k.objs.tcb(cur);
    if t.state == ThreadState::Restart {
        let Some(sys) = t.current_syscall.clone() else {
            k.objs.tcb_mut(cur).state = ThreadState::Running;
            return Stepped::Resumed;
        };
        return syscall(k, sys);
    }
    let Some(action) = src.next(cur) else {
        k.suspend_thread(cur);
        return Stepped::Parked;
    };
    if let Action::Compute(c) = action {
        let now = k.machine.now();
        if let Some(at) = k.machine.irq.next_scheduled() {
            if at > now && at - now < c {
                k.machine.advance(at - now);
                src.defer(cur, c - (at - now));
                k.handle_interrupt();
                return Stepped::Interrupt;
            }
        }
    }
    perform(k, cur, action)
}

/// Executes `action` as `cur`, whole: a `Compute` advances its full span
/// regardless of scheduled interrupts.
#[inline]
pub fn perform(k: &mut Kernel, cur: ObjId, action: Action) -> Stepped {
    match action {
        Action::Compute(c) => k.machine.advance(c),
        Action::Syscall(sys) => return syscall(k, sys),
        Action::PageFault(addr) => k.handle_page_fault(addr),
        Action::UndefInstr => k.handle_undefined(),
        Action::Pollute => k.machine.pollute(POLLUTION_BASE),
        Action::Stop => {
            k.suspend_thread(cur);
            return Stepped::Parked;
        }
    }
    Stepped::User
}

fn syscall(k: &mut Kernel, sys: Syscall) -> Stepped {
    let t0 = k.machine.now();
    let outcome = k.handle_syscall(sys);
    Stepped::Syscall {
        cycles: k.machine.now() - t0,
        outcome,
    }
}
