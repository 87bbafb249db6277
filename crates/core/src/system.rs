//! The user-level system harness.
//!
//! Experiments need whole systems: threads running "programs" that compute,
//! trap into the kernel, fault, and get interrupted by devices. A
//! [`ThreadScript`] is a small user program — a sequence of [`Action`]s —
//! and [`System`] is the top-level simulation loop: it runs the current
//! thread's next action, lets the kernel handle traps, delivers device
//! interrupts at their programmed cycles, and **re-executes trapped system
//! calls of `Restart`-state threads** — the restartable-system-call
//! mechanism of §2.1 made visible ("simply re-executing the original
//! system call will continue the operation"). Each step is one
//! [`crate::driver::step`], with the scripts as its action source.

use std::collections::{HashMap, VecDeque};

use rt_hw::{Addr, Cycles};

use crate::driver::{self, ActionSource, Stepped};
use crate::kernel::Kernel;
use crate::obj::ObjId;
use crate::syscall::Syscall;

/// One step of a user program.
#[derive(Clone, Debug)]
pub enum Action {
    /// Spin for the given number of cycles in userspace.
    Compute(Cycles),
    /// Trap into the kernel with a system call.
    Syscall(Syscall),
    /// Touch an unmapped address (drives the page-fault entry point).
    PageFault(Addr),
    /// Execute an undefined instruction (drives that entry point).
    UndefInstr,
    /// Fill the caches with dirty lines (worst-case preamble, §5.4).
    Pollute,
    /// Suspend this thread.
    Stop,
}

/// A user program: a finite prefix and an optional repeating body.
#[derive(Clone, Debug, Default)]
pub struct ThreadScript {
    queue: VecDeque<Action>,
    repeat: Vec<Action>,
    repeat_ix: usize,
}

impl ThreadScript {
    /// Runs `actions` once, then stops.
    pub fn once(actions: Vec<Action>) -> ThreadScript {
        ThreadScript {
            queue: actions.into(),
            repeat: Vec::new(),
            repeat_ix: 0,
        }
    }

    /// Runs `actions` forever (an event-loop thread).
    pub fn forever(actions: Vec<Action>) -> ThreadScript {
        ThreadScript {
            queue: VecDeque::new(),
            repeat: actions,
            repeat_ix: 0,
        }
    }

    fn next(&mut self) -> Option<Action> {
        if let Some(a) = self.queue.pop_front() {
            return Some(a);
        }
        if self.repeat.is_empty() {
            return None;
        }
        let a = self.repeat[self.repeat_ix].clone();
        self.repeat_ix = (self.repeat_ix + 1) % self.repeat.len();
        Some(a)
    }

    fn push_front(&mut self, a: Action) {
        self.queue.push_front(a);
    }
}

/// Why [`System::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Reached the cycle horizon.
    Horizon,
    /// Every thread finished or blocked forever and no interrupts remain.
    Quiescent,
    /// Step budget exhausted (runaway guard).
    StepLimit,
}

/// The whole simulated system: kernel + user programs.
pub struct System {
    /// The kernel (and through it, the machine).
    pub kernel: Kernel,
    scripts: HashMap<ObjId, ThreadScript>,
    /// Runaway guard on the number of harness steps.
    pub max_steps: u64,
}

impl System {
    /// Wraps a booted kernel.
    pub fn new(kernel: Kernel) -> System {
        System {
            kernel,
            scripts: HashMap::new(),
            max_steps: 10_000_000,
        }
    }

    /// Installs `script` as `tcb`'s user program.
    pub fn set_script(&mut self, tcb: ObjId, script: ThreadScript) {
        self.scripts.insert(tcb, script);
    }

    /// Programs periodic timer ticks (line [`crate::kernel::TIMER_LINE`])
    /// every `period` cycles up to `horizon`, giving round-robin
    /// timeslicing among equal priorities.
    pub fn enable_timer(&mut self, period: rt_hw::Cycles, horizon: rt_hw::Cycles) {
        assert!(period > 0, "timer period must be positive");
        let mut t = self.kernel.machine.now() + period;
        while t < horizon {
            self.kernel
                .machine
                .irq
                .schedule(t, rt_hw::IrqLine(crate::kernel::TIMER_LINE));
            t += period;
        }
    }

    /// Runs until `horizon` cycles (or quiescence). Returns why it stopped.
    pub fn run(&mut self, horizon: Cycles) -> StopReason {
        let mut steps = 0u64;
        loop {
            steps += 1;
            if steps > self.max_steps {
                return StopReason::StepLimit;
            }
            if self.kernel.machine.now() >= horizon {
                return StopReason::Horizon;
            }
            if driver::step(&mut self.kernel, &mut self.scripts, horizon) == Stepped::Quiescent {
                return StopReason::Quiescent;
            }
        }
    }
}

/// The scripts as the driver's action source: a split `Compute`'s
/// remainder runs next, ahead of the rest of the script.
impl ActionSource for HashMap<ObjId, ThreadScript> {
    fn next(&mut self, tcb: ObjId) -> Option<Action> {
        self.get_mut(&tcb).and_then(ThreadScript::next)
    }

    fn defer(&mut self, tcb: ObjId, cycles: Cycles) {
        if let Some(s) = self.get_mut(&tcb) {
            s.push_front(Action::Compute(cycles));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcb::ThreadState;
    use crate::testutil::{boot_two_threads_one_ep, ep_object};
    use rt_hw::IrqLine;

    #[test]
    fn ping_pong_round_trips() {
        let (mut k, client, server, ep) = boot_two_threads_one_ep();
        k.objs.tcb_mut(server).state = ThreadState::Inactive;
        k.boot_resume(server);
        let mut sys = System::new(k);
        sys.set_script(
            server,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Recv { cptr: ep }),
                Action::Syscall(Syscall::ReplyRecv {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Stop,
            ]),
        );
        sys.set_script(
            client,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Call {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Syscall(Syscall::Call {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Stop,
            ]),
        );
        let reason = sys.run(10_000_000);
        assert_ne!(reason, StopReason::StepLimit);
        // The second Call never gets a reply (server stopped), so the
        // client ends blocked or stopped; what matters is progress: at
        // least one full round trip happened.
        assert!(sys.kernel.stats.syscall_entries >= 3);
        crate::invariants::assert_all(&sys.kernel);
    }

    #[test]
    fn timer_round_robins_equal_priorities() {
        // Two compute-bound threads at the same priority; with timeslicing
        // both make progress, interleaved.
        let (mut k, a, b, _) = boot_two_threads_one_ep();
        k.objs.tcb_mut(b).prio = 10; // same priority as `a`
        k.objs.tcb_mut(b).state = ThreadState::Inactive;
        k.boot_resume(b);
        let mut sys = System::new(k);
        // Each thread computes in 10k-cycle slices, 40 of them.
        for t in [a, b] {
            sys.set_script(
                t,
                ThreadScript::once(
                    (0..40)
                        .map(|_| Action::Compute(10_000))
                        .chain(std::iter::once(Action::Stop))
                        .collect(),
                ),
            );
        }
        sys.enable_timer(50_000, 2_000_000);
        let reason = sys.run(2_000_000);
        assert_ne!(reason, StopReason::StepLimit);
        // Both threads finished (reached Stop -> Inactive): without
        // timeslicing, `a` would hog the CPU until done, but both should
        // at least have completed within the horizon; the interleaving is
        // visible through the timer entries.
        assert!(
            sys.kernel.stats.interrupt_entries >= 5,
            "timer ticks delivered: {}",
            sys.kernel.stats.interrupt_entries
        );
        assert_eq!(
            sys.kernel.objs.tcb(a).state,
            ThreadState::Inactive,
            "thread a finished"
        );
        assert_eq!(
            sys.kernel.objs.tcb(b).state,
            ThreadState::Inactive,
            "thread b finished"
        );
        crate::invariants::assert_all(&sys.kernel);
    }

    #[test]
    fn interrupt_wakes_driver_thread() {
        let (mut k, client, server, ep) = boot_two_threads_one_ep();
        let _ = ep_object(&k, client, ep);
        // Make the server a driver: bind IRQ 3 to a notification it waits
        // on, at high priority.
        let ntfn = k.boot_ntfn();
        k.objs.tcb_mut(server).prio = 200;
        k.irq_table.issue(3);
        k.irq_table.bind(3, ntfn, crate::cap::Badge(1));
        k.objs.tcb_mut(server).state = ThreadState::Inactive;
        k.boot_resume(server);
        // Insert a notification cap the server can Wait on.
        let cnode = match k.objs.tcb(server).cspace_root {
            crate::cap::CapType::CNode { obj, .. } => obj,
            _ => unreachable!(),
        };
        crate::cap::insert_cap(
            &mut k.objs,
            crate::cap::SlotRef::new(cnode, 2),
            crate::cap::CapType::Notification {
                obj: ntfn,
                badge: crate::cap::Badge(1),
                rights: crate::cap::Rights::ALL,
            },
            None,
        );
        k.machine.irq.schedule(50_000, IrqLine(3));
        let mut sys = System::new(k);
        sys.set_script(
            server,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Wait { cptr: 2 }),
                Action::Stop,
            ]),
        );
        sys.set_script(
            client,
            ThreadScript::once(vec![Action::Compute(200_000), Action::Stop]),
        );
        sys.run(1_000_000);
        let log = &sys.kernel.irq_log;
        assert_eq!(log.len(), 1, "one interrupt delivered: {log:?}");
        let r = &log[0];
        assert!(r.kernel_ack >= r.raised);
        let delivered = r.delivered.expect("driver thread ran");
        assert!(delivered >= r.kernel_ack);
        // Response time is bounded: in an idle-ish system it is just the
        // entry + delivery path, well under 100k cycles.
        assert!(
            delivered - r.raised < 100_000,
            "response took {} cycles",
            delivered - r.raised
        );
        crate::invariants::assert_all(&sys.kernel);
    }
}
