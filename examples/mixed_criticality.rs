//! Mixed-criticality demo: a hard-real-time driver thread driven by a
//! periodic device interrupt, co-located with an *adversarial* best-effort
//! thread that hammers the kernel with long-running system calls (big
//! retypes). Under the *before* kernel the retype's unpreemptible clearing
//! delays interrupt delivery by milliseconds; under the *after* kernel the
//! 1 KiB preemption points (§3.5) bound the response.
//!
//! ```text
//! cargo run --release -p rt-examples --bin mixed_criticality
//! ```

fn main() {
    print!("{}", rt_examples::mixed::report());
}
