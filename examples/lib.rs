//! Shared helpers for the example binaries.

#![forbid(unsafe_code)]

pub mod mixed;

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats cycles with the microsecond equivalent at 532 MHz.
pub fn cyc(c: u64) -> String {
    format!("{c} cycles ({:.1} us)", rt_hw::cycles_to_us(c))
}
