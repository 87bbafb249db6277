//! Output checks: digests of the simulated statistics against values
//! committed beside the benchmark (`expected.txt`), plus a tally of
//! attempted and failed operations that every workload feeds.
//!
//! A check that fails counts toward `failed` and makes the run incorrect.

use std::collections::BTreeMap;

/// The committed expected values, compiled in so a run never reads
/// outside the benchmark's own files.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// FNV-1a, 64-bit: a stable digest that needs no dependency.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Parses `key value` lines (`#` starts a comment).
pub fn parse_expected(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.to_string()))
        })
        .collect()
}

/// Attempted/failed tally plus a human-readable note per failure.
pub struct Checks {
    expected: BTreeMap<String, String>,
    /// Digest seen first per key this run: later batches must repeat it.
    seen: BTreeMap<String, u64>,
    /// Operations judged.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// One line per failed check (and per key with no committed value).
    pub notes: Vec<String>,
}

impl Checks {
    /// A tally judging digests against `expected` (see [`parse_expected`]).
    pub fn new(expected: BTreeMap<String, String>) -> Checks {
        Checks {
            expected,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// A tally against the committed `expected.txt`.
    pub fn committed() -> Checks {
        Checks::new(parse_expected(EXPECTED))
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("FAIL {what}: {failed} of {attempted}"));
        }
    }

    /// Records one pass/fail operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), &if ok { String::new() } else { what() });
    }

    /// Judges the digest of `bytes` under `key`: it must equal the
    /// committed value when one exists, and must repeat on every batch of
    /// the run either way.
    pub fn digest(&mut self, key: &str, bytes: &[u8]) {
        let d = fnv1a(bytes);
        let first = *self.seen.entry(key.to_string()).or_insert(d);
        self.check(first == d, || {
            format!("{key} digest {d:016x} differs from this run's first batch {first:016x}")
        });
        match self.expected.get(key).cloned() {
            Some(want) => {
                let got = format!("{d:016x}");
                let ok = want == got;
                self.check(ok, || format!("{key} digest {got}, expected {want}"));
            }
            None => {
                let note = format!("note: no committed digest for {key} (got {d:016x})");
                if !self.notes.contains(&note) {
                    self.notes.push(note);
                }
            }
        }
    }

    /// Judges a committed scalar (e.g. `wcet_bound_cycles`).
    pub fn value(&mut self, key: &str, got: u64) {
        let want = self.expected.get(key).cloned();
        self.check(want.as_deref() == Some(got.to_string().as_str()), || {
            format!(
                "{key} = {got}, expected {}",
                want.unwrap_or("<none>".into())
            )
        });
    }

    /// The digest this run saw first for `key`, if any.
    pub fn digest_of(&self, key: &str) -> Option<u64> {
        self.seen.get(key).copied()
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
