//! Test-only fault injection for the syscall-shaped I/O boundary.
//!
//! The server backends survive transient I/O failures (`EMFILE` storms at
//! `accept(2)`, `EWOULDBLOCK` mid-write, a failed `epoll_ctl(2)`), but
//! those conditions are nearly impossible to provoke reliably from a real
//! socket in a test. This module is the lever: a test arms a *fault
//! schedule* for an [`Op`] — "fail the next `K` calls" (`fail_next`),
//! "fail exactly the 3rd and 7th call" (`script`), or "fail each call
//! with seeded probability `p`" (`seeded`), all behind the feature below
//! — and the hooked call sites ([`crate::sys::Epoll`]'s `epoll_ctl`, the
//! server backends' `accept` loops, and the nonblocking `ResponseWriter`
//! write path in `rcb-http`)
//! consume one injected failure per call before touching the kernel.
//!
//! Everything stateful lives behind the `fault-injection` cargo feature:
//! without it, [`take`] is a `const`-foldable `None` and the hooks compile
//! to nothing, so production builds carry no atomics and no branches. Test
//! targets that need the lever enable the feature through their
//! dev-dependency on `rcb-util`.
//!
//! Injection state is process-global (the hooked call sites have no test
//! context to key on), so tests that arm faults must serialize themselves
//! (a `static Mutex` in the test file) and disarm with `clear` — ideally
//! from a drop guard so a failing assertion cannot leak armed faults into
//! the next test.

#[cfg(not(feature = "fault-injection"))]
use std::io;

/// The hooked operations. Each has an independent fail-next budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `accept(2)` on a listening socket (both server engines).
    Accept = 0,
    /// `epoll_ctl(2)` add/modify/delete (epoll engine only).
    EpollCtl = 1,
    /// A response write (`ResponseWriter::write_some`, the write path of
    /// every engine). An injected `EWOULDBLOCK` reads exactly like a full
    /// send buffer: the epoll engine re-arms `EPOLLOUT`, and the workers
    /// engine retries — on its blocking sockets `EWOULDBLOCK` is what an
    /// expired `SO_SNDTIMEO` returns, so it retries until the write-stall
    /// deadline cuts the connection.
    Write = 2,
    /// A request-bytes read off an accepted connection (the epoll
    /// engine's readiness read and the workers engine's rotation read).
    Read = 3,
}

/// Number of distinct [`Op`]s (sizes the per-op state arrays).
pub const OPS: usize = 4;

// Linux errno values the regression tests inject (transcribed here — the
// workspace is libc-free by design).
/// `EAGAIN`/`EWOULDBLOCK`: resource temporarily unavailable.
pub const EAGAIN: i32 = 11;
/// `EMFILE`: per-process fd table full — the classic accept-storm errno.
pub const EMFILE: i32 = 24;
/// `ECONNABORTED`: connection aborted between accept and use.
pub const ECONNABORTED: i32 = 103;
/// `ECONNRESET`: connection reset by peer mid-read.
pub const ECONNRESET: i32 = 104;

#[cfg(feature = "fault-injection")]
mod armed {
    use super::{Op, OPS};
    use crate::DetRng;
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// One armed schedule for one [`Op`]. `Budget` is PR 5's original
    /// "fail the next K calls"; `Script` and `Seeded` generalize it into
    /// deterministic call-indexed and probabilistic schedules.
    enum Plan {
        /// Fail the next `remaining` calls with `errno`.
        Budget { remaining: u64, errno: i32 },
        /// Fail specific call ordinals (1-based since arming). `entries`
        /// is sorted ascending; `calls` counts every hooked call.
        Script {
            calls: u64,
            idx: usize,
            entries: Vec<(u64, i32)>,
        },
        /// Bernoulli(`p`) failure per call from a seeded RNG, capped at
        /// `remaining` total injections so a storm always ends.
        Seeded {
            rng: DetRng,
            p: f64,
            errno: i32,
            remaining: u64,
        },
    }

    impl Plan {
        fn pending(&self) -> u64 {
            match self {
                Plan::Budget { remaining, .. } => *remaining,
                Plan::Script { idx, entries, .. } => (entries.len() - idx) as u64,
                Plan::Seeded { remaining, .. } => *remaining,
            }
        }

        /// Advances one hooked call; returns the errno to inject, if any.
        fn step(&mut self) -> Option<i32> {
            match self {
                Plan::Budget { remaining, errno } => {
                    if *remaining == 0 {
                        return None;
                    }
                    *remaining -= 1;
                    Some(*errno)
                }
                Plan::Script {
                    calls,
                    idx,
                    entries,
                } => {
                    *calls += 1;
                    match entries.get(*idx) {
                        Some(&(nth, errno)) if nth == *calls => {
                            *idx += 1;
                            Some(errno)
                        }
                        _ => None,
                    }
                }
                Plan::Seeded {
                    rng,
                    p,
                    errno,
                    remaining,
                } => {
                    if *remaining == 0 || !rng.chance(*p) {
                        return None;
                    }
                    *remaining -= 1;
                    Some(*errno)
                }
            }
        }
    }

    // Per-op armed flag (lock-free fast path for the common disarmed
    // case) + the schedule table behind a plain mutex: this is test-only
    // machinery, and a schedule needs more state than atomics can hold.
    static ARMED: [AtomicBool; OPS] = [
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    ];
    static PLANS: Mutex<[Option<Plan>; OPS]> = Mutex::new([None, None, None, None]);

    fn install(op: Op, plan: Plan) {
        let i = op as usize;
        PLANS.lock().unwrap()[i] = Some(plan);
        ARMED[i].store(true, Ordering::Release);
    }

    /// Arms `op`: the next `k` [`take`](super::take) calls yield
    /// `io::Error::from_raw_os_error(errno)`.
    pub fn fail_next(op: Op, k: u64, errno: i32) {
        install(
            op,
            Plan::Budget {
                remaining: k,
                errno,
            },
        );
    }

    /// Arms a scripted schedule: `entries` are `(nth_call, errno)` pairs,
    /// `nth_call` 1-based counted from arming. The nth hooked call of
    /// `op` fails with the paired errno; every other call passes through.
    /// Entries are sorted internally; duplicate ordinals keep the first.
    pub fn script(op: Op, entries: &[(u64, i32)]) {
        let mut sorted: Vec<(u64, i32)> = entries.to_vec();
        sorted.sort_by_key(|&(nth, _)| nth);
        sorted.dedup_by_key(|&mut (nth, _)| nth);
        install(
            op,
            Plan::Script {
                calls: 0,
                idx: 0,
                entries: sorted,
            },
        );
    }

    /// Arms a seeded probabilistic schedule: each hooked call of `op`
    /// fails with probability `p` (drawn from a [`DetRng`] seeded with
    /// `seed`, so the schedule is reproducible), with at most
    /// `max_failures` total injections.
    pub fn seeded(op: Op, seed: u64, p: f64, errno: i32, max_failures: u64) {
        install(
            op,
            Plan::Seeded {
                rng: DetRng::new(seed),
                p,
                errno,
                remaining: max_failures,
            },
        );
    }

    /// Disarms every operation.
    pub fn clear() {
        let mut plans = PLANS.lock().unwrap();
        for (i, slot) in plans.iter_mut().enumerate() {
            *slot = None;
            ARMED[i].store(false, Ordering::Release);
        }
    }

    /// Injected failures still pending for `op` (0 = disarmed; a seeded
    /// plan reports its remaining budget). Tests use this to prove the
    /// hooked path actually consumed the faults.
    pub fn pending(op: Op) -> u64 {
        if !ARMED[op as usize].load(Ordering::Acquire) {
            return 0;
        }
        PLANS.lock().unwrap()[op as usize]
            .as_ref()
            .map_or(0, Plan::pending)
    }

    /// Consumes one hooked call for `op`: advances the armed schedule and
    /// returns the injected failure, if this call is scheduled to fail.
    pub fn take(op: Op) -> Option<io::Error> {
        let i = op as usize;
        if !ARMED[i].load(Ordering::Acquire) {
            return None;
        }
        let mut plans = PLANS.lock().unwrap();
        let slot = plans[i].as_mut()?;
        let fired = slot.step();
        if slot.pending() == 0 && !matches!(slot, Plan::Script { .. }) {
            // Budget/seeded plans self-disarm when spent; scripts stay
            // armed so later calls keep counting toward the schedule
            // (clear() removes them — which the drop-guard idiom does).
            plans[i] = None;
            ARMED[i].store(false, Ordering::Release);
        }
        fired.map(io::Error::from_raw_os_error)
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{clear, fail_next, pending, script, seeded, take};

/// Serializes this crate's own tests that arm faults or pass through a
/// hooked call (`sys`'s epoll tests go through the `EpollCtl` hook): the
/// module state is process-global and the test harness runs tests in
/// parallel.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Without the `fault-injection` feature the hook is inert: always `None`,
/// and the arming API does not exist (only feature-enabled test targets
/// may arm faults).
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn take(_op: Op) -> Option<io::Error> {
    None
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    // The whole module state is global: every test here holds
    // `test_lock()` (shared with `sys`'s epoll tests, whose `epoll_ctl`
    // calls consume `EpollCtl` faults), and each clears behind itself.

    #[test]
    fn budget_counts_down_and_disarms() {
        let _serial = test_lock();
        clear();
        fail_next(Op::EpollCtl, 2, EMFILE);
        assert_eq!(pending(Op::EpollCtl), 2);
        let e = take(Op::EpollCtl).expect("first armed failure");
        assert_eq!(e.raw_os_error(), Some(EMFILE));
        assert!(take(Op::EpollCtl).is_some());
        assert!(take(Op::EpollCtl).is_none(), "budget exhausted");
        assert_eq!(pending(Op::EpollCtl), 0);
    }

    #[test]
    fn ops_are_independent_and_clear_disarms() {
        let _serial = test_lock();
        clear();
        fail_next(Op::Accept, 1, ECONNABORTED);
        assert!(take(Op::Write).is_none(), "other ops unaffected");
        fail_next(Op::Write, 5, EAGAIN);
        clear();
        assert!(take(Op::Accept).is_none());
        assert!(take(Op::Write).is_none());
    }

    #[test]
    fn eagain_maps_to_would_block_kind() {
        let _serial = test_lock();
        clear();
        fail_next(Op::Write, 1, EAGAIN);
        let e = take(Op::Write).unwrap();
        assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
        clear();
    }

    #[test]
    fn scripted_schedule_fails_exact_call_ordinals() {
        let _serial = test_lock();
        clear();
        // Unsorted on purpose: fail calls #2 and #4 only.
        script(Op::EpollCtl, &[(4, EMFILE), (2, ECONNABORTED)]);
        assert_eq!(pending(Op::EpollCtl), 2);
        assert!(take(Op::EpollCtl).is_none(), "call 1 passes");
        let e = take(Op::EpollCtl).expect("call 2 fails");
        assert_eq!(e.raw_os_error(), Some(ECONNABORTED));
        assert!(take(Op::EpollCtl).is_none(), "call 3 passes");
        let e = take(Op::EpollCtl).expect("call 4 fails");
        assert_eq!(e.raw_os_error(), Some(EMFILE));
        assert_eq!(pending(Op::EpollCtl), 0);
        assert!(take(Op::EpollCtl).is_none(), "script spent: passthrough");
        clear();
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_capped() {
        let _serial = test_lock();
        clear();
        let run = |seed: u64| -> Vec<bool> {
            seeded(Op::Accept, seed, 0.5, EAGAIN, 8);
            let pattern: Vec<bool> = (0..64).map(|_| take(Op::Accept).is_some()).collect();
            clear();
            pattern
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same fault pattern");
        assert_eq!(
            a.iter().filter(|&&f| f).count(),
            8,
            "p=0.5 over 64 calls must hit the 8-failure cap"
        );
        let c = run(43);
        assert_ne!(a, c, "different seed, different pattern");
        clear();
    }
}
