//! The `scale1` pass/fail gate predicates, as pure functions.
//!
//! `scale1` is itself a gate in CI, so a bug in its pass logic is a bug
//! in the safety net: a predicate that silently always passes would wave
//! regressions through, one that misfires would redden CI on healthy
//! code. Factoring the predicates out of the binary makes them unit
//! testable on synthetic phase results — no sockets, no timing — so a
//! gate regression is caught by `cargo test` alone.
//!
//! Every function here is pure: inputs are the measured phase results
//! (rates, percentiles, counters) plus frozen machine facts (core count,
//! fd limit) that the *binary* reads once and passes in.

use rcb_http::server::ServerBackend;

// ---------------------------------------------------------------------------
// Throughput-phase gates
// ---------------------------------------------------------------------------

/// No lock convoy: adding participants must not collapse the aggregate
/// poll rate. The global-lock design degraded to a fraction of its
/// single-participant rate as contenders serialized; a healthy concurrent
/// read path keeps the loaded rate above 35% of the unloaded one even on
/// a saturated single-core machine.
pub fn no_collapse(first_rate: f64, last_rate: f64) -> bool {
    last_rate > first_rate * 0.35
}

/// The read path is actually concurrent: at least two polls were observed
/// inside the agent simultaneously at some point during the run.
pub fn polls_overlapped(peak_concurrency: u64) -> bool {
    peak_concurrency >= 2
}

/// Whether [`polls_overlapped`] can hold on `backend` (the engine the
/// host resolved): two idle polls run at once only where two threads
/// answer them — a worker pool, or two or more event loops. One loop
/// answers its idle polls on its own thread, one at a time.
pub fn polls_overlap_armed(backend: ServerBackend) -> bool {
    match backend {
        ServerBackend::Workers => true,
        ServerBackend::EpollSharded(loops) => loops >= 2,
    }
}

/// With real cores to scale onto, demand genuine growth too (on fewer
/// than 4 cores wall-clock growth is not physically available, so the
/// gate passes vacuously and `no_collapse` carries the load).
pub fn scaling_ok(cores: usize, first_rate: f64, last_rate: f64) -> bool {
    cores < 4 || last_rate > first_rate * 1.3
}

// ---------------------------------------------------------------------------
// Zero-copy / regeneration / memory gates
// ---------------------------------------------------------------------------

/// The zero-copy read path: every payload-sweep point must report exactly
/// zero heap-copied response-body bytes.
pub fn zero_copy_ok(copied_per_point: impl IntoIterator<Item = u64>) -> bool {
    copied_per_point.into_iter().all(|copied| copied == 0)
}

/// The p99 bound a during-regeneration poll must stay within: twice the
/// quiescent p99, floored at 10 ms so scheduler noise on a quiet machine
/// cannot fail the gate.
pub fn regen_bound_us(quiescent_p99_us: u64) -> u64 {
    (2 * quiescent_p99_us).max(10_000)
}

/// Content generation runs outside the host mutex: polls during a
/// regeneration storm keep (twice) their quiescent latency. Enforced only
/// with ≥ 2 cores — on one core the storm and the polls time-share the
/// CPU and the measurement means nothing.
pub fn regen_overlap_ok(cores: usize, quiescent_p99_us: u64, during_p99_us: u64) -> bool {
    cores < 2 || during_p99_us <= regen_bound_us(quiescent_p99_us)
}

/// The agent's generated content and planned timestamps stay within
/// `bound` generations regardless of how many DOM versions passed.
pub fn memory_bounded(content_cache: usize, timestamps: usize, bound: usize) -> bool {
    content_cache <= bound && timestamps <= bound
}

// ---------------------------------------------------------------------------
// Connection-hold gate
// ---------------------------------------------------------------------------

/// How many concurrent keep-alive connections the hold phase demands:
/// 256 per event-loop shard on the epoll engine (whose ceiling is the fd
/// limit), 32 on the workers backend (whose ceiling is the rotation
/// design). When the process fd limit is known, the target is capped so
/// the bench fits — each held loopback connection costs two fds in the
/// bench process (client end + server end), plus headroom for everything
/// else — and never drops below the workers floor.
pub fn conn_hold_target(backend: ServerBackend, shards: usize, nofile_soft: Option<u64>) -> usize {
    let base = match backend {
        ServerBackend::Workers => 32,
        ServerBackend::EpollSharded(_) => 256 * shards.max(1),
    };
    match nofile_soft {
        Some(limit) => base.min((limit.saturating_sub(128) / 2) as usize).max(32),
        None => base,
    }
}

/// Sharded hold runs must actually have exercised every event loop.
/// (Vacuously true off the sharded backend, where there is no spread to
/// check — the slice is empty.)
pub fn shard_spread_ok(connections_per_shard: &[u64]) -> bool {
    connections_per_shard.iter().all(|&c| c > 0)
}

// ---------------------------------------------------------------------------
// Update-latency (parked long-poll) gates
// ---------------------------------------------------------------------------

/// The long-poll economy contract: delivering `updates` changes to
/// `participants` parked watchers must complete at most `1 + epsilon`
/// polls per delivered update. A ratio meaningfully above 1 means
/// participants were busy re-polling between changes — exactly what
/// parking exists to eliminate. Zero expected deliveries is a failed
/// phase, not a vacuous pass.
pub fn polls_per_update_ok(
    completed_polls: u64,
    participants: u64,
    updates: u64,
    epsilon: f64,
) -> bool {
    let expected = (participants * updates) as f64;
    expected > 0.0 && completed_polls as f64 <= expected * (1.0 + epsilon)
}

/// Change-to-delivery p99 must sit within the bound: a parked poll
/// completes on the publish wake, not on a polling-interval boundary, so
/// the latency budget is scheduler noise plus one regeneration — not a
/// poll period.
pub fn update_latency_ok(p99_us: u64, bound_us: u64) -> bool {
    p99_us <= bound_us
}

/// The delta-encoding economy contract: a woken long-poll one
/// generation behind must deliver **strictly fewer** wire bytes per
/// update than the full-XML wake for the same document. Degenerate
/// measurements fail red: zero bytes on either side means the phase
/// never actually delivered (or never measured) an update, not that
/// deltas are infinitely good.
pub fn wire_bytes_per_update_ok(delta_bytes_per_update: u64, full_bytes_per_update: u64) -> bool {
    delta_bytes_per_update > 0
        && full_bytes_per_update > 0
        && delta_bytes_per_update < full_bytes_per_update
}

// ---------------------------------------------------------------------------
// Overload-phase gates
// ---------------------------------------------------------------------------

/// The overload storm must actually overload: a run where the admission
/// mark never tripped proves nothing about shedding, so zero sheds is a
/// failed phase, not a vacuous pass.
pub fn overload_shed_ok(requests_shed: u64) -> bool {
    requests_shed > 0
}

/// Latency under overload stays bounded: the point of shedding is that
/// the polls which *are* admitted answer promptly instead of queueing
/// behind the storm. The bound is supplied by the caller (the quiescent
/// p99 with generous headroom, floored for scheduler noise).
pub fn overload_p99_ok(storm_p99_us: u64, bound_us: u64) -> bool {
    storm_p99_us <= bound_us
}

/// Graceful degradation cuts both ways: once the storm clients leave,
/// throughput must recover to at least 90% of the pre-storm rate. A
/// non-positive pre-storm rate means the phase never measured a healthy
/// baseline — red, not vacuous.
pub fn overload_recovery_ok(pre_storm_rate: f64, post_storm_rate: f64) -> bool {
    pre_storm_rate > 0.0 && post_storm_rate >= pre_storm_rate * 0.9
}

// ---------------------------------------------------------------------------
// Many-sessions (session router) gates
// ---------------------------------------------------------------------------

/// How many concurrent sessions the many-sessions phase demands: 512 on
/// the event-loop engines (the multi-tenancy acceptance point — one
/// process, one shared socket, hundreds of isolated sessions), 64 on the
/// workers backend (each idle session connection costs a rotation slot,
/// the same design limit the hold phase respects). Capped to the fd
/// budget: each session holds one loopback participant connection — two
/// fds in the bench process — plus headroom.
pub fn sessions_target(backend: ServerBackend, nofile_soft: Option<u64>) -> usize {
    let base = match backend {
        ServerBackend::Workers => 64,
        ServerBackend::EpollSharded(_) => 512,
    };
    match nofile_soft {
        Some(limit) => base.min((limit.saturating_sub(256) / 2) as usize).max(16),
        None => base,
    }
}

/// The phase must actually have held the target session count live at
/// once — fewer means joins failed or sessions fell over.
pub fn sessions_served_ok(sessions_live: usize, target: usize) -> bool {
    sessions_live >= target
}

/// Per-session fairness: while one session storms, the quiet cohort must
/// keep at least 30% of its calm poll rate. An unfair router lets the
/// storm occupy the whole dispatch pool and the quiet rate collapses —
/// the cross-tenant convoy this gate exists to catch. A non-positive
/// calm rate is a failed measurement, not a vacuous pass.
pub fn session_fairness_ok(calm_rate: f64, under_storm_rate: f64) -> bool {
    calm_rate > 0.0 && under_storm_rate >= calm_rate * 0.3
}

/// The p99 bound a quiet-session poll must stay within while a foreign
/// session storms: the calm p99 with generous headroom, floored so
/// scheduler noise on a loaded CI box cannot fail a healthy run.
pub fn session_quiet_bound_us(calm_p99_us: u64) -> u64 {
    (5 * calm_p99_us).max(100_000)
}

/// Quiet-session latency under a foreign storm stays within the bound.
pub fn session_quiet_p99_ok(under_storm_p99_us: u64, bound_us: u64) -> bool {
    under_storm_p99_us <= bound_us
}

/// The storm must actually have hit its per-session in-flight bound
/// (dispatches queued behind the session or shed at its waiter cap) —
/// otherwise the fairness run never exercised the lever it gates.
pub fn storm_contained_ok(fairness_queued: u64, fairness_shed: u64) -> bool {
    fairness_queued + fairness_shed > 0
}

/// Aggregate throughput across every session must not collapse while the
/// storm runs: the whole point of per-session fairness is that
/// containing one tenant keeps the *process* serving, so the aggregate
/// rate under storm must at least match half the quiet cohort's calm
/// rate.
pub fn sessions_aggregate_ok(calm_rate: f64, aggregate_storm_rate: f64) -> bool {
    calm_rate > 0.0 && aggregate_storm_rate >= calm_rate * 0.5
}

// ---------------------------------------------------------------------------
// Baseline-comparison gate
// ---------------------------------------------------------------------------

/// The run configuration a baseline must match for the absolute
/// throughput comparison to be meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateConfig {
    /// Available cores when the numbers were recorded.
    pub cores: usize,
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Backend label (`"workers"` / `"epoll-sharded"`; `"epoll"` in
    /// baselines recorded before the single loop became
    /// `epoll-sharded:1`).
    pub backend: String,
    /// Resolved shard count (1 for non-sharded backends).
    pub shards: usize,
}

/// The >20% regression gate arms only when the baseline was recorded in
/// the same configuration — same hardware class, same load shape, same
/// engine. Anything else compares apples to oranges and must print an
/// explicit "gate disarmed" line instead of failing or silently passing.
pub fn compare_gate_armed(baseline: &GateConfig, run: &GateConfig) -> bool {
    baseline == run
}

/// More than 20% below the baseline aggregate throughput is a regression.
/// A non-positive baseline never arms this far (the caller fails the run
/// on a malformed baseline instead).
pub fn throughput_regressed(current_sum: f64, baseline_sum: f64) -> bool {
    baseline_sum > 0.0 && current_sum / baseline_sum < 0.8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_gate_tracks_the_35_percent_floor() {
        assert!(no_collapse(1000.0, 1000.0), "flat is healthy");
        assert!(no_collapse(1000.0, 360.0), "just above the floor");
        assert!(!no_collapse(1000.0, 350.0), "at the floor fails");
        assert!(!no_collapse(1000.0, 80.0), "the lock-convoy signature");
        // A run that served zero polls is a failure, not a pass — the
        // strict inequality keeps the degenerate case red.
        assert!(!no_collapse(0.0, 0.0));
    }

    #[test]
    fn overlap_gate_needs_two_in_flight() {
        assert!(!polls_overlapped(0));
        assert!(!polls_overlapped(1));
        assert!(polls_overlapped(2));
        assert!(polls_overlapped(64));
    }

    #[test]
    fn overlap_gate_arms_where_two_threads_answer_idle_polls() {
        assert!(polls_overlap_armed(ServerBackend::Workers));
        assert!(!polls_overlap_armed(ServerBackend::EpollSharded(1)));
        assert!(polls_overlap_armed(ServerBackend::EpollSharded(2)));
        assert!(polls_overlap_armed(ServerBackend::EpollSharded(8)));
    }

    #[test]
    fn polls_per_update_gate_tracks_the_epsilon_budget() {
        // 4 participants × 10 updates: exactly one poll each passes.
        assert!(polls_per_update_ok(40, 4, 10, 0.1));
        // 10% slack: 44 is the ceiling, 45 busts it.
        assert!(polls_per_update_ok(44, 4, 10, 0.1));
        assert!(!polls_per_update_ok(45, 4, 10, 0.1));
        // The short-poll shape (many empties per update) must fail.
        assert!(!polls_per_update_ok(400, 4, 10, 0.1));
        // A phase that delivered nothing is red, not vacuously green.
        assert!(!polls_per_update_ok(0, 0, 10, 0.1));
        assert!(!polls_per_update_ok(0, 4, 0, 0.1));
    }

    #[test]
    fn update_latency_gate_is_a_simple_bound() {
        assert!(update_latency_ok(0, 200_000));
        assert!(update_latency_ok(200_000, 200_000));
        assert!(!update_latency_ok(200_001, 200_000));
    }

    #[test]
    fn wire_bytes_gate_demands_strict_savings_and_real_measurements() {
        assert!(wire_bytes_per_update_ok(100, 5_000));
        assert!(wire_bytes_per_update_ok(4_999, 5_000));
        // Equal is a failure: the delta path must actually save bytes.
        assert!(!wire_bytes_per_update_ok(5_000, 5_000));
        assert!(!wire_bytes_per_update_ok(5_001, 5_000));
        // Degenerate measurements are red, not vacuously green.
        assert!(!wire_bytes_per_update_ok(0, 5_000));
        assert!(!wire_bytes_per_update_ok(100, 0));
        assert!(!wire_bytes_per_update_ok(0, 0));
    }

    #[test]
    fn scaling_gate_is_parallelism_aware() {
        // Under 4 cores the gate is vacuous, whatever the rates did.
        assert!(scaling_ok(1, 1000.0, 400.0));
        assert!(scaling_ok(3, 1000.0, 1000.0));
        // With cores available, 1.3x growth is demanded.
        assert!(scaling_ok(4, 1000.0, 1301.0));
        assert!(!scaling_ok(4, 1000.0, 1300.0));
        assert!(!scaling_ok(16, 1000.0, 900.0));
    }

    #[test]
    fn zero_copy_gate_fails_on_any_copied_byte() {
        assert!(zero_copy_ok([0, 0, 0, 0]));
        assert!(zero_copy_ok([]));
        assert!(!zero_copy_ok([0, 0, 1, 0]));
        assert!(!zero_copy_ok([u64::MAX]));
    }

    #[test]
    fn regen_gate_doubles_with_a_floor() {
        assert_eq!(regen_bound_us(1_000), 10_000, "floored for quiet machines");
        assert_eq!(regen_bound_us(5_000), 10_000);
        assert_eq!(regen_bound_us(6_000), 12_000, "2x past the floor");
        // Enforced only with ≥ 2 cores.
        assert!(regen_overlap_ok(1, 1_000, 1_000_000));
        assert!(regen_overlap_ok(2, 6_000, 12_000));
        assert!(!regen_overlap_ok(2, 6_000, 12_001));
        assert!(regen_overlap_ok(8, 1_000, 10_000), "floor absorbs noise");
    }

    #[test]
    fn memory_gate_bounds_both_maps() {
        assert!(memory_bounded(2, 2, 2));
        assert!(memory_bounded(0, 1, 2));
        assert!(!memory_bounded(3, 2, 2), "content cache over");
        assert!(!memory_bounded(2, 3, 2), "timestamps over");
    }

    #[test]
    fn conn_hold_targets_scale_with_shards() {
        assert_eq!(conn_hold_target(ServerBackend::Workers, 1, None), 32);
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(1), 1, None),
            256
        );
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(2), 2, None),
            512,
            "the 2-shard acceptance point"
        );
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(8), 8, None),
            2048
        );
        // Shard count 0 is treated as 1 (defensive; resolution happens
        // upstream).
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(0), 0, None),
            256
        );
    }

    #[test]
    fn conn_hold_target_respects_the_fd_budget() {
        // 20000 fds: plenty for the 2-shard target.
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(2), 2, Some(20_000)),
            512
        );
        // 1024 fds: 8 shards want 2048 conns = 4096 fds; capped to what
        // fits ((1024 - 128) / 2 = 448).
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(8), 8, Some(1_024)),
            448
        );
        // Pathologically tiny limits still leave the workers floor.
        assert_eq!(
            conn_hold_target(ServerBackend::EpollSharded(2), 2, Some(64)),
            32
        );
        assert_eq!(conn_hold_target(ServerBackend::Workers, 1, Some(1_024)), 32);
    }

    #[test]
    fn shard_spread_needs_every_loop_used() {
        assert!(shard_spread_ok(&[]), "non-sharded runs are vacuous");
        assert!(shard_spread_ok(&[128, 128]));
        assert!(shard_spread_ok(&[1, 255]));
        assert!(!shard_spread_ok(&[256, 0]), "an idle shard fails");
    }

    #[test]
    fn overload_shed_gate_demands_a_real_storm() {
        assert!(overload_shed_ok(1));
        assert!(overload_shed_ok(10_000));
        assert!(!overload_shed_ok(0), "an untripped mark is a failed phase");
    }

    #[test]
    fn overload_p99_gate_is_a_simple_bound() {
        assert!(overload_p99_ok(0, 500_000));
        assert!(overload_p99_ok(500_000, 500_000));
        assert!(!overload_p99_ok(500_001, 500_000));
    }

    #[test]
    fn overload_recovery_gate_demands_90_percent() {
        assert!(overload_recovery_ok(1000.0, 1000.0));
        assert!(overload_recovery_ok(1000.0, 900.0), "exactly 90% passes");
        assert!(!overload_recovery_ok(1000.0, 899.0));
        assert!(overload_recovery_ok(1000.0, 1500.0), "improvement passes");
        // A phase with no healthy baseline is red, not vacuous.
        assert!(!overload_recovery_ok(0.0, 1000.0));
        assert!(!overload_recovery_ok(-1.0, 1000.0));
    }

    #[test]
    fn sessions_targets_differ_by_engine_and_respect_the_fd_budget() {
        assert_eq!(sessions_target(ServerBackend::Workers, None), 64);
        assert_eq!(sessions_target(ServerBackend::EpollSharded(1), None), 512);
        assert_eq!(sessions_target(ServerBackend::EpollSharded(2), None), 512);
        // 20000 fds is plenty for the full 512-session acceptance point.
        assert_eq!(
            sessions_target(ServerBackend::EpollSharded(1), Some(20_000)),
            512
        );
        // 1024 fds: (1024 - 256) / 2 = 384 sessions fit.
        assert_eq!(
            sessions_target(ServerBackend::EpollSharded(1), Some(1_024)),
            384
        );
        // Pathologically tiny limits keep a usable floor.
        assert_eq!(
            sessions_target(ServerBackend::EpollSharded(1), Some(64)),
            16
        );
        assert_eq!(sessions_target(ServerBackend::Workers, Some(20_000)), 64);
    }

    #[test]
    fn sessions_served_gate_demands_the_full_target() {
        assert!(sessions_served_ok(512, 512));
        assert!(sessions_served_ok(600, 512));
        assert!(!sessions_served_ok(511, 512));
        assert!(!sessions_served_ok(0, 512));
    }

    #[test]
    fn session_fairness_gate_tracks_the_30_percent_floor() {
        assert!(session_fairness_ok(1000.0, 1000.0), "unaffected is healthy");
        assert!(session_fairness_ok(1000.0, 300.0), "exactly 30% passes");
        assert!(!session_fairness_ok(1000.0, 299.0));
        assert!(!session_fairness_ok(1000.0, 0.0), "starved cohort fails");
        // A failed calm measurement is red, not vacuous.
        assert!(!session_fairness_ok(0.0, 0.0));
        assert!(!session_fairness_ok(-1.0, 100.0));
    }

    #[test]
    fn session_quiet_bound_has_headroom_and_a_floor() {
        assert_eq!(session_quiet_bound_us(1_000), 100_000, "floored");
        assert_eq!(session_quiet_bound_us(20_000), 100_000);
        assert_eq!(session_quiet_bound_us(30_000), 150_000, "5x past it");
        assert!(session_quiet_p99_ok(100_000, 100_000));
        assert!(!session_quiet_p99_ok(100_001, 100_000));
    }

    #[test]
    fn storm_containment_gate_demands_the_bound_was_hit() {
        assert!(storm_contained_ok(1, 0));
        assert!(storm_contained_ok(0, 1));
        assert!(storm_contained_ok(500, 500));
        assert!(
            !storm_contained_ok(0, 0),
            "a storm that never queued proves nothing"
        );
    }

    #[test]
    fn sessions_aggregate_gate_demands_half_the_calm_rate() {
        assert!(sessions_aggregate_ok(1000.0, 500.0), "exactly half passes");
        assert!(!sessions_aggregate_ok(1000.0, 499.0));
        assert!(sessions_aggregate_ok(1000.0, 5000.0), "a storm adds load");
        assert!(!sessions_aggregate_ok(0.0, 1000.0), "no calm baseline");
    }

    #[test]
    fn compare_gate_arms_only_on_matching_config() {
        let base = GateConfig {
            cores: 4,
            mode: "smoke".into(),
            backend: "epoll-sharded".into(),
            shards: 2,
        };
        assert!(compare_gate_armed(&base, &base.clone()));
        for (cores, mode, backend, shards) in [
            (8, "smoke", "epoll-sharded", 2),
            (4, "full", "epoll-sharded", 2),
            (4, "smoke", "epoll", 2),
            (4, "smoke", "epoll-sharded", 4),
        ] {
            let run = GateConfig {
                cores,
                mode: mode.into(),
                backend: backend.into(),
                shards,
            };
            assert!(!compare_gate_armed(&base, &run), "{run:?}");
        }
    }

    #[test]
    fn regression_gate_is_20_percent() {
        assert!(!throughput_regressed(800.0, 1000.0), "exactly -20% passes");
        assert!(throughput_regressed(799.0, 1000.0));
        assert!(!throughput_regressed(1200.0, 1000.0), "improvement passes");
        assert!(
            !throughput_regressed(100.0, 0.0),
            "non-positive baseline never arms here"
        );
    }
}
