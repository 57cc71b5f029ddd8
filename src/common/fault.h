// FaultInjector: deterministic fault schedules for the simulated I/O stack
// (docs/faults.md).
//
// SimDisk only produces well-behaved lognormal jitter; real devices also
// produce pathological behaviour — firmware garbage-collection spikes, whole-
// device stalls, transient write errors, torn flushes. The injector replays a
// *schedule* of such faults against any SimDisk it is attached to, so the
// benches can hand TProfiler a known ground truth ("the variance came from
// the log flush between t=200ms and t=220ms") and the durability layers can
// be exercised against the failures their retry paths exist for.
//
// A schedule is a list of FaultEvents on a timeline that starts when Arm()
// is called; events can be placed by hand or generated from a seed
// (RandomSchedule), so a chaotic run is exactly reproducible. The injector
// itself is passive: SimDisk consults Evaluate() per request. An unarmed or
// absent injector costs the I/O path nothing beyond one pointer test.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"

namespace tdp {

enum class FaultKind {
  kLatencySpike,  ///< Service times multiplied by `magnitude` in the window.
  kStall,         ///< Device frozen: no request completes until window end.
  kWriteError,    ///< Writes/flushes fail with IOError (prob = `magnitude`).
  kTornFlush,     ///< Flush persists only `magnitude` of its payload, fails.
  kReadError,     ///< Reads fail with IOError (prob = `magnitude`).
  kCrash,         ///< First I/O in the window trips the process-wide crash
                  ///< flag (CrashPoints): the op persists `magnitude` of its
                  ///< payload, fails, and the device goes dark until
                  ///< CrashPoints::Reset() — docs/recovery.md.
  kDiskDark,      ///< First I/O in the window takes *this device* dark: the
                  ///< op persists `magnitude` of its payload, fails, and
                  ///< every later request on this injector fails — without
                  ///< touching the process-wide crash flag, so sibling disks
                  ///< (the replication leader, other replicas) keep serving.
                  ///< Cleared by ResetDark() or Disarm() —
                  ///< docs/replication.md.
};

const char* FaultKindName(FaultKind k);

/// The operation classes the injector can distinguish. Reads are immune to
/// kWriteError/kTornFlush; everything feels spikes and stalls.
enum class IoOp { kRead, kWrite, kFlush };

/// One scheduled fault. Times are relative to Arm().
struct FaultEvent {
  FaultKind kind = FaultKind::kLatencySpike;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// kLatencySpike: service-time multiplier (>= 1).
  /// kWriteError:   per-operation failure probability in (0, 1].
  /// kTornFlush:    fraction of the flushed payload that reaches the medium.
  double magnitude = 1.0;
};

/// Knobs for seed-driven schedule generation.
struct RandomFaultConfig {
  int64_t horizon_ns = MillisToNanos(1000);  ///< Schedule covers [0, horizon).
  int64_t mean_gap_ns = MillisToNanos(50);   ///< Mean spacing between faults.
  int64_t min_duration_ns = MillisToNanos(2);
  int64_t max_duration_ns = MillisToNanos(20);
  double spike_magnitude = 10.0;
  double write_error_probability = 1.0;
  double torn_flush_fraction = 0.5;
  /// Relative weights of the four kinds (0 disables a kind).
  double weight_spike = 1.0;
  double weight_stall = 1.0;
  double weight_write_error = 1.0;
  double weight_torn_flush = 1.0;
};

class FaultInjector {
 public:
  FaultInjector();
  explicit FaultInjector(std::vector<FaultEvent> schedule);

  // --- schedule construction (single-threaded, before Arm) ----------------
  void AddEvent(const FaultEvent& e);
  void AddLatencySpike(int64_t start_ns, int64_t duration_ns,
                       double multiplier);
  void AddStall(int64_t start_ns, int64_t duration_ns);
  void AddWriteError(int64_t start_ns, int64_t duration_ns,
                     double probability = 1.0);
  void AddReadError(int64_t start_ns, int64_t duration_ns,
                    double probability = 1.0);
  void AddTornFlush(int64_t start_ns, int64_t duration_ns,
                    double written_fraction = 0.5);
  /// Crash window: the first I/O issued inside it "pulls the plug"
  /// (CrashPoints::Trigger). `written_fraction` of that op's payload still
  /// reaches the medium — the torn tail a mid-write crash leaves behind.
  void AddCrash(int64_t start_ns, int64_t duration_ns,
                double written_fraction = 0.0);
  /// Go-dark window scoped to this injector's device: the first I/O inside
  /// it fails (persisting `written_fraction` of its payload) and the device
  /// stays dark — all later requests fail — until ResetDark()/Disarm().
  /// Unlike AddCrash this never raises the process-wide flag: a replica's
  /// death must not darken the leader or its siblings.
  void AddDiskDark(int64_t start_ns, int64_t duration_ns,
                   double written_fraction = 0.0);

  /// Deterministic pseudo-random schedule: fault starts are drawn with
  /// exponential gaps (mean_gap_ns), kinds by weight, durations uniform in
  /// [min, max]. The same seed + config always yields the same schedule.
  static std::vector<FaultEvent> RandomSchedule(uint64_t seed,
                                                const RandomFaultConfig& cfg);

  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  /// Seed of the probabilistic write-error coin (deterministic given the
  /// sequence of Evaluate calls). Set before Arm().
  void SetSeed(uint64_t seed);

  // --- arming --------------------------------------------------------------
  /// Starts the schedule clock: event times become relative to now. The
  /// schedule must not be mutated while armed.
  void Arm();
  /// Stops the schedule and revives a dark device (clears the go-dark
  /// latch), restoring the documented "unarmed injectors are neutral"
  /// contract.
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// True once a kDiskDark window tripped and until ResetDark()/Disarm().
  bool dark() const { return dark_.load(std::memory_order_acquire); }
  /// Revives a dark device without disturbing the rest of the schedule —
  /// the replica-restart path.
  void ResetDark() { dark_.store(false, std::memory_order_release); }

  // --- consumption (SimDisk) ----------------------------------------------
  struct Perturbation {
    double latency_multiplier = 1.0;
    /// Absolute steady-clock time until which the device is frozen
    /// (0 = no stall). The device finishes the request no earlier.
    int64_t stall_until_ns = 0;
    /// The operation fails with IOError after any stall/service delay.
    bool fail = false;
    /// For failed writes/flushes: fraction of the payload that still landed
    /// (0 for a write error, the torn fraction for a torn flush).
    double written_fraction = 1.0;
  };

  /// What happens to an I/O of class `op` issued at absolute time `now_ns`.
  /// Neutral when unarmed. Thread-safe.
  Perturbation Evaluate(IoOp op, int64_t now_ns);

  /// Nanoseconds until the stall covering `now_ns` clears (0 = none).
  /// Lets durability layers bound their wait instead of freezing with the
  /// device (the degraded-mode deadline check).
  int64_t StallRemainingNanos(int64_t now_ns) const;

  struct Stats {
    std::atomic<uint64_t> spikes{0};
    std::atomic<uint64_t> stalls{0};
    std::atomic<uint64_t> write_errors{0};
    std::atomic<uint64_t> torn_flushes{0};
    std::atomic<uint64_t> read_errors{0};
    std::atomic<uint64_t> crashes{0};
    std::atomic<uint64_t> disk_darks{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  std::vector<FaultEvent> schedule_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> dark_{false};
  std::atomic<int64_t> epoch_ns_{0};
  mutable std::mutex rng_mu_;
  Rng rng_{0xFA517EC7ull};
  Stats stats_;
  /// Publishes stats_ under fault.*; all injectors in a process sum into
  /// the same names (declared after stats_).
  const metrics::CounterSources counters_;
};

/// Feeds the process-wide `io.retries` counter — total extra I/O attempts
/// RetryIo made across every subsystem, the cross-check against the
/// injector's event counts. Out-of-line so the header-only RetryIo template
/// does not pay a registry lookup per call.
void NoteIoRetries(int extra_attempts);

/// Bounded-retry policy for Status-returning I/O. Shared by the redo log,
/// the Postgres-style WAL and the buffer pool's read/writeback paths.
struct IoRetryPolicy {
  /// Total attempts (first try included). >= 1.
  int max_attempts = 4;
  /// Base backoff: the first retry sleeps at least this long.
  int64_t backoff_ns = 50000;  // 50 us
  /// Cap on any single backoff sleep (0 = uncapped).
  int64_t max_backoff_ns = MillisToNanos(2);
  /// Decorrelated jitter: each sleep is drawn uniformly from
  /// [backoff_ns, 3 * previous sleep] instead of deterministic doubling, so
  /// committers that failed on the same shared device stall do not come
  /// back in lockstep and re-collide. Off = classic doubling.
  bool jitter = true;
  /// A device stall expected to outlast this is not waited out on a commit
  /// path: the caller degrades (lazy-flush fallback) instead of freezing.
  int64_t stall_deadline_ns = MillisToNanos(5);
};

/// The next backoff sleep after a sleep of `prev_ns` (0 before the first
/// retry). Pure given the Rng state, so schedules are unit-testable with a
/// seeded generator.
inline int64_t NextBackoffNanos(const IoRetryPolicy& policy, int64_t prev_ns,
                                Rng* rng) {
  const int64_t base = policy.backoff_ns;
  if (base <= 0) return 0;
  int64_t next;
  if (policy.jitter) {
    // Decorrelated jitter (the AWS builders'-library variant): spread over
    // [base, 3*prev], growing about as fast as doubling in expectation but
    // desynchronized across callers.
    const int64_t anchor = prev_ns > base ? prev_ns : base;
    const int64_t hi = anchor > INT64_MAX / 3 ? INT64_MAX : anchor * 3;
    next = rng->UniformRange(base, hi);
  } else {
    next = prev_ns <= 0 ? base
                        : (prev_ns > INT64_MAX / 2 ? INT64_MAX : prev_ns * 2);
  }
  if (policy.max_backoff_ns > 0 && next > policy.max_backoff_ns) {
    next = policy.max_backoff_ns;
  }
  return next;
}

/// Per-thread backoff Rng: threads get distinct streams so concurrent
/// retriers decorrelate; the stream assignment is process-deterministic
/// (thread creation order), keeping single-threaded tests reproducible.
Rng& RetryBackoffRng();

/// Runs `op` with bounded retries and jittered exponential backoff on
/// kIOError. Success and non-I/O errors return immediately. When `attempts`
/// is given it receives the number of invocations of `op`.
template <typename Fn>
Status RetryIo(const IoRetryPolicy& policy, Fn&& op, int* attempts = nullptr) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  Status s;
  int tries = 0;
  int64_t backoff = 0;
  for (int i = 0; i < max_attempts; ++i) {
    s = op();
    ++tries;
    if (s.code() != Code::kIOError) break;
    if (i + 1 < max_attempts && policy.backoff_ns > 0) {
      backoff = NextBackoffNanos(policy, backoff, &RetryBackoffRng());
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
  }
  if (attempts != nullptr) *attempts = tries;
  if (tries > 1) NoteIoRetries(tries - 1);
  return s;
}

}  // namespace tdp
