#include "common/fault.h"

#include <algorithm>
#include <cmath>

#include "common/crash_point.h"

namespace tdp {

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kStall: return "stall";
    case FaultKind::kWriteError: return "write_error";
    case FaultKind::kTornFlush: return "torn_flush";
    case FaultKind::kReadError: return "read_error";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDiskDark: return "disk_dark";
  }
  return "unknown";
}

FaultInjector::FaultInjector() : FaultInjector(std::vector<FaultEvent>{}) {}

FaultInjector::FaultInjector(std::vector<FaultEvent> schedule)
    : schedule_(std::move(schedule)),
      counters_({
          {"fault.spikes", &stats_.spikes},
          {"fault.stalls", &stats_.stalls},
          {"fault.write_errors", &stats_.write_errors},
          {"fault.torn_flushes", &stats_.torn_flushes},
          {"fault.read_errors", &stats_.read_errors},
          {"fault.crashes", &stats_.crashes},
          {"fault.disk_darks", &stats_.disk_darks},
      }) {}

void NoteIoRetries(int extra_attempts) {
  if (extra_attempts <= 0) return;
  // Function-local so the registry lookup happens once per process, not per
  // retry.
  static metrics::Counter* const retries =
      metrics::Registry::Global().GetCounter("io.retries");
  metrics::Inc(retries, static_cast<uint64_t>(extra_attempts));
}

Rng& RetryBackoffRng() {
  static std::atomic<uint64_t> stream{0};
  thread_local Rng rng(0xB0FFC0DEull +
                       0x9E3779B97F4A7C15ull *
                           stream.fetch_add(1, std::memory_order_relaxed));
  return rng;
}

void FaultInjector::AddEvent(const FaultEvent& e) { schedule_.push_back(e); }

void FaultInjector::AddLatencySpike(int64_t start_ns, int64_t duration_ns,
                                    double multiplier) {
  schedule_.push_back(
      {FaultKind::kLatencySpike, start_ns, duration_ns, multiplier});
}

void FaultInjector::AddStall(int64_t start_ns, int64_t duration_ns) {
  schedule_.push_back({FaultKind::kStall, start_ns, duration_ns, 1.0});
}

void FaultInjector::AddWriteError(int64_t start_ns, int64_t duration_ns,
                                  double probability) {
  schedule_.push_back(
      {FaultKind::kWriteError, start_ns, duration_ns, probability});
}

void FaultInjector::AddReadError(int64_t start_ns, int64_t duration_ns,
                                 double probability) {
  schedule_.push_back(
      {FaultKind::kReadError, start_ns, duration_ns, probability});
}

void FaultInjector::AddTornFlush(int64_t start_ns, int64_t duration_ns,
                                 double written_fraction) {
  schedule_.push_back(
      {FaultKind::kTornFlush, start_ns, duration_ns, written_fraction});
}

void FaultInjector::AddCrash(int64_t start_ns, int64_t duration_ns,
                             double written_fraction) {
  schedule_.push_back(
      {FaultKind::kCrash, start_ns, duration_ns, written_fraction});
}

void FaultInjector::AddDiskDark(int64_t start_ns, int64_t duration_ns,
                                double written_fraction) {
  schedule_.push_back(
      {FaultKind::kDiskDark, start_ns, duration_ns, written_fraction});
}

std::vector<FaultEvent> FaultInjector::RandomSchedule(
    uint64_t seed, const RandomFaultConfig& cfg) {
  std::vector<FaultEvent> out;
  Rng rng(seed);
  const double total_weight = cfg.weight_spike + cfg.weight_stall +
                              cfg.weight_write_error + cfg.weight_torn_flush;
  if (total_weight <= 0 || cfg.mean_gap_ns <= 0) return out;
  int64_t t = 0;
  while (true) {
    // Exponential inter-arrival with mean mean_gap_ns.
    const double u = std::max(rng.NextDouble(), 1e-12);
    t += static_cast<int64_t>(-std::log(u) *
                              static_cast<double>(cfg.mean_gap_ns));
    if (t >= cfg.horizon_ns) break;
    FaultEvent e;
    e.start_ns = t;
    const int64_t lo = std::max<int64_t>(cfg.min_duration_ns, 1);
    const int64_t hi = std::max(cfg.max_duration_ns, lo);
    e.duration_ns = rng.UniformRange(lo, hi);
    double pick = rng.NextDouble() * total_weight;
    if ((pick -= cfg.weight_spike) < 0) {
      e.kind = FaultKind::kLatencySpike;
      e.magnitude = cfg.spike_magnitude;
    } else if ((pick -= cfg.weight_stall) < 0) {
      e.kind = FaultKind::kStall;
      e.magnitude = 1.0;
    } else if ((pick -= cfg.weight_write_error) < 0) {
      e.kind = FaultKind::kWriteError;
      e.magnitude = cfg.write_error_probability;
    } else {
      e.kind = FaultKind::kTornFlush;
      e.magnitude = cfg.torn_flush_fraction;
    }
    out.push_back(e);
    // Faults do not overlap: the next gap starts after this one ends.
    t += e.duration_ns;
  }
  return out;
}

void FaultInjector::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> g(rng_mu_);
  rng_ = Rng(seed);
}

void FaultInjector::Arm() {
  epoch_ns_.store(NowNanos(), std::memory_order_release);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
  dark_.store(false, std::memory_order_release);
}

FaultInjector::Perturbation FaultInjector::Evaluate(IoOp op, int64_t now_ns) {
  Perturbation p;
  if (!armed()) return p;
  if (dark()) {
    // The go-dark latch outlives its window: once tripped, this device
    // answers nothing until revived. Scoped strictly to this injector.
    p.fail = true;
    p.written_fraction = 0.0;
    return p;
  }
  const int64_t rel = now_ns - epoch_ns_.load(std::memory_order_acquire);
  for (const FaultEvent& e : schedule_) {
    if (rel < e.start_ns || rel >= e.start_ns + e.duration_ns) continue;
    switch (e.kind) {
      case FaultKind::kLatencySpike:
        p.latency_multiplier *= std::max(e.magnitude, 1.0);
        stats_.spikes.fetch_add(1, std::memory_order_relaxed);
        break;
      case FaultKind::kStall: {
        const int64_t until =
            epoch_ns_.load(std::memory_order_acquire) + e.start_ns +
            e.duration_ns;
        p.stall_until_ns = std::max(p.stall_until_ns, until);
        stats_.stalls.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case FaultKind::kWriteError:
        if (op != IoOp::kRead && !p.fail) {
          bool hit;
          {
            std::lock_guard<std::mutex> g(rng_mu_);
            hit = rng_.Bernoulli(e.magnitude);
          }
          if (hit) {
            p.fail = true;
            p.written_fraction = 0.0;  // nothing reached the medium
            stats_.write_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      case FaultKind::kReadError:
        if (op == IoOp::kRead && !p.fail) {
          bool hit;
          {
            std::lock_guard<std::mutex> g(rng_mu_);
            hit = rng_.Bernoulli(e.magnitude);
          }
          if (hit) {
            p.fail = true;
            p.written_fraction = 0.0;
            stats_.read_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      case FaultKind::kTornFlush:
        if (op == IoOp::kFlush && !p.fail) {
          p.fail = true;
          p.written_fraction =
              std::clamp(e.magnitude, 0.0, 1.0);
          stats_.torn_flushes.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::kCrash:
        // One crash per process lifetime: Trigger is idempotent, but only
        // the tripping I/O is counted/torn here — once the flag is up,
        // SimDisk fails everything at the door without reaching Evaluate.
        p.fail = true;
        p.written_fraction = std::clamp(e.magnitude, 0.0, 1.0);
        stats_.crashes.fetch_add(1, std::memory_order_relaxed);
        CrashPoints::Global().Trigger("fault.crash");
        break;
      case FaultKind::kDiskDark:
        // Device-scoped analogue of kCrash: latch dark_ instead of the
        // process-wide flag, so only this disk stops serving.
        p.fail = true;
        p.written_fraction = std::clamp(e.magnitude, 0.0, 1.0);
        stats_.disk_darks.fetch_add(1, std::memory_order_relaxed);
        dark_.store(true, std::memory_order_release);
        break;
    }
  }
  return p;
}

int64_t FaultInjector::StallRemainingNanos(int64_t now_ns) const {
  if (!armed()) return 0;
  const int64_t epoch = epoch_ns_.load(std::memory_order_acquire);
  const int64_t rel = now_ns - epoch;
  int64_t remaining = 0;
  for (const FaultEvent& e : schedule_) {
    if (e.kind != FaultKind::kStall) continue;
    if (rel < e.start_ns || rel >= e.start_ns + e.duration_ns) continue;
    remaining = std::max(remaining, e.start_ns + e.duration_ns - rel);
  }
  return remaining;
}

}  // namespace tdp
