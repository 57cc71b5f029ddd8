// tdp::metrics — process-wide registry of named counters, gauges and latency
// histograms (docs/metrics.md).
//
// The paper's whole method is measurement-driven; this registry is the
// engine-side half of that story: every subsystem (lock manager, buffer
// pool, redo log / WAL, fault injector, voltmini) publishes its internal
// event counts under stable dotted names, and the bench harness snapshots
// the registry around each experiment so BENCH_*.json can carry internal
// counters next to latency statistics.
//
// Counter ownership — one counter per event:
//  * Instance-owned: a subsystem instance (lock manager, buffer pool, redo
//    log, ...) counts an event with one relaxed fetch_add on its own
//    std::atomic<uint64_t> (usually a field of its Stats struct) and
//    publishes that atomic under a name through a CounterSources member.
//    A name's snapshot value is its retired total plus the sum of its live
//    sources; a destroyed instance first folds its final value into the
//    retired total, so a registry total never goes down.
//  * Registry-owned: GetCounter interns a metrics::Counter for events with
//    no per-instance home (process-wide or engine-level counts).
// A name is one or the other, never both; mixing them aborts.
//
// Cost rules:
//  * Handle acquisition (GetCounter/GetGauge/GetHistogram) and attaching
//    interns the name under a mutex — do it once, at subsystem
//    construction, never on a hot path. Handles are never null and stay
//    valid for the registry's lifetime.
//  * Updates through a handle are lock-free relaxed atomics (one fetch_add;
//    histograms add ~4 relaxed atomic ops).
//
// Snapshots are torn-safe in the same sense as Histogram::Snapshot(): each
// field is read atomically, so a snapshot taken while writers run may lag
// by in-flight updates but never produces out-of-thin-air values.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace tdp::metrics {

/// Monotonic event count. Updates are relaxed fetch_add.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (queue depth, backlog size) with a high watermark.
class Gauge {
 public:
  void Add(int64_t d) {
    const int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
    if (d > 0) {
      int64_t prev = max_.load(std::memory_order_relaxed);
      while (now > prev && !max_.compare_exchange_weak(
                               prev, now, std::memory_order_relaxed)) {
      }
    }
  }
  void Sub(int64_t d) { Add(-d); }
  void Set(int64_t x);
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  int64_t max_seen() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Point-in-time copy of the registry. Maps are keyed by metric name.
struct MetricsSnapshot {
  struct GaugeValue {
    int64_t value = 0;
    int64_t max = 0;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value, 0 when the name was never registered.
  uint64_t counter(const std::string& name) const;
  /// Gauge value (0 when absent).
  GaugeValue gauge(const std::string& name) const;
  /// Histogram snapshot (empty when absent).
  HistogramSnapshot histogram(const std::string& name) const;

  /// Per-experiment delta: counters and histogram buckets are subtracted
  /// (clamped at zero — see HistogramSnapshot::Subtract for the torn-read
  /// rules); gauges keep `after`'s instantaneous value and watermark.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);
};

/// An instance-owned counter: the registry name and the instance's atomic.
using CounterSource = std::pair<std::string, const std::atomic<uint64_t>*>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem publishes into.
  static Registry& Global();

  /// Interns `name` and returns its metric (never null). Mutex-guarded —
  /// call at construction time, not on hot paths. GetCounter aborts when
  /// `name` is instance-owned (has ever had an attached source).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot TakeSnapshot() const;

  /// Zeroes every registered metric as seen by later snapshots (names stay
  /// interned; handles stay valid). Instance-owned counters are rebased,
  /// not written: no instance's stats() changes. Not atomic across metrics
  /// — quiesce writers for exact zeros.
  void ResetAll();

  /// Number of registered metrics across all three kinds.
  size_t size() const;

 private:
  friend class CounterSources;

  /// One counter name: registry-owned (`owned`) or instance-owned
  /// (`instance_owned`: live `sources` plus the `retired` final values of
  /// detached ones).
  struct CounterSlot {
    std::unique_ptr<Counter> owned;
    bool instance_owned = false;
    std::vector<const std::atomic<uint64_t>*> sources;
    uint64_t retired = 0;
    uint64_t reset_base = 0;  ///< Instance-owned total at the last ResetAll.
    uint64_t Total() const;
  };

  /// Publishes / withdraws each source under its name. Detach folds the
  /// source's current value into the name's retired total.
  void Attach(const std::vector<CounterSource>& sources);
  void Detach(const std::vector<CounterSource>& sources);

  mutable std::mutex mu_;
  std::map<std::string, CounterSlot> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Publishes an instance's own counters under registry names for the
/// instance's lifetime (RAII). Declare it after the atomics it publishes, so
/// it is destroyed first — after the instance's threads have stopped
/// counting — and the final values land in each name's retired total. The
/// registry must outlive it.
class CounterSources {
 public:
  explicit CounterSources(std::vector<CounterSource> sources,
                          Registry& registry = Registry::Global());
  ~CounterSources();
  CounterSources(const CounterSources&) = delete;
  CounterSources& operator=(const CounterSources&) = delete;

 private:
  Registry& registry_;
  const std::vector<CounterSource> sources_;
};

// --- hot-path update helpers -----------------------------------------------
inline void Inc(Counter* c, uint64_t n = 1) { c->Add(n); }
inline void GaugeAdd(Gauge* g, int64_t d) { g->Add(d); }
inline void Observe(Histogram* h, int64_t v) { h->Add(v); }

}  // namespace tdp::metrics
