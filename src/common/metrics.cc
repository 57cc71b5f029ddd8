#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace tdp::metrics {

void Gauge::Set(int64_t x) {
  v_.store(x, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (x > prev &&
         !max_.compare_exchange_weak(prev, x, std::memory_order_relaxed)) {
  }
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsSnapshot::GaugeValue MetricsSnapshot::gauge(
    const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? GaugeValue{} : it->second;
}

HistogramSnapshot MetricsSnapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot d;
  for (const auto& [name, v] : after.counters) {
    const uint64_t prior = before.counter(name);
    d.counters[name] = v >= prior ? v - prior : 0;
  }
  d.gauges = after.gauges;
  for (const auto& [name, h] : after.histograms) {
    HistogramSnapshot hd = h;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) hd.Subtract(it->second);
    d.histograms[name] = hd;
  }
  return d;
}

Registry& Registry::Global() {
  static Registry* const g = new Registry();
  return *g;
}

namespace {

[[noreturn]] void MixedOwnership(const std::string& name) {
  std::fprintf(stderr,
               "metrics: counter '%s' is both registry-owned and "
               "instance-owned\n",
               name.c_str());
  std::abort();
}

template <typename T>
T* Intern(std::map<std::string, std::unique_ptr<T>>& map,
          const std::string& name) {
  auto& slot = map[name];
  if (!slot) slot = std::make_unique<T>();
  return slot.get();
}

}  // namespace

uint64_t Registry::CounterSlot::Total() const {
  uint64_t t = retired + (owned ? owned->value() : 0);
  for (const auto* s : sources) t += s->load(std::memory_order_relaxed);
  return t;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  CounterSlot& slot = counters_[name];
  if (slot.instance_owned) MixedOwnership(name);
  if (!slot.owned) slot.owned = std::make_unique<Counter>();
  return slot.owned.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  return Intern(gauges_, name);
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  return Intern(histograms_, name);
}

void Registry::Attach(const std::vector<CounterSource>& sources) {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, src] : sources) {
    CounterSlot& slot = counters_[name];
    if (slot.owned) MixedOwnership(name);
    slot.instance_owned = true;
    slot.sources.push_back(src);
  }
}

void Registry::Detach(const std::vector<CounterSource>& sources) {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, src] : sources) {
    CounterSlot& slot = counters_.at(name);
    auto it = std::find(slot.sources.begin(), slot.sources.end(), src);
    slot.retired += (*it)->load(std::memory_order_relaxed);
    slot.sources.erase(it);
  }
}

MetricsSnapshot Registry::TakeSnapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, c] : counters_) {
    const uint64_t total = c.Total();
    s.counters[name] = total >= c.reset_base ? total - c.reset_base : 0;
  }
  for (const auto& [name, gv] : gauges_) {
    s.gauges[name] = MetricsSnapshot::GaugeValue{gv->value(), gv->max_seen()};
  }
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->Snapshot();
  return s;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [name, c] : counters_) {
    if (c.owned) {
      c.owned->Reset();
    } else {
      c.reset_base = c.Total();
    }
  }
  for (auto& [name, gv] : gauges_) gv->Reset();
  for (auto& [name, h] : histograms_) h->Clear();
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

CounterSources::CounterSources(std::vector<CounterSource> sources,
                               Registry& registry)
    : registry_(registry), sources_(std::move(sources)) {
  registry_.Attach(sources_);
}

CounterSources::~CounterSources() { registry_.Detach(sources_); }

}  // namespace tdp::metrics
