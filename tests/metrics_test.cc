// Correctness of the tdp::metrics registry itself: exact concurrent sums,
// torn-safe snapshots while writers run, and the instance-owned counter
// model — live sources sum, destroyed sources retire their totals, ResetAll
// rebases without touching any instance (docs/metrics.md).
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/histogram.h"

namespace tdp::metrics {
namespace {

TEST(MetricsRegistryTest, InterningReturnsStableHandles) {
  Registry r;
  Counter* a = r.GetCounter("test.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, r.GetCounter("test.a"));
  EXPECT_NE(a, r.GetCounter("test.b"));
  // The same dotted name may exist as every kind; they are distinct metrics.
  EXPECT_NE(r.GetGauge("test.a"), nullptr);
  EXPECT_NE(r.GetHistogram("test.a"), nullptr);
  EXPECT_EQ(r.size(), 4u);
}

TEST(MetricsRegistryTest, ConcurrentCounterIncrementsSumExactly) {
  Registry r;
  Counter* c = r.GetCounter("test.sum");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, t] {
      // Mix unit and bulk increments so the test covers both Add forms.
      for (uint64_t i = 0; i < kPerThread; ++i) Inc(c, (t % 2 == 0) ? 1 : 3);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t ones = (kThreads / 2) * kPerThread;
  const uint64_t threes = (kThreads - kThreads / 2) * kPerThread * 3;
  EXPECT_EQ(c->value(), ones + threes);
  EXPECT_EQ(r.TakeSnapshot().counter("test.sum"), ones + threes);
}

TEST(MetricsRegistryTest, ConcurrentGaugeBalancedUpdatesReturnToZero) {
  Registry r;
  Gauge* g = r.GetGauge("test.depth");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([g] {
      for (int i = 0; i < kPerThread; ++i) {
        GaugeAdd(g, 2);
        GaugeAdd(g, -2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g->value(), 0);
  EXPECT_GE(g->max_seen(), 2);
  EXPECT_LE(g->max_seen(), 2 * kThreads);
}

TEST(MetricsRegistryTest, ConcurrentHistogramObservationsCountExactly) {
  Registry r;
  Histogram* h = r.GetHistogram("test.lat");
  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i)
        Observe(h, 1000 + 100 * t);
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = r.TakeSnapshot().histogram("test.lat");
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotWhileWritingIsTornSafe) {
  Registry r;
  Counter* c = r.GetCounter("test.c");
  Gauge* g = r.GetGauge("test.g");
  Histogram* h = r.GetHistogram("test.h");
  constexpr int64_t kValue = 5000;  // constant, so every percentile is known
  Histogram reference;
  reference.Add(kValue);
  const int64_t expected_p50 = reference.Percentile(50);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Inc(c);
        GaugeAdd(g, 1);
        Observe(h, kValue);
        GaugeAdd(g, -1);
      }
    });
  }
  uint64_t prev_count = 0;
  uint64_t prev_hist = 0;
  for (int i = 0; i < 2000; ++i) {
    const MetricsSnapshot snap = r.TakeSnapshot();
    // Counters are monotone across snapshots; no out-of-thin-air values.
    const uint64_t now = snap.counter("test.c");
    ASSERT_GE(now, prev_count);
    prev_count = now;
    const HistogramSnapshot hs = snap.histogram("test.h");
    ASSERT_GE(hs.count, prev_hist);
    prev_hist = hs.count;
    // Every observation is kValue, so any torn-safe snapshot keeps the mean
    // in [0, max] and the median inside kValue's own bucket.
    ASSERT_GE(hs.mean(), 0.0);
    if (hs.count > 0) {
      ASSERT_LE(hs.mean(), static_cast<double>(hs.max));
      ASSERT_EQ(hs.Percentile(50), expected_p50);
    }
    const MetricsSnapshot::GaugeValue gv = snap.gauge("test.g");
    ASSERT_GE(gv.value, 0);
    ASSERT_LE(gv.value, 4);
    ASSERT_LE(gv.max, 4);
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

TEST(MetricsRegistryTest, DeltaSubtractsExactly) {
  Registry r;
  Counter* c = r.GetCounter("test.c");
  Gauge* g = r.GetGauge("test.g");
  Histogram* h = r.GetHistogram("test.h");
  c->Add(10);
  g->Add(3);
  h->Add(100);
  h->Add(200);
  const MetricsSnapshot before = r.TakeSnapshot();
  c->Add(7);
  g->Add(2);
  h->Add(300);
  const MetricsSnapshot after = r.TakeSnapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.counter("test.c"), 7u);
  // Gauges are levels, not totals: the delta keeps `after`'s state.
  EXPECT_EQ(delta.gauge("test.g").value, 5);
  EXPECT_EQ(delta.histogram("test.h").count, 1u);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsHandles) {
  Registry r;
  Counter* c = r.GetCounter("test.c");
  Gauge* g = r.GetGauge("test.g");
  Histogram* h = r.GetHistogram("test.h");
  c->Add(9);
  g->Add(4);
  h->Add(123);
  r.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max_seen(), 0);
  EXPECT_EQ(r.TakeSnapshot().histogram("test.h").count, 0u);
  c->Add(1);  // the old handle still feeds the same metric
  EXPECT_EQ(r.TakeSnapshot().counter("test.c"), 1u);
}

TEST(MetricsRegistryTest, LiveSourcesUnderOneNameSumExactly) {
  Registry r;
  std::atomic<uint64_t> a{0}, b{0};
  CounterSources sa({{"test.events", &a}}, r);
  CounterSources sb({{"test.events", &b}, {"test.alias", &b}}, r);
  a.fetch_add(3);
  b.fetch_add(4);
  const MetricsSnapshot snap = r.TakeSnapshot();
  EXPECT_EQ(snap.counter("test.events"), 7u);
  // One atomic may publish the same event under two names.
  EXPECT_EQ(snap.counter("test.alias"), 4u);
  EXPECT_EQ(r.size(), 2u);
}

TEST(MetricsRegistryTest, DestroyedSourceKeepsTheNameTotal) {
  Registry r;
  std::atomic<uint64_t> survivor{0};
  CounterSources keep({{"test.events", &survivor}}, r);
  survivor.fetch_add(2);
  const MetricsSnapshot before = r.TakeSnapshot();
  {
    std::atomic<uint64_t> gone{0};
    CounterSources temp({{"test.events", &gone}}, r);
    gone.fetch_add(5);
  }
  survivor.fetch_add(1);
  const MetricsSnapshot after = r.TakeSnapshot();
  EXPECT_EQ(after.counter("test.events"), 8u);
  // A delta across the destruction still sees every event (no clamp to 0).
  EXPECT_EQ(MetricsSnapshot::Delta(before, after).counter("test.events"), 6u);
  // The name stays interned with nothing live behind it.
  std::atomic<uint64_t> late{0};
  { CounterSources gone_too({{"test.only_retired", &late}}, r); }
  EXPECT_EQ(r.TakeSnapshot().counters.count("test.only_retired"), 1u);
}

TEST(MetricsRegistryTest, ResetAllRebasesWithoutTouchingInstances) {
  Registry r;
  std::atomic<uint64_t> live{0};
  CounterSources sources({{"test.events", &live}}, r);
  live.fetch_add(9);
  {
    std::atomic<uint64_t> retired{0};
    CounterSources temp({{"test.events", &retired}}, r);
    retired.fetch_add(4);
  }
  EXPECT_EQ(r.TakeSnapshot().counter("test.events"), 13u);
  r.ResetAll();
  EXPECT_EQ(live.load(), 9u);  // the instance's own count is untouched
  EXPECT_EQ(r.TakeSnapshot().counter("test.events"), 0u);
  live.fetch_add(2);
  EXPECT_EQ(r.TakeSnapshot().counter("test.events"), 2u);
}

TEST(MetricsRegistryTest, ConcurrentAttachDetachIncrementSnapshotIsExact) {
  Registry r;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr uint64_t kPerRound = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t prev = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t now = r.TakeSnapshot().counter("test.events");
      ASSERT_GE(now, prev);  // totals never go down, detaches included
      prev = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&r] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<uint64_t> own{0};
        CounterSources sources({{"test.events", &own}}, r);
        for (uint64_t i = 0; i < kPerRound; ++i) {
          own.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(r.TakeSnapshot().counter("test.events"),
            kThreads * kRounds * kPerRound);
}

TEST(MetricsRegistryDeathTest, NameIsNeverBothRegistryAndInstanceOwned) {
  EXPECT_DEATH(
      {
        Registry r;
        r.GetCounter("test.mixed");
        std::atomic<uint64_t> own{0};
        CounterSources sources({{"test.mixed", &own}}, r);
      },
      "both registry-owned and instance-owned");
  EXPECT_DEATH(
      {
        Registry r;
        std::atomic<uint64_t> own{0};
        { CounterSources sources({{"test.mixed", &own}}, r); }
        r.GetCounter("test.mixed");
      },
      "both registry-owned and instance-owned");
}

}  // namespace
}  // namespace tdp::metrics
