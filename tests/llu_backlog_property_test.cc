// Property sweep (seeds × lock schedulers) over the LLU backlog metrics:
// the backlog gauge reported by the registry never exceeds the configured
// bound (connections × llu_backlog_max — each worker thread owns one
// thread-local backlog capped at llu_backlog_max) and always drains to zero
// at quiesce, because session teardown flushes every thread-local backlog.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "common/metrics.h"
#include "core/toolkit.h"
#include "engine/mysqlmini.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace tdp {
namespace {

using LluParam = std::tuple<uint64_t, lock::SchedulerPolicy>;

class LluBacklogPropertyTest : public ::testing::TestWithParam<LluParam> {};

TEST_P(LluBacklogPropertyTest, BacklogBoundedAndDrainedAtQuiesce) {
  const auto [seed, policy] = GetParam();
  metrics::Registry& reg = metrics::Registry::Global();
  // Quiesced here, so ResetAll gives this run a private watermark.
  reg.ResetAll();

  engine::MySQLMiniConfig cfg = core::Toolkit::MysqlMemoryContended(policy);
  cfg.lazy_lru = true;
  engine::MySQLMini db(cfg);
  workload::Tpcc wl(core::Toolkit::Tpcc2WH());

  workload::DriverConfig driver = core::Toolkit::DriverDefault();
  driver.tps = 420;
  driver.connections = 64;
  driver.num_txns = 600;
  driver.warmup_txns = 60;
  driver.seed = seed;
  const core::RunOutcome out = core::LoadAndRun(&db, &wl, driver);
  EXPECT_GT(out.metrics.count, 0u);

  const metrics::MetricsSnapshot snap = reg.TakeSnapshot();
  const metrics::MetricsSnapshot::GaugeValue backlog =
      snap.gauge("buf.llu.backlog");

  // Drained to zero at quiesce: LoadAndRun has joined every worker, and
  // each worker's session destructor flushed its thread-local backlog.
  EXPECT_EQ(backlog.value, 0)
      << "LLU backlog not drained at quiesce (seed=" << seed << ")";

  // Never exceeded the configured bound at any point during the run.
  const int64_t bound =
      static_cast<int64_t>(driver.connections) *
      static_cast<int64_t>(db.buffer_pool().config().llu_backlog_max);
  EXPECT_LE(backlog.max, bound);
  EXPECT_GE(backlog.max, 0);

  // Bookkeeping identities: every spin timeout defers exactly one entry,
  // and nothing is drained or dropped that was never deferred.
  const uint64_t deferred = snap.counter("buf.llu.deferred");
  EXPECT_EQ(snap.counter("buf.llu.spin_timeouts"), deferred);
  EXPECT_LE(snap.counter("buf.llu.drained") + snap.counter("buf.llu.dropped"),
            deferred);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchedulers, LluBacklogPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(3, 11, 29),
                       ::testing::Values(lock::SchedulerPolicy::kFCFS,
                                         lock::SchedulerPolicy::kVATS)),
    [](const ::testing::TestParamInfo<LluParam>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + lock::SchedulerPolicyName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tdp
