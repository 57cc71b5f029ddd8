// ShardedDatabase live behavior: hash routing, the single-shard fast path,
// cross-shard 2PC commit/abort classification, read-only release, pin
// overrides, and gtid assignment (docs/sharding.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "engine/sharded_db.h"

namespace tdp::engine {
namespace {

ShardedDatabaseConfig FastConfig(int num_shards) {
  ShardedDatabaseConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.logical_redo = true;
  cfg.shard.row_work_ns = 0;
  cfg.shard.btree.level_work_ns = 0;
  cfg.shard.data_disk.base_latency_ns = 0;
  cfg.shard.data_disk.sigma = 0;
  cfg.shard.log_disk.base_latency_ns = 0;
  cfg.shard.log_disk.sigma = 0;
  cfg.shard.log_disk.flush_barrier_ns = 0;
  // Cross-shard cycles are invisible to per-shard detectors; timeouts break
  // them (the factory enforces this for kSharded, tests keep the habit).
  cfg.shard.lock.wait_timeout_ns = MillisToNanos(200);
  return cfg;
}

/// First key (>= from) owned by `shard`.
uint64_t KeyOn(const ShardedDatabase& db, uint32_t table, uint32_t shard,
               uint64_t from = 0) {
  for (uint64_t k = from;; ++k) {
    if (db.router().ShardOf(table, k) == shard) return k;
  }
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->value();
}

TEST(ShardedDbTest, RoutesRowsToOwnerShardsAndSumsCounts) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  for (uint64_t k = 0; k < 64; ++k) db.BulkUpsert(t, k, storage::Row{1});
  EXPECT_EQ(db.TableRowCount(t), 64u);
  uint64_t per_shard = 0;
  for (int s = 0; s < db.num_shards(); ++s) {
    const uint64_t n = db.shard(s)->TableRowCount(t);
    EXPECT_GT(n, 0u) << "shard " << s << " owns no rows out of 64";
    per_shard += n;
  }
  EXPECT_EQ(per_shard, 64u);
  // Every row readable through the routed connection.
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  for (uint64_t k = 0; k < 64; ++k) EXPECT_EQ(*conn->ReadColumn(t, k, 0), 1);
  ASSERT_TRUE(conn->Commit().ok());
}

TEST(ShardedDbTest, SingleShardCommitTakesFastPath) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k0b = KeyOn(db, t, 0, k0 + 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k0b, storage::Row{20});

  const uint64_t single0 = CounterValue("shard.single_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 1).ok());
  ASSERT_TRUE(conn->Update(t, k0b, 0, 1).ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(CounterValue("shard.single_shard_txns") - single0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 0u);
}

TEST(ShardedDbTest, CrossShardCommitRuns2PCAndApplies) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k1, storage::Row{20});

  const uint64_t cross0 = CounterValue("shard.cross_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  const uint64_t prep0 = CounterValue("2pc.prepared");
  const uint64_t dec0 = CounterValue("2pc.decisions");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 5).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 7).ok());
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(CounterValue("shard.cross_shard_txns") - cross0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 1u);
  EXPECT_EQ(CounterValue("2pc.prepared") - prep0, 1u);
  EXPECT_EQ(CounterValue("2pc.decisions") - dec0, 1u);

  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 15);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 27);
  ASSERT_TRUE(check->Commit().ok());
}

// Each shard's lock manager and redo log own their counters; the registry
// name is the sum over the live shards, and destroying the database keeps
// every shard's final count in the name's total.
TEST(ShardedDbTest, RegistryTotalsAreTheSumOfPerShardCounts) {
  auto& reg = metrics::Registry::Global();
  const metrics::MetricsSnapshot before = reg.TakeSnapshot();
  uint64_t commits = 0;
  uint64_t grants = 0;
  {
    ShardedDatabase db(FastConfig(4));
    const uint32_t t = db.CreateTable("acct", 64);
    for (uint64_t k = 0; k < 64; ++k) db.BulkUpsert(t, k, storage::Row{0});
    auto conn = db.Connect();
    for (uint64_t k = 0; k + 1 < 64; k += 4) {  // single- and cross-shard
      ASSERT_TRUE(conn->Begin().ok());
      ASSERT_TRUE(conn->Update(t, k, 0, 1).ok());
      if (k % 8 == 0) {
        ASSERT_TRUE(conn->Update(t, k + 1, 0, 1).ok());
      }
      ASSERT_TRUE(conn->Commit().ok());
    }
    for (int s = 0; s < db.num_shards(); ++s) {
      commits += db.shard(s)->redo_log().stats().commits.load();
      grants += db.shard(s)->lock_manager().stats().grants_total.load();
    }
    const metrics::MetricsSnapshot live =
        metrics::MetricsSnapshot::Delta(before, reg.TakeSnapshot());
    EXPECT_GT(commits, 0u);
    EXPECT_GT(grants, 0u);
    EXPECT_EQ(live.counter("log.commits"), commits);
    EXPECT_EQ(live.counter("lock.grants.total"), grants);
  }
  const metrics::MetricsSnapshot retired =
      metrics::MetricsSnapshot::Delta(before, reg.TakeSnapshot());
  EXPECT_EQ(retired.counter("log.commits"), commits);
  EXPECT_EQ(retired.counter("lock.grants.total"), grants);
}

TEST(ShardedDbTest, ReadOnlyCrossShardCommitSkips2PC) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{1});
  db.BulkUpsert(t, k1, storage::Row{2});

  const uint64_t cross0 = CounterValue("shard.cross_shard_txns");
  const uint64_t coord0 = CounterValue("2pc.coordinated");
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Select(t, k0).ok());
  ASSERT_TRUE(conn->Select(t, k1).ok());
  ASSERT_TRUE(conn->Commit().ok());
  // Classified cross-shard, but nothing durable to coordinate: no round.
  EXPECT_EQ(CounterValue("shard.cross_shard_txns") - cross0, 1u);
  EXPECT_EQ(CounterValue("2pc.coordinated") - coord0, 0u);
}

TEST(ShardedDbTest, RollbackUndoesEveryShard) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{10});
  db.BulkUpsert(t, k1, storage::Row{20});

  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 5).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 7).ok());
  conn->Rollback();

  auto check = db.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(t, k0, 0), 10);
  EXPECT_EQ(*check->ReadColumn(t, k1, 0), 20);
  ASSERT_TRUE(check->Commit().ok());
}

TEST(ShardedDbTest, EmptyCommitIsOk) {
  ShardedDatabase db(FastConfig(2));
  db.CreateTable("acct", 64);
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_TRUE(conn->Commit().ok());
}

TEST(ShardedDbTest, PinOverridesHashAndUnpinReverts) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k = KeyOn(db, t, 0);
  ASSERT_EQ(db.router().ShardOf(t, k), 0u);

  db.router().Pin(t, k, 3);
  EXPECT_EQ(db.router().ShardOf(t, k), 3u);
  EXPECT_EQ(db.router().pinned(), 1u);
  // A row upserted after pinning lands — and is found — on the pinned shard.
  db.BulkUpsert(t, k, storage::Row{9});
  EXPECT_EQ(db.shard(3)->TableRowCount(t), 1u);
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_EQ(*conn->ReadColumn(t, k, 0), 9);
  ASSERT_TRUE(conn->Commit().ok());

  EXPECT_TRUE(db.router().Unpin(t, k));
  EXPECT_EQ(db.router().ShardOf(t, k), 0u);
  EXPECT_FALSE(db.router().Unpin(t, k));
}

TEST(ShardedDbTest, ShardMaskCoversDeclaredFootprint) {
  ShardedDatabase db(FastConfig(4));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k2 = KeyOn(db, t, 2);
  const std::vector<uint64_t> fp = {
      sched::ConflictPredictor::Fingerprint(t, k0),
      sched::ConflictPredictor::Fingerprint(t, k2)};
  EXPECT_EQ(db.router().ShardMaskOf(fp), (uint64_t{1} << 0) | (uint64_t{1} << 2));
  EXPECT_EQ(db.router().ShardMaskOf({}), 0u);
}

TEST(ShardedDbTest, GtidsAreDistinctAcrossConnections) {
  ShardedDatabase db(FastConfig(2));
  db.CreateTable("acct", 64);
  auto a = db.Connect();
  auto b = db.Connect();
  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(b->Begin().ok());
  EXPECT_NE(a->current_txn_id(), 0u);
  EXPECT_NE(a->current_txn_id(), b->current_txn_id());
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
}

TEST(ShardedDbTest, AsyncCommitFallsBackInlineForCrossShard) {
  ShardedDatabase db(FastConfig(2));
  const uint32_t t = db.CreateTable("acct", 64);
  const uint64_t k0 = KeyOn(db, t, 0);
  const uint64_t k1 = KeyOn(db, t, 1);
  db.BulkUpsert(t, k0, storage::Row{0});
  db.BulkUpsert(t, k1, storage::Row{0});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(t, k0, 0, 1).ok());
  ASSERT_TRUE(conn->Update(t, k1, 0, 1).ok());
  bool acked = false;
  ASSERT_TRUE(conn->CommitAsync([&](const Status& s) {
    EXPECT_TRUE(s.ok());
    acked = true;
  }).ok());
  EXPECT_TRUE(acked);
}

}  // namespace
}  // namespace tdp::engine
