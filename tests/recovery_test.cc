// Crash recovery: logical redo capture + replay (RecoverInto), including
// recovery under injected torn flushes (the durable-prefix contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "engine/mysqlmini.h"
#include "engine/recovery.h"
#include "log/log_codec.h"
#include "workload/driver.h"
#include "workload/tpcc.h"

namespace tdp::engine {
namespace {

MySQLMiniConfig RecoveryConfig(log::FlushPolicy policy) {
  MySQLMiniConfig cfg;
  cfg.logical_redo = true;
  cfg.flush_policy = policy;
  cfg.flusher_interval_ns = MillisToNanos(5);
  cfg.row_work_ns = 0;
  cfg.btree.level_work_ns = 0;
  cfg.data_disk.base_latency_ns = 0;
  cfg.data_disk.sigma = 0;
  cfg.log_disk.base_latency_ns = 1000;
  cfg.log_disk.sigma = 0;
  cfg.log_disk.flush_barrier_ns = 0;
  return cfg;
}

void CreateSchema(MySQLMini* db) {
  db->CreateTable("acct", 64);
  db->CreateTable("audit", 64);
}

TEST(RecoveryTest, CommittedUpdatesSurvive) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  db.BulkUpsert(acct, 1, storage::Row{100});

  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(acct, 1, 0, 42).ok());
  ASSERT_TRUE(conn->Insert(acct, 2, storage::Row{7, 8}).ok());
  ASSERT_TRUE(conn->Commit().ok());

  const auto recovered = db.redo_log().RecoverCommitted();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].ops.size(), 2u);

  // Replay into a fresh instance with the same schema. Note the recovered
  // image reflects redo only — rows loaded via BulkUpsert (the "backup")
  // must be restored first, as in any backup+log recovery.
  MySQLMini fresh(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&fresh);
  fresh.BulkUpsert(acct, 1, storage::Row{100});
  MySQLMini::RecoverInto(recovered, &fresh);

  auto check = fresh.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(acct, 1, 0), 142);
  EXPECT_EQ(*check->ReadColumn(acct, 2, 1), 8);
  ASSERT_TRUE(check->Commit().ok());
}

TEST(RecoveryTest, RolledBackTxnLeavesNoRedo) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  db.BulkUpsert(acct, 1, storage::Row{100});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(acct, 1, 0, 42).ok());
  conn->Rollback();
  EXPECT_TRUE(db.redo_log().RecoverCommitted().empty());
}

TEST(RecoveryTest, DeleteReplays) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  db.BulkUpsert(acct, 1, storage::Row{1});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Delete(acct, 1).ok());
  ASSERT_TRUE(conn->Commit().ok());

  MySQLMini fresh(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&fresh);
  fresh.BulkUpsert(acct, 1, storage::Row{1});
  MySQLMini::RecoverInto(db.redo_log().RecoverCommitted(), &fresh);
  EXPECT_EQ(fresh.TableRowCount(acct), 0u);
}

TEST(RecoveryTest, ReplayIsIdempotent) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  db.BulkUpsert(acct, 1, storage::Row{10});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(acct, 1, 0, 5).ok());
  ASSERT_TRUE(conn->Commit().ok());

  const auto recovered = db.redo_log().RecoverCommitted();
  MySQLMini fresh(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&fresh);
  fresh.BulkUpsert(acct, 1, storage::Row{10});
  MySQLMini::RecoverInto(recovered, &fresh);
  MySQLMini::RecoverInto(recovered, &fresh);  // replay twice
  auto check = fresh.Connect();
  ASSERT_TRUE(check->Begin().ok());
  EXPECT_EQ(*check->ReadColumn(acct, 1, 0), 15);  // not 20
  ASSERT_TRUE(check->Commit().ok());
}

TEST(RecoveryTest, LazyWriteLosesTailTransactions) {
  MySQLMiniConfig cfg = RecoveryConfig(log::FlushPolicy::kLazyWrite);
  cfg.flusher_interval_ns = MillisToNanos(1000);  // crash before any flush
  MySQLMini db(cfg);
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  db.BulkUpsert(acct, 1, storage::Row{0});
  auto conn = db.Connect();
  ASSERT_TRUE(conn->Begin().ok());
  ASSERT_TRUE(conn->Update(acct, 1, 0, 1).ok());
  ASSERT_TRUE(conn->Commit().ok());  // committed to the client...
  const auto recovered = db.redo_log().RecoverCommitted();
  EXPECT_TRUE(recovered.empty());  // ...but lost in the crash (Appendix B)
}

// End-to-end: concurrent transfer workload, crash, recover, and verify that
// the recovered state is exactly the committed prefix (total conserved).
TEST(RecoveryTest, ConcurrentTransfersRecoverConsistently) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  constexpr int kAccounts = 16;
  constexpr int64_t kInitial = 1000;
  for (int a = 0; a < kAccounts; ++a) {
    db.BulkUpsert(acct, a, storage::Row{kInitial});
  }
  constexpr int kThreads = 4, kTransfers = 60;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto conn = db.Connect();
      Rng rng(t + 1);
      for (int i = 0; i < kTransfers; ++i) {
        const uint64_t from = rng.Uniform(kAccounts);
        uint64_t to = rng.Uniform(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        // Canonical order avoids deadlocks.
        const uint64_t lo = std::min(from, to), hi = std::max(from, to);
        for (;;) {
          ASSERT_TRUE(conn->Begin().ok());
          Status s = conn->Update(acct, lo, 0, lo == from ? -10 : 10);
          if (s.ok()) s = conn->Update(acct, hi, 0, hi == from ? -10 : 10);
          if (s.ok()) s = conn->Commit();
          else conn->Rollback();
          if (s.ok()) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  MySQLMini fresh(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&fresh);
  for (int a = 0; a < kAccounts; ++a) {
    fresh.BulkUpsert(acct, a, storage::Row{kInitial});
  }
  MySQLMini::RecoverInto(db.redo_log().RecoverCommitted(), &fresh);

  auto check = fresh.Connect();
  ASSERT_TRUE(check->Begin().ok());
  int64_t total = 0;
  for (int a = 0; a < kAccounts; ++a) {
    total += *check->ReadColumn(acct, a, 0);
  }
  ASSERT_TRUE(check->Commit().ok());
  EXPECT_EQ(total, int64_t{kAccounts} * kInitial);  // money conserved
}

// Fault-injection × recovery combo: with torn flushes armed past the retry
// budget, degraded commits stay undurable, and RecoverInto reconstructs
// exactly the durable prefix — while the injector's event counters and the
// RetryIo-side retry counters stay in exact agreement.
TEST(RecoveryFaultComboTest, TornFlushRecoversExactlyTheDurablePrefix) {
  metrics::Registry::Global().ResetAll();  // quiesced: private deltas below
  FaultInjector inj;
  // Torn with certainty for the whole phase-2 window, so every flush
  // attempt fails and every phase-2 commit degrades.
  inj.AddTornFlush(0, MillisToNanos(60000), 1.0);

  MySQLMiniConfig cfg = RecoveryConfig(log::FlushPolicy::kEagerFlush);
  cfg.log_group_commit = false;           // per-commit fsync: 1 flush/commit
  cfg.log_fallback_lazy_on_stall = true;  // degrade instead of retry forever
  // The flusher keeps running (Stop() joins it, so the interval must stay
  // small); inside the torn window its rounds fail too, leaving the
  // durable horizon exactly where phase 1 put it.
  cfg.flusher_interval_ns = MillisToNanos(50);
  cfg.io_retry.max_attempts = 2;
  cfg.io_retry.backoff_ns = 1000;
  cfg.log_disk.fault = &inj;
  MySQLMini db(cfg);
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  constexpr int kRows = 10, kDurable = 5;
  for (int a = 0; a < kRows; ++a) db.BulkUpsert(acct, a, storage::Row{100});

  auto conn = db.Connect();
  // Phase 1 (no faults yet): commits fsync synchronously and are durable.
  for (int a = 0; a < kDurable; ++a) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Update(acct, a, 0, a + 1).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  ASSERT_EQ(db.redo_log().durable_lsn(), static_cast<uint64_t>(kDurable));

  inj.Arm();
  // Phase 2: every flush tears; commits degrade (client still sees OK, as
  // with synchronous_commit=off) and stay past the durable horizon.
  for (int a = kDurable; a < kRows; ++a) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Update(acct, a, 0, a + 1).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  EXPECT_EQ(db.redo_log().durable_lsn(), static_cast<uint64_t>(kDurable));

  const auto recovered = db.redo_log().RecoverCommitted();
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kDurable));

  MySQLMini fresh(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&fresh);
  for (int a = 0; a < kRows; ++a) fresh.BulkUpsert(acct, a, storage::Row{100});
  MySQLMini::RecoverInto(recovered, &fresh);
  auto check = fresh.Connect();
  ASSERT_TRUE(check->Begin().ok());
  for (int a = 0; a < kRows; ++a) {
    const int64_t expect = a < kDurable ? 100 + a + 1 : 100;
    EXPECT_EQ(*check->ReadColumn(acct, a, 0), expect) << "row " << a;
  }
  ASSERT_TRUE(check->Commit().ok());

  // Five commit rounds of two torn attempts each, plus however many rounds
  // the background flusher lost to the same window.
  EXPECT_GE(inj.stats().torn_flushes.load(),
            static_cast<uint64_t>(2 * (kRows - kDurable)));
  const metrics::MetricsSnapshot snap =
      metrics::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("fault.torn_flushes"),
            inj.stats().torn_flushes.load());
  // With torn flushes as the only fault, every failed flush attempt is
  // either a RetryIo retry or the round's terminal I/O error.
  EXPECT_EQ(snap.counter("fault.torn_flushes"),
            snap.counter("log.io_retries") + snap.counter("log.io_errors"));
  // The process-wide RetryIo counter saw the same retries (no other disk
  // had faults armed).
  EXPECT_EQ(snap.counter("io.retries"), snap.counter("log.io_retries"));
  EXPECT_EQ(snap.counter("log.degraded_commits"),
            static_cast<uint64_t>(kRows - kDurable));
}

// Checkpoint + log-suffix recovery on the mysql engine: restoring the
// snapshot and replaying only lsn > checkpoint.lsn matches full replay.
TEST(RecoveryTest, CheckpointPlusSuffixMatchesFullReplay) {
  MySQLMini db(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  auto conn = db.Connect();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Insert(acct, i, storage::Row{i}).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  const Checkpoint ckpt = db.TakeCheckpoint().value();
  EXPECT_EQ(ckpt.lsn, 3u);
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Insert(acct, i, storage::Row{i}).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  // Survive one torn checkpoint write: the two-slot store falls back.
  CheckpointStore store;
  store.Save(EncodeCheckpoint(ckpt));
  store.Save(EncodeCheckpoint(db.TakeCheckpoint().value()));
  store.TearNewest(7);
  const auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lsn, ckpt.lsn);

  const auto recovered = db.redo_log().RecoverCommitted();
  MySQLMini via_ckpt(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&via_ckpt);
  RestoreCheckpoint(*loaded, &via_ckpt.catalog());
  MySQLMini::RecoverInto(recovered, &via_ckpt, loaded->lsn);

  MySQLMini via_full(RecoveryConfig(log::FlushPolicy::kEagerFlush));
  CreateSchema(&via_full);
  MySQLMini::RecoverInto(recovered, &via_full);

  auto a = via_ckpt.Connect();
  auto b = via_full.Connect();
  ASSERT_TRUE(a->Begin().ok());
  ASSERT_TRUE(b->Begin().ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*a->ReadColumn(acct, i, 0), i);
    EXPECT_EQ(*b->ReadColumn(acct, i, 0), i);
  }
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
}

// Torn-tail sweep: a post-crash read of the log device surfaces the durable
// prefix plus 0..N bytes of the unflushed tail. Every cut must decode to a
// clean prefix of the commit sequence — torn or clean, never garbage.
TEST(RecoveryTest, CrashImageTailSweepYieldsOnlyCleanPrefixes) {
  MySQLMiniConfig cfg = RecoveryConfig(log::FlushPolicy::kLazyWrite);
  cfg.flusher_interval_ns = MillisToNanos(1000000);  // flusher never runs
  MySQLMini db(cfg);
  CreateSchema(&db);
  const uint32_t acct = db.TableId("acct");
  constexpr int kTxns = 4;
  auto conn = db.Connect();
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(conn->Begin().ok());
    ASSERT_TRUE(conn->Insert(acct, i, storage::Row{i}).ok());
    ASSERT_TRUE(conn->Commit().ok());
  }
  ASSERT_EQ(db.redo_log().durable_lsn(), 0u);  // nothing flushed

  const size_t total = db.redo_log().image_bytes();
  ASSERT_GT(total, 0u);
  uint64_t max_frames = 0;
  for (size_t extra = 0; extra <= total; ++extra) {
    const std::vector<uint8_t> image = db.redo_log().CrashImage(extra);
    ASSERT_EQ(image.size(), extra);  // durable prefix is empty
    std::vector<log::RecoveredTxn> out;
    const log::LogDecodeResult r = log::DecodeLogImage(image, &out);
    ASSERT_TRUE(r.status.ok()) << "extra=" << extra;
    ASSERT_EQ(out.size(), r.frames);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].lsn, i + 1) << "extra=" << extra;
      EXPECT_EQ(out[i].ops.at(0).key, i) << "extra=" << extra;
    }
    EXPECT_GE(r.frames, max_frames);  // monotone in the tail length
    max_frames = std::max(max_frames, r.frames);
  }
  EXPECT_EQ(max_frames, static_cast<uint64_t>(kTxns));
}

}  // namespace
}  // namespace tdp::engine
