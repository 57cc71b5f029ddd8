// log::AckLedger, the parked-ack container behind RedoLog's epoch,
// WalManager's per-set epochs and QuorumLog's quorum wait
// (docs/group_commit.md "The ack contract"):
//  * Park keeps acks in position order (out-of-order parks included);
//    TakeCovered(w) returns exactly the acks at or below w, in order; Close
//    returns the rest and makes every later Park refuse.
//  * Under concurrent Park / TakeCovered / Close every ack fires exactly
//    once, and none fires OK above the watermark it was taken at.
//  * A ledger destroyed with an ack still parked aborts loudly.
//  * Regression: each owner resolves an ack submitted after Stop() exactly
//    once, never OK unless durable. QuorumLog used to park it where nothing
//    resolved it until destruction, so QuorumLog::Commit hung.
#include "log/ack_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "log/redo_log.h"
#include "pg/wal.h"
#include "repl/quorum_log.h"

namespace tdp {
namespace {

using log::AckLedger;

/// Records the position of every ack fired, with its status.
struct Fired {
  std::vector<uint64_t> positions;
  std::vector<Status> statuses;

  AckLedger::AckFn Make(uint64_t position) {
    return [this, position](const Status& s) {
      positions.push_back(position);
      statuses.push_back(s);
    };
  }
};

void FireAll(std::vector<AckLedger::AckFn> acks, const Status& s) {
  for (AckLedger::AckFn& ack : acks) ack(s);
}

TEST(AckLedgerTest, OutOfOrderParkIsTakenInPositionOrder) {
  AckLedger ledger;
  Fired fired;
  for (uint64_t p : {5u, 2u, 9u, 2u, 7u, 1u}) {
    ASSERT_TRUE(ledger.Park(p, fired.Make(p)));
  }
  EXPECT_EQ(ledger.last_position(), 9u);
  FireAll(ledger.TakeCovered(7), Status::OK());
  EXPECT_EQ(fired.positions, (std::vector<uint64_t>{1, 2, 2, 5, 7}));
  EXPECT_FALSE(ledger.empty());
  FireAll(ledger.Close(), Status::Aborted("closed"));
}

TEST(AckLedgerTest, PositionEqualToWatermarkIsCovered) {
  AckLedger ledger;
  Fired fired;
  ASSERT_TRUE(ledger.Park(4, fired.Make(4)));
  ASSERT_TRUE(ledger.Park(5, fired.Make(5)));
  EXPECT_TRUE(ledger.TakeCovered(3).empty());
  FireAll(ledger.TakeCovered(4), Status::OK());
  EXPECT_EQ(fired.positions, (std::vector<uint64_t>{4}));
  FireAll(ledger.TakeCovered(5), Status::OK());
  EXPECT_EQ(fired.positions, (std::vector<uint64_t>{4, 5}));
  EXPECT_TRUE(ledger.empty());
}

TEST(AckLedgerTest, ClosePartitionsTheRestAndRefusesLaterParks) {
  AckLedger ledger;
  Fired fired;
  for (uint64_t p = 1; p <= 6; ++p) ASSERT_TRUE(ledger.Park(p, fired.Make(p)));
  // The owner's Stop: covered acks OK, everything else from Close non-OK.
  FireAll(ledger.TakeCovered(3), Status::OK());
  FireAll(ledger.Close(), Status::Aborted("stopped"));
  ASSERT_EQ(fired.positions, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  for (size_t i = 0; i < fired.statuses.size(); ++i) {
    EXPECT_EQ(fired.statuses[i].ok(), fired.positions[i] <= 3) << i;
  }
  EXPECT_TRUE(ledger.empty());

  // A refused Park leaves the ack with the caller, who resolves it.
  AckLedger::AckFn late = fired.Make(7);
  EXPECT_FALSE(ledger.Park(7, std::move(late)));
  ASSERT_TRUE(static_cast<bool>(late));
  late(Status::Aborted("refused"));
  EXPECT_EQ(fired.positions.size(), 7u);
  EXPECT_TRUE(ledger.empty());
  EXPECT_TRUE(ledger.TakeCovered(100).empty());
  EXPECT_TRUE(ledger.Close().empty());  // idempotent
}

TEST(AckLedgerDeathTest, DestroyingWithAParkedAckAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        AckLedger ledger;
        ledger.Park(1, [](const Status&) {});
      },
      "parked ack");
}

// The taker's watermark at the moment it fires a batch; only the taker
// thread fires OK acks.
thread_local uint64_t t_taken_watermark = 0;

TEST(AckLedgerTest, ConcurrentParkTakeCloseFiresEveryAckExactlyOnce) {
  constexpr uint64_t kPerParker = 5000;
  constexpr uint64_t kTotal = 2 * kPerParker;
  std::mutex mu;  // the owner's mutex
  AckLedger ledger;
  std::atomic<uint64_t> next_position{1};
  std::vector<std::atomic<int>> fired(kTotal + 1);
  std::atomic<int> ok_above_watermark{0};
  std::atomic<uint64_t> ok_fired{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<int> parkers_done{0};
  std::atomic<bool> closed{false};

  auto parker = [&] {
    for (uint64_t i = 0; i < kPerParker; ++i) {
      // Positions are drawn outside the mutex, so the two parkers park
      // them out of order.
      const uint64_t pos = next_position.fetch_add(1);
      // Close races the middle half of the parks; the last quarter is
      // held back until it has run, so some parks are always refused.
      while (pos > kTotal * 3 / 4 && !closed.load()) std::this_thread::yield();
      AckLedger::AckFn ack = [&, pos](const Status& s) {
        fired[pos].fetch_add(1);
        if (s.ok()) {
          ok_fired.fetch_add(1);
          if (pos > t_taken_watermark) ok_above_watermark.fetch_add(1);
        }
      };
      bool parked;
      {
        std::lock_guard<std::mutex> g(mu);
        parked = ledger.Park(pos, std::move(ack));
      }
      if (!parked) {
        refused.fetch_add(1);
        ack(Status::Aborted("closed"));
      }
    }
    parkers_done.fetch_add(1);
  };
  auto taker = [&] {
    while (parkers_done.load() < 2) {
      // Trail the assigned positions so some parks stay above the mark.
      const uint64_t assigned = next_position.load() - 1;
      const uint64_t watermark = assigned > 16 ? assigned - 16 : 0;
      std::vector<AckLedger::AckFn> taken;
      {
        std::lock_guard<std::mutex> g(mu);
        taken = ledger.TakeCovered(watermark);
      }
      t_taken_watermark = watermark;
      FireAll(std::move(taken), Status::OK());
    }
  };
  auto closer = [&] {
    while (next_position.load() <= kTotal / 2) std::this_thread::yield();
    std::vector<AckLedger::AckFn> rest;
    {
      std::lock_guard<std::mutex> g(mu);
      rest = ledger.Close();
    }
    closed.store(true);
    FireAll(std::move(rest), Status::Aborted("closed"));
  };

  std::vector<std::thread> threads;
  threads.emplace_back(parker);
  threads.emplace_back(parker);
  threads.emplace_back(taker);
  threads.emplace_back(closer);
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(ledger.empty());
  for (uint64_t pos = 1; pos <= kTotal; ++pos) {
    ASSERT_EQ(fired[pos].load(), 1) << "position " << pos;
  }
  EXPECT_EQ(ok_above_watermark.load(), 0);
  EXPECT_GE(refused.load(), kTotal / 4);
  EXPECT_LT(ok_fired.load(), kTotal);
}

// --- owners: an ack submitted after Stop() ---------------------------------

SimDiskConfig QuickDisk(uint64_t seed) {
  SimDiskConfig cfg;
  cfg.base_latency_ns = 1000;
  cfg.sigma = 0.0;
  cfg.flush_barrier_ns = 2000;
  cfg.seed = seed;
  return cfg;
}

std::vector<log::RedoOp> OneOp(uint64_t key) {
  std::vector<log::RedoOp> ops;
  ops.push_back(log::RedoOp{log::RedoOp::Kind::kPut, /*table=*/0, key,
                            storage::Row{static_cast<int64_t>(key)}});
  return ops;
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Counts ack firings and keeps the last status. Outlives the log under
/// test, so a late (or second) firing is still observed.
struct AckProbe {
  std::mutex mu;
  Status last;
  std::atomic<int> fired{0};

  AckLedger::AckFn Make() {
    return [this](const Status& s) {
      {
        std::lock_guard<std::mutex> g(mu);
        last = s;
      }
      fired.fetch_add(1, std::memory_order_release);
    };
  }
  bool last_ok() {
    std::lock_guard<std::mutex> g(mu);
    return last.ok();
  }
};

TEST(ParkAfterStopTest, RedoLogCommitAsyncAfterStopAcksOnceByDurability) {
  AckProbe probe;
  SimDisk disk(QuickDisk(3));
  {
    log::RedoLogConfig cfg;
    cfg.disk = &disk;
    cfg.async_commit = true;
    cfg.epoch_interval_ns = MillisToNanos(200);
    log::RedoLog redo(cfg);
    redo.Start();
    redo.Stop();
    const uint64_t lsn = redo.CommitAsync(1, 128, OneOp(1), probe.Make());
    ASSERT_TRUE(WaitFor([&] { return probe.fired.load() == 1; }, 2000));
    if (probe.last_ok()) {
      EXPECT_GE(redo.durable_lsn(), lsn);
      const std::vector<uint64_t> survivors = redo.SimulateCrash();
      EXPECT_NE(std::find(survivors.begin(), survivors.end(), 1u),
                survivors.end());
    }
  }
  EXPECT_EQ(probe.fired.load(), 1);
}

TEST(ParkAfterStopTest, WalCommitFlushAsyncAfterStopAcksOnceByDurability) {
  AckProbe probe;
  {
    pg::WalConfig cfg;
    cfg.block_bytes = 512;
    cfg.disk = QuickDisk(5);
    cfg.async_commit = true;
    cfg.epoch_interval_ns = MillisToNanos(200);
    pg::WalManager wal(cfg);
    wal.Start();
    wal.Stop();
    ASSERT_TRUE(wal.CommitFlushAsync(1, 300, OneOp(1), probe.Make()).ok());
    ASSERT_TRUE(WaitFor([&] { return probe.fired.load() == 1; }, 2000));
    if (probe.last_ok()) {
      std::vector<log::RecoveredTxn> out;
      pg::WalManager::RecoverCommitted(wal.CrashImages(), &out);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].txn_id, 1u);
    }
  }
  EXPECT_EQ(probe.fired.load(), 1);
}

TEST(ParkAfterStopTest, QuorumLogCommitAsyncAfterStopAcksOnceNonOK) {
  AckProbe probe;
  SimDisk leader_disk(QuickDisk(3));
  {
    log::RedoLogConfig lcfg;
    lcfg.disk = &leader_disk;
    lcfg.async_commit = true;
    lcfg.epoch_interval_ns = 200 * 1000;  // the leader's epoch keeps running
    log::RedoLog leader(lcfg);
    repl::QuorumLogConfig qcfg;
    qcfg.leader = &leader;
    qcfg.replicas = 3;
    qcfg.replica_disk = QuickDisk(5);
    repl::QuorumLog ql(qcfg);
    leader.Start();
    ql.Start();
    ql.Stop();
    ql.CommitAsync(1, 128, OneOp(1), probe.Make());
    // Bounded: the stranded ack used to stay parked until destruction.
    EXPECT_TRUE(WaitFor([&] { return probe.fired.load() == 1; }, 2000))
        << "ack stranded after Stop(); quorum_lsn=" << ql.quorum_lsn()
        << " leader_durable=" << leader.durable_lsn();
    // No shipper runs after Stop, so a 2-of-3 quorum never covers it.
    EXPECT_FALSE(probe.last_ok());
    EXPECT_EQ(ql.stats().commits_submitted.load(),
              ql.stats().acks_quorum.load() + ql.stats().acks_lost.load());
    leader.Stop();
  }
  EXPECT_EQ(probe.fired.load(), 1);
}

}  // namespace
}  // namespace tdp
