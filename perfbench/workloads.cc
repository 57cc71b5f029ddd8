// The three named workloads (README.md has the reasons and the layer map).
#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "common/random.h"
#include "core/toolkit.h"
#include "sched/conflict_predictor.h"
#include "workload/tpcc.h"

namespace perfbench {

namespace {

using tdp::Rng;
using tdp::Status;

// ---- YCSB ------------------------------------------------------------------

struct YcsbShape {
  uint64_t rows = 0;
  double zipf_theta = 0;
  int ops_per_txn = 0;
  int pct_reads = 0;
  /// Read every row once during warm-up (only when the rows fit the pool).
  bool prefill = false;
};

/// YCSB-A style point reads and +1 updates on one table. Generated here
/// rather than by workload::Ycsb so the data check knows every update each
/// committed transaction made.
class YcsbWorkload : public Workload {
 public:
  static constexpr uint64_t kRowsPerPage = 64;

  YcsbWorkload(YcsbShape shape, uint64_t seed)
      : shape_(shape),
        zipf_(shape.rows, shape.zipf_theta),
        rng_(seed),
        committed_adds_(shape.rows) {}

  void Load(engine::Database* db) override {
    table_ = db->CreateTable("usertable", kRowsPerPage);
    for (uint64_t k = 0; k < shape_.rows; ++k) {
      db->BulkUpsert(table_, k, storage::Row{0});
    }
  }

  std::vector<engine::TxnBody> ScanBodies() override {
    std::vector<engine::TxnBody> bodies;
    if (!shape_.prefill) return bodies;
    constexpr uint64_t kBatch = 1000;
    for (uint64_t lo = 0; lo < shape_.rows; lo += kBatch) {
      const uint64_t hi = std::min(shape_.rows, lo + kBatch);
      bodies.push_back([this, lo, hi](engine::Connection& c) -> Status {
        for (uint64_t k = lo; k < hi; ++k) {
          Status s = c.Select(table_, k);
          if (!s.ok()) return s;
        }
        return Status::OK();
      });
    }
    return bodies;
  }

  Request Next() override {
    Request req;
    req.type = "ycsb";
    struct Op {
      uint64_t key;
      bool read;
    };
    std::vector<Op> ops;
    ops.reserve(static_cast<size_t>(shape_.ops_per_txn));
    for (int i = 0; i < shape_.ops_per_txn; ++i) {
      const uint64_t key = zipf_.Next(&rng_);
      const bool read = static_cast<int>(rng_.Uniform(100)) < shape_.pct_reads;
      ops.push_back(Op{key, read});
      if (!read) {
        req.updates.push_back(key);
        req.footprint.push_back(
            sched::ConflictPredictor::Fingerprint(table_, key));
      }
    }
    req.body = [this, ops = std::move(ops)](engine::Connection& c) -> Status {
      for (const Op& op : ops) {
        Status s = op.read ? c.Select(table_, op.key)
                           : c.Update(table_, op.key, 0, 1);
        if (!s.ok()) return s;
      }
      return Status::OK();
    };
    return req;
  }

  void Committed(const char*, const std::vector<uint64_t>& updates) override {
    for (uint64_t k : updates) {
      committed_adds_[k].fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::string> CheckData(engine::Database* db) override {
    std::vector<std::string> problems;
    auto conn = db->Connect();
    constexpr uint64_t kBatch = 1000;
    for (uint64_t lo = 0; lo < shape_.rows && problems.size() < 10;
         lo += kBatch) {
      Status s = conn->Begin();
      const uint64_t hi = std::min(shape_.rows, lo + kBatch);
      for (uint64_t k = lo; s.ok() && k < hi; ++k) {
        s = conn->Select(table_, k);
        if (!s.ok()) break;
        auto v = conn->ReadColumn(table_, k, 0);
        if (!v.ok()) {
          s = v.status();
          break;
        }
        const int64_t want = committed_adds_[k].load();
        if (v.value() != want) {
          problems.push_back("ycsb key " + std::to_string(k) + " holds " +
                             std::to_string(v.value()) + ", expected " +
                             std::to_string(want));
        }
      }
      if (s.ok()) s = conn->Commit();
      if (!s.ok()) {
        conn->Rollback();
        problems.push_back("ycsb check read failed: " + s.ToString());
      }
    }
    return problems;
  }

 private:
  const YcsbShape shape_;
  const tdp::ZipfGenerator zipf_;
  Rng rng_;
  uint32_t table_ = 0;
  /// Committed +1 updates per key (rows load as 0).
  std::vector<std::atomic<int64_t>> committed_adds_;
};

// ---- TPC-C -----------------------------------------------------------------

/// workload::Tpcc driven from the benchmark's seed; the check reads the
/// district and warehouse rows back. Column layout from workload/tpcc.cc:
/// warehouse 0=YTD; district 0=NEXT_O_ID (loaded as 1), 1=YTD.
class TpccWorkload : public Workload {
 public:
  explicit TpccWorkload(uint64_t seed)
      : tpcc_(tdp::core::Toolkit::TpccContended()), rng_(seed) {}

  void Load(engine::Database* db) override { tpcc_.Load(db); }

  Request Next() override {
    tdp::workload::Workload::Txn txn = tpcc_.NextTxn(&rng_);
    Request req;
    req.type = txn.type;
    req.body = std::move(txn.body);
    req.footprint = std::move(txn.footprint);
    return req;
  }

  void Committed(const char* type, const std::vector<uint64_t>&) override {
    if (std::strcmp(type, "NewOrder") == 0) {
      new_orders_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::string> CheckData(engine::Database* db) override {
    const int64_t new_orders = new_orders_.load();
    const tdp::workload::TpccConfig& cfg = tpcc_.config();
    const uint32_t t_wh = db->TableId("warehouse");
    const uint32_t t_dist = db->TableId("district");
    std::vector<std::string> problems;
    auto conn = db->Connect();
    auto read = [&](uint32_t table, uint64_t key, size_t col) -> int64_t {
      Status s = conn->Select(table, key);
      auto v = s.ok() ? conn->ReadColumn(table, key, col)
                      : tdp::Result<int64_t>(s);
      if (!v.ok()) {
        problems.push_back("tpcc check read failed: " +
                           v.status().ToString());
        return 0;
      }
      return v.value();
    };
    Status s = conn->Begin();
    if (!s.ok()) return {"tpcc check begin failed: " + s.ToString()};
    int64_t order_ids_taken = 0;
    for (int w = 0; w < cfg.warehouses; ++w) {
      int64_t d_ytd = 0;
      for (int d = 0; d < cfg.districts_per_wh; ++d) {
        order_ids_taken += read(t_dist, tpcc_.DistrictKey(w, d), 0) - 1;
        d_ytd += read(t_dist, tpcc_.DistrictKey(w, d), 1);
      }
      const int64_t w_ytd = read(t_wh, tpcc_.WarehouseKey(w), 0);
      if (d_ytd != w_ytd) {
        problems.push_back("tpcc warehouse " + std::to_string(w) +
                           ": sum of D_YTD " + std::to_string(d_ytd) +
                           " != W_YTD " + std::to_string(w_ytd));
      }
    }
    if (order_ids_taken != new_orders) {
      problems.push_back("tpcc: sum of D_NEXT_O_ID increments " +
                         std::to_string(order_ids_taken) +
                         " != committed New-Orders " +
                         std::to_string(new_orders));
    }
    conn->Rollback();
    return problems;
  }

 private:
  tdp::workload::Tpcc tpcc_;
  Rng rng_;
  std::atomic<int64_t> new_orders_{0};  ///< Committed New-Orders.
};

// ---- named workloads -------------------------------------------------------

/// Independent device seeds derived from the run seed.
void SeedDevices(engine::MySQLMiniConfig* c, uint64_t seed) {
  c->seed = seed;
  c->data_disk.seed = seed * 4 + 1;
  c->log_disk.seed = seed * 4 + 2;
  c->repl_disk.seed = seed * 4 + 3;
}

/// `d` with every latency term zeroed: no request ever sleeps.
tdp::SimDiskConfig ZeroLatency(tdp::SimDiskConfig d) {
  d.base_latency_ns = 0;
  d.sigma = 0;
  d.flush_barrier_ns = 0;
  // Large enough that the transfer term rounds to 0 ns.
  d.bytes_per_us = 1e15;
  return d;
}

// Each workload spells out the settings that define it, even where they
// equal today's defaults, so a change of default cannot silently change
// what the benchmark measures.

std::unique_ptr<WorkloadSpec> TpccEager(uint64_t seed) {
  auto spec = std::make_unique<WorkloadSpec>();
  spec->kind = engine::EngineKind::kMySQLMini;
  engine::MySQLMiniConfig& m = spec->engine.mysql;
  m = tdp::core::Toolkit::MysqlDefault(tdp::lock::SchedulerPolicy::kVATS);
  m.flush_policy = tdp::log::FlushPolicy::kEagerFlush;
  m.log_group_commit = false;
  SeedDevices(&m, seed);
  spec->service.workers = 4;
  spec->service.policy = server::DispatchPolicy::kFifo;
  spec->service.retry.max_attempts = 1;
  spec->loop = LoopShape{true, 300.0, 0};
  spec->warmup_txns = 600;
  spec->make_workload = [](uint64_t s) -> std::unique_ptr<Workload> {
    return std::make_unique<TpccWorkload>(s);
  };
  return spec;
}

std::unique_ptr<WorkloadSpec> YcsbFloorK3(uint64_t seed) {
  auto spec = std::make_unique<WorkloadSpec>();
  spec->kind = engine::EngineKind::kMySQLMini;
  engine::MySQLMiniConfig& m = spec->engine.mysql;
  m = tdp::core::Toolkit::MysqlDefault(tdp::lock::SchedulerPolicy::kVATS);
  m.buffer_pool_pages = 4096;
  m.row_work_ns = 0;
  m.btree.level_work_ns = 0;
  m.btree.insert_work_ns = 0;
  m.data_disk = ZeroLatency(m.data_disk);
  m.log_disk = ZeroLatency(m.log_disk);
  m.repl_disk = m.log_disk;
  m.log_async_commit = true;
  m.repl_replicas = 3;
  SeedDevices(&m, seed);
  spec->service.workers = 4;
  spec->service.policy = server::DispatchPolicy::kFifo;
  spec->service.retry.max_attempts = 1;
  spec->service.async_ack = true;
  spec->loop = LoopShape{false, 0, 32};
  spec->warmup_txns = 60000;
  spec->make_workload = [](uint64_t s) -> std::unique_ptr<Workload> {
    return std::make_unique<YcsbWorkload>(
        YcsbShape{500000, 0.6, 2, 50, /*prefill=*/false}, s);
  };
  return spec;
}

std::unique_ptr<WorkloadSpec> Ycsb2pc4Shard(uint64_t seed) {
  auto spec = std::make_unique<WorkloadSpec>();
  spec->kind = engine::EngineKind::kSharded;
  spec->engine.sharded.num_shards = 4;
  engine::MySQLMiniConfig& m = spec->engine.sharded.shard;
  m = tdp::core::Toolkit::MysqlDefault(tdp::lock::SchedulerPolicy::kVATS);
  // Cross-shard deadlock cycles are invisible to the per-shard detectors;
  // the timeout breaks them (as in the shard-smoke suite).
  m.lock.wait_timeout_ns = tdp::MillisToNanos(500);
  SeedDevices(&m, seed);
  spec->service.workers = 4;
  spec->service.policy = server::DispatchPolicy::kFifo;
  spec->service.retry.max_attempts = 1;
  spec->loop = LoopShape{true, 150.0, 0};
  spec->warmup_txns = 300;
  spec->make_workload = [](uint64_t s) -> std::unique_ptr<Workload> {
    return std::make_unique<YcsbWorkload>(
        YcsbShape{40000, 0.5, 4, 50, /*prefill=*/true}, s);
  };
  return spec;
}

using SpecFn = std::unique_ptr<WorkloadSpec> (*)(uint64_t);

const std::map<std::string, SpecFn>& Specs() {
  static const std::map<std::string, SpecFn> specs = {
      {"tpcc-1wh-eager", &TpccEager},
      {"ycsb-floor-k3", &YcsbFloorK3},
      {"ycsb-2pc-4shard", &Ycsb2pc4Shard},
  };
  return specs;
}

}  // namespace

std::unique_ptr<WorkloadSpec> MakeSpec(const std::string& name,
                                       uint64_t seed) {
  auto it = Specs().find(name);
  if (it == Specs().end()) return nullptr;
  std::unique_ptr<WorkloadSpec> spec = it->second(seed);
  spec->name = name;
  return spec;
}

std::vector<std::string> SpecNames() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : Specs()) names.push_back(name);
  return names;
}

}  // namespace perfbench
