// voltmini: a miniature VoltDB-style event-based engine (Appendix A).
//
// Transactions are stored-procedure invocations: a client submits a
// procedure bound to a partition; the task waits in a queue until one of N
// worker threads picks it up; execution is serialized per partition. The
// paper attributes 99.9% of VoltDB's latency variance to the time events
// spend waiting in these queues, and controls it with the number of worker
// threads (Fig. 7).
//
// Each submission returns a Ticket carrying submit/dequeue/done timestamps,
// so benches can decompose latency into queue wait + execution directly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "storage/catalog.h"

namespace tdp::volt {

struct VoltMiniConfig {
  int num_workers = 2;  ///< The paper's default (Fig. 7 baseline).
  int num_partitions = 8;
  uint64_t seed = 1;
};

class VoltMini {
 public:
  /// A stored procedure body. Runs on a worker thread with its partition's
  /// execution serialized (single-threaded partition model).
  using Procedure = std::function<void()>;

  struct Ticket {
    uint64_t txn_id = 0;
    int64_t submit_ns = 0;
    int64_t dequeue_ns = 0;
    int64_t done_ns = 0;

    int64_t queue_wait_ns() const { return dequeue_ns - submit_ns; }
    int64_t exec_ns() const { return done_ns - dequeue_ns; }
    int64_t latency_ns() const { return done_ns - submit_ns; }

    /// Blocks until the procedure has completed.
    void Wait();

   private:
    friend class VoltMini;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  explicit VoltMini(VoltMiniConfig config);
  ~VoltMini();

  VoltMini(const VoltMini&) = delete;
  VoltMini& operator=(const VoltMini&) = delete;

  void Start();
  /// Drains outstanding tasks, then stops the workers.
  void Stop();

  /// Enqueues `proc` for `partition`; returns immediately.
  std::shared_ptr<Ticket> Submit(int partition, Procedure proc);

  /// Submit + Wait.
  std::shared_ptr<Ticket> Execute(int partition, Procedure proc);

  storage::Catalog& catalog() { return catalog_; }
  int num_workers() const { return config_.num_workers; }
  size_t QueueDepth() const;

 private:
  struct Task {
    int partition;
    Procedure proc;
    std::shared_ptr<Ticket> ticket;
  };

  void WorkerLoop(int worker_index);

  VoltMiniConfig config_;
  storage::Catalog catalog_;

  // Registry-owned handles, interned at construction. The queue gauge tracks live depth (+1 submit, -1 dequeue); the wait/exec
  // histograms publish the Ticket decomposition the paper's Fig. 7 uses;
  // per-worker busy-time counters expose scheduling skew across the pool.
  struct MetricHandles {
    metrics::Counter* submits = nullptr;
    metrics::Counter* completions = nullptr;
    metrics::Gauge* queue_depth = nullptr;
    Histogram* queue_wait_ns = nullptr;
    Histogram* exec_ns = nullptr;
    std::vector<metrics::Counter*> worker_busy_ns;  ///< volt.worker<i>.busy_ns
  };
  MetricHandles m_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;

  std::vector<std::unique_ptr<std::mutex>> partition_mu_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<bool> running_{false};
};

}  // namespace tdp::volt
