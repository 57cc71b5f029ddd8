// TransactionService: a fixed-size worker pool in front of engine::Database
// with bounded admission, load shedding, and deterministic drain
// (DESIGN.md "The server layer").
//
// Clients Submit() transaction bodies; a bounded AdmissionQueue absorbs
// bursts, workers (each owning one engine connection) execute them through
// engine::RunTxn, and overload is rejected at the door with
// Status::Overloaded instead of being absorbed as unbounded queueing delay —
// the top-down predictability move: convert hidden tail latency into an
// explicit, counted signal.
//
// Accounting contract (enforced as bench_runner cross-counter invariants):
//   server.admitted + server.shed + server.rejected_recovering
//       == server.submitted
//   server.completed + server.expired + server.drain_aborted
//       == server.admitted
// "shed" counts door rejections only (queue full / not started / stopping);
// a request dropped later because it exceeded max_queue_age_ns was already
// admitted and counts as "expired". Requeues re-enter the queue without
// touching submitted/admitted — one admission, one completion.
//
// Startup recovery barrier: between BeginRecovery() and EndRecovery() the
// door returns Status::Unavailable instead of Overloaded — "come back
// later", not "back off" — counted as server.rejected_recovering, never as
// shed (recovery is not load).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/txn.h"
#include "sched/conflict_predictor.h"
#include "server/admission_queue.h"

namespace tdp::engine {
class ShardRouter;
}  // namespace tdp::engine

namespace tdp::server {

struct ServiceConfig {
  int workers = 4;
  /// Admission bound: Submit beyond this depth sheds with Overloaded.
  size_t max_queue_depth = 256;
  DispatchPolicy policy = DispatchPolicy::kFifo;
  /// Deadline-based shedding: a request that waited longer than this in the
  /// queue is dropped at dispatch (completed with Overloaded, counted as
  /// server.expired). 0 disables.
  int64_t max_queue_age_ns = 0;
  /// Inline retry policy per dispatch. The default (1 attempt) makes
  /// retryable aborts *requeue* instead, which is what lets the dispatch
  /// policy act on them (an inline retry never revisits the queue).
  engine::RetryPolicy retry{.max_attempts = 1};
  /// Total dispatches per request (first + requeues) before its last error
  /// is returned as final.
  int max_dispatches = 16;
  /// Drain semantics: true completes the backlog before workers exit;
  /// false aborts queued-but-unstarted requests with kAborted
  /// (server.drain_aborted). In-flight transactions always run to
  /// completion either way.
  bool drain_completes_backlog = true;
  /// Asynchronous acknowledgement (docs/group_commit.md): workers commit
  /// through engine::RunTxnAsync and hand the request's DoneFn to the log's
  /// epoch instead of blocking on the flush — the worker dispatches the
  /// next admitted request while durability is in flight. done_ns (and the
  /// server.latency_ns the tuner minimizes) is stamped at ack time, so
  /// epoch parking is part of the measured latency. Invariant:
  /// server.async_acks + server.sync_acks == server.completed.
  bool async_ack = false;
  /// Conflict predictor for kConflictAware steering (docs/scheduling.md).
  /// Not owned; must outlive the service. When null, the service asks the
  /// database for its predictor (Database::conflict_predictor()); if that is
  /// also null, kConflictAware degrades to kEldestFirst.
  sched::ConflictPredictor* predictor = nullptr;
  /// No-starvation bound for kConflictAware: an entry whose queue age
  /// reaches this dispatches regardless of its conflict score.
  int64_t max_steer_delay_ns = MillisToNanos(5);
  /// Entries examined per steered pop before falling back to the eldest.
  int steer_scan_limit = 8;
};

/// Per-request outcome, timestamped for open-loop latency measurement.
struct Response {
  Status status;
  int64_t submit_ns = 0;    ///< When Submit() accepted (== admit time).
  int64_t dispatch_ns = 0;  ///< Last dispatch off the queue; 0 if shed.
  int64_t done_ns = 0;      ///< Completion (callback) time.
  int dispatches = 0;       ///< Times it left the queue; 0 if shed.
};

class TransactionService {
 public:
  using DoneFn = std::function<void(const Response&)>;

  /// Totals since construction (the atomics the registry reports as
  /// server.*).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;           ///< Door rejections (Overloaded at Submit).
    uint64_t rejected_recovering = 0;  ///< Door rejections during the
                                       ///< startup recovery barrier
                                       ///< (Unavailable at Submit).
    uint64_t expired = 0;        ///< Admitted, dropped by queue-age deadline.
    uint64_t requeues = 0;
    uint64_t completed = 0;      ///< Reached a final status via a worker.
    uint64_t completed_ok = 0;
    uint64_t drain_aborted = 0;  ///< Unstarted backlog aborted at shutdown.
    uint64_t async_acks = 0;     ///< Completions delivered by a commit ack.
    uint64_t sync_acks = 0;      ///< Completions delivered inline by a worker.
    uint64_t steer_delayed = 0;  ///< Requests a steered pop skipped at least
                                 ///< once (kConflictAware; == sched.flagged).
  };

  TransactionService(engine::Database* db, ServiceConfig config);
  ~TransactionService();  ///< Calls Shutdown().

  TransactionService(const TransactionService&) = delete;
  TransactionService& operator=(const TransactionService&) = delete;

  void Start();

  /// Stops admission, drains per drain_completes_backlog, joins workers.
  /// Idempotent; after it returns no callback is pending.
  void Shutdown();

  /// Enqueues `body`; `done` fires exactly once from a worker thread (or
  /// from Shutdown for aborted backlog). Returns Overloaded — without
  /// invoking `done` — when the queue is full or the service is not
  /// accepting; that rejection is the "shed" count.
  Status Submit(engine::TxnBody body, DoneFn done = nullptr);

  /// Submit with a declared key footprint (sched::ConflictPredictor
  /// fingerprints of the records the transaction expects to write). The
  /// footprint feeds kConflictAware steering and is redeclared on the
  /// worker's connection before every dispatch so kCPVATS sees it too.
  /// Over a sharded engine the footprint is also the routing tier's input:
  /// the admission door hashes it to a shard mask and classifies the
  /// request as single- or cross-shard (shard.routed_single /
  /// shard.routed_cross), so queue-level stats expose the 2PC mix before
  /// any engine work happens.
  Status Submit(engine::TxnBody body, std::vector<uint64_t> footprint,
                DoneFn done);

  /// Synchronous convenience: Submit + wait for the response.
  Response Execute(engine::TxnBody body);

  /// Raises the startup recovery barrier: Submit returns
  /// Status::Unavailable (counted as server.rejected_recovering) until
  /// EndRecovery(). Call before Start() when the engine is replaying its
  /// log, so clients see "recovering" rather than overload.
  void BeginRecovery();
  void EndRecovery();
  bool recovering() const {
    return recovering_.load(std::memory_order_acquire);
  }

  size_t queue_depth() const;
  Stats stats() const;
  const ServiceConfig& config() const { return config_; }

 private:
  struct Request {
    engine::TxnBody body;
    DoneFn done;
    int dispatches = 0;
    Status last_error;
    int64_t submit_ns = 0;
    /// Declared key footprint (empty = undeclared; never steered).
    std::vector<uint64_t> footprint;
    /// A steered pop skipped this request at least once (prediction: "will
    /// conflict"). Set under mu_; read at Complete for hit/false-positive
    /// classification.
    bool steered = false;
    /// The request's final attempt actually hit a conflict (lock wait or
    /// conflict abort). Written only while the worker exclusively owns the
    /// request, read at Complete.
    bool saw_conflict = false;
  };
  using Queue = AdmissionQueue<std::unique_ptr<Request>>;

  void WorkerLoop();
  /// Finalizes a request: stats, metrics, callback. `dispatch_ns` is 0 for
  /// never-dispatched (drain-aborted) requests.
  void Complete(std::unique_ptr<Request> req, Status status,
                int64_t dispatch_ns, int64_t done_ns);

  engine::Database* const db_;
  const ServiceConfig config_;
  /// Resolved steering predictor: config_.predictor, else the database's.
  sched::ConflictPredictor* predictor_ = nullptr;
  /// Routing tier: set when db_ is an engine::ShardedDatabase, else null
  /// (single-node engines have no shards to route to).
  const engine::ShardRouter* router_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Queue queue_;
  bool started_ = false;
  bool stopping_ = false;
  std::atomic<bool> recovering_{false};
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> submitted_{0}, admitted_{0}, shed_{0},
      rejected_recovering_{0}, expired_{0}, requeues_{0}, completed_{0},
      completed_ok_{0}, drain_aborted_{0}, async_acks_{0}, sync_acks_{0},
      steer_delayed_{0}, dispatches_{0};
  // Conflict-predictive steering (docs/scheduling.md). Invariant under
  // kConflictAware: sched.hits + sched.false_positives == sched.flagged
  // (sched.flagged publishes steer_delayed_).
  std::atomic<uint64_t> sched_predictions_{0}, sched_steer_delays_{0},
      sched_hits_{0}, sched_false_positives_{0};
  // Routing tier over a sharded engine (docs/sharding.md). Invariant:
  // shard.routed_single + shard.routed_cross == admitted footprinted
  // requests (unfootprinted requests are unroutable and counted in
  // neither).
  std::atomic<uint64_t> routed_single_{0}, routed_cross_{0};
  /// Publishes the counters above as server.*, sched.* and shard.routed_*
  /// (declared after them).
  const metrics::CounterSources counters_;

  // Async-ack drain barrier: Shutdown joins the workers, then waits here
  // until every ack handed to an epoch has fired (the engine's epoch thread
  // delivers them; engine Stop() resolves any leftovers, so the wait is
  // bounded by the engine's lifetime, which must exceed the service's).
  std::atomic<int64_t> outstanding_acks_{0};
  mutable std::mutex ack_mu_;
  std::condition_variable ack_cv_;

  struct MetricHandles {
    metrics::Gauge* queue_depth = nullptr;
    Histogram* queue_age_ns = nullptr;
    Histogram* latency_ns = nullptr;
  };
  MetricHandles m_;
};

}  // namespace tdp::server
