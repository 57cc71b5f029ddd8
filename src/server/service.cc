#include "server/service.h"

#include <string>
#include <utility>

#include "common/clock.h"
#include "engine/sharded_db.h"

namespace tdp::server {

TransactionService::TransactionService(engine::Database* db,
                                       ServiceConfig config)
    : db_(db),
      config_(std::move(config)),
      queue_(config_.policy, config_.max_queue_depth),
      counters_({
          {"server.submitted", &submitted_},
          {"server.admitted", &admitted_},
          {"server.shed", &shed_},
          {"server.rejected_recovering", &rejected_recovering_},
          {"server.expired", &expired_},
          {"server.requeues", &requeues_},
          {"server.completed", &completed_},
          {"server.completed.ok", &completed_ok_},
          {"server.drain_aborted", &drain_aborted_},
          {"server.async_acks", &async_acks_},
          {"server.sync_acks", &sync_acks_},
          {std::string("server.dispatches.") +
               DispatchPolicyName(config_.policy),
           &dispatches_},
          {"server.steer_delayed", &steer_delayed_},
          {"sched.predictions", &sched_predictions_},
          {"sched.flagged", &steer_delayed_},
          {"sched.steer_delays", &sched_steer_delays_},
          {"sched.hits", &sched_hits_},
          {"sched.false_positives", &sched_false_positives_},
          {"shard.routed_single", &routed_single_},
          {"shard.routed_cross", &routed_cross_},
      }) {
  // Steering predictor: explicit config wins, else the engine's own (the
  // one its lock manager feeds), else steering is off.
  predictor_ = config_.predictor != nullptr ? config_.predictor
                                            : db_->conflict_predictor();
  // Routing tier: over a sharded engine the door classifies each declared
  // footprint by shard mask at Submit, so shard.routed_* exposes the
  // single/cross mix at admission time (the engine's own shard.*_txns
  // counters confirm it at commit time).
  if (auto* sharded = dynamic_cast<engine::ShardedDatabase*>(db_)) {
    router_ = &sharded->router();
  }
  auto& reg = metrics::Registry::Global();
  m_.queue_depth = reg.GetGauge("server.queue_depth");
  m_.queue_age_ns = reg.GetHistogram("server.queue_age_ns");
  m_.latency_ns = reg.GetHistogram("server.latency_ns");
}

TransactionService::~TransactionService() { Shutdown(); }

void TransactionService::Start() {
  std::lock_guard<std::mutex> g(mu_);
  if (started_) return;
  started_ = true;
  workers_.reserve(config_.workers);
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void TransactionService::Shutdown() {
  std::vector<Queue::Entry> aborted;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!config_.drain_completes_backlog) {
      aborted = queue_.PopAll();
      metrics::GaugeAdd(m_.queue_depth,
                        -static_cast<int64_t>(aborted.size()));
    }
  }
  cv_.notify_all();
  // Unstarted backlog is finalized here, on the caller's thread, after
  // admission is closed — deterministic regardless of worker progress.
  const int64_t now = NowNanos();
  for (Queue::Entry& e : aborted) {
    drain_aborted_.fetch_add(1, std::memory_order_relaxed);
    Complete(std::move(e.item), Status::Aborted("service shutdown"),
             /*dispatch_ns=*/0, now);
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Async-ack requests whose durability is still parked on an epoch: wait
  // for their acks so no callback is pending after Shutdown returns.
  std::unique_lock<std::mutex> lk(ack_mu_);
  ack_cv_.wait(lk, [this] {
    return outstanding_acks_.load(std::memory_order_acquire) == 0;
  });
}

Status TransactionService::Submit(engine::TxnBody body, DoneFn done) {
  return Submit(std::move(body), /*footprint=*/{}, std::move(done));
}

Status TransactionService::Submit(engine::TxnBody body,
                                  std::vector<uint64_t> footprint,
                                  DoneFn done) {
  const int64_t now = NowNanos();
  {
    std::lock_guard<std::mutex> g(mu_);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (recovering_.load(std::memory_order_acquire)) {
      // Not overload: the service exists but is replaying its log. Clients
      // should retry after recovery, not back off as if the queue were full.
      rejected_recovering_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("service recovering; retry later");
    }
    const char* reason = nullptr;
    if (!started_) {
      reason = "service not started";
    } else if (stopping_) {
      reason = "service shutting down";
    } else if (queue_.full()) {
      reason = "admission queue full";
    }
    if (reason != nullptr) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Overloaded(reason);
    }
    if (router_ != nullptr && !footprint.empty()) {
      const uint64_t mask = router_->ShardMaskOf(footprint);
      // popcount via Kernighan: masks are at most kMaxShards bits.
      int shards = 0;
      for (uint64_t m = mask; m != 0; m &= m - 1) ++shards;
      (shards <= 1 ? routed_single_ : routed_cross_)
          .fetch_add(1, std::memory_order_relaxed);
    }
    auto req = std::make_unique<Request>();
    req->body = std::move(body);
    req->done = std::move(done);
    req->submit_ns = now;
    req->footprint = std::move(footprint);
    queue_.Push(std::move(req), now);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    metrics::GaugeAdd(m_.queue_depth, 1);
  }
  cv_.notify_one();
  return Status::OK();
}

Response TransactionService::Execute(engine::TxnBody body) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Response out;
  Status s = Submit(std::move(body), [&](const Response& r) {
    std::lock_guard<std::mutex> g(mu);
    out = r;
    ready = true;
    cv.notify_one();
  });
  if (!s.ok()) {
    const int64_t now = NowNanos();
    out.status = std::move(s);
    out.submit_ns = now;
    out.done_ns = now;
    return out;
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return ready; });
  return out;
}

void TransactionService::BeginRecovery() {
  recovering_.store(true, std::memory_order_release);
}

void TransactionService::EndRecovery() {
  recovering_.store(false, std::memory_order_release);
}

size_t TransactionService::queue_depth() const {
  std::lock_guard<std::mutex> g(mu_);
  return queue_.size();
}

TransactionService::Stats TransactionService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected_recovering = rejected_recovering_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.requeues = requeues_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.drain_aborted = drain_aborted_.load(std::memory_order_relaxed);
  s.async_acks = async_acks_.load(std::memory_order_relaxed);
  s.sync_acks = sync_acks_.load(std::memory_order_relaxed);
  s.steer_delayed = steer_delayed_.load(std::memory_order_relaxed);
  return s;
}

void TransactionService::WorkerLoop() {
  std::unique_ptr<engine::Connection> conn = db_->Connect();
  for (;;) {
    Queue::Entry entry;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Only reachable when stopping.
      if (config_.policy == DispatchPolicy::kConflictAware &&
          predictor_ != nullptr) {
        const int64_t now = NowNanos();
        queue_.PopSteered(
            &entry, now, config_.max_steer_delay_ns,
            predictor_->config().score_threshold, config_.steer_scan_limit,
            [this, now](const std::unique_ptr<Request>& r) {
              sched_predictions_.fetch_add(1, std::memory_order_relaxed);
              return predictor_->InflightScore(r->footprint, now);
            },
            [this](const std::unique_ptr<Request>& r) {
              sched_steer_delays_.fetch_add(1, std::memory_order_relaxed);
              if (!r->steered) {
                r->steered = true;  // flagged once per request
                steer_delayed_.fetch_add(1, std::memory_order_relaxed);
              }
            });
      } else {
        queue_.Pop(&entry);
      }
      metrics::GaugeAdd(m_.queue_depth, -1);
    }

    const int64_t dispatch_ns = NowNanos();
    const int64_t age_ns = dispatch_ns - entry.admit_ns;
    metrics::Observe(m_.queue_age_ns, age_ns);

    // Expiry applies ONLY to never-dispatched work (dispatches == 0). A
    // requeued entry keeps its original admit_ns for ordering (the VATS
    // move below), so without this guard a retried request would re-age
    // from its first admission and could be dropped as "expired" after it
    // already ran — and under the sharded engine, after it already sent
    // 2PC prepares. Once work has been dispatched, the only exits are
    // completion, drain-abort, or the max_dispatches cap.
    if (config_.max_queue_age_ns > 0 && age_ns > config_.max_queue_age_ns &&
        entry.item->dispatches == 0) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      Complete(std::move(entry.item),
               Status::Overloaded("queue age deadline exceeded"), dispatch_ns,
               NowNanos());
      continue;
    }

    Request& req = *entry.item;
    ++req.dispatches;
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    // The footprint is copied out of the request before the run: on the
    // async path the ack (which owns and may free the request) can fire
    // inline or on the epoch thread before RunTxnAsync returns.
    const std::vector<uint64_t> footprint = req.footprint;
    conn->DeclareFootprint(footprint);
    if (predictor_ != nullptr && !footprint.empty()) {
      predictor_->RegisterInflight(footprint);
    }
    Status s;
    if (config_.async_ack) {
      // Hand the request's completion to the commit ack: the worker is free
      // to dispatch the next request while durability is in flight on the
      // log's epoch. Ownership moves into the closure *before* the call —
      // the ack may fire inline (read-only txn, sync-fallback engine) and
      // must not race the worker's unique_ptr. done_ns is stamped when the
      // ack fires, so epoch parking lands in server.latency_ns.
      outstanding_acks_.fetch_add(1, std::memory_order_acq_rel);
      Request* raw = entry.item.release();
      s = engine::RunTxnAsync(
          *conn, config_.retry, raw->body,
          [this, raw, dispatch_ns](const Status& st) {
            std::unique_ptr<Request> owned(raw);
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (st.ok()) {
              completed_ok_.fetch_add(1, std::memory_order_relaxed);
            }
            async_acks_.fetch_add(1, std::memory_order_relaxed);
            Complete(std::move(owned), st, dispatch_ns, NowNanos());
            // Decrement and notify under ack_mu_: Shutdown's waiter can
            // only observe zero while holding the lock, so it cannot return
            // (and let the destructor free ack_cv_) before notify_all here
            // has completed.
            std::lock_guard<std::mutex> g(ack_mu_);
            if (outstanding_acks_.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              ack_cv_.notify_all();
            }
          });
      // RunTxnAsync returns after the logical commit (or failure): the
      // transaction's locks are released either way, so its footprint leaves
      // the in-flight set here even though durability may still be parked.
      if (predictor_ != nullptr && !footprint.empty()) {
        predictor_->UnregisterInflight(footprint);
      }
      if (s.ok()) continue;  // The ack owns the request now (or already did).
      // The logical commit failed: the ack never fires. Reclaim the request
      // and fall through to the shared requeue / sync-completion path.
      entry.item.reset(raw);
      if (s.IsDeadlock() || s.IsLockTimeout()) req.saw_conflict = true;
      {
        std::lock_guard<std::mutex> g(ack_mu_);
        if (outstanding_acks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          ack_cv_.notify_all();
        }
      }
    } else {
      engine::TxnStats txn_stats;
      s = engine::RunTxn(*conn, config_.retry, req.body, &txn_stats);
      if (predictor_ != nullptr && !footprint.empty()) {
        predictor_->UnregisterInflight(footprint);
      }
      // Any deadlock/timeout abort across the dispatch's attempts counts as
      // a conflict, even if an inline retry later succeeded.
      if (txn_stats.deadlock_aborts + txn_stats.timeout_aborts > 0) {
        req.saw_conflict = true;
      }
    }
    if (!s.ok() && engine::RetryableTxnError(s, config_.retry) &&
        req.dispatches < config_.max_dispatches) {
      req.last_error = s;
      std::unique_lock<std::mutex> lk(mu_);
      if (!stopping_ && !queue_.full()) {
        // Re-enter keeping the original admission time AND push sequence:
        // under kEldestFirst/kConflictAware the victim outranks younger
        // arrivals (the VATS move) and equal-admit ties stay stable; under
        // kFifo it rejoins at the back with a fresh seq.
        queue_.Requeue(std::move(entry));
        requeues_.fetch_add(1, std::memory_order_relaxed);
        metrics::GaugeAdd(m_.queue_depth, 1);
        lk.unlock();
        cv_.notify_one();
        continue;
      }
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      completed_ok_.fetch_add(1, std::memory_order_relaxed);
    }
    sync_acks_.fetch_add(1, std::memory_order_relaxed);
    Complete(std::move(entry.item), std::move(s), dispatch_ns, NowNanos());
  }
}

void TransactionService::Complete(std::unique_ptr<Request> req, Status status,
                                  int64_t dispatch_ns, int64_t done_ns) {
  if (req->steered) {
    // Hit/false-positive accounting: every flagged request reaches Complete
    // exactly once, so sched.hits + sched.false_positives == sched.flagged.
    (req->saw_conflict || status.IsDeadlock() || status.IsLockTimeout()
         ? sched_hits_
         : sched_false_positives_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  metrics::Observe(m_.latency_ns, done_ns - req->submit_ns);
  if (!req->done) return;
  Response r;
  r.status = std::move(status);
  r.submit_ns = req->submit_ns;
  r.dispatch_ns = dispatch_ns;
  r.done_ns = done_ns;
  r.dispatches = req->dispatches;
  req->done(r);
}

}  // namespace tdp::server
