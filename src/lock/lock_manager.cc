#include "lock/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "tprofiler/profiler.h"

namespace tdp::lock {

const char* SchedulerPolicyName(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kFCFS: return "FCFS";
    case SchedulerPolicy::kVATS: return "VATS";
    case SchedulerPolicy::kRS: return "RS";
    case SchedulerPolicy::kCATS: return "CATS";
    case SchedulerPolicy::kCPVATS: return "CPVATS";
  }
  return "?";
}

LockManager::LockManager(LockManagerConfig config)
    : config_(config),
      table_(static_cast<size_t>(config.num_shards < 1 ? 1
                                                       : config.num_shards)),
      counters_({
          {"lock.grants.total", &stats_.grants_total},
          {"lock.grants.immediate", &stats_.immediate_grants},
          {std::string("lock.grants.sched.") +
               SchedulerPolicyName(config.policy),
           &stats_.grants_sched},
          {"lock.waits", &stats_.waits},
          {"lock.deadlocks", &stats_.deadlocks},
          {"lock.timeouts", &stats_.timeouts},
          {"lock.upgrades", &stats_.upgrades},
      }),
      wait_ns_(metrics::Registry::Global().GetHistogram("lock.wait_ns")) {
  if (config_.num_shards < 1) config_.num_shards = 1;
  if (config_.policy == SchedulerPolicy::kCATS) {
    // CATS needs the wait-for graph to maintain weights.
    config_.detect_deadlocks = true;
    detector_.SetEdgeDeltaCallback([this](uint64_t blocker, int delta) {
      std::lock_guard<std::mutex> g(weights_mu_);
      int& w = blocked_weight_[blocker];
      w += delta;
      if (w <= 0) blocked_weight_.erase(blocker);
    });
  }
}

int LockManager::BlockedWeight(uint64_t txn_id) const {
  std::lock_guard<std::mutex> g(weights_mu_);
  auto it = blocked_weight_.find(txn_id);
  return it == blocked_weight_.end() ? 0 : it->second;
}

int LockManager::TotalBlockedWeight() const {
  std::lock_guard<std::mutex> g(weights_mu_);
  int total = 0;
  for (const auto& [tid, w] : blocked_weight_) total += w;
  return total;
}

LockManager::~LockManager() = default;

void LockManager::SetWaitObserver(
    std::function<void(const WaitObservation&)> obs) {
  std::lock_guard<std::mutex> g(observer_mu_);
  observer_ = std::move(obs);
}

std::vector<LockManager::RequestPtr> LockManager::ScheduleOrder(
    const Queue& q) const {
  // One sort key per waiter, built once per pass; every field ascending:
  // upgrades first, then the policy's weight descending (CATS: current
  // blocked weight; CP-VATS: predicted weight at one `now`, so decay cannot
  // flip pairs mid-sort), then its order key (FCFS: enqueue time; RS:
  // random priority; else birth, eldest first), then txn id. FCFS leaves
  // the id out, so its ties keep queue position through the stable sort.
  struct Key {
    bool not_upgrade = false;
    double neg_weight = 0.0;
    int64_t order = 0;
    uint64_t random = 0;
    uint64_t id = 0;
    const RequestPtr* req = nullptr;
  };
  const SchedulerPolicy policy = config_.policy;
  std::vector<Key> keys(q.waiting.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const RequestPtr& r = q.waiting[i];
    Key& k = keys[i];
    k.not_upgrade = !r->is_upgrade;
    k.req = &r;
    if (policy == SchedulerPolicy::kFCFS) {
      k.order = r->enqueue_ns;
      continue;
    }
    k.id = r->txn->id;
    if (policy == SchedulerPolicy::kRS) {
      k.random = r->txn->random_priority;
    } else {
      k.order = r->txn->birth_ns;
    }
  }
  if (policy == SchedulerPolicy::kCATS) {
    std::lock_guard<std::mutex> g(weights_mu_);
    for (Key& k : keys) {
      auto it = blocked_weight_.find(k.id);
      if (it != blocked_weight_.end()) k.neg_weight = -it->second;
    }
  } else if (policy == SchedulerPolicy::kCPVATS && config_.scorer != nullptr) {
    // Without a scorer every weight is 0 and this is exactly VATS.
    const int64_t now = NowNanos();
    for (Key& k : keys) {
      k.neg_weight = -config_.scorer->PredictedWeight(*(*k.req)->txn, now);
    }
  }
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.not_upgrade, a.neg_weight, a.order, a.random, a.id) <
           std::tie(b.not_upgrade, b.neg_weight, b.order, b.random, b.id);
  });
  std::vector<RequestPtr> order;
  order.reserve(keys.size());
  for (const Key& k : keys) order.push_back(*k.req);
  return order;
}

void LockManager::GrantPass(Queue* q, std::vector<RequestPtr>* woken) {
  if (q->waiting.empty()) return;
  const std::vector<RequestPtr> order = ScheduleOrder(*q);

  // Locks "in front": all granted locks, then earlier waiters in order.
  std::vector<std::pair<uint64_t, LockMode>> ahead;
  ahead.reserve(q->granted.size() + order.size());
  for (const RequestPtr& g : q->granted) ahead.emplace_back(g->txn->id, g->mode);

  for (const RequestPtr& w : order) {
    if (w->state.load(std::memory_order_acquire) != kWaiting) continue;
    bool compatible = true;
    for (const auto& [tid, mode] : ahead) {
      if (tid == w->txn->id) continue;  // own locks never conflict
      if (!Compatible(mode, w->mode)) {
        compatible = false;
        break;
      }
    }
    if (compatible) {
      int expected = kWaiting;
      if (w->state.compare_exchange_strong(expected, kGrantedState,
                                           std::memory_order_acq_rel)) {
        RemoveWaiting(q, w.get());
        if (w->is_upgrade) {
          // Fold the upgrade into the existing granted entry.
          for (RequestPtr& g : q->granted) {
            if (g->txn->id == w->txn->id) {
              g->mode = Supremum(g->mode, w->mode);
              break;
            }
          }
        } else {
          q->granted.push_back(w);
        }
        ahead.emplace_back(w->txn->id, w->mode);
        woken->push_back(w);
      }
    } else {
      ahead.emplace_back(w->txn->id, w->mode);
      if (!config_.grant_compatible_beyond_conflict) break;
    }
  }
}

std::vector<uint64_t> LockManager::BlockersOf(const Queue& q,
                                              const Request& req) const {
  std::vector<uint64_t> blockers;
  for (const RequestPtr& g : q.granted) {
    if (g->txn->id != req.txn->id && !Compatible(g->mode, req.mode))
      blockers.push_back(g->txn->id);
  }
  for (const RequestPtr& w : ScheduleOrder(q)) {
    if (w.get() == &req) break;  // only waiters ahead of us
    if (w->txn->id != req.txn->id &&
        w->state.load(std::memory_order_acquire) == kWaiting &&
        !Compatible(w->mode, req.mode)) {
      blockers.push_back(w->txn->id);
    }
  }
  return blockers;
}

std::unordered_map<uint64_t, int64_t> LockManager::BirthSnapshot(
    const RequestPtr& extra) const {
  std::unordered_map<uint64_t, int64_t> births;
  {
    std::lock_guard<std::mutex> g(waiters_mu_);
    births.reserve(waiters_.size() + 1);
    for (const auto& [tid, entry] : waiters_) births[tid] = entry.txn->birth_ns;
  }
  if (extra) births[extra->txn->id] = extra->txn->birth_ns;
  return births;
}

void LockManager::UpdateWaitEdges(const Queue& q, const RequestPtr& req) {
  if (!config_.detect_deadlocks) return;
  const std::vector<uint64_t> blockers = BlockersOf(q, *req);
  const uint64_t victim =
      detector_.SetWaits(req->txn->id, blockers, BirthSnapshot(req));
  if (victim != 0) SignalVictim(victim);
}

void LockManager::RefreshQueueEdges(const Queue& q, const RequestPtr& req) {
  // Dynamic-order schedulers (weights under CATS) can flip the relative
  // order of two waiters between refreshes; updating one waiter's edges and
  // detecting immediately would race against the other's stale edges and
  // manufacture false cycles. So: phase 1 refreshes every waiter's edge set
  // with no detection; phase 2 runs detection once per waiter on the
  // now-consistent graph.
  std::vector<RequestPtr> live;
  live.push_back(req);
  for (const RequestPtr& w : q.waiting) {
    if (w != req && w->state.load(std::memory_order_acquire) == kWaiting) {
      live.push_back(w);
    }
  }
  for (const RequestPtr& w : live) {
    detector_.SetWaitsNoDetect(w->txn->id, BlockersOf(q, *w));
  }
  const auto births = BirthSnapshot(req);
  for (const RequestPtr& w : live) {
    const uint64_t victim = detector_.Detect(w->txn->id, births);
    if (victim != 0) {
      SignalVictim(victim);
      return;  // one victim breaks the cycle; later passes catch the rest
    }
  }
}

void LockManager::SignalVictim(uint64_t victim_txn) {
  RequestPtr req;
  {
    std::lock_guard<std::mutex> g(waiters_mu_);
    auto it = waiters_.find(victim_txn);
    if (it == waiters_.end()) return;  // stopped waiting concurrently
    req = it->second.req;
  }
  int expected = kWaiting;
  if (req->state.compare_exchange_strong(expected, kDeadlockState,
                                         std::memory_order_acq_rel)) {
    stats_.deadlocks.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(req->wait_mu);
    req->wait_cv.notify_all();
  }
}

void LockManager::NotifyWoken(const std::vector<RequestPtr>& woken) {
  // Runs after the shard lock is dropped; the waiter may already have
  // returned (timeout racing with the grant) and destroyed its TxnContext.
  // Only the Request — kept alive by `woken` — is safe to touch here.
  for (const RequestPtr& w : woken) {
    std::lock_guard<std::mutex> g(w->wait_mu);
    w->wait_cv.notify_all();
  }
}

bool LockManager::RemoveWaiting(Queue* q, const Request* req) {
  for (auto it = q->waiting.begin(); it != q->waiting.end(); ++it) {
    if (it->get() == req) {
      q->waiting.erase(it);
      return true;
    }
  }
  return false;
}

Status LockManager::Lock(TxnContext* txn, RecordId rec, LockMode mode) {
  RequestPtr req;
  bool granted_inline = false;
  // Enqueue-or-grant runs as the record's bucket critical section; the wait
  // itself happens below, outside any table lock.
  table_.WithSlot(rec, [&](Queue& q, bool /*inserted*/) {
    // Re-entrant / upgrade handling.
    RequestPtr mine;
    for (const RequestPtr& gr : q.granted) {
      if (gr->txn->id == txn->id) {
        mine = gr;
        break;
      }
    }
    if (mine) {
      if (Covers(mine->mode, mode)) {
        stats_.grants_total.fetch_add(1, std::memory_order_relaxed);
        granted_inline = true;
        return;
      }
      const LockMode desired = Supremum(mine->mode, mode);
      bool compatible = true;
      for (const RequestPtr& gr : q.granted) {
        if (gr->txn->id != txn->id && !Compatible(gr->mode, desired)) {
          compatible = false;
          break;
        }
      }
      if (compatible) {
        mine->mode = desired;
        stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
        stats_.grants_total.fetch_add(1, std::memory_order_relaxed);
        granted_inline = true;
        return;
      }
      req = std::make_shared<Request>();
      req->txn = txn;
      req->mode = desired;
      req->enqueue_ns = NowNanos();
      req->is_upgrade = true;
      q.waiting.push_back(req);
      stats_.upgrades.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Immediate grant: compatible with all granted and nobody waiting.
      bool compatible = true;
      for (const RequestPtr& gr : q.granted) {
        if (!Compatible(gr->mode, mode)) {
          compatible = false;
          break;
        }
      }
      if (compatible && q.waiting.empty()) {
        auto granted = std::make_shared<Request>();
        granted->txn = txn;
        granted->mode = mode;
        granted->enqueue_ns = NowNanos();
        granted->state.store(kGrantedState, std::memory_order_release);
        q.granted.push_back(std::move(granted));
        txn->held_records.push_back(rec);
        stats_.immediate_grants.fetch_add(1, std::memory_order_relaxed);
        stats_.grants_total.fetch_add(1, std::memory_order_relaxed);
        granted_inline = true;
        return;
      }
      req = std::make_shared<Request>();
      req->txn = txn;
      req->mode = mode;
      req->enqueue_ns = NowNanos();
      q.waiting.push_back(req);
    }

    // Register as a waiter (for victim signalling) before edge analysis.
    // If the edge analysis picks *us* as the victim, our state flips to
    // kDeadlockState before we sleep and the wait below returns immediately.
    {
      std::lock_guard<std::mutex> wg(waiters_mu_);
      waiters_[txn->id] = WaitEntry{req, txn};
    }
    // Under age-ordered policies a new request can insert *ahead* of
    // existing waiters, giving them a brand-new blocker that insertion-time
    // analysis of those waiters never saw; refresh the whole queue's edges
    // (two-phase, see RefreshQueueEdges) or the cycle the new edge closes
    // goes undetected until the wait timeout. Under FCFS a new request is
    // always last, so the single-waiter update suffices.
    if (config_.detect_deadlocks) {
      if (config_.policy != SchedulerPolicy::kFCFS &&
          q.waiting.size() <= config_.insertion_refresh_max_queue) {
        RefreshQueueEdges(q, req);
      } else {
        UpdateWaitEdges(q, req);
      }
    }
  });
  if (granted_inline) return Status::OK();

  // --- suspended: wait on the transaction's event --------------------------
  stats_.waits.fetch_add(1, std::memory_order_relaxed);
  const int64_t wait_start = NowNanos();
  const int64_t age_at_enqueue = txn->AgeAt(wait_start);
  bool timed_out_locally = false;
  {
    TPROF_SCOPE("lock_wait_suspend_thread");
    TPROF_SCOPE("os_event_wait");
    std::unique_lock<std::mutex> lk(req->wait_mu);
    const auto deadline =
        Clock::now() + std::chrono::nanoseconds(config_.wait_timeout_ns);
    timed_out_locally = !req->wait_cv.wait_until(lk, deadline, [&] {
      return req->state.load(std::memory_order_acquire) != kWaiting;
    });
  }
  if (timed_out_locally) {
    int expected = kWaiting;
    req->state.compare_exchange_strong(expected, kTimeoutState,
                                       std::memory_order_acq_rel);
  }

  const int state = req->state.load(std::memory_order_acquire);
  const int64_t wait_ns = NowNanos() - wait_start;
  metrics::Observe(wait_ns_, wait_ns);

  Status result = Status::OK();
  if (state == kGrantedState) {
    if (!req->is_upgrade) txn->held_records.push_back(rec);
    stats_.grants_sched.fetch_add(1, std::memory_order_relaxed);
    stats_.grants_total.fetch_add(1, std::memory_order_relaxed);
    detector_.Remove(txn->id);
  } else {
    // Deadlock victim or timeout: remove our request and re-run the grant
    // pass — our queued (conflicting) request may have been blocking others.
    // A queue this departure leaves fully empty is erased in the same
    // critical section.
    std::vector<RequestPtr> woken;
    table_.EraseIf(rec, [&](Queue& q) {
      RemoveWaiting(&q, req.get());
      GrantPass(&q, &woken);
      return q.granted.empty() && q.waiting.empty();
    });
    NotifyWoken(woken);
    detector_.Remove(txn->id);
    if (state == kDeadlockState) {
      result = Status::Deadlock("chosen as deadlock victim");
    } else {
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      result = Status::LockTimeout();
    }
  }
  {
    std::lock_guard<std::mutex> wg(waiters_mu_);
    waiters_.erase(txn->id);
  }

  std::function<void(const WaitObservation&)> obs;
  {
    std::lock_guard<std::mutex> g(observer_mu_);
    obs = observer_;
  }
  const WaitObservation observation{txn->id, age_at_enqueue, wait_ns,
                                    result.ok()};
  if (obs) obs(observation);
  // The online training signal: every suspension on `rec` was a conflict;
  // deadlock/timeout outcomes weigh heavier (the scorer decides how much).
  // Fired without internal locks held, like the observer.
  if (config_.scorer != nullptr) {
    config_.scorer->OnWaitOutcome(rec, observation, NowNanos());
  }
  return result;
}

void LockManager::ReleaseAll(TxnContext* txn) {
  // A record may appear once in held_records per successful acquisition;
  // upgrades do not add duplicates.
  for (const RecordId& rec : txn->held_records) {
    std::vector<RequestPtr> woken;
    table_.EraseIf(rec, [&](Queue& q) {
      q.granted.erase(std::remove_if(q.granted.begin(), q.granted.end(),
                                     [&](const RequestPtr& r) {
                                       return r->txn->id == txn->id;
                                     }),
                      q.granted.end());
      GrantPass(&q, &woken);
      if (config_.detect_deadlocks && config_.refresh_edges_on_release) {
        std::vector<RequestPtr> refresh;
        for (const RequestPtr& w : q.waiting) {
          if (w->state.load(std::memory_order_acquire) == kWaiting)
            refresh.push_back(w);
        }
        for (const RequestPtr& w : refresh) UpdateWaitEdges(q, w);
      }
      return q.granted.empty() && q.waiting.empty();
    });
    NotifyWoken(woken);
  }
  txn->held_records.clear();
  detector_.Remove(txn->id);
}

std::pair<size_t, size_t> LockManager::QueueDepths(RecordId rec) const {
  auto* self = const_cast<LockManager*>(this);
  std::pair<size_t, size_t> out{0, 0};
  self->table_.WithSlotIfPresent(rec, [&](Queue& q) {
    out = {q.granted.size(), q.waiting.size()};
  });
  return out;
}

}  // namespace tdp::lock
