#include "pg/wal.h"

#include <algorithm>
#include <chrono>

#include "common/crash_point.h"
#include "tprofiler/profiler.h"

namespace tdp::pg {

WalManager::WalManager(WalConfig config)
    : config_(config),
      counters_({
          {"wal.commits", &stats_.commits},
          {"wal.commit_bytes", &stats_.commit_bytes},
          {"wal.blocks_written", &stats_.blocks_written},
          {"wal.bytes_written", &stats_.bytes_written},
          {"wal.second_log_used", &stats_.second_log_used},
          {"wal.io_retries", &stats_.io_retries},
          {"wal.io_errors", &stats_.io_errors},
          {"wal.degraded_commits", &stats_.degraded_commits},
          {"wal.async_commits", &stats_.async_commits},
          {"wal.epoch_flushes", &stats_.epoch_flushes},
      }) {
  if (config_.block_bytes == 0) config_.block_bytes = 8192;
  int sets = config_.num_log_sets < 1 ? 1 : config_.num_log_sets;
  if (config_.parallel_logging && sets < 2) sets = 2;
  sets_.reserve(sets);
  for (int i = 0; i < sets; ++i) {
    SimDiskConfig disk = config_.disk;
    disk.seed += static_cast<uint64_t>(i) * 101;
    sets_.push_back(std::make_unique<LogSet>(disk));
  }

  auto& reg = metrics::Registry::Global();
  m_.epoch_batch = reg.GetHistogram("wal.epoch_batch");
  m_.queue_depth.reserve(sets_.size());
  for (size_t i = 0; i < sets_.size(); ++i) {
    m_.queue_depth.push_back(
        reg.GetHistogram("wal.queue_depth.set" + std::to_string(i)));
  }
}

WalManager::~WalManager() { Stop(); }

void WalManager::Start() {
  if (running_.exchange(true)) return;
  if (config_.async_commit) {
    epoch_ = std::thread([this] { EpochLoop(); });
  }
}

void WalManager::Stop() {
  if (!running_.exchange(false)) return;
  { std::lock_guard<std::mutex> g(stop_mu_); }
  stop_cv_.notify_all();
  if (epoch_.joinable()) epoch_.join();
  // Resolve parked acks. Stop does NOT flush (crash simulation relies on
  // that): a waiter whose frame an earlier barrier covered acks OK, every
  // other waiter acks non-OK.
  for (std::unique_ptr<LogSet>& set : sets_) {
    std::vector<CommitAckFn> covered, lost;
    {
      std::lock_guard<std::mutex> g(set->mu);
      covered = set->acks.TakeCovered(set->durable_bytes);
      lost = set->acks.Close();
    }
    for (CommitAckFn& ack : covered) ack(Status::OK());
    for (CommitAckFn& ack : lost) {
      ack(Status::Aborted("wal stopped before epoch flush"));
    }
  }
}

void WalManager::EpochLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(
          lk, std::chrono::nanoseconds(config_.epoch_interval_ns),
          [this] { return !running_.load(std::memory_order_relaxed); });
    }
    if (!running_.load(std::memory_order_relaxed)) break;
    for (std::unique_ptr<LogSet>& set : sets_) DrainEpochSet(set.get());
  }
}

void WalManager::DrainEpochSet(LogSet* set) {
  std::vector<CommitAckFn> fire;
  {
    std::lock_guard<std::mutex> g(set->mu);
    if (set->acks.empty()) return;
    // The whole parked batch rides one barrier. A crash armed here loses
    // the entire un-flushed epoch atomically: no parked ack has fired, and
    // none will fire OK unless the barrier lands.
    TDP_CRASH_POINT("epoch.pre_flush");
    const uint64_t bytes = set->pending_bytes;
    set->pending_bytes = 0;
    const Status s = WriteAndFlush(set, bytes);
    if (!s.ok()) set->pending_bytes += bytes;
    // Fire exactly the acks the barrier covered (all of them on success;
    // possibly an earlier-covered prefix on failure).
    fire = set->acks.TakeCovered(set->durable_bytes);
  }
  if (fire.empty()) return;
  stats_.epoch_flushes.fetch_add(1, std::memory_order_relaxed);
  metrics::Observe(m_.epoch_batch, static_cast<int64_t>(fire.size()));
  for (CommitAckFn& ack : fire) ack(Status::OK());
}

Status WalManager::WriteAndFlush(LogSet* set, uint64_t bytes) {
  TPROF_SCOPE("XLogFlush");
  TDP_CRASH_POINT("wal.pre_flush");
  const uint64_t blocks =
      bytes == 0 ? 1 : (bytes + config_.block_bytes - 1) / config_.block_bytes;
  auto attempt_op = [&](auto&& op) -> Status {
    int attempts = 0;
    Status s;
    // Strict mode blocks until the WAL is down: retry rounds repeat until
    // the device recovers (each round is paced by device service time). A
    // triggered crash point means the device is dark until reboot, so the
    // loop escapes instead of hanging the crash harness.
    do {
      s = RetryIo(config_.io_retry, op, &attempts);
      if (attempts > 1) {
        stats_.io_retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                    std::memory_order_relaxed);
      }
    } while (!s.ok() && !config_.degrade_on_stall &&
             !CrashPoints::Global().triggered());
    return s;
  };
  for (uint64_t i = 0; i < blocks; ++i) {
    Status s = attempt_op([&] { return set->disk.Write(config_.block_bytes); });
    if (!s.ok()) {
      stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    stats_.blocks_written.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(config_.block_bytes,
                                   std::memory_order_relaxed);
  }
  Status s = attempt_op([&] { return set->disk.Flush(0); });
  if (!s.ok()) {
    stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The barrier covers every byte written to this set so far, including
    // frames left behind by earlier degraded commits.
    set->durable_bytes = set->image.size();
    TDP_CRASH_POINT("wal.post_flush");
  }
  return s;
}

Status WalManager::ForceDurable() {
  Status result = Status::OK();
  for (std::unique_ptr<LogSet>& set : sets_) {
    std::lock_guard<std::mutex> g(set->mu);
    if (set->durable_bytes >= set->image.size()) continue;
    const uint64_t bytes = set->pending_bytes;
    set->pending_bytes = 0;
    const Status s = WriteAndFlush(set.get(), bytes);
    if (!s.ok()) {
      set->pending_bytes += bytes;
      if (result.ok()) result = s;
    }
  }
  return result;
}

Status WalManager::CommitFlush(uint64_t bytes) {
  return CommitFlushInternal(0, bytes, nullptr, nullptr);
}

Status WalManager::CommitFlush(uint64_t txn_id, uint64_t bytes,
                               const std::vector<log::RedoOp>& ops,
                               uint64_t* out_lsn) {
  return CommitFlushInternal(txn_id, bytes, &ops, out_lsn);
}

WalManager::LogSet* WalManager::AcquireSet(size_t* index) {
  LogSet* chosen = nullptr;
  size_t chosen_index = 0;
  TPROF_SCOPE("LWLockAcquireOrWait");
  if (sets_.size() == 1) {
    // Single log set: all committers serialize on one WALWriteLock.
    sets_[0]->waiters.fetch_add(1, std::memory_order_relaxed);
    sets_[0]->mu.lock();
    sets_[0]->waiters.fetch_sub(1, std::memory_order_relaxed);
    chosen = sets_[0].get();
  } else {
    // Parallel logging: take a free set if any; otherwise wait on the set
    // with the fewest waiters (Section 6.2).
    for (size_t i = 0; i < sets_.size() && chosen == nullptr; ++i) {
      if (sets_[i]->mu.try_lock()) {
        chosen = sets_[i].get();
        chosen_index = i;
      }
    }
    if (chosen == nullptr) {
      // Tie-break equal waiter counts by device queue depth: a set whose
      // disk still has a request in service is a worse bet than one whose
      // disk is truly idle (queue_length() counts in-service requests).
      size_t best = 0;
      int best_waiters = sets_[0]->waiters.load(std::memory_order_relaxed);
      int best_depth = sets_[0]->disk.queue_length();
      for (size_t i = 1; i < sets_.size(); ++i) {
        const int w = sets_[i]->waiters.load(std::memory_order_relaxed);
        const int d = sets_[i]->disk.queue_length();
        if (w < best_waiters || (w == best_waiters && d < best_depth)) {
          best = i;
          best_waiters = w;
          best_depth = d;
        }
      }
      chosen = sets_[best].get();
      chosen_index = best;
      chosen->waiters.fetch_add(1, std::memory_order_relaxed);
      chosen->mu.lock();
      chosen->waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    if (chosen_index > 0) {
      stats_.second_log_used.fetch_add(1, std::memory_order_relaxed);
    }
  }
  *index = chosen_index;
  return chosen;
}

Status WalManager::CommitFlushInternal(uint64_t txn_id, uint64_t bytes,
                                       const std::vector<log::RedoOp>* ops,
                                       uint64_t* out_lsn, CommitAckFn* ack) {
  const bool epoch = ack != nullptr && config_.async_commit &&
                     running_.load(std::memory_order_acquire);
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  stats_.commit_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (epoch) {
    stats_.async_commits.fetch_add(1, std::memory_order_relaxed);
  }

  size_t chosen_index = 0;
  LogSet* chosen = AcquireSet(&chosen_index);
  if (chosen_index < m_.queue_depth.size()) {
    // Device queue depth observed by each commit on its chosen set — the
    // congestion signal parallel logging is meant to halve (Fig. 4).
    metrics::Observe(m_.queue_depth[chosen_index],
                     chosen->disk.queue_length());
  }
  if (ops != nullptr) {
    // XLogInsert: frame the record into the set's image before the flush
    // decision — a degraded commit's record is still "in the WAL buffer"
    // and becomes durable with the set's next successful barrier. The LSN
    // is assigned under the set's WALWriteLock, so each set's image stays
    // in increasing LSN order (globally gappy; recovery merges by LSN).
    const uint64_t lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
    log::AppendLogFrame(lsn, txn_id, *ops, &chosen->image);
    if (out_lsn != nullptr) *out_lsn = lsn;
    TDP_CRASH_POINT("wal.append");
  }
  if (epoch && chosen->acks.Park(chosen->image.size(), std::move(*ack))) {
    // XLogInsert only: the epoch barrier does the device work later.
    chosen->pending_bytes += bytes;
    chosen->mu.unlock();
    return Status::OK();
  }
  // Synchronous flush — also when Stop() closed the set's ledger after the
  // running_ check above. A device frozen past the deadline is skipped
  // rather than freezing the committer with it.
  const bool stalled =
      config_.degrade_on_stall &&
      chosen->disk.StallRemainingNanos() > config_.io_retry.stall_deadline_ns;
  const Status s =
      stalled ? Status::Busy("wal device stalled; synchronous flush skipped")
              : WriteAndFlush(chosen, bytes);
  chosen->mu.unlock();
  if (!s.ok()) {
    stats_.degraded_commits.fetch_add(1, std::memory_order_relaxed);
  }
  if (ack != nullptr) (*ack)(s);
  return s;
}

Status WalManager::CommitFlushAsync(uint64_t txn_id, uint64_t bytes,
                                    const std::vector<log::RedoOp>& ops,
                                    CommitAckFn ack, uint64_t* out_lsn) {
  CommitFlushInternal(txn_id, bytes, ops.empty() ? nullptr : &ops, out_lsn,
                      &ack);
  return Status::OK();
}

std::vector<std::vector<uint8_t>> WalManager::CrashImages(
    const std::vector<uint64_t>& extra_tails) {
  std::vector<std::vector<uint8_t>> images;
  images.reserve(sets_.size());
  for (size_t i = 0; i < sets_.size(); ++i) {
    LogSet* set = sets_[i].get();
    std::lock_guard<std::mutex> g(set->mu);
    const uint64_t extra = i < extra_tails.size() ? extra_tails[i] : 0;
    const size_t end = std::min(
        set->image.size(), set->durable_bytes + static_cast<size_t>(extra));
    images.emplace_back(set->image.begin(),
                        set->image.begin() + static_cast<ptrdiff_t>(end));
  }
  return images;
}

WalManager::RecoveryResult WalManager::RecoverCommitted(
    const std::vector<std::vector<uint8_t>>& images,
    std::vector<log::RecoveredTxn>* out) {
  RecoveryResult r;
  r.status = Status::OK();
  std::vector<log::RecoveredTxn> merged;
  for (const std::vector<uint8_t>& image : images) {
    const log::LogDecodeResult d = log::DecodeLogImage(image, &merged);
    r.frames += d.frames;
    if (d.torn_tail) ++r.torn_sets;
    // First corruption wins; later sets' valid prefixes are still merged.
    if (!d.status.ok() && r.status.ok()) r.status = d.status;
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const log::RecoveredTxn& a, const log::RecoveredTxn& b) {
                     return a.lsn < b.lsn;
                   });
  if (out != nullptr) {
    out->insert(out->end(), std::make_move_iterator(merged.begin()),
                std::make_move_iterator(merged.end()));
  }
  return r;
}

}  // namespace tdp::pg
