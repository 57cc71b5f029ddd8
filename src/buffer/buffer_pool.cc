#include "buffer/buffer_pool.h"

#include <cassert>
#include <chrono>

#include "common/work.h"
#include "tprofiler/profiler.h"

namespace tdp::buffer {

namespace {
std::atomic<uint64_t> g_pool_generation{1};

constexpr size_t kDefaultHashBuckets = 256;

/// Thread-local LLU backlog. A thread's backlog belongs to one pool at a
/// time (identified by pointer + generation, so pools recycled at the same
/// address do not inherit stale entries); engine worker threads only ever
/// touch their engine's pool, which is the intended usage.
struct LluBacklog {
  const void* pool = nullptr;
  uint64_t gen = 0;
  std::vector<PageId> ids;
};
thread_local LluBacklog t_backlog;
}  // namespace

BufferPool::BufferPool(BufferPoolConfig config)
    : config_(config),
      generation_(g_pool_generation.fetch_add(1)),
      table_(config.hash_buckets > 0 ? config.hash_buckets
                                     : kDefaultHashBuckets),
      counters_({
          {"buf.hits", &stats_.hits},
          {"buf.misses", &stats_.misses},
          {"buf.evictions", &stats_.evictions},
          {"buf.dirty_writebacks", &stats_.dirty_writebacks},
          {"buf.make_young", &stats_.make_young},
          // Every LLU spin timeout defers exactly one reorder.
          {"buf.llu.spin_timeouts", &stats_.llu_deferred},
          {"buf.llu.deferred", &stats_.llu_deferred},
          {"buf.llu.drained", &stats_.llu_drained},
          {"buf.llu.dropped", &stats_.llu_dropped},
          {"buf.io_retries", &stats_.io_retries},
          {"buf.read_failures", &stats_.read_failures},
          {"buf.writeback_failures", &stats_.writeback_failures},
      }),
      llu_backlog_(metrics::Registry::Global().GetGauge("buf.llu.backlog")) {
  assert(config_.capacity_pages > 0);
}

BufferPool::~BufferPool() {
  for (Frame* f : young_) delete f;
  for (Frame* f : old_) delete f;
  // Frames still io-fixed at destruction would leak; the pool must be idle
  // when destroyed (enforced by the engines' shutdown order).
}

std::vector<PageId>& BufferPool::Backlog() {
  if (t_backlog.pool != this || t_backlog.gen != generation_) {
    // Entries deferred against another pool are abandoned here; retire them
    // from the (process-wide) backlog gauge so it keeps matching the number
    // of entries that can still be drained.
    metrics::GaugeAdd(llu_backlog_,
                      -static_cast<int64_t>(t_backlog.ids.size()));
    t_backlog.pool = this;
    t_backlog.gen = generation_;
    t_backlog.ids.clear();
  }
  return t_backlog.ids;
}

void BufferPool::LruLockBlocking() {
  if (config_.lazy_lru) {
    lru_spin_.lock();
  } else {
    lru_mu_.lock();
  }
}

bool BufferPool::LruLockBounded() {
  if (config_.lazy_lru) return lru_spin_.try_lock_for(config_.llu_spin_budget_ns);
  lru_mu_.lock();
  return true;
}

void BufferPool::LruUnlock() {
  if (config_.lazy_lru) {
    lru_spin_.unlock();
  } else {
    lru_mu_.unlock();
  }
}

void BufferPool::BalanceListsLocked() {
  const size_t total = young_.size() + old_.size();
  const size_t target_old =
      static_cast<size_t>(config_.old_ratio * static_cast<double>(total));
  while (old_.size() < target_old && !young_.empty()) {
    Frame* f = young_.back();
    young_.pop_back();
    old_.push_front(f);
    f->lru_pos = old_.begin();
    f->in_old.store(true, std::memory_order_relaxed);
  }
  while (old_.size() > target_old + 1 && !old_.empty()) {
    Frame* f = old_.front();
    old_.pop_front();
    young_.push_back(f);
    f->lru_pos = std::prev(young_.end());
    f->in_old.store(false, std::memory_order_relaxed);
  }
}

void BufferPool::MoveToYoungHeadLocked(Frame* frame) {
  if (!frame->in_lru) return;
  if (!frame->in_old.load(std::memory_order_relaxed)) {
    // Already young; MySQL does not maintain precise order within the young
    // sublist, so a young hit is a no-op.
    return;
  }
  old_.erase(frame->lru_pos);
  young_.push_front(frame);
  frame->lru_pos = young_.begin();
  frame->in_old.store(false, std::memory_order_relaxed);
  BalanceListsLocked();
}

void BufferPool::DrainBacklogLocked() {
  std::vector<PageId>& backlog = Backlog();
  if (backlog.empty()) return;
  for (const PageId& id : backlog) {
    Frame* frame = nullptr;
    table_.WithSlotIfPresent(id, [&](Frame*& f) {
      if (!f->io_fixed) frame = f;
    });
    if (frame == nullptr) continue;  // evicted (or mid-read) meanwhile
    // We hold the LRU lock, so the frame cannot be evicted concurrently
    // (eviction requires this lock).
    MoveToYoungHeadLocked(frame);
    stats_.llu_drained.fetch_add(1, std::memory_order_relaxed);
  }
  metrics::GaugeAdd(llu_backlog_, -static_cast<int64_t>(backlog.size()));
  backlog.clear();
}

void BufferPool::MakeYoung(Frame* frame) {
  bool locked = true;
  {
    TPROF_SCOPE("buf_pool_mutex_enter");
    if (config_.lazy_lru) {
      locked = LruLockBounded();
    } else {
      LruLockBlocking();
    }
  }
  if (!locked) {
    // LLU: abandon the reorder, remember it for later.
    std::vector<PageId>& backlog = Backlog();
    if (backlog.size() >= config_.llu_backlog_max) {
      backlog.erase(backlog.begin());
      stats_.llu_dropped.fetch_add(1, std::memory_order_relaxed);
      // Drop + push is net zero on the backlog gauge.
    } else {
      metrics::GaugeAdd(llu_backlog_, 1);
    }
    backlog.push_back(frame->id);
    stats_.llu_deferred.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    TPROF_SCOPE("buf_page_make_young");
    if (config_.lazy_lru) DrainBacklogLocked();
    MoveToYoungHeadLocked(frame);
    SpinFor(config_.lru_critical_work_ns);
    stats_.make_young.fetch_add(1, std::memory_order_relaxed);
  }
  LruUnlock();
}

BufferPool::Frame* BufferPool::PickVictimLocked() {
  auto scan = [&](std::list<Frame*>& list) -> Frame* {
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      Frame* f = *it;
      // Pin/io_fix checks and the table erase are one bucket critical
      // section, so a racing Fetch either pins before we look (we skip) or
      // misses after the erase (it re-reads the page).
      const bool evicted = table_.EraseIf(f->id, [&](Frame*& entry) {
        if (entry != f || f->pin_count > 0 || f->io_fixed) return false;
        f->erased = true;
        f->in_lru = false;
        return true;
      });
      if (!evicted) continue;
      list.erase(std::next(it).base());
      resident_.fetch_sub(1, std::memory_order_relaxed);
      return f;
    }
    return nullptr;
  };
  SpinFor(config_.lru_critical_work_ns);  // victim-scan bookkeeping
  // Replacement victims come from the old sublist; fall back to the young
  // list only when every old page is pinned.
  if (Frame* f = scan(old_)) return f;
  return scan(young_);
}

Status BufferPool::Fetch(PageId id) {
  Frame* nf = nullptr;
  for (;;) {
    Frame* hit = nullptr;
    bool was_old = false;
    bool io_wait = false;
    table_.WithSlot(id, [&](Frame*& entry, bool inserted) {
      if (inserted) {
        nf = new Frame();
        nf->id = id;
        nf->io_fixed = true;
        nf->pin_count = 1;
        entry = nf;
        return;
      }
      if (entry->io_fixed) {
        io_wait = true;  // another thread is reading this page in
        return;
      }
      ++entry->pin_count;
      was_old = entry->in_old.load(std::memory_order_relaxed);
      hit = entry;
    });
    if (io_wait) {
      // Bounded park: the publisher notifies after clearing io_fixed, but a
      // notify between our bucket-lock release and this wait would be lost —
      // the bound turns that race into a 50 µs stall, not a hang.
      std::unique_lock<std::mutex> lk(io_mu_);
      io_cv_.wait_for(lk, std::chrono::microseconds(50));
      continue;
    }
    if (hit != nullptr) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      if (was_old) MakeYoung(hit);
      return Status::OK();
    }
    break;  // inserted a fresh io-fixed frame; fall through to the miss path
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);

  // Make room. Eviction uses a blocking LRU acquisition even in LLU mode
  // (LLU only bounds the make-young reorder).
  while (resident_.load(std::memory_order_relaxed) >= config_.capacity_pages) {
    Frame* victim = nullptr;
    {
      TPROF_SCOPE("buf_LRU_get_free_block");
      {
        TPROF_SCOPE("buf_pool_mutex_enter");
        LruLockBlocking();
      }
      victim = PickVictimLocked();
      LruUnlock();
    }
    if (victim == nullptr) break;  // everything pinned; tolerate overshoot
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    if (victim->dirty) {
      stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
      if (config_.disk) {
        int attempts = 0;
        Status ws = RetryIo(
            config_.io_retry,
            [&] { return config_.disk->Write(config_.page_bytes); },
            &attempts);
        if (attempts > 1) {
          stats_.io_retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                      std::memory_order_relaxed);
        }
        // A writeback that exhausts its retries drops the page's dirty data
        // (the redo log is the durability story); count it and move on
        // rather than wedging eviction behind a broken device.
        if (!ws.ok()) {
          stats_.writeback_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    delete victim;
  }

  // "Read" the page.
  if (config_.disk) {
    int attempts = 0;
    Status rs = RetryIo(
        config_.io_retry,
        [&] { return config_.disk->Read(config_.page_bytes); },
        &attempts);
    if (attempts > 1) {
      stats_.io_retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                  std::memory_order_relaxed);
    }
    if (!rs.ok()) {
      // The frame never became readable: unpublish it so waiters blocked on
      // io_fixed restart with a fresh miss instead of seeing garbage.
      stats_.read_failures.fetch_add(1, std::memory_order_relaxed);
      table_.EraseIf(id, [&](Frame*& entry) {
        entry->erased = true;
        return true;
      });
      { std::lock_guard<std::mutex> g(io_mu_); }
      io_cv_.notify_all();
      delete nf;
      return rs;
    }
  }

  // Publish into the LRU: new pages enter at the old sublist's head
  // (InnoDB midpoint insertion).
  {
    TPROF_SCOPE("buf_LRU_add_block");
    {
      TPROF_SCOPE("buf_pool_mutex_enter");
      LruLockBlocking();
    }
    old_.push_front(nf);
    nf->lru_pos = old_.begin();
    nf->in_old.store(true, std::memory_order_relaxed);
    nf->in_lru = true;
    resident_.fetch_add(1, std::memory_order_relaxed);
    BalanceListsLocked();
    SpinFor(config_.lru_critical_work_ns);  // insertion bookkeeping
    LruUnlock();
  }

  table_.WithSlotIfPresent(id, [](Frame*& entry) { entry->io_fixed = false; });
  { std::lock_guard<std::mutex> g(io_mu_); }
  io_cv_.notify_all();
  return Status::OK();
}

Result<BufferPool::PageGuard> BufferPool::Pin(PageId id) {
  Status s = Fetch(id);
  if (!s.ok()) return s;
  return PageGuard(this, id);
}

void BufferPool::MarkDirty(PageId id) {
  table_.WithSlotIfPresent(id, [](Frame*& entry) { entry->dirty = true; });
}

void BufferPool::Unpin(PageId id) {
  table_.WithSlotIfPresent(id, [](Frame*& entry) {
    if (entry->pin_count > 0) --entry->pin_count;
  });
}

void BufferPool::FlushBacklog() {
  if (!config_.lazy_lru) return;
  if (Backlog().empty()) return;
  // Blocking acquisition: quiesce correctness beats the spin budget here.
  LruLockBlocking();
  DrainBacklogLocked();
  LruUnlock();
}

size_t BufferPool::resident_pages() const {
  return resident_.load(std::memory_order_relaxed);
}

std::pair<size_t, size_t> BufferPool::SublistLengths() const {
  auto* self = const_cast<BufferPool*>(this);
  self->LruLockBlocking();
  std::pair<size_t, size_t> out{young_.size(), old_.size()};
  self->LruUnlock();
  return out;
}

bool BufferPool::InOldSublist(PageId id) const {
  auto* self = const_cast<BufferPool*>(this);
  bool in_old = false;
  self->table_.WithSlotIfPresent(id, [&](Frame*& entry) {
    in_old = entry->in_old.load(std::memory_order_relaxed);
  });
  return in_old;
}

}  // namespace tdp::buffer
