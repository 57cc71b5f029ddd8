#include "repl/replica.h"

#include <algorithm>
#include <cstring>

namespace tdp::repl {

Replica::Replica(ReplicaConfig config)
    : config_(config),
      disk_(config.disk),
      counters_({
          {"repl.ships", &stats_.ships},
          {"repl.ship_bytes", &stats_.ship_bytes},
          {"repl.ship_errors", &stats_.ship_errors},
          {"repl.ship_rejected_stale_term", &stats_.rejected_stale_term},
      }) {}

Status Replica::Ship(uint64_t term, size_t base_offset, const uint8_t* data,
                     size_t size, uint64_t end_lsn) {
  std::lock_guard<std::mutex> ship_guard(ship_mu_);
  if (dark()) {
    stats_.ship_errors.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("replica dark");
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t cur_term = term_.load(std::memory_order_relaxed);
    if (term < cur_term) {
      stats_.rejected_stale_term.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("stale term");
    }
    const size_t durable = durable_bytes_.load(std::memory_order_relaxed);
    if (term > cur_term) {
      // New leader: adopt the term and drop any undurable tail — those
      // bytes existed only in the deposed leader's stream and the new
      // leader's frames will replace them.
      term_.store(term, std::memory_order_release);
      image_.resize(durable);
    }
    if (base_offset < durable) {
      // Overlapping re-ship (leader re-anchored at an older offset): the
      // durable prefix is immutable and identical by construction, so just
      // skip the bytes this replica already holds durable.
      const size_t skip = durable - base_offset;
      if (skip >= size) return Status::OK();  // nothing new
      data += skip;
      size -= skip;
      base_offset = durable;
    }
    if (base_offset != image_.size()) {
      if (base_offset == durable) {
        // Re-ship anchored at the watermark: the bytes past it are a torn
        // tail from a failed flush. Truncate before appending — the image
        // must never fork.
        image_.resize(durable);
      } else {
        return Status::Aborted("non-contiguous ship");
      }
    }
    image_.insert(image_.end(), data, data + size);
  }
  // Disk I/O outside mu_: SimDisk sleeps for its simulated service time and
  // readers (CrashImage, watermark queries) must not block behind it. The
  // shipper is this replica's only writer, so image_ cannot move under us.
  Status s = disk_.Write(size);
  if (s.ok()) s = disk_.Flush(0);
  std::lock_guard<std::mutex> g(mu_);
  if (!s.ok()) {
    // Appended bytes stay as the torn-tail candidate; the watermark holds.
    stats_.ship_errors.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  if (term < term_.load(std::memory_order_relaxed)) {
    // Deposed while the flush was in flight: a newer term truncated and
    // rewrote the image. This completion must not advance anything.
    stats_.rejected_stale_term.fetch_add(1, std::memory_order_relaxed);
    return Status::Aborted("stale term");
  }
  durable_bytes_.store(image_.size(), std::memory_order_release);
  durable_lsn_.store(std::max(durable_lsn_.load(std::memory_order_relaxed),
                              end_lsn),
                     std::memory_order_release);
  stats_.ships.fetch_add(1, std::memory_order_relaxed);
  stats_.ship_bytes.fetch_add(size, std::memory_order_relaxed);
  return Status::OK();
}

Status Replica::CatchUp(uint64_t term, const std::vector<uint8_t>& image,
                        uint64_t end_lsn) {
  size_t from;
  {
    std::lock_guard<std::mutex> g(mu_);
    from = durable_bytes_.load(std::memory_order_relaxed);
  }
  if (from > image.size()) {
    // A durable prefix longer than the elected image would mean a quorum
    // member out-ran the election winner — impossible when the winner is
    // the highest-durable copy. Surface it rather than truncate silently.
    return Status::Corruption("replica durable prefix exceeds catch-up image");
  }
  return Ship(term, from, image.data() + from, image.size() - from, end_lsn);
}

std::vector<uint8_t> Replica::CrashImage(uint64_t extra_tail_bytes) const {
  std::lock_guard<std::mutex> g(mu_);
  const size_t durable = durable_bytes_.load(std::memory_order_relaxed);
  const size_t end = std::min(
      image_.size(), durable + static_cast<size_t>(extra_tail_bytes));
  return std::vector<uint8_t>(image_.begin(),
                              image_.begin() + static_cast<ptrdiff_t>(end));
}

}  // namespace tdp::repl
