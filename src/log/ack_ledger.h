// AckLedger: the one container for durability acks parked until a durable
// watermark covers them (docs/group_commit.md "The ack contract"). Each ack
// is keyed by the position that must become durable before it may fire OK:
// a commit LSN (RedoLog's epoch, QuorumLog's quorum) or a frame-end offset
// (WalManager's per-set epoch). The owner's mutex guards the ledger, and the
// owner fires the returned acks outside that mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace tdp::log {

class AckLedger {
 public:
  using AckFn = std::function<void(const Status&)>;

  AckLedger() = default;
  /// Aborts, in every build type, if an ack is still parked: a dropped ack
  /// is a client hung forever, so it must fail loudly.
  ~AckLedger();
  AckLedger(const AckLedger&) = delete;
  AckLedger& operator=(const AckLedger&) = delete;

  /// Parks `ack` at `position` (O(1) when positions arrive in order).
  /// Returns false once Close() has run, leaving `ack` untouched: the
  /// caller resolves it itself.
  bool Park(uint64_t position, AckFn&& ack);
  /// Removes and returns the acks at or below `watermark`, in order.
  std::vector<AckFn> TakeCovered(uint64_t watermark);
  /// Refuses every later Park; returns the acks still parked, in order.
  std::vector<AckFn> Close();

  bool empty() const { return parked_.empty(); }
  /// Highest parked position; the ledger must not be empty.
  uint64_t last_position() const { return parked_.back().position; }

 private:
  struct Parked {
    uint64_t position;
    AckFn ack;
  };
  std::vector<Parked> parked_;  ///< Sorted by position; ties keep park order.
  bool closed_ = false;
};

}  // namespace tdp::log
