#include "log/ack_ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace tdp::log {

AckLedger::~AckLedger() {
  if (parked_.empty()) return;
  std::fprintf(stderr, "AckLedger destroyed with %zu parked ack(s)\n",
               parked_.size());
  std::abort();
}

bool AckLedger::Park(uint64_t position, AckFn&& ack) {
  if (closed_) return false;
  auto at = parked_.end();
  if (!parked_.empty() && parked_.back().position > position) {
    at = std::upper_bound(
        parked_.begin(), parked_.end(), position,
        [](uint64_t p, const Parked& e) { return p < e.position; });
  }
  parked_.insert(at, Parked{position, std::move(ack)});
  return true;
}

std::vector<AckLedger::AckFn> AckLedger::TakeCovered(uint64_t watermark) {
  auto end = parked_.begin();
  while (end != parked_.end() && end->position <= watermark) ++end;
  std::vector<AckFn> out;
  out.reserve(static_cast<size_t>(end - parked_.begin()));
  for (auto it = parked_.begin(); it != end; ++it) {
    out.push_back(std::move(it->ack));
  }
  parked_.erase(parked_.begin(), end);
  return out;
}

std::vector<AckLedger::AckFn> AckLedger::Close() {
  closed_ = true;
  return TakeCovered(UINT64_MAX);
}

}  // namespace tdp::log
