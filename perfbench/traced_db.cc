#include "traced_db.h"

#include <utility>

#include "common/clock.h"

namespace perfbench {

namespace {

using tdp::NowNanos;
using tdp::Result;
using tdp::Status;

class TracedConnection : public engine::Connection {
 public:
  TracedConnection(std::unique_ptr<engine::Connection> inner, OpSamples* out,
                   uint64_t stride)
      : inner_(std::move(inner)), out_(out), stride_(stride) {}

  uint64_t current_txn_id() const override {
    return inner_->current_txn_id();
  }

 protected:
  Status DoBegin() override {
    ++out_->begins;
    inner_->DeclareFootprint(declared_footprint());
    return inner_->Begin();
  }
  Status DoSelect(uint32_t table, uint64_t key) override {
    return Timed(&out_->read_ns, &read_calls_,
                 [&] { return inner_->Select(table, key); });
  }
  Status DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) override {
    return Timed(&out_->read_ns, &read_calls_,
                 [&] { return inner_->SelectRange(table, lo, hi); });
  }
  Status DoSelectForUpdate(uint32_t table, uint64_t key) override {
    return Timed(&out_->write_ns, &write_calls_,
                 [&] { return inner_->SelectForUpdate(table, key); });
  }
  Status DoUpdate(uint32_t table, uint64_t key, size_t col,
                  int64_t delta) override {
    return Timed(&out_->write_ns, &write_calls_,
                 [&] { return inner_->Update(table, key, col, delta); });
  }
  Status DoInsert(uint32_t table, uint64_t key, storage::Row row) override {
    return Timed(&out_->write_ns, &write_calls_, [&] {
      return inner_->Insert(table, key, std::move(row));
    });
  }
  Status DoDelete(uint32_t table, uint64_t key) override {
    return Timed(&out_->write_ns, &write_calls_,
                 [&] { return inner_->Delete(table, key); });
  }
  Status DoCommit() override {
    const Status s = Timed(&out_->commit_ns, &commit_calls_,
                           [&] { return inner_->Commit(); });
    StampCommitReturn();
    return s;
  }
  Status DoCommitAsync(CommitAckFn ack) override {
    const Status s = Timed(&out_->commit_ns, &commit_calls_, [&] {
      return inner_->CommitAsync(std::move(ack));
    });
    StampCommitReturn();
    return s;
  }
  void DoRollback() override { inner_->Rollback(); }
  Result<int64_t> DoReadColumn(uint32_t table, uint64_t key,
                               size_t col) override {
    return inner_->ReadColumn(table, key, col);
  }

 private:
  /// Runs `fn`; every `stride_`-th call (counted in `*calls`) is timed
  /// into `into`.
  template <typename Fn>
  Status Timed(std::vector<int64_t>* into, uint64_t* calls, Fn&& fn) {
    if (++*calls % stride_ != 0) return fn();
    const int64_t start = NowNanos();
    Status s = fn();
    into->push_back(NowNanos() - start);
    return s;
  }

  void StampCommitReturn() {
    if (TraceRecord* t = CurrentTrace()) {
      t->commit_ret_ns.store(NowNanos(), std::memory_order_relaxed);
    }
  }

  std::unique_ptr<engine::Connection> inner_;
  OpSamples* const out_;
  const uint64_t stride_;
  uint64_t read_calls_ = 0, write_calls_ = 0, commit_calls_ = 0;
};

}  // namespace

TraceRecord*& CurrentTrace() {
  thread_local TraceRecord* current = nullptr;
  return current;
}

std::unique_ptr<engine::Connection> TracedDatabase::Connect() {
  auto samples = std::make_unique<OpSamples>();
  OpSamples* raw = samples.get();
  {
    std::lock_guard<std::mutex> g(mu_);
    samples_.push_back(std::move(samples));
  }
  return std::make_unique<TracedConnection>(inner_->Connect(), raw, stride_);
}

OpSamples TracedDatabase::Merged() const {
  std::lock_guard<std::mutex> g(mu_);
  OpSamples all;
  for (const auto& s : samples_) {
    all.read_ns.insert(all.read_ns.end(), s->read_ns.begin(),
                       s->read_ns.end());
    all.write_ns.insert(all.write_ns.end(), s->write_ns.begin(),
                        s->write_ns.end());
    all.commit_ns.insert(all.commit_ns.end(), s->commit_ns.begin(),
                         s->commit_ns.end());
    all.begins += s->begins;
  }
  return all;
}

}  // namespace perfbench
