// Traced run's engine decorator: wraps an engine::Database so every
// Connection call the service's workers make is timed from outside the
// engine (tracing inside src/ is separate work). Forwarded unchanged:
// DeclareFootprint (re-declared on the inner connection at Begin),
// current_txn_id and conflict_predictor.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/database.h"

namespace perfbench {

class TracedDatabase : public engine::Database {
 public:
  /// Times one of every `stride` calls of each kind per connection.
  TracedDatabase(engine::Database* inner, uint64_t stride)
      : inner_(inner), stride_(stride) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<engine::Connection> Connect() override;
  uint32_t CreateTable(const std::string& name,
                       uint64_t rows_per_page) override {
    return inner_->CreateTable(name, rows_per_page);
  }
  uint32_t TableId(const std::string& name) const override {
    return inner_->TableId(name);
  }
  void BulkUpsert(uint32_t table, uint64_t key, storage::Row row) override {
    inner_->BulkUpsert(table, key, std::move(row));
  }
  uint64_t TableRowCount(uint32_t table) const override {
    return inner_->TableRowCount(table);
  }
  sched::ConflictPredictor* conflict_predictor() override {
    return inner_->conflict_predictor();
  }

  /// Samples of every connection handed out so far, merged. Call only
  /// after the connections' users have stopped (service shut down).
  OpSamples Merged() const;

 private:
  engine::Database* const inner_;
  const uint64_t stride_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<OpSamples>> samples_;  // One per connection.
};

}  // namespace perfbench
