#include "volt/voltmini.h"

#include <algorithm>
#include <cassert>

#include "tprofiler/profiler.h"

namespace tdp::volt {

void VoltMini::Ticket::Wait() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [this] { return done; });
}

VoltMini::VoltMini(VoltMiniConfig config) : config_(config) {
  if (config_.num_workers < 1) config_.num_workers = 1;
  if (config_.num_partitions < 1) config_.num_partitions = 1;
  partition_mu_.reserve(config_.num_partitions);
  for (int i = 0; i < config_.num_partitions; ++i)
    partition_mu_.push_back(std::make_unique<std::mutex>());

  auto& reg = metrics::Registry::Global();
  m_.submits = reg.GetCounter("volt.submits");
  m_.completions = reg.GetCounter("volt.completions");
  m_.queue_depth = reg.GetGauge("volt.queue_depth");
  m_.queue_wait_ns = reg.GetHistogram("volt.queue_wait_ns");
  m_.exec_ns = reg.GetHistogram("volt.exec_ns");
  m_.worker_busy_ns.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    m_.worker_busy_ns.push_back(
        reg.GetCounter("volt.worker" + std::to_string(i) + ".busy_ns"));
  }
}

VoltMini::~VoltMini() { Stop(); }

void VoltMini::Start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    stopping_ = false;
  }
  workers_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void VoltMini::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

std::shared_ptr<VoltMini::Ticket> VoltMini::Submit(int partition,
                                                   Procedure proc) {
  assert(partition >= 0 && partition < config_.num_partitions);
  auto ticket = std::make_shared<Ticket>();
  ticket->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->submit_ns = NowNanos();
  // Mark the transaction's birth for the profiler (a zero-length interval on
  // the client thread anchors the transaction's start time).
  tprof::Profiler& prof = tprof::Profiler::Instance();
  if (prof.active()) {
    prof.IntervalBegin(ticket->txn_id);
    prof.IntervalEnd();
  }
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    queue_.push_back(Task{partition, std::move(proc), ticket});
  }
  metrics::Inc(m_.submits);
  metrics::GaugeAdd(m_.queue_depth, 1);
  queue_cv_.notify_one();
  return ticket;
}

std::shared_ptr<VoltMini::Ticket> VoltMini::Execute(int partition,
                                                    Procedure proc) {
  auto ticket = Submit(partition, std::move(proc));
  ticket->Wait();
  return ticket;
}

size_t VoltMini::QueueDepth() const {
  std::lock_guard<std::mutex> g(queue_mu_);
  return queue_.size();
}

void VoltMini::WorkerLoop(int worker_index) {
  metrics::Counter* const busy_ns =
      m_.worker_busy_ns[static_cast<size_t>(worker_index)];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    metrics::GaugeAdd(m_.queue_depth, -1);
    task.ticket->dequeue_ns = NowNanos();
    tprof::Profiler& prof = tprof::Profiler::Instance();
    if (prof.active()) prof.IntervalBegin(task.ticket->txn_id);
    {
      // Partitions execute single-threaded.
      std::lock_guard<std::mutex> pg(*partition_mu_[task.partition]);
      TPROF_SCOPE("volt_exec_procedure");
      if (task.proc) task.proc();
    }
    if (prof.active()) prof.IntervalEnd();
    task.ticket->done_ns = NowNanos();
    metrics::Inc(m_.completions);
    metrics::Observe(m_.queue_wait_ns, task.ticket->queue_wait_ns());
    metrics::Observe(m_.exec_ns, task.ticket->exec_ns());
    metrics::Inc(busy_ns,
                 static_cast<uint64_t>(
                     std::max<int64_t>(0, task.ticket->exec_ns())));
    {
      std::lock_guard<std::mutex> g(task.ticket->mu);
      task.ticket->done = true;
    }
    task.ticket->cv.notify_all();
  }
}

}  // namespace tdp::volt
