// perfbench: end-to-end and per-layer benchmark of the serving path
// (server::TransactionService over engine::OpenDatabase).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run sets the workload up kInstances times. Each instance is timed
// (setup_s is the median), measured for --seconds / kInstances with tracing
// off, checked and torn down; each end-to-end metric is the median over
// the instances' windows (or slices of them, see EndToEnd). With --trace 1
// the last instance also runs a traced window of the same length, which
// gives the per-layer metrics. The last output line is one JSON object;
// the exit code is 0 only when every check passed. README.md in this
// directory maps each metric to its layer.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stats.h"
#include "traced_db.h"

namespace perfbench {
namespace {

using tdp::NowNanos;
using tdp::Status;
using tdp::metrics::MetricsSnapshot;
using tdp::metrics::Registry;

/// Engine instances per run. On a shared host a run drifts between fast
/// and slow phases that last seconds, and lock convoys make single windows
/// heavy-tailed; the median over several fresh instances keeps one bad
/// window from moving the result. Four keeps the 150 tps workload above
/// 1000 committed requests per instance at the benchmark's 32 s, so each
/// instance's p99 has ten samples beyond it.
constexpr int kInstances = 4;
/// Outstanding requests during warm-up of open-loop workloads.
constexpr int kWarmupWindow = 8;
/// Committed requests per slice of a measured window (see EndToEnd): a
/// high-rate window is cut into slices so that a stall of a second or two
/// moves the median of the slices, not the result, while every slice keeps
/// enough samples for a precise p99. Low-rate windows stay whole.
constexpr uint64_t kSamplesPerSlice = 10000;
constexpr uint64_t kMaxSlices = 20;
/// Traced requests (and traced calls of each kind) kept per window.
constexpr uint64_t kMaxTraceSamples = 100000;

// ---- driving the service ---------------------------------------------------

/// Submits generated requests into a started service, open or closed loop,
/// keeping one TxnRecord per request (and a TraceRecord for every
/// `trace_stride`-th one when tracing). Callbacks run on service threads.
class LoadGenerator {
 public:
  /// `trace_stride` 0 = untraced.
  LoadGenerator(server::TransactionService* svc, Workload* wl,
                uint64_t trace_stride)
      : svc_(svc), wl_(wl), trace_stride_(trace_stride) {}

  /// Poisson arrivals at `tps` from `start` for `duration_ns`; latency is
  /// anchored at each request's due time.
  void RunOpen(double tps, int64_t start, int64_t duration_ns,
               uint64_t arrival_seed) {
    tdp::Rng rng(arrival_seed);
    const double mean_gap_ns = 1e9 / tps;
    double offset_ns = 0;
    for (;;) {
      const int64_t due = start + static_cast<int64_t>(offset_ns);
      if (due - start >= duration_ns) break;
      Request req = wl_->Next();
      const int64_t wait = due - NowNanos();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      Send(due, std::move(req));
      offset_ns += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    }
    WaitIdle();
  }

  /// `window` requests outstanding from `start` until `duration_ns` elapses
  /// or `max_txns` were sent; a request is due when its slot frees.
  void RunClosed(int window, int64_t start, int64_t duration_ns,
                 uint64_t max_txns, const std::function<Request()>& next) {
    {
      std::lock_guard<std::mutex> g(mu_);
      closed_ = true;
      free_at_.assign(static_cast<size_t>(window), start);
    }
    for (uint64_t sent = 0; sent < max_txns; ++sent) {
      Request req = next();
      int64_t due = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return !free_at_.empty(); });
        due = free_at_.front();
        free_at_.pop_front();
      }
      if (NowNanos() - start >= duration_ns) break;
      Send(due, std::move(req));
    }
    WaitIdle();
    std::lock_guard<std::mutex> g(mu_);
    closed_ = false;
    free_at_.clear();
  }

  /// Valid once a Run* call has returned.
  const std::deque<TxnRecord>& records() const { return records_; }
  const std::deque<TraceRecord>& traces() const { return traces_; }

 private:
  void Send(int64_t due, Request req) {
    TxnRecord* rec = &records_.emplace_back();
    rec->intended_ns = due;
    TraceRecord* trace = nullptr;
    engine::TxnBody body = std::move(req.body);
    if (trace_stride_ > 0) {
      if (records_.size() % trace_stride_ == 0) {
        trace = &traces_.emplace_back();
        trace->rec = rec;
      }
      // Every traced-window body sets the thread's current trace, null when
      // unsampled, so a commit never stamps another request's record.
      body = [trace, inner = std::move(body)](engine::Connection& c) {
        CurrentTrace() = trace;
        return inner(c);
      };
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      ++outstanding_;
    }
    const int64_t sent_ns = NowNanos();
    const Status s = svc_->Submit(
        std::move(body), std::move(req.footprint),
        [this, rec, trace, type = req.type,
         updates = std::move(req.updates)](const server::Response& r) {
          rec->done_ns = r.done_ns;
          if (trace != nullptr) {
            trace->submit_ns = r.submit_ns;
            trace->dispatch_ns = r.dispatch_ns;
            trace->dispatches = r.dispatches;
          }
          if (r.status.ok()) wl_->Committed(type, updates);
          rec->state.store(r.status.ok() ? TxnRecord::kOk : TxnRecord::kFailed,
                           std::memory_order_release);
          Finish(r.done_ns);
        });
    const int64_t ret_ns = NowNanos();
    if (trace != nullptr) {
      trace->sent_ns = sent_ns;
      trace->submit_ret_ns = ret_ns;
    }
    if (!s.ok()) {
      rec->state.store(TxnRecord::kShed, std::memory_order_release);
      Finish(ret_ns);
    }
  }

  void Finish(int64_t free_ns) {
    // Notify under the lock: WaitIdle may return, and the generator be
    // destroyed, as soon as it can see the last decrement.
    std::lock_guard<std::mutex> g(mu_);
    --outstanding_;
    if (closed_) free_at_.push_back(free_ns);
    cv_.notify_one();
  }

  void WaitIdle() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return outstanding_ == 0; });
  }

  server::TransactionService* const svc_;
  Workload* const wl_;
  const uint64_t trace_stride_;
  std::deque<TxnRecord> records_;  // Appended by the generator thread.
  std::deque<TraceRecord> traces_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t outstanding_ = 0;
  bool closed_ = false;
  std::deque<int64_t> free_at_;  ///< Closed loop: when each free slot freed.
};

/// Submitted / called-back / shed request counts, for the identities.
struct RequestCounts {
  uint64_t sent = 0, callbacks = 0, shed = 0;

  void Add(const LoadGenerator& d) {
    for (const TxnRecord& r : d.records()) {
      ++sent;
      const int st = r.state.load(std::memory_order_acquire);
      if (st == TxnRecord::kShed) ++shed;
      if (st == TxnRecord::kOk || st == TxnRecord::kFailed) ++callbacks;
    }
  }
};

// ---- statistics ------------------------------------------------------------

double Pct(std::vector<int64_t> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return tdp::PercentileSorted(v, pct);
}

double Mean(const std::vector<int64_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// End-to-end figures of measured windows. A window whose committed
/// requests fill several slices of kSamplesPerSlice is cut into equal
/// slices by due time; every slice (or unsliced window) gives one figure
/// per metric, and the reported value is the median over all of them.
class EndToEnd {
 public:
  void AddWindow(const std::deque<TxnRecord>& records, int64_t start,
                 int64_t end) {
    uint64_t ok = 0;
    for (const TxnRecord& r : records) {
      ++attempted_;
      if (r.state.load(std::memory_order_acquire) == TxnRecord::kOk) ++ok;
    }
    ok_ += ok;
    const uint64_t k =
        std::clamp<uint64_t>(ok / kSamplesPerSlice, 1, kMaxSlices);
    const double len = static_cast<double>(end - start);
    auto slice_of = [&](int64_t t) {
      const auto i = static_cast<int64_t>(static_cast<double>(t - start) /
                                          len * static_cast<double>(k));
      return static_cast<size_t>(
          std::clamp<int64_t>(i, 0, static_cast<int64_t>(k) - 1));
    };
    std::vector<std::vector<int64_t>> lat(k);
    std::vector<double> done(k, 0);
    for (const TxnRecord& r : records) {
      if (r.state.load(std::memory_order_acquire) != TxnRecord::kOk) continue;
      lat[slice_of(r.intended_ns)].push_back(r.done_ns - r.intended_ns);
      if (r.done_ns >= start && r.done_ns < end) done[slice_of(r.done_ns)] += 1;
    }
    const double slice_s = len / 1e9 / static_cast<double>(k);
    for (uint64_t i = 0; i < k; ++i) {
      tps_.push_back(done[i] / slice_s);
      p50_.push_back(Pct(lat[i], 50) / 1e6);
      p99_.push_back(Pct(lat[i], 99) / 1e6);
      mean_.push_back(Mean(lat[i]) / 1e6);
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t ok() const { return ok_; }
  double throughput_tps() const { return Median(tps_); }
  double p50_ms() const { return Median(p50_); }
  double p99_ms() const { return Median(p99_); }
  double mean_ms() const { return Median(mean_); }

 private:
  uint64_t attempted_ = 0, ok_ = 0;
  std::vector<double> tps_, p50_, p99_, mean_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double setup_s) {
  return {
      {"throughput_tps", e.throughput_tps(), "txn/s"},
      {"latency_p50_ms", e.p50_ms(), "ms"},
      {"latency_p99_ms", e.p99_ms(), "ms"},
      {"latency_mean_ms", e.mean_ms(), "ms"},
      {"ok_ratio",
       Ratio(static_cast<double>(e.ok()), static_cast<double>(e.attempted())),
       "fraction"},
      {"setup_s", setup_s, "s"},
  };
}

/// Per-layer metrics of a traced window: the sampled requests' timestamps,
/// the traced connection's samples and the registry delta over the window.
/// The overhead compares the same instance's untraced window.
std::vector<Metric> PerLayerMetrics(const LoadGenerator& gen,
                                    const OpSamples& ops,
                                    const MetricsSnapshot& d,
                                    const EndToEnd& traced,
                                    const EndToEnd& untraced) {
  double txns = 0;
  for (const TxnRecord& r : gen.records()) {
    if (r.state.load(std::memory_order_acquire) != TxnRecord::kShed) ++txns;
  }
  std::vector<int64_t> late, submit, queue, exec, ack;
  double sampled = 0, dispatches = 0;
  for (const TraceRecord& t : gen.traces()) {
    late.push_back(t.sent_ns - t.rec->intended_ns);
    submit.push_back(t.submit_ret_ns - t.sent_ns);
    const int st = t.rec->state.load(std::memory_order_acquire);
    if (st == TxnRecord::kShed) continue;
    ++sampled;
    dispatches += t.dispatches;
    queue.push_back(t.dispatch_ns - t.submit_ns);
    exec.push_back(t.rec->done_ns - t.dispatch_ns);
    const int64_t commit_ret = t.commit_ret_ns.load(std::memory_order_relaxed);
    if (st == TxnRecord::kOk && commit_ret > 0) {
      // An async ack can fire before CommitAsync returns: clamp at 0.
      ack.push_back(std::max<int64_t>(0, t.rec->done_ns - commit_ret));
    }
  }
  auto c = [&](const char* name) {
    return static_cast<double>(d.counter(name));
  };
  const tdp::HistogramSnapshot lock_wait = d.histogram("lock.wait_ns");
  const double log_batch =
      c("log.epoch_flushes") > 0 ? d.histogram("log.epoch_batch").mean()
                                 : Ratio(c("log.commits"), c("log.flushes"));
  const double shard_txns =
      c("shard.single_shard_txns") + c("shard.cross_shard_txns");
  const double us = 1e3;
  return {
      {"gen.late_p99_us", Pct(late, 99) / us, "us"},
      {"server.submit_p99_us", Pct(submit, 99) / us, "us"},
      {"server.queue_wait_p50_us", Pct(queue, 50) / us, "us"},
      {"server.queue_wait_p99_us", Pct(queue, 99) / us, "us"},
      {"server.exec_p50_us", Pct(exec, 50) / us, "us"},
      {"server.exec_p99_us", Pct(exec, 99) / us, "us"},
      {"server.dispatches_per_txn", Ratio(dispatches, sampled), "count/txn"},
      {"engine.read_p50_us", Pct(ops.read_ns, 50) / us, "us"},
      {"engine.read_p99_us", Pct(ops.read_ns, 99) / us, "us"},
      {"engine.write_p50_us", Pct(ops.write_ns, 50) / us, "us"},
      {"engine.write_p99_us", Pct(ops.write_ns, 99) / us, "us"},
      {"engine.commit_p50_us", Pct(ops.commit_ns, 50) / us, "us"},
      {"engine.commit_p99_us", Pct(ops.commit_ns, 99) / us, "us"},
      {"engine.ack_wait_p50_us", Pct(ack, 50) / us, "us"},
      {"engine.ack_wait_p99_us", Pct(ack, 99) / us, "us"},
      {"engine.attempts_per_txn",
       Ratio(static_cast<double>(ops.begins), txns), "count/txn"},
      {"lock.waits_per_txn", Ratio(c("lock.waits"), txns), "count/txn"},
      {"lock.wait_p99_us",
       lock_wait.count > 0 ? static_cast<double>(lock_wait.Percentile(99)) / us
                           : 0,
       "us"},
      {"lock.aborts_per_ktxn",
       Ratio(1000 * (c("lock.deadlocks") + c("lock.timeouts")), txns),
       "count/ktxn"},
      {"buffer.hit_ratio",
       Ratio(c("buf.hits"), c("buf.hits") + c("buf.misses")), "fraction"},
      {"buffer.evictions_per_txn", Ratio(c("buf.evictions"), txns),
       "count/txn"},
      {"buffer.make_young_per_txn", Ratio(c("buf.make_young"), txns),
       "count/txn"},
      {"log.flushes_per_commit", Ratio(c("log.flushes"), c("log.commits")),
       "count/commit"},
      {"log.batch_mean", log_batch, "commits/flush"},
      {"log.bytes_per_commit", Ratio(c("log.bytes_written"), c("log.commits")),
       "bytes/commit"},
      {"repl.ships_per_commit",
       Ratio(c("repl.ships"), c("repl.commits_submitted")), "count/commit"},
      {"repl.ship_bytes_per_commit",
       Ratio(c("repl.ship_bytes"), c("repl.commits_submitted")),
       "bytes/commit"},
      {"repl.acks_lost", c("repl.acks_lost"), "count"},
      {"shard.cross_ratio", Ratio(c("shard.cross_shard_txns"), shard_txns),
       "fraction"},
      {"2pc.forces_per_commit",
       Ratio(c("2pc.participant_commits") + c("2pc.decisions"),
             c("2pc.decisions")),
       "count/commit"},
      {"2pc.presumed_abort_ratio",
       Ratio(c("2pc.aborted_presumed"), c("2pc.coordinated")), "fraction"},
      {"trace.overhead_tps",
       traced.throughput_tps() - untraced.throughput_tps(), "txn/s"},
      {"trace.overhead_p50_ms", traced.p50_ms() - untraced.p50_ms(), "ms"},
      {"trace.overhead_p99_ms", traced.p99_ms() - untraced.p99_ms(), "ms"},
  };
}

// ---- checks ----------------------------------------------------------------

/// Accounting identities over the whole life of one engine instance.
std::vector<std::string> CheckIdentities(const MetricsSnapshot& d,
                                         int64_t acks_waiting,
                                         const RequestCounts& n) {
  std::vector<std::string> problems;
  auto eq = [&](const std::string& what, uint64_t a, uint64_t b) {
    if (a != b) {
      problems.push_back(what + ": " + std::to_string(a) +
                         " != " + std::to_string(b));
    }
  };
  auto c = [&](const char* name) { return d.counter(name); };
  const uint64_t finished =
      c("server.completed") + c("server.expired") + c("server.drain_aborted");
  eq("server.admitted + server.shed + server.rejected_recovering vs "
     "server.submitted",
     c("server.admitted") + c("server.shed") + c("server.rejected_recovering"),
     c("server.submitted"));
  eq("server.completed + server.expired + server.drain_aborted vs "
     "server.admitted",
     finished, c("server.admitted"));
  eq("callbacks vs server completions", n.callbacks, finished);
  eq("requests sent vs server.submitted", n.sent, c("server.submitted"));
  eq("sheds seen vs server.shed", n.shed, c("server.shed"));
  eq("server.async_acks + server.sync_acks vs server.completed",
     c("server.async_acks") + c("server.sync_acks"), c("server.completed"));
  eq("2pc.prepared + 2pc.aborted_presumed vs 2pc.coordinated",
     c("2pc.prepared") + c("2pc.aborted_presumed"), c("2pc.coordinated"));
  eq("repl.acks_quorum + repl.acks_waiting + repl.acks_lost vs "
     "repl.commits_submitted",
     c("repl.acks_quorum") + static_cast<uint64_t>(acks_waiting) +
         c("repl.acks_lost"),
     c("repl.commits_submitted"));
  eq("repl.acks_lost on a fault-free run", c("repl.acks_lost"), 0);
  eq("repl.acks_waiting after shutdown", static_cast<uint64_t>(acks_waiting),
     0);
  eq("lock.grants.total vs mysql.lock_acquisitions", c("lock.grants.total"),
     c("mysql.lock_acquisitions"));
  if (c("lock.grants.total") == 0) problems.push_back("no lock was granted");
  return problems;
}

// ---- one engine instance ---------------------------------------------------

struct InstanceResult {
  double setup_s = 0;
  std::vector<std::string> problems;
};

/// Sets one instance up (timed), measures it, checks it and tears it down.
/// Adds its untraced window to `e2e`; with `trace`, runs a traced window
/// after it and fills `layers`.
InstanceResult RunInstance(const WorkloadSpec& spec, uint64_t seed,
                           int64_t window_ns, int index, bool trace,
                           EndToEnd* e2e, std::vector<Metric>* layers) {
  InstanceResult out;
  RequestCounts counts;
  const MetricsSnapshot before = Registry::Global().TakeSnapshot();

  // Set-up: engine open + load + service start + warm-up (cache fill and
  // lazy set-up), all of it timed.
  const int64_t t0 = NowNanos();
  auto opened = engine::OpenDatabase(spec.kind, spec.engine);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: OpenDatabase: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  std::unique_ptr<engine::Database> db = std::move(opened.value());
  std::unique_ptr<Workload> wl = spec.make_workload(seed);
  wl->Load(db.get());
  auto svc =
      std::make_unique<server::TransactionService>(db.get(), spec.service);
  svc->Start();
  {
    LoadGenerator warm(svc.get(), wl.get(), /*trace_stride=*/0);
    std::vector<engine::TxnBody> scans = wl->ScanBodies();
    size_t next_scan = 0;
    warm.RunClosed(kWarmupWindow, NowNanos(), INT64_MAX, scans.size(), [&] {
      Request r;
      r.type = "scan";
      r.body = std::move(scans[next_scan++]);
      return r;
    });
    warm.RunClosed(spec.loop.open ? kWarmupWindow : spec.loop.window,
                   NowNanos(), INT64_MAX,
                   static_cast<uint64_t>(spec.warmup_txns),
                   [&] { return wl->Next(); });
    counts.Add(warm);
  }
  out.setup_s = tdp::NanosToSeconds(NowNanos() - t0);

  // One measured window on a started service; returns its [start, end).
  auto measure = [&](LoadGenerator* d, uint64_t stream) {
    const int64_t start = NowNanos();
    if (spec.loop.open) {
      d->RunOpen(spec.loop.rate_tps, start, window_ns,
                 (seed * 0x9E3779B97F4A7C15ULL) ^ (index * 2 + stream));
    } else {
      d->RunClosed(spec.loop.window, start, window_ns, UINT64_MAX,
                   [&] { return wl->Next(); });
    }
    counts.Add(*d);
    return std::make_pair(start, start + window_ns);
  };

  EndToEnd untraced;
  {
    LoadGenerator d(svc.get(), wl.get(), /*trace_stride=*/0);
    const auto [start, end] = measure(&d, 0);
    untraced.AddWindow(d.records(), start, end);
    e2e->AddWindow(d.records(), start, end);
  }
  svc->Shutdown();
  svc.reset();

  if (trace) {
    // A fresh service over the decorated engine: same engine, warm caches.
    const uint64_t stride =
        std::max<uint64_t>(1, untraced.attempted() / kMaxTraceSamples);
    TracedDatabase traced_db(db.get(), stride);
    const MetricsSnapshot t_before = Registry::Global().TakeSnapshot();
    server::TransactionService tsvc(&traced_db, spec.service);
    tsvc.Start();
    LoadGenerator d(&tsvc, wl.get(), stride);
    const auto [start, end] = measure(&d, 1);
    tsvc.Shutdown();
    const MetricsSnapshot t_delta =
        MetricsSnapshot::Delta(t_before, Registry::Global().TakeSnapshot());
    EndToEnd traced;
    traced.AddWindow(d.records(), start, end);
    *layers =
        PerLayerMetrics(d, traced_db.Merged(), t_delta, traced, untraced);
  }

  out.problems = wl->CheckData(db.get());
  db.reset();  // Stops the engine; every parked ack resolves.
  const MetricsSnapshot after = Registry::Global().TakeSnapshot();
  for (std::string& p :
       CheckIdentities(MetricsSnapshot::Delta(before, after),
                       after.gauge("repl.acks_waiting").value, counts)) {
    out.problems.push_back(std::move(p));
  }
  return out;
}

// ---- output ----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << "\"" << metrics[i].name << "\": {\"value\": "
      << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
      << "\"}";
  }
  o << "}}";
  return o.str();
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why.c_str());
  for (const std::string& n : SpecNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600) {
        Usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1" ? 1 : 0;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

int Run(const Args& args) {
  std::unique_ptr<WorkloadSpec> spec = MakeSpec(args.workload, args.seed);
  if (spec == nullptr) Usage("unknown workload " + args.workload);
  const auto window_ns =
      static_cast<int64_t>(args.seconds * 1e9 / kInstances);

  EndToEnd e2e;
  std::vector<Metric> layers;
  std::vector<double> setups;
  std::vector<std::string> problems;
  for (int i = 0; i < kInstances; ++i) {
    const bool trace = args.trace == 1 && i == kInstances - 1;
    InstanceResult r =
        RunInstance(*spec, args.seed, window_ns, i, trace, &e2e, &layers);
    setups.push_back(r.setup_s);
    for (std::string& p : r.problems) {
      problems.push_back("instance " + std::to_string(i) + ": " + p);
    }
  }
  const std::vector<Metric> e2e_metrics = EndToEndMetrics(e2e, Median(setups));

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("set-up times (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  PrintTable("end-to-end (untraced windows):", e2e_metrics);
  if (args.trace == 1) PrintTable("per-layer (traced window):", layers);
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("checks: %s\n", problems.empty() ? "ok" : "FAILED");
  std::printf("%s\n", Json(problems.empty(), e2e.attempted(),
                           e2e.attempted() - e2e.ok(),
                           args.trace == 1 ? layers : e2e_metrics)
                          .c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
