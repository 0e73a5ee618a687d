// The CIP benchmark harness: clock, in-memory span trace, sample
// statistics, the metric report, and the decorating client through which
// the training workloads observe the fl/core layers from outside.
//
// Everything here lives in the benchmark, never in the library: spans are
// recorded around public entry points (ClientBase methods, the store
// factory, FederatedAveraging::Run, CipServer::Step) and library telemetry
// (RoundTelemetry, ServeStats, ServerStats) is read as a public output.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "fl/client.h"

namespace cipbench {

using Clock = std::chrono::steady_clock;

/// Seconds from a to b.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- sample statistics ------------------------------------------------------

/// Median of `v` (mean of the two middle samples for even sizes); 0 for an
/// empty sample.
double Median(std::vector<double> v);

/// Median wall time of `reps` calls of fn(), in seconds.
template <typename F>
double MedianSeconds(std::size_t reps, F&& fn) {
  std::vector<double> v;
  v.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(Seconds(t0, Clock::now()));
  }
  return Median(std::move(v));
}

/// Median cost of an empty ParallelForCoarse region at a `threads` budget,
/// in microseconds: the dispatch overhead every parallel call pays.
double DispatchMicros(std::size_t threads);

/// A tail percentile chosen so the sample can support it.
struct Tail {
  double value = 0.0;
  int percentile = 0;      ///< nearest-rank percentile the value sits at
  std::size_t beyond = 0;  ///< samples strictly ranked above it
};

/// The highest integer percentile p in [50, 99] whose nearest-rank sample
/// (rank ceil(p/100 * n), 1-based) leaves at least `min_beyond` samples
/// ranked above it. A sample too small for even p50 reports its maximum as
/// percentile 100 with nothing beyond.
Tail TailPercentile(std::vector<double> v, std::size_t min_beyond = 10);

// ---- open-loop accounting -------------------------------------------------------

/// Poisson arrivals at a fixed rate: the due times, in seconds from the
/// start of the phase, of an open-loop load generator. Deterministic per
/// seed.
class ArrivalSchedule {
 public:
  ArrivalSchedule(double rate_per_s, std::uint64_t seed);
  /// Due time of the next arrival; advances the schedule.
  double Next();

 private:
  double rate_;
  double t_ = 0.0;
  std::uint64_t state_;
};

/// One open-loop query's timeline. Latency counts from when the query was
/// due, so a stall that delays later sends shows in their latency; lateness
/// is how far behind its schedule the generator sent it.
struct QueryTimes {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  double latency() const { return done - due; }
  double lateness() const { return sent - due; }
};

// ---- spans ------------------------------------------------------------------

/// One timed interval. `tag` is the round (training workloads) or query id
/// (serve_wire) the span belongs to; `parent` is 0 for a root span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_us = 0.0;  ///< microseconds since the trace epoch
  double end_us = 0.0;
  std::uint64_t tag = 0;
  std::uint64_t item = 0; ///< client id or connection the span concerns
  std::uint32_t tid = 0;  ///< small per-thread index, for the viewer
};

/// In-memory span sink. Disabled by default; recording is thread-safe (the
/// round engine trains clients on pool workers).
class Trace {
 public:
  Trace();

  /// Turn recording on or off; spans begun while off are never recorded.
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Microseconds since the trace epoch.
  double NowUs() const;
  double ToUs(Clock::time_point t) const;

  /// Allocate a span id (never 0).
  std::uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Append a finished span (no-op while disabled).
  void Record(Span s);

  /// Number of spans recorded so far.
  std::size_t size() const;

  /// Snapshot of every recorded span, in recording order.
  std::vector<Span> spans() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events, one
  /// per span, ids/parents/tags in args) followed by `metadata`, which must
  /// be a JSON object.
  void WriteChrome(std::ostream& os, const std::string& metadata) const;

  /// Small stable index of the calling thread.
  static std::uint32_t ThreadIndex();

 private:
  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The process-wide trace every span helper records into.
Trace& GlobalTrace();

/// Per-thread parent/tag context: spans opened on a thread nest under the
/// innermost open span of that thread, or under the context's `root` (the
/// current round span, set by the coordinator) when none is open.
struct SpanContext {
  static std::atomic<std::uint64_t> root;  ///< round/query span id, or 0
  static std::atomic<std::uint64_t> tag;   ///< round or query id
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t item = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_ = false;
  std::uint64_t saved_parent_ = 0;
};

/// Self time per span name, in milliseconds: each span's duration minus the
/// part of its interval covered by the union of its direct children.
std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans);

/// Total length of the union of [lo, hi) intervals, clipped to [a, b).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double a, double b);

// ---- the decorating client ---------------------------------------------------

/// Wraps a client the store hands to the round engine and records spans
/// around SetGlobal / TrainLocal / ExportState / RestoreState and around the
/// wrapped client's destruction (the moment ClientStore::Evict's handle is
/// released). Optionally sleeps a fixed delay inside TrainLocal: the
/// attribution self-check's known, injected cost.
class TracedClient : public cip::fl::ClientBase {
 public:
  TracedClient(std::unique_ptr<cip::fl::ClientBase> inner, std::size_t id,
               double inject_delay_ms);
  ~TracedClient() override;

  void SetGlobal(const cip::fl::ModelState& global) override;
  cip::fl::ModelState TrainLocal(cip::fl::RoundContext ctx) override;
  double EvalAccuracy(const cip::data::Dataset& data) override;
  float LastTrainLoss() const override;
  const cip::data::Dataset& LocalData() const override;
  cip::fl::ClientState ExportState() const override;
  void RestoreState(const cip::fl::ClientState& state) override;

 private:
  std::unique_ptr<cip::fl::ClientBase> inner_;
  std::size_t id_;
  double inject_delay_ms_;
  // The pending eviction: ExportState opens it, destruction closes it.
  mutable std::uint64_t evict_id_ = 0;
  mutable double evict_start_us_ = 0.0;
  mutable std::uint64_t evict_tag_ = 0;
};

// ---- report ------------------------------------------------------------------

/// What a run measured: operation counts, correctness, named metric values.
/// Names and units are BENCHMARK.json's; run.py attaches the units.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a failed correctness check: the run is incorrect.
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// The one-line result object {"correct", "attempted", "failed",
  /// "values": {name: value}}; run.py checks the names against
  /// BENCHMARK.json and turns it into the final result line.
  std::string ToJson() const;
};

/// Run-wide settings shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double inject_delay_ms = 0.0;
  std::string scratch_dir;  ///< per-run scratch (spill files), removed at exit
  std::size_t threads = 1;  ///< ParallelThreads() for this process
};

/// Peak resident set size of this process, in MiB.
double PeakRssMiB();

/// Format a double with full precision for JSON.
std::string JsonNum(double v);

/// FNV-1a digest of a byte range, continued from `h`.
std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

// ---- workloads ----------------------------------------------------------------

/// Each workload fills `report` (every end-to-end metric when untraced, the
/// per-layer metrics it exercises when traced) and returns its workload
/// definition as a JSON object for the provenance stamp.
std::string RunCipRound(const RunOptions& opts, Report& report);
std::string RunFleetChurn(const RunOptions& opts, Report& report);
std::string RunServeWire(const RunOptions& opts, Report& report);

}  // namespace cipbench
