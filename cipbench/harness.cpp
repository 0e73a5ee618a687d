#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "common/parallel.h"

namespace cipbench {

// ---- statistics -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double DispatchMicros(std::size_t threads) {
  return 1e6 * MedianSeconds(2000, [threads] {
           cip::ParallelForCoarse(0, threads, [](std::size_t) {}, threads);
         });
}

Tail TailPercentile(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 99; p >= 50; --p) {
    // Nearest rank, in integer arithmetic: ceil(p * n / 100).
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - rank >= min_beyond) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = n - rank;
      return t;
    }
  }
  t.value = v.back();
  t.percentile = 100;
  t.beyond = 0;
  return t;
}

// ---- open-loop accounting -------------------------------------------------------

ArrivalSchedule::ArrivalSchedule(double rate_per_s, std::uint64_t seed)
    : rate_(rate_per_s), state_(seed ^ 0x9E3779B97F4A7C15ull) {}

double ArrivalSchedule::Next() {
  // splitmix64 -> uniform in (0, 1] -> exponential inter-arrival gap.
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double u = (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
  t_ += -std::log(u) / rate_;
  return t_;
}

// ---- trace ------------------------------------------------------------------------

std::atomic<std::uint64_t> SpanContext::root{0};
std::atomic<std::uint64_t> SpanContext::tag{0};

namespace {
thread_local std::uint64_t tls_open_span = 0;
}  // namespace

Trace::Trace() : epoch_(Clock::now()) {}

double Trace::ToUs(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

double Trace::NowUs() const { return ToUs(Clock::now()); }

void Trace::Record(Span s) {
  if (!enabled()) return;
  s.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint32_t Trace::ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void Trace::WriteChrome(std::ostream& os, const std::string& metadata) const {
  const std::vector<Span> all = spans();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << JsonNum(s.start_us)
       << ",\"dur\":" << JsonNum(s.end_us - s.start_us)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"tag\":" << s.tag << ",\"item\":" << s.item << "}}";
  }
  os << "\n],\"metadata\":" << metadata << "}\n";
}

Trace& GlobalTrace() {
  static Trace trace;
  return trace;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t item) {
  Trace& tr = GlobalTrace();
  if (!tr.enabled()) return;
  on_ = true;
  span_.id = tr.NewId();
  span_.parent =
      tls_open_span != 0 ? tls_open_span : SpanContext::root.load();
  span_.name = name;
  span_.tag = SpanContext::tag.load();
  span_.item = item;
  saved_parent_ = tls_open_span;
  tls_open_span = span_.id;
  span_.start_us = tr.NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  Trace& tr = GlobalTrace();
  span_.end_us = tr.NowUs();
  tls_open_span = saved_parent_;
  tr.Record(std::move(span_));
}

double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double a, double b) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, a);
    iv.second = std::min(iv.second, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

std::map<std::string, double> SelfTimeMs(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = CoveredLength(it->second, s.start_us, s.end_us);
    }
    self[s.name] += (s.end_us - s.start_us - covered) / 1000.0;
  }
  return self;
}

// ---- decorating client ------------------------------------------------------------

TracedClient::TracedClient(std::unique_ptr<cip::fl::ClientBase> inner,
                           std::size_t id, double inject_delay_ms)
    : inner_(std::move(inner)), id_(id), inject_delay_ms_(inject_delay_ms) {}

TracedClient::~TracedClient() {
  Trace& tr = GlobalTrace();
  if (evict_id_ == 0 || !tr.enabled()) return;
  // ClientStore::Evict exported this client, encoded and filed its record,
  // and has now released the handle: the eviction ends here.
  Span evict;
  evict.id = evict_id_;
  evict.parent = SpanContext::root.load();
  evict.name = "fl.evict";
  evict.start_us = evict_start_us_;
  evict.end_us = tr.NowUs();
  evict.tag = evict_tag_;
  evict.item = id_;
  {
    ScopedSpan destroy("fl.destroy", id_);
    inner_.reset();
  }
  tr.Record(std::move(evict));
}

void TracedClient::SetGlobal(const cip::fl::ModelState& global) {
  ScopedSpan span("fl.set_global", id_);
  inner_->SetGlobal(global);
}

cip::fl::ModelState TracedClient::TrainLocal(cip::fl::RoundContext ctx) {
  ScopedSpan span("core.train_local", id_);
  cip::fl::ModelState out = inner_->TrainLocal(std::move(ctx));
  if (inject_delay_ms_ > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(inject_delay_ms_));
  }
  return out;
}

double TracedClient::EvalAccuracy(const cip::data::Dataset& data) {
  return inner_->EvalAccuracy(data);
}

float TracedClient::LastTrainLoss() const { return inner_->LastTrainLoss(); }

const cip::data::Dataset& TracedClient::LocalData() const {
  return inner_->LocalData();
}

cip::fl::ClientState TracedClient::ExportState() const {
  Trace& tr = GlobalTrace();
  if (!tr.enabled()) return inner_->ExportState();
  evict_id_ = tr.NewId();
  evict_tag_ = SpanContext::tag.load();
  evict_start_us_ = tr.NowUs();
  Span span;
  span.id = tr.NewId();
  span.parent = evict_id_;
  span.name = "fl.export_state";
  span.tag = evict_tag_;
  span.item = id_;
  span.start_us = evict_start_us_;
  cip::fl::ClientState state = inner_->ExportState();
  span.end_us = tr.NowUs();
  tr.Record(std::move(span));
  return state;
}

void TracedClient::RestoreState(const cip::fl::ClientState& state) {
  ScopedSpan span("fl.restore_state", id_);
  inner_->RestoreState(state);
}

// ---- report ------------------------------------------------------------------------

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << JsonNum(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t Fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace cipbench
