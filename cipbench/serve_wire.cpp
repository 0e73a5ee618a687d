// serve_wire: CIPN kQuery traffic against an in-process CipServer with a
// ServeEngine attached, driven from this one thread over a few loopback
// connections. The fleet is fleet_churn's (same spec per id, same cold store
// with spilling), so t-cache misses read the records fleet_churn writes.
//
// The timed part alternates kSegments pairs of short phases:
//  * open loop — Poisson arrivals at a fixed rate (kRatePerS, about a fifth
//    of the saturation throughput of the host the workload was defined on:
//    one-at-a-time arrivals get little batching, so the loop's open-loop
//    capacity is far below the pipelined saturation figure); each query is
//    timed from its due time and the generator's lateness is kept;
//  * saturation — a closed loop with a fixed in-flight window per
//    connection; answered queries per second is the throughput.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "core/blend.h"
#include "fleet.h"
#include "harness.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/serve_engine.h"
#include "tensor/ops.h"

namespace cipbench {

using namespace cip;

namespace {

// The workload definition.
// Width of the served MLP global; the clients keep fleet_churn's width. It
// gives a query enough model work that host noise in the syscall path does
// not decide the figures.
constexpr std::size_t kServeWidth = 64;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPool = 4096;        ///< distinct pre-encoded queries
constexpr double kZipfS = 1.0;             ///< client popularity exponent
constexpr std::size_t kMaxRows = 8;        ///< rows per query: 1..kMaxRows
constexpr double kRatePerS = 1000.0;       ///< open-loop arrival rate
constexpr std::size_t kWindow = 32;        ///< saturation in-flight per conn
constexpr double kOpenShare = 0.6;         ///< open-loop share of --seconds
constexpr std::size_t kSegments = 30;      ///< open/saturation alternations
constexpr std::size_t kSetups = 3;         ///< setups per run (median kept)
constexpr std::size_t kVerifyEvery = 16;   ///< every 16th pool entry checked
constexpr double kTolerance = 1e-5;        ///< docs/KERNELS.md, relative

/// The served global: the fleet's MLP at kServeWidth, initial weights.
fl::ClientSpec ServedSpec(const Fleet& fleet) {
  fl::ClientSpec spec = fleet.proto();
  spec.model.width = kServeWidth;
  return spec;
}

struct Query {
  std::size_t client = 0;
  data::Dataset rows;
  std::string frame;
};

/// The seed's query pool: Zipf-popular clients, 1..kMaxRows rows each.
std::vector<Query> MakePool(const Fleet& fleet, std::uint64_t seed) {
  Rng rng = DeriveStream(seed, 0x5E7E, 0);
  const std::vector<std::size_t> by_rank = rng.Permutation(fleet.size());
  std::vector<double> cdf(fleet.size());
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  std::vector<Query> pool(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    const double u = rng.Uniform(0.0f, 1.0f) * total;
    const std::size_t rank = std::min<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        cdf.size() - 1);
    Query& q = pool[i];
    q.client = by_rank[rank];
    q.rows = fleet.Sample(1 + rng.Index(kMaxRows), 1000000 + i);
    net::QueryMsg msg;
    msg.client_id = q.client;
    msg.inputs = q.rows.inputs;
    q.frame = net::EncodeQuery(msg);
  }
  return pool;
}

struct Inflight {
  std::size_t seq = 0;
  QueryTimes times;
};

struct Conn {
  net::Socket sock;
  std::string out;
  std::size_t out_off = 0;
  net::FrameReader reader;
  std::deque<Inflight> inflight;
  bool dead = false;
};

/// The serving stack and its load generator, stepped from one thread.
class Stack {
 public:
  // `delay_ms` reaches the clients' TrainLocal, which serving never calls:
  // the attribution self-check injects it to show it leaves serving alone.
  Stack(const Fleet& fleet, const std::string& spill_dir, double delay_ms)
      : built_(BuildFleet(kFleetChurn, fleet, spill_dir, delay_ms)),
        model_(nn::MakeDualChannelClassifier(ServedSpec(fleet).model)) {
    opts_.blend = fleet.proto().cip.blend;
    opts_.t_cache_entries = fleet.size() / 4;
    engine_ = std::make_unique<serve::ServeEngine>(*model_, built_.store,
                                                   opts_);
    net::AsyncRoundEngine::Options eo;
    eo.fleet_size = fleet.size();
    eo.quorum = fleet.size();
    net::ServerOptions so;
    so.drain_fleet = false;
    server_ = std::make_unique<net::CipServer>(built_.init, eo, so);
    server_->EnableServing(engine_.get());
    server_->Listen();
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_.emplace_back();
      conns_.back().sock =
          net::ConnectTcpNonBlocking("127.0.0.1", server_->port());
    }
    // Let the server accept every connection before traffic starts.
    for (int i = 0; i < 100 && server_->stats().accepted_connections <
                                   kConnections; ++i) {
      server_->Step(10);
    }
  }

  /// Queue query `seq` (pool entry seq % kPool) on connection `conn`.
  void Send(const std::vector<Query>& pool, std::size_t seq, std::size_t conn,
            double due, double now) {
    Conn& c = conns_[conn];
    c.out += pool[seq % kPool].frame;
    c.inflight.push_back(Inflight{seq, QueryTimes{due, now, 0.0}});
    ++sent_;
  }

  /// One cycle: write pending bytes, step the server, read answers. Calls
  /// on_answer(conn, seq, times, logits) per kLogits, in per-connection
  /// order.
  template <typename F>
  void Pump(F&& on_answer) {
    for (Conn& c : conns_) Flush(c);
    const auto t0 = Clock::now();
    const std::uint64_t rx0 = server_->stats().bytes_received;
    const std::uint64_t tx0 = server_->stats().bytes_sent;
    server_->Step(0);
    const auto t1 = Clock::now();
    if (server_->stats().bytes_received != rx0 ||
        server_->stats().bytes_sent != tx0) {
      // Only steps that moved bytes count as busy (and become spans).
      step_busy_s_ += Seconds(t0, t1);
      Trace& tr = GlobalTrace();
      if (tr.enabled()) {
        tr.Record(Span{tr.NewId(), 0, "net.step", tr.ToUs(t0), tr.ToUs(t1), 0,
                       0, 0});
      }
    }
    char buf[1 << 16];
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = conns_[ci];
      while (!c.dead && !c.inflight.empty()) {
        const net::IoResult io = net::RecvSome(c.sock, std::span<char>(buf, sizeof(buf)));
        if (io.closed || io.error) {
          c.dead = true;
          break;
        }
        if (io.bytes == 0) break;
        c.reader.Feed(std::string_view(buf, io.bytes));
        while (std::optional<net::Frame> f = c.reader.Next()) {
          if (f->type == net::MsgType::kLogits && !c.inflight.empty()) {
            Inflight q = c.inflight.front();
            c.inflight.pop_front();
            q.times.done = Now();
            on_answer(ci, q.seq, q.times,
                      net::DecodeLogits(f->payload).logits);
          } else {
            // kBusy or anything unexpected: the connection is lost.
            c.dead = true;
          }
        }
      }
    }
  }

  /// Queries in flight across all connections.
  std::size_t InFlight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.dead ? 0 : c.inflight.size();
    return n;
  }
  /// Queries on connections that died: they will never be answered.
  std::size_t Lost() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.dead ? c.inflight.size() : 0;
    return n;
  }
  std::size_t InFlightOn(std::size_t conn) const {
    return conns_[conn].inflight.size();
  }

  double Now() const { return GlobalTrace().NowUs() / 1e6; }
  double step_busy_s() const { return step_busy_s_; }
  std::size_t sent() const { return sent_; }
  serve::ServeEngine& engine() { return *engine_; }
  const net::CipServer& server() const { return *server_; }
  nn::DualChannelClassifier& model() { return *model_; }
  fl::ClientStore& store() { return built_.store; }
  fl::ModelState global() const {
    const std::vector<nn::Parameter*> params = model_->Parameters();
    return fl::ModelState::From(params);
  }
  const serve::ServeOptions& options() const { return opts_; }

 private:
  void Flush(Conn& c) {
    if (c.dead || c.out_off == c.out.size()) return;
    const net::IoResult io = net::SendSome(
        c.sock, std::span<const char>(c.out.data() + c.out_off,
                                      c.out.size() - c.out_off));
    if (io.error || io.closed) {
      c.dead = true;
      return;
    }
    c.out_off += io.bytes;
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  Built built_;
  std::unique_ptr<nn::DualChannelClassifier> model_;
  serve::ServeOptions opts_;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::unique_ptr<net::CipServer> server_;
  std::deque<Conn> conns_;
  double step_busy_s_ = 0.0;
  std::size_t sent_ = 0;
};

/// Closed loop over the pool: `window` queries in flight per connection,
/// each answer immediately replaced on its connection, until done().
template <typename Done, typename F>
void ClosedLoop(Stack& s, const std::vector<Query>& pool, std::size_t& seq,
                std::size_t window, Done&& done, F&& on_answer) {
  for (std::size_t c = 0; c < kConnections; ++c) {
    while (s.InFlightOn(c) < window) s.Send(pool, seq++, c, s.Now(), s.Now());
  }
  while (!done() && s.Lost() == 0) {
    s.Pump([&](std::size_t conn, std::size_t q, const QueryTimes& t,
               const Tensor& logits) {
      on_answer(q, t, logits);
      if (!done()) s.Send(pool, seq++, conn, s.Now(), s.Now());
    });
  }
}

/// Wait (bounded) for every in-flight query to be answered.
template <typename F>
void Drain(Stack& s, F&& on_answer) {
  const double give_up = s.Now() + 5.0;
  while (s.InFlight() > 0 && s.Now() < give_up) {
    s.Pump([&](std::size_t, std::size_t q, const QueryTimes& t,
               const Tensor& logits) { on_answer(q, t, logits); });
  }
}

/// Shape-matched serve/nn/tensor probes at the measured mean rows per flush.
void ProbeServing(Stack& s, const std::vector<Query>& pool,
                  std::size_t threads, double rows_per_flush, Report& r) {
  r.Set("common.dispatch_us", DispatchMicros(threads));
  const std::size_t rows =
      std::max<std::size_t>(1, static_cast<std::size_t>(rows_per_flush + 0.5));
  // A private engine over the same model and store: flushes of whole pool
  // queries adding up to about `rows` rows, cache warm.
  serve::ServeEngine probe(s.model(), s.store(), s.options());
  std::size_t next = 0;
  const auto fill = [&] {
    while (probe.pending_rows() < rows) {
      const Query& q = pool[next++ % kPool];
      probe.Enqueue(q.client, q.rows.inputs);
    }
  };
  for (int i = 0; i < 200; ++i) {
    fill();
    (void)probe.Flush();
  }
  std::vector<double> flush;
  for (int i = 0; i < 2000; ++i) {
    fill();  // untimed: only the Flush is measured
    const auto t0 = Clock::now();
    (void)probe.Flush();
    flush.push_back(Seconds(t0, Clock::now()));
  }
  r.Set("serve.flush_ms", 1e3 * Median(flush));

  const std::size_t dim = pool[0].rows.inputs.dim(1);
  Tensor x({rows, dim});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = pool[i / dim % kPool].rows.inputs[i % dim];
  }
  Tensor c1({rows, dim}), c2({rows, dim});
  core::BlendRowsInto(x.data(), nullptr, rows, dim, s.options().blend,
                      c1.data(), c2.data());
  r.Set("nn.eval_fwd_ms", 1e3 * MedianSeconds(2000, [&] {
          (void)s.model().EvalForward(c1, c2);
        }));
  // The MLP's first Linear at that batch: [rows, D] x [8w, D]^T.
  const std::size_t out = 8 * kServeWidth;
  Tensor w({out, dim}), y({rows, out});
  Rng rng(3);
  for (float& v : w.flat()) v = rng.Normal();
  r.Set("tensor.gemm_gmacs",
        static_cast<double>(rows * dim * out) / 1e9 /
            MedianSeconds(2000, [&] { ops::MatmulTransBInto(x, w, y); }));

  // t-cache miss cost: a fresh engine serves 256 distinct clients twice;
  // the first pass misses (store read), the second hits.
  serve::ServeEngine cold(s.model(), s.store(), s.options());
  const Tensor one = pool[0].rows.inputs.dim(0) == 1
                         ? pool[0].rows.inputs
                         : Tensor({std::size_t{1}, dim});
  std::vector<double> miss, hit;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < 256; ++k) {
      const std::size_t id = (k * 7 + 1) % s.store().num_clients();
      const auto t0 = Clock::now();
      (void)cold.Serve(id, one);
      (pass == 0 ? miss : hit).push_back(Seconds(t0, Clock::now()));
    }
  }
  r.Set("serve.t_miss_ms", 1e3 * (Median(miss) - Median(hit)));
}

std::string Definition(const Fleet& fleet) {
  std::ostringstream os;
  os << "{\"name\":\"serve_wire\",\"fleet\":\"fleet_churn\",\"clients\":"
     << fleet.size() << ",\"t_cache_entries\":" << fleet.size() / 4
     << ",\"connections\":" << kConnections << ",\"pool\":" << kPool
     << ",\"zipf_s\":" << kZipfS << ",\"rows\":\"1.." << kMaxRows
     << "\",\"open_loop_rate_per_s\":" << kRatePerS
     << ",\"open_loop_share\":" << kOpenShare
     << ",\"saturation_window_per_conn\":" << kWindow
     << ",\"setups\":" << kSetups << "}";
  return os.str();
}

}  // namespace

std::string RunServeWire(const RunOptions& opts, Report& r) {
  const Fleet fleet(kFleetChurn, opts.seed, opts.threads);
  const std::vector<Query> pool = MakePool(fleet, opts.seed);
  Trace& tr = GlobalTrace();

  // Answers kept for checking: the first answer of every kVerifyEvery-th
  // pool entry, from whichever phase served it.
  std::map<std::size_t, Tensor> answers;
  const auto keep = [&](std::size_t seq, const Tensor& logits) {
    const std::size_t entry = seq % kPool;
    if (entry % kVerifyEvery == 0 && !answers.contains(entry)) {
      answers.emplace(entry, logits);
    }
  };

  // Set-up, several times: build the store (enroll + spill), the engine,
  // the server and its connections, then warm the t-cache with one closed
  // pass over the pool. Only the last stack is measured.
  std::vector<double> setups;
  std::unique_ptr<Stack> s;
  std::size_t seq = 0;
  for (std::size_t i = 0; i < kSetups; ++i) {
    s.reset();
    const std::string dir = opts.scratch_dir + "/spill" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const auto t0 = Clock::now();
    s = std::make_unique<Stack>(fleet, dir, opts.inject_delay_ms);
    seq = 0;
    const auto ignore = [](std::size_t, const QueryTimes&, const Tensor&) {};
    ClosedLoop(*s, pool, seq, kWindow, [&] { return seq >= kPool; }, ignore);
    Drain(*s, ignore);
    setups.push_back(Seconds(t0, Clock::now()));
  }

  // ---- timed phases ----------------------------------------------------------
  // kSegments pairs of (open-loop, saturation) segments. A slow spell on the
  // host lands in a few segments; the medians over segments shrug it off.
  // A traced run traces its odd segments and keeps the even ones as the
  // untraced baseline for the overhead ratio.
  const double seg_open = kOpenShare * opts.seconds / kSegments;
  const double seg_sat = (1.0 - kOpenShare) * opts.seconds / kSegments;
  const std::size_t sent0 = s->sent();
  std::size_t answered = 0;
  std::vector<double> lateness, seg_p50, seg_tail, seg_qps, lat_plain,
      lat_traced;
  serve::ServeStats open_st;  // serving counters summed over open segments
  net::ServerStats open_ns;
  const net::ServerStats ns0 = s->server().stats();
  double busy_s = 0.0, sat_s = 0.0;
  ArrivalSchedule sched(kRatePerS, opts.seed);
  double next_t = sched.Next();  // schedule time of the next arrival
  for (std::size_t seg = 0; seg < kSegments && s->Lost() == 0; ++seg) {
    const bool traced = opts.trace && seg % 2 == 1;
    std::vector<double> lat;
    const auto on_open = [&](std::size_t q, const QueryTimes& t,
                             const Tensor& logits) {
      ++answered;
      keep(q, logits);
      lat.push_back(t.latency());
      lateness.push_back(t.lateness());
      if (traced && q % 8 == 0) {  // every 8th query keeps the file small
        tr.Record(Span{tr.NewId(), 0, "net.query", t.due * 1e6, t.done * 1e6,
                       q, q % kConnections, 0});
      }
    };
    const serve::ServeStats st_a = s->engine().stats();
    const net::ServerStats ns_a = s->server().stats();
    tr.set_enabled(traced);
    const double open0 = s->Now();
    const double sched0 = seg * seg_open;  // schedule time at segment start
    while (s->Now() < open0 + seg_open && s->Lost() == 0) {
      const double now = s->Now();
      while (next_t < sched0 + seg_open && open0 + next_t - sched0 <= now) {
        s->Send(pool, seq, seq % kConnections, open0 + next_t - sched0, now);
        ++seq;
        next_t = sched.Next();
      }
      s->Pump([&](std::size_t, std::size_t q, const QueryTimes& t,
                  const Tensor& logits) { on_open(q, t, logits); });
    }
    Drain(*s, on_open);
    tr.set_enabled(false);
    const serve::ServeStats& st_b = s->engine().stats();
    const net::ServerStats& ns_b = s->server().stats();
    open_st.rows += st_b.rows - st_a.rows;
    open_st.batches += st_b.batches - st_a.batches;
    open_st.t_hits += st_b.t_hits - st_a.t_hits;
    open_st.t_misses += st_b.t_misses - st_a.t_misses + st_b.t_stale -
                        st_a.t_stale;
    open_ns.bytes_received += ns_b.bytes_received - ns_a.bytes_received;
    open_ns.bytes_sent += ns_b.bytes_sent - ns_a.bytes_sent;
    open_ns.queries_answered += ns_b.queries_answered - ns_a.queries_answered;
    seg_p50.push_back(Median(lat));
    seg_tail.push_back(TailPercentile(lat).value);
    (traced ? lat_traced : lat_plain).insert(
        traced ? lat_traced.end() : lat_plain.end(), lat.begin(), lat.end());

    const double sat0 = s->Now();
    const double busy0 = s->step_busy_s();
    const double sat_end = sat0 + seg_sat;
    std::size_t counted = 0;
    const auto on_sat = [&](std::size_t q, const QueryTimes&,
                            const Tensor& logits) {
      ++answered;
      keep(q, logits);
      if (s->Now() < sat_end) ++counted;
    };
    ClosedLoop(*s, pool, seq, kWindow, [&] { return s->Now() >= sat_end; },
               on_sat);
    const double dt = s->Now() - sat0;
    busy_s += s->step_busy_s() - busy0;
    sat_s += dt;
    seg_qps.push_back(static_cast<double>(counted) / dt);
    Drain(*s, on_sat);
  }
  const net::ServerStats ns1 = s->server().stats();

  // ---- correctness -------------------------------------------------------------
  r.attempted = s->sent() - sent0;
  r.failed = r.attempted - answered;
  if (r.failed > 0) r.Fail(std::to_string(r.failed) + " queries unanswered");
  if (ns1.busy_rejections != ns0.busy_rejections) {
    r.Fail("server refused connections with kBusy");
  }
  // Every checked answer must match an in-process Serve of the same
  // (client, rows) within the kernel tolerance (the GEMM regime may differ
  // between a fused batch and a lone request).
  serve::ServeEngine ref(s->model(), s->store(), s->options());
  std::size_t wrong = 0;
  double ce_sum = 0.0;
  std::size_t ce_rows = 0;
  for (const auto& [entry, got] : answers) {
    const Query& q = pool[entry];
    const Tensor& want = ref.Serve(q.client, q.rows.inputs);
    bool ok = got.shape() == want.shape();
    for (std::size_t i = 0; ok && i < want.size(); ++i) {
      ok = std::fabs(got[i] - want[i]) <=
           kTolerance * std::max(1.0f, std::fabs(want[i]));
    }
    if (!ok) ++wrong;
    for (float l : ops::PerSampleCrossEntropy(got, q.rows.labels)) {
      ce_sum += l;
      ++ce_rows;
    }
  }
  if (answers.size() < kPool / kVerifyEvery) {
    r.Fail("only " + std::to_string(answers.size()) +
           " pool entries were answered and checked");
  }
  if (wrong > 0) {
    r.failed += wrong;
    r.Fail(std::to_string(wrong) + " answers differ from in-process Serve");
  }
  std::cout << "checked " << answers.size() << " answers against in-process "
            << "ServeEngine::Serve: " << wrong << " wrong\n";

  const double rows_per_flush =
      open_st.batches > 0 ? static_cast<double>(open_st.rows) /
                                static_cast<double>(open_st.batches)
                          : 0.0;
  if (!opts.trace) {
    r.Set("setup_s", Median(setups));
    r.Set("peak_rss_mib", PeakRssMiB());
    r.Set("op_p50_ms", 1e3 * Median(seg_p50));
    r.Set("final_loss", ce_rows > 0 ? ce_sum / static_cast<double>(ce_rows) : 0);
    // The served global is an untrained initial model: nothing was trained
    // on any member, so this pins the raw path at chance. Members: the local
    // data of the first 128 distinct clients the pool queries.
    std::set<std::size_t> queried;
    for (std::size_t k = 0; k < kPool && queried.size() < 128; ++k) {
      queried.insert(pool[k].client);
    }
    data::Dataset members;
    for (std::size_t id : queried) {
      const data::Dataset local = fleet.SpecFor(id).data;
      members = members.empty() ? local : data::Dataset::Concat(members, local);
    }
    r.Set("mia_acc", MiaAccuracy(ServedSpec(fleet), s->global(), members,
                                 fleet.Sample(members.size(), 0x4E4F4E)));
    // The latency tail and the saturation throughput are reported, not
    // gated: on a shared host they are set by scheduler stalls and by how
    // busy the other tenants are, not by the program (README.md).
    const Tail tail = TailPercentile(lat_plain);
    const auto [lo, hi] = std::minmax_element(seg_qps.begin(), seg_qps.end());
    std::cout << "open loop: " << lat_plain.size() << " queries at "
              << kRatePerS << "/s in " << seg_p50.size()
              << " segments; query tail p" << tail.percentile << " ("
              << tail.beyond << " beyond) = " << 1e3 * tail.value
              << " ms, median segment tail = " << 1e3 * Median(seg_tail)
              << " ms\nsaturation: median " << Median(seg_qps)
              << " queries/s over segments (" << *lo << ".." << *hi << ")\n";
  } else {
    const double hits = static_cast<double>(open_st.t_hits);
    const double looks = hits + static_cast<double>(open_st.t_misses);
    r.Set("serve.rows_per_flush", rows_per_flush);
    r.Set("serve.t_hit_ratio", looks > 0 ? hits / looks : 0.0);
    r.Set("net.bytes_per_query",
          open_ns.queries_answered > 0
              ? static_cast<double>(open_ns.bytes_received +
                                    open_ns.bytes_sent) /
                    static_cast<double>(open_ns.queries_answered)
              : 0.0);
    r.Set("net.gen_lag_ms", 1e3 * TailPercentile(lateness).value);
    r.Set("net.busy_rejections",
          static_cast<double>(ns1.busy_rejections - ns0.busy_rejections));
    r.Set("net.step_busy_frac", sat_s > 0 ? busy_s / sat_s : 0.0);
    const double plain = Median(lat_plain);
    r.Set("trace.overhead_ratio", plain > 0 ? Median(lat_traced) / plain : 0.0);
    ProbeServing(*s, pool, opts.threads, rows_per_flush, r);
    std::cout << "self time per span name (ms, summed over traced segments):\n";
    for (const auto& [name, ms] : SelfTimeMs(tr.spans())) {
      std::cout << "  " << name << " " << ms << "\n";
    }
  }
  s.reset();
  return Definition(fleet);
}

}  // namespace cipbench
