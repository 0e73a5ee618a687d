// The two training workloads, cip_round and fleet_churn, and the one loop
// they share: build a fleet, run FederatedAveraging::Run for a fixed number
// of rounds, repeat until the time is up, then check and attribute.
//
// Round boundaries come from outside the engine: the tamper hook is called
// at the top of every round (before sampling), so an identity tamper is a
// round clock. It costs nothing extra — without a tamper the engine copies
// the global into the broadcast just the same.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>

#include "common/parallel.h"
#include "common/stats.h"
#include "core/blend.h"
#include "core/perturbation.h"
#include "fl/client_factory.h"
#include "fl/server.h"
#include "fleet.h"
#include "harness.h"
#include "nn/conv2d.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace cipbench {

using namespace cip;

namespace {

/// Round starts observed through the tamper hook; emits fl.round spans.
class RoundClock {
 public:
  explicit RoundClock(std::uint64_t run_span) : run_span_(run_span) {}

  fl::FederatedAveraging::GlobalTamper Hook() {
    return [this](std::size_t round, const fl::ModelState& honest) {
      const double now = GlobalTrace().NowUs();
      CloseRound(now);
      starts_us_.push_back(now);
      round_id_ = GlobalTrace().NewId();
      SpanContext::root.store(round_id_);
      SpanContext::tag.store(round);
      return honest;
    };
  }

  /// Run returned: close the last round.
  void Finish() {
    end_us_ = GlobalTrace().NowUs();
    CloseRound(end_us_);
    SpanContext::root.store(0);
    SpanContext::tag.store(0);
  }

  const std::vector<double>& starts_us() const { return starts_us_; }
  double end_us() const { return end_us_; }
  /// Wall time of round r (1-based), in seconds.
  double WallSeconds(std::size_t r) const {
    const double end = r < starts_us_.size() ? starts_us_[r] : end_us_;
    return (end - starts_us_[r - 1]) / 1e6;
  }

 private:
  void CloseRound(double now) {
    if (starts_us_.empty()) return;
    Span s;
    s.id = round_id_;
    s.parent = run_span_;
    s.name = "fl.round";
    s.start_us = starts_us_.back();
    s.end_us = now;
    s.tag = starts_us_.size();
    GlobalTrace().Record(std::move(s));
  }

  std::uint64_t run_span_;
  std::uint64_t round_id_ = 0;
  std::vector<double> starts_us_;
  double end_us_ = 0.0;
};

/// Digest of a run's final global and every round's client losses.
std::uint64_t Digest(const fl::FlLog& log) {
  const auto g = log.final_global.values();
  std::uint64_t h = Fnv1a(g.data(), g.size() * sizeof(float));
  for (const auto& losses : log.client_losses) {
    h = Fnv1a(losses.data(), losses.size() * sizeof(float), h);
  }
  return h;
}

/// One Run of the workload: what the harness keeps of it.
struct Episode {
  double setup_s = 0.0;
  std::vector<double> round_s;
  fl::FlLog log;
  std::size_t span_begin = 0, span_end = 0;  ///< this episode's spans
  std::vector<double> starts_us;
  double end_us = 0.0;
  bool traced = false;
};

/// Shape-matched layer probes for the traced run. Each times a public entry
/// point at the shapes the workload's clients use.
void ProbeLayers(const TrainingDef& def, const Fleet& fleet,
                 const fl::ModelState& global, std::size_t threads,
                 Report& r) {
  const std::size_t reps = def.image ? 30 : 300;
  r.Set("common.dispatch_us", DispatchMicros(threads));

  const fl::ClientSpec spec = fleet.SpecFor(0);
  const std::size_t n = std::min(def.batch, spec.data.size());
  const data::Dataset batch = spec.data.Slice(0, n);
  Rng rng(fleet.size() + 99);
  const Tensor t =
      core::Perturbation::Random(spec.data.SampleShape(), rng).tensor();
  const core::BlendConfig bcfg = spec.cip.blend;
  r.Set("core.blend_ms",
        1e3 * MedianSeconds(reps, [&] { (void)core::Blend(batch.inputs, t, bcfg); }));

  auto model = nn::MakeDualChannelClassifier(spec.model);
  const std::vector<nn::Parameter*> params = model->Parameters();
  global.ApplyTo(params);
  const core::Blended bl = core::Blend(batch.inputs, t, bcfg);
  std::vector<double> fwd, bwd, step;
  optim::Sgd opt(spec.train.lr, spec.train.momentum, spec.train.weight_decay,
                 spec.train.grad_clip);
  for (std::size_t i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    const Tensor logits = model->Forward(bl.c1, bl.c2, true);
    auto t1 = Clock::now();
    Tensor dlogits;
    (void)ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    auto t2 = Clock::now();
    (void)model->Backward(dlogits);
    auto t3 = Clock::now();
    opt.Step(params);
    auto t4 = Clock::now();
    fwd.push_back(Seconds(t0, t1));
    bwd.push_back(Seconds(t2, t3));
    step.push_back(Seconds(t3, t4));
  }
  r.Set("nn.train_fwd_ms", 1e3 * Median(fwd));
  r.Set("nn.train_bwd_ms", 1e3 * Median(bwd));
  r.Set("optim.step_ms", 1e3 * Median(step));
  r.Set("nn.eval_fwd_ms", 1e3 * MedianSeconds(reps, [&] {
          (void)model->EvalForward(bl.c1, bl.c2);
        }));

  if (def.image) {
    // The first residual block's 3x3 conv at full resolution: the widest
    // im2col and, with the widened block, the largest conv GEMM.
    const Shape s = spec.data.SampleShape();
    const std::size_t w = def.width, h = s[1], wd = s[2];
    Rng crng(5);
    nn::Conv2d conv(w, w, 3, 1, 1, crng, "probe.conv");
    Tensor x({n, w, h, wd});
    for (float& v : x.flat()) v = crng.Uniform();
    const ops::Conv2dGeom g{w, h, wd, 3, 1, 1};
    Tensor col({n * h * wd, g.PatchSize()});
    r.Set("tensor.im2col_ms", 1e3 * MedianSeconds(reps, [&] {
            for (std::size_t i = 0; i < n; ++i) {
              ops::Im2ColInto(x, i, g, col, i * h * wd);
            }
          }));
    Tensor wmat({w, g.PatchSize()});
    for (float& v : wmat.flat()) v = crng.Normal();
    Tensor y({n * h * wd, w});
    const double macs = static_cast<double>(n * h * wd) *
                        static_cast<double>(g.PatchSize()) *
                        static_cast<double>(w);
    r.Set("tensor.gemm_gmacs",
          macs / 1e9 /
              MedianSeconds(reps, [&] { ops::MatmulTransBInto(col, wmat, y); }));
    std::vector<double> cf, cb;
    for (std::size_t i = 0; i < reps; ++i) {
      auto t0 = Clock::now();
      const Tensor out = conv.Forward(x, true);
      auto t1 = Clock::now();
      (void)conv.Backward(out);
      auto t2 = Clock::now();
      cf.push_back(Seconds(t0, t1));
      cb.push_back(Seconds(t1, t2));
    }
    r.Set("nn.conv_fwd_gmacs", macs / 1e9 / Median(cf));
    r.Set("nn.conv_bwd_gmacs", 2.0 * macs / 1e9 / Median(cb));  // dW + dX
  } else {
    // The MLP's first Linear: [batch, D] x [8w, D]^T, its largest GEMM.
    const std::size_t d = spec.data.SampleShape()[0], out = 8 * def.width;
    Rng grng(5);
    Tensor wmat({out, d});
    for (float& v : wmat.flat()) v = grng.Normal();
    Tensor y({n, out});
    const double macs = static_cast<double>(n * d * out);
    r.Set("tensor.gemm_gmacs",
          macs / 1e9 / MedianSeconds(reps, [&] {
            ops::MatmulTransBInto(batch.inputs, wmat, y);
          }));
  }

  // Allocations per warm TrainLocal, and a client's slowdown inside the
  // parallel phase: the same clients, same state, same contexts, first
  // each alone, then all at once on the pool.
  const std::size_t m = std::min(fleet.cohort(), threads);
  std::vector<std::unique_ptr<fl::ClientBase>> clients;
  std::vector<fl::ClientState> snaps;
  for (std::size_t k = 0; k < m; ++k) {
    clients.push_back(fl::MakeClient(fleet.SpecFor(k)));
    clients.back()->SetGlobal(global);
    (void)clients.back()->TrainLocal(fl::MakeRoundContext(1, 1, k));
    snaps.push_back(clients.back()->ExportState());
  }
  clients[0]->SetGlobal(global);
  (void)clients[0]->TrainLocal(fl::MakeRoundContext(1, 2, 0));
  const std::uint64_t a0 = internal::TensorAllocCount();
  clients[0]->SetGlobal(global);
  (void)clients[0]->TrainLocal(fl::MakeRoundContext(1, 3, 0));
  r.Set("core.train_allocs",
        static_cast<double>(internal::TensorAllocCount() - a0));

  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> alone(m), together(m);
    for (std::size_t k = 0; k < m; ++k) {
      clients[k]->SetGlobal(global);
      clients[k]->RestoreState(snaps[k]);
      const auto t0 = Clock::now();
      (void)clients[k]->TrainLocal(fl::MakeRoundContext(2, 2, k));
      alone[k] = Seconds(t0, Clock::now());
      clients[k]->SetGlobal(global);
      clients[k]->RestoreState(snaps[k]);
    }
    ParallelForCoarse(
        0, m,
        [&](std::size_t k) {
          const auto t0 = Clock::now();
          (void)clients[k]->TrainLocal(fl::MakeRoundContext(2, 2, k));
          together[k] = Seconds(t0, Clock::now());
        },
        m);
    for (std::size_t k = 0; k < m; ++k) ratios.push_back(together[k] / alone[k]);
  }
  r.Set("fl.client_slowdown", Median(ratios));
}

/// Per-layer attribution of the traced episodes.
void Attribute(const std::vector<Episode>& eps, const std::vector<Span>& all,
               Report& r) {
  std::vector<double> step1, step2, share_num, share_den, train_wall, coord,
      materialize, evict, aggregate, untraced, untraced_share, wall_traced,
      wall_plain;
  double hot = 0, cold = 0, spills = 0, rounds = 0;
  for (const Episode& ep : eps) {
    for (double w : ep.round_s) (ep.traced ? wall_traced : wall_plain).push_back(w);
    if (!ep.traced) continue;
    const auto& stats = ep.log.telemetry.rounds;
    for (std::size_t ri = 0; ri < stats.size(); ++ri) {
      const fl::RoundStats& rs = stats[ri];
      const std::size_t round = rs.round;
      const double ts = ep.starts_us[ri];
      const double te =
          ri + 1 < ep.starts_us.size() ? ep.starts_us[ri + 1] : ep.end_us;
      std::map<std::uint64_t, double> train_us, fac_start, mat_end;
      std::vector<std::pair<double, double>> cover;
      cover.emplace_back(ts, ts + rs.broadcast_seconds * 1e6);
      double train_end = ts, last_evict_end = 0.0;
      for (std::size_t i = ep.span_begin; i < ep.span_end; ++i) {
        const Span& s = all[i];
        if (s.tag != round || s.name == "fl.round") continue;
        if (s.start_us < ts || s.end_us > te + 1.0) continue;
        const double dur = s.end_us - s.start_us;
        if (s.name == "core.train_local") {
          train_us[s.item] = dur;
          train_end = std::max(train_end, s.end_us);
        } else if (s.name == "fl.factory") {
          fac_start[s.item] = s.start_us;
          mat_end[s.item] = std::max(mat_end[s.item], s.end_us);
        } else if (s.name == "fl.restore_state") {
          mat_end[s.item] = std::max(mat_end[s.item], s.end_us);
        } else if (s.name == "fl.evict") {
          evict.push_back(dur / 1e3);
          last_evict_end = std::max(last_evict_end, s.end_us);
        }
        if (s.name == "fl.evict" || s.name == "fl.destroy") {
          last_evict_end = std::max(last_evict_end, s.end_us);
        }
        cover.emplace_back(s.start_us, s.end_us);
      }
      for (const auto& [k, start] : fac_start) {
        materialize.push_back((mat_end[k] - start) / 1e3);
      }
      // Telemetry phases placed at the observed event they follow: the
      // client phase ends with its last TrainLocal, the fold starts after
      // the last eviction (or the client phase, for a live fleet).
      cover.emplace_back(train_end - rs.train_wall_seconds * 1e6, train_end);
      const double agg0 = std::max(train_end, last_evict_end);
      cover.emplace_back(agg0, agg0 + rs.aggregate_seconds * 1e6);
      const double wall_us = te - ts;
      const double unc = wall_us - CoveredLength(cover, ts, te);
      untraced.push_back(unc / 1e3);
      untraced_share.push_back(unc / wall_us);
      train_wall.push_back(rs.train_wall_seconds * 1e3);
      coord.push_back((wall_us / 1e6 - rs.train_wall_seconds) * 1e3);
      aggregate.push_back(rs.aggregate_seconds * 1e3);
      for (const fl::ClientRoundStats& cs : rs.clients) {
        auto it = train_us.find(cs.client);
        if (it == train_us.end()) continue;
        step1.push_back(cs.step1_seconds * 1e3);
        step2.push_back(it->second / 1e3 - cs.step1_seconds * 1e3);
        share_num.push_back(cs.step1_seconds);
        share_den.push_back(it->second / 1e6);
      }
      hot += static_cast<double>(rs.store_hot_hits);
      cold += static_cast<double>(rs.store_cold_loads);
      spills += static_cast<double>(rs.store_spills);
      rounds += 1;
    }
  }
  r.Set("core.step1_ms", cip::Mean(step1));
  r.Set("core.step2_ms", cip::Mean(step2));
  const double den = cip::Mean(share_den);
  r.Set("core.step1_share", den > 0 ? cip::Mean(share_num) / den : 0.0);
  r.Set("fl.train_wall_ms", cip::Mean(train_wall));
  r.Set("fl.coordinator_ms", cip::Mean(coord));
  r.Set("fl.materialize_ms", cip::Mean(materialize));
  r.Set("fl.export_ms", cip::Mean(evict));
  r.Set("fl.aggregate_ms", cip::Mean(aggregate));
  r.Set("fl.cold_load_ratio", hot + cold > 0 ? cold / (hot + cold) : 0.0);
  r.Set("fl.spills_per_round", rounds > 0 ? spills / rounds : 0.0);
  r.Set("fl.untraced_ms", cip::Mean(untraced));
  r.Set("fl.untraced_share", cip::Mean(untraced_share));
  const double plain = Median(wall_plain);
  r.Set("trace.overhead_ratio", plain > 0 ? Median(wall_traced) / plain : 0.0);
}

std::string Definition(const TrainingDef& def, const Fleet& fleet) {
  std::ostringstream os;
  os << "{\"name\":\"" << def.name << "\",\"data\":\""
     << (def.image ? "ChMnistLike" : "Purchase50Like") << "\",\"arch\":\""
     << (def.image ? "resnet" : "mlp") << "\",\"width\":" << def.width
     << ",\"fleet\":" << fleet.size() << ",\"cohort\":" << fleet.cohort()
     << ",\"samples_per_client\":" << def.samples
     << ",\"perturb_steps\":" << def.perturb_steps
     << ",\"batch\":" << def.batch << ",\"rounds_per_run\":" << def.rounds
     << ",\"store\":\"" << (def.cold ? "cold+spill" : "live") << "\""
     << ",\"hot_bytes\":" << def.hot_bytes << "}";
  return os.str();
}

std::string RunTraining(const TrainingDef& def, const RunOptions& opts,
                        Report& r) {
  const Fleet fleet(def, opts.seed, opts.threads);
  const std::string spill_dir =
      def.cold ? opts.scratch_dir + "/spill" : std::string();
  fl::FlOptions fo;
  fo.rounds = def.rounds;
  fo.participation = fleet.participation();
  fo.max_parallel_clients = opts.threads;

  Trace& tr = GlobalTrace();
  std::vector<Episode> eps;
  std::uint64_t digest = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opts.seconds);
  // Episode 0 warms the pool, the GEMM arenas and the page cache; it is
  // checked but not timed. Traced runs alternate untraced and traced
  // episodes so the tracing overhead is measured in the same process.
  for (std::size_t e = 0; e < 3 || Clock::now() < deadline; ++e) {
    if (def.cold) {
      std::filesystem::remove_all(spill_dir);
      std::filesystem::create_directories(spill_dir);
    }
    Episode ep;
    ep.traced = opts.trace && e % 2 == 0 && e > 0;
    const auto s0 = Clock::now();
    Built b = BuildFleet(def, fleet, spill_dir, opts.inject_delay_ms);
    ep.setup_s = Seconds(s0, Clock::now());

    tr.set_enabled(ep.traced);
    ep.span_begin = tr.size();
    const std::uint64_t run_id = tr.NewId();
    const double run_start = tr.NowUs();
    RoundClock clock(run_id);
    fl::FederatedAveraging server(b.init, fo);
    server.set_tamper(clock.Hook());
    ep.log = server.Run(b.store, opts.seed);
    clock.Finish();
    tr.Record(Span{run_id, 0, "fl.run", run_start, tr.NowUs(), 0, 0, 0});
    tr.set_enabled(false);
    ep.span_end = tr.size();
    ep.starts_us = clock.starts_us();
    ep.end_us = clock.end_us();

    r.attempted += ep.log.telemetry.rounds.size();
    for (const fl::RoundStats& rs : ep.log.telemetry.rounds) {
      if (rs.skipped) {
        ++r.failed;
        r.Fail("round " + std::to_string(rs.round) + " was skipped");
      }
    }
    if (ep.log.telemetry.rounds.size() != def.rounds) {
      r.failed += def.rounds - ep.log.telemetry.rounds.size();
      r.Fail("run ended before its last round");
    }
    const std::uint64_t d = Digest(ep.log);
    if (e == 0) digest = d;
    if (d != digest) {
      ++r.failed;
      r.Fail("final global of run " + std::to_string(e) +
             " differs from run 0 under the same seed");
    }
    if (def.cold) {
      const fl::StoreStats& ss = b.store.stats();
      if (ss.spills == 0 || ss.cold_loads == 0) {
        r.Fail("cold store never spilled or never cold-loaded");
      }
    }
    if (e > 0) {
      for (std::size_t k = 1; k <= ep.log.telemetry.rounds.size(); ++k) {
        ep.round_s.push_back(clock.WallSeconds(k));
      }
    }
    if (e + 1 >= 3 && Clock::now() >= deadline) {
      // Last episode: measure the record size of the last cohort.
      double bytes = 0.0, count = 0.0;
      for (const fl::ClientRoundStats& cs :
           ep.log.telemetry.rounds.back().clients) {
        fl::ClientState st;
        if (b.store.PeekState(cs.client, st)) {
          bytes += static_cast<double>(
              fl::EncodeClientRecord(cs.client, st).size());
          count += 1;
        }
      }
      if (opts.trace) r.Set("fl.record_bytes", count > 0 ? bytes / count : 0);
    }
    eps.push_back(std::move(ep));
  }
  if (def.cold) std::filesystem::remove_all(spill_dir);

  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "digest " << hex << " (" << eps.size()
            << " runs of one seed, all bit-identical: "
            << (r.correct ? "yes" : "NO") << ")\n";

  std::vector<double> setups, walls;
  for (std::size_t e = 0; e < eps.size(); ++e) {
    setups.push_back(eps[e].setup_s);
    if (!eps[e].traced) walls.insert(walls.end(), eps[e].round_s.begin(),
                                     eps[e].round_s.end());
  }
  const fl::FlLog& last = eps.back().log;
  if (!opts.trace) {
    const Tail tail = TailPercentile(walls);
    r.Set("setup_s", Median(setups));
    r.Set("peak_rss_mib", PeakRssMiB());
    r.Set("op_p50_ms", 1e3 * Median(walls));
    const auto& losses = last.client_losses.back();
    double sum = 0.0;
    for (float l : losses) sum += l;
    r.Set("final_loss", sum / static_cast<double>(losses.size()));
    // Members: the local data of every client in the last 8 cohorts (enough
    // samples for a steady accuracy on a sparse fleet). Non-members: as many
    // fresh draws from the same generator.
    std::set<std::size_t> recent;
    const auto& rounds = last.telemetry.rounds;
    for (std::size_t i = rounds.size() - std::min<std::size_t>(8, rounds.size());
         i < rounds.size(); ++i) {
      for (const fl::ClientRoundStats& cs : rounds[i].clients) {
        recent.insert(cs.client);
      }
    }
    data::Dataset members;
    for (std::size_t k : recent) {
      const data::Dataset local = fleet.SpecFor(k).data;
      members = members.empty() ? local : data::Dataset::Concat(members, local);
    }
    const data::Dataset nonmembers =
        fleet.Sample(members.size(), 0x4E4F4E4D454D42ull);
    r.Set("mia_acc",
          MiaAccuracy(fleet.proto(), last.final_global, members, nonmembers));
    std::cout << "rounds timed " << walls.size() << "; round tail p"
              << tail.percentile << " (" << tail.beyond
              << " beyond) = " << 1e3 * tail.value << " ms\n";
  } else {
    const std::vector<Span> all = tr.spans();
    Attribute(eps, all, r);
    ProbeLayers(def, fleet, last.final_global, opts.threads, r);
    std::cout << "self time per span name (ms, summed over traced runs):\n";
    for (const auto& [name, ms] : SelfTimeMs(all)) {
      std::cout << "  " << name << " " << ms << "\n";
    }
  }
  return Definition(def, fleet);
}

}  // namespace

std::string RunCipRound(const RunOptions& opts, Report& report) {
  return RunTraining(kCipRound, opts, report);
}

std::string RunFleetChurn(const RunOptions& opts, Report& report) {
  return RunTraining(kFleetChurn, opts, report);
}

}  // namespace cipbench
