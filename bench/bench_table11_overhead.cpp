// Table XI (RQ5): parameter-count and convergence overhead of CIP vs the
// conventional (no-defense) model, plus measured per-round cost.
//
// Paper: CIP adds +0.87% parameters on average (only the concatenated head
// widens; the backbone is shared) and halves the epochs to converge. The
// round-telemetry section makes the time overhead a first-class artifact:
// a small CIP federation is run through the round engine and every round's
// broadcast/train/aggregate wall-clock — including the per-client
// Step I / Step II split — is dumped as JSON Lines.
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "core/cip_client.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "fl/client_factory.h"
#include "fl/server.h"

using namespace cip;

namespace {

/// Rounds until the client-side training accuracy crosses `target`.
std::size_t RoundsToConverge(fl::ClientBase& client,
                             const fl::ModelState& init, double target,
                             std::size_t max_rounds, std::uint64_t run_seed) {
  client.SetGlobal(init);
  for (std::size_t r = 1; r <= max_rounds; ++r) {
    client.TrainLocal(fl::MakeRoundContext(run_seed, r, 0));
    if (client.EvalAccuracy(client.LocalData()) >= target) return r;
  }
  return max_rounds;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table XI — overhead: parameters, rounds to converge, round timings",
      "params +0.87% on average (shared backbone, wider head); epochs -50%",
      "param overhead ~1%; convergence within the same order as no-defense");
  bench::BenchTimer timer;

  // ---- parameter counts ------------------------------------------------------
  TextTable params({"Model type", "No defense", "CIP (dual)", "overhead"});
  double overhead_sum = 0.0;
  const std::vector<nn::Arch> archs = {nn::Arch::kResNet, nn::Arch::kDenseNet,
                                       nn::Arch::kVGG};
  for (const nn::Arch arch : archs) {
    nn::ModelSpec spec;
    spec.arch = arch;
    spec.input_shape = {3, 12, 12};
    spec.num_classes = 20;
    spec.width = 8;
    spec.seed = 99;
    auto single = nn::MakeClassifier(spec);
    auto dual = nn::MakeDualChannelClassifier(spec);
    const double overhead =
        100.0 *
        (static_cast<double>(dual->ParameterCount()) - single->ParameterCount()) /
        static_cast<double>(single->ParameterCount());
    overhead_sum += overhead;
    params.AddRow({nn::ArchName(arch), std::to_string(single->ParameterCount()),
                   std::to_string(dual->ParameterCount()),
                   "+" + TextTable::Num(overhead, 2) + "%"});
  }
  params.Print(std::cout);
  std::cout << "average overhead +"
            << TextTable::Num(overhead_sum / archs.size(), 2)
            << "% (paper: +0.87%)\n\n";

  // ---- rounds to converge ----------------------------------------------------
  data::SyntheticVision gen(data::ChMnistLike());
  Rng rng(101);
  const data::Dataset train = gen.Sample(Scaled(200), rng);
  fl::ClientSpec cs;
  cs.model.arch = nn::Arch::kResNet;
  cs.model.input_shape = gen.SampleShape();
  cs.model.num_classes = 8;
  cs.model.width = 8;
  cs.model.seed = 102;
  cs.data = train;
  cs.train.lr = 0.02f;
  cs.train.momentum = 0.9f;
  const double target = 0.70;
  const std::size_t max_rounds = Scaled(60);

  cs.kind = fl::ClientKind::kLegacy;
  cs.seed = 103;
  const auto legacy = fl::MakeClient(cs);
  const std::size_t legacy_rounds = RoundsToConverge(
      *legacy, fl::InitialStateFor(cs), target, max_rounds, 104);

  cs.kind = fl::ClientKind::kCip;
  cs.cip.blend.alpha = 0.5f;
  cs.cip.perturb_steps = 6;
  cs.seed = 105;
  const auto cip = fl::MakeClient(cs);
  const std::size_t cip_rounds =
      RoundsToConverge(*cip, fl::InitialStateFor(cs), target, max_rounds, 106);

  TextTable conv({"Model", "rounds to reach train acc >= 0.70"});
  conv.AddRow({"No defense", std::to_string(legacy_rounds)});
  conv.AddRow({"CIP", std::to_string(cip_rounds)});
  conv.Print(std::cout);
  std::cout << "\nNote: the paper reports CIP converging in half the epochs\n"
               "at full scale; at laptop scale the two-step optimization's\n"
               "per-round cost dominates, so we report rounds honestly and\n"
               "discuss the deviation in EXPERIMENTS.md.\n\n";

  // ---- round telemetry -------------------------------------------------------
  // A small CIP federation through the round engine; every round's timings
  // (per-client train time with the Step I / Step II split, plus the
  // coordinator's broadcast and aggregate time) land in FlLog::telemetry.
  const std::size_t num_clients = 4;
  Rng shard_rng(107);
  const data::Dataset fed_data =
      gen.Sample(Scaled(50) * num_clients, shard_rng);
  const std::vector<data::Dataset> shards =
      data::PartitionIid(fed_data, num_clients, shard_rng);
  // The same federation of legacy clients prices a CIP round against a
  // no-defense one.
  const auto run_federation = [&](fl::ClientKind kind) {
    fl::ClientStore store;  // live store owns the telemetry federation
    fl::ClientSpec spec = cs;  // CIP knobs from above
    spec.kind = kind;
    for (std::size_t k = 0; k < num_clients; ++k) {
      fl::ClientSpec fs = spec;
      fs.data = shards[k];
      fs.seed = 108 + k;
      store.Add(fl::MakeClient(fs));
    }
    fl::FlOptions options;
    options.rounds = 3;
    fl::FederatedAveraging server(fl::InitialStateFor(spec), options);
    return server.Run(store, /*run_seed=*/109);
  };
  const auto mean_train_seconds = [](const fl::FlLog& l) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const fl::RoundStats& r : l.telemetry.rounds) {
      for (const fl::ClientRoundStats& c : r.clients) {
        sum += c.train_seconds;
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  const fl::FlLog legacy_log = run_federation(fl::ClientKind::kLegacy);
  const fl::FlLog log = run_federation(fl::ClientKind::kCip);

  TextTable rounds_table(
      {"Round", "broadcast s", "train wall s", "aggregate s", "mean step1 s",
       "mean step2 s"});
  for (const fl::RoundStats& r : log.telemetry.rounds) {
    double s1 = 0.0, s2 = 0.0;
    for (const fl::ClientRoundStats& c : r.clients) {
      s1 += c.step1_seconds;
      s2 += c.step2_seconds;
    }
    const double n =
        r.clients.empty() ? 1.0 : static_cast<double>(r.clients.size());
    rounds_table.AddRow({std::to_string(r.round),
                         TextTable::Num(r.broadcast_seconds, 4),
                         TextTable::Num(r.train_wall_seconds, 4),
                         TextTable::Num(r.aggregate_seconds, 4),
                         TextTable::Num(s1 / n, 4),
                         TextTable::Num(s2 / n, 4)});
  }
  rounds_table.Print(std::cout);
  const double legacy_s = mean_train_seconds(legacy_log);
  const double cip_s = mean_train_seconds(log);
  std::cout << "\nmean client train s per round: CIP "
            << TextTable::Num(cip_s, 4) << ", no defense "
            << TextTable::Num(legacy_s, 4) << " (CIP "
            << TextTable::Num(legacy_s > 0.0 ? cip_s / legacy_s : 0.0, 2)
            << "x)\n";

  const char* jsonl_path = "table11_round_telemetry.jsonl";
  std::ofstream jsonl(jsonl_path);
  log.telemetry.WriteJsonl(jsonl);
  std::cout << "\nper-round telemetry written to " << jsonl_path << " ("
            << log.telemetry.rounds.size() << " JSONL records)\n";
  return 0;
}
