// ClientStore lifecycle tests: the deterministic cohort sampler, the client
// record codec and shard files under hostile bytes, the store-level
// bit-identity invariants (hot vs cold, spill vs resident, hot-set size,
// worker budget, deprecated span adapter), and the in-phase lifecycle
// (checkout/build/export/checkin against the serial store calls, at most one
// live client per runner).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/partition.h"
#include "fl/client_factory.h"
#include "fl/aggregate.h"
#include "fl/client_store.h"
#include "fl/sampler.h"
#include "fl/server.h"
#include "testing_util.h"

namespace cip {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---- sampler ---------------------------------------------------------------

TEST(Sampler, CohortSizeFloorsWithMinimumOne) {
  EXPECT_EQ(fl::CohortSize(0.5f, 4), 2u);
  EXPECT_EQ(fl::CohortSize(0.3f, 4), 1u);   // floor(1.2) = 1
  EXPECT_EQ(fl::CohortSize(1.0f, 7), 7u);
  // The bugfix cases: fractions that floor to zero clamp to one instead of
  // being rejected, and the product is computed in double so 0.1f * 5 and
  // 0.001f * 1e6 land on the intended integers.
  EXPECT_EQ(fl::CohortSize(0.1f, 5), 1u);
  EXPECT_EQ(fl::CohortSize(0.01f, 10), 1u);
  EXPECT_EQ(fl::CohortSize(0.001f, 1'000'000), 1000u);
  EXPECT_EQ(fl::CohortSize(0.9f, 1), 1u);
}

TEST(Sampler, CohortSizeRejectsInvalidArguments) {
  EXPECT_THROW(fl::CohortSize(0.0f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(-0.1f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(1.5f, 4), CheckError);
  EXPECT_THROW(fl::CohortSize(0.5f, 0), CheckError);
}

TEST(Sampler, CohortIsSortedDistinctAndInRange) {
  const std::size_t n = 100;
  for (std::size_t round = 1; round <= 8; ++round) {
    const std::vector<std::size_t> cohort =
        fl::SampleCohort(/*run_seed=*/42, round, n, 0.13f);
    ASSERT_EQ(cohort.size(), fl::CohortSize(0.13f, n));
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      EXPECT_LT(cohort[i], n);
      // Strictly ascending == sorted with no duplicates (the
      // without-replacement regression this suite pins).
      if (i > 0) {
        EXPECT_LT(cohort[i - 1], cohort[i]);
      }
    }
  }
}

TEST(Sampler, DeterministicPerRoundAndVariesAcrossRounds) {
  const std::size_t n = 50;
  const auto a = fl::SampleCohort(7, 3, n, 0.2f);
  const auto b = fl::SampleCohort(7, 3, n, 0.2f);
  EXPECT_EQ(a, b);
  bool any_different = false;
  for (std::size_t round = 1; round <= 6; ++round) {
    if (fl::SampleCohort(7, round, n, 0.2f) != a) any_different = true;
  }
  EXPECT_TRUE(any_different);
  EXPECT_NE(fl::SampleCohort(8, 3, n, 0.2f), a);
}

TEST(Sampler, FullParticipationIsTheWholeFleet) {
  const auto cohort = fl::SampleCohort(11, 1, 6, 1.0f);
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(cohort, all);
}

// ---- record codec ----------------------------------------------------------

fl::ClientState SampleState() {
  fl::ClientState s;
  Tensor a({2, 2});
  a[0] = 1.5f;
  a[1] = -2.0f;
  a[2] = 0.0f;
  a[3] = 3.25f;
  s.tensors.push_back(a);
  s.tensors.push_back(Tensor({3}, 0.5f));
  return s;
}

TEST(ClientRecord, RoundTripPreservesTensors) {
  const fl::ClientState in = SampleState();
  const std::string blob = fl::EncodeClientRecord(17, in);
  const fl::ClientState out = fl::DecodeClientRecord(blob, 17);
  ASSERT_EQ(out.tensors.size(), in.tensors.size());
  for (std::size_t t = 0; t < in.tensors.size(); ++t) {
    ASSERT_EQ(out.tensors[t].shape(), in.tensors[t].shape());
    for (std::size_t i = 0; i < in.tensors[t].size(); ++i) {
      EXPECT_EQ(out.tensors[t][i], in.tensors[t][i]);
    }
  }
}

TEST(ClientRecord, RejectsWrongClientId) {
  const std::string blob = fl::EncodeClientRecord(17, SampleState());
  EXPECT_THROW(fl::DecodeClientRecord(blob, 18), CheckError);
}

TEST(ClientRecord, RejectsBadMagicAndTrailingBytes) {
  std::string blob = fl::EncodeClientRecord(3, SampleState());
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(fl::DecodeClientRecord(bad_magic, 3), CheckError);
  EXPECT_THROW(fl::DecodeClientRecord(blob + "junk", 3), CheckError);
}

TEST(ClientRecord, RejectsHostileTensorCountBeforeAllocating) {
  std::string blob = fl::EncodeClientRecord(3, SampleState());
  // The tensor count sits after the 4-byte magic and 8-byte id; saturating
  // it must be rejected by the ceiling check, not attempted as a reserve.
  for (std::size_t i = 12; i < 20; ++i) blob[i] = '\xFF';
  EXPECT_THROW(fl::DecodeClientRecord(blob, 3), CheckError);
}

TEST(ClientRecord, RejectsTruncationAtEveryByte) {
  const std::string blob = fl::EncodeClientRecord(9, SampleState());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(fl::DecodeClientRecord(blob.substr(0, len), 9), CheckError)
        << "prefix of " << len << " bytes must not decode";
  }
}

// ---- federations -----------------------------------------------------------

std::vector<fl::ClientSpec> MakeSpecs(std::size_t num_clients) {
  Rng rng(5);
  data::Dataset full = testing::TwoBlobs(20 * num_clients, 4, rng);
  const auto shards = data::PartitionIid(full, num_clients, rng);
  fl::ClientSpec proto;
  proto.kind = fl::ClientKind::kLegacy;
  proto.model.arch = nn::Arch::kMLP;
  proto.model.input_shape = {4};
  proto.model.num_classes = 2;
  proto.model.width = 6;
  proto.model.seed = 77;
  proto.train.lr = 0.1f;
  proto.train.momentum = 0.9f;
  std::vector<fl::ClientSpec> specs;
  for (std::size_t k = 0; k < num_clients; ++k) {
    fl::ClientSpec spec = proto;
    spec.data = shards[k];
    spec.seed = 50 + k;
    specs.push_back(std::move(spec));
  }
  return specs;
}

fl::FlOptions SmallRun(std::size_t budget) {
  fl::FlOptions opts;
  opts.rounds = 3;
  opts.max_parallel_clients = budget;
  return opts;
}

fl::FlLog RunCold(std::size_t num_clients, fl::StoreOptions sopts,
                  std::size_t budget) {
  auto specs = MakeSpecs(num_clients);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(budget));
  return server.Run(store, 21);
}

fl::FlLog RunLive(std::size_t num_clients, std::size_t budget) {
  auto specs = MakeSpecs(num_clients);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::ClientStore store;
  for (const fl::ClientSpec& spec : specs) store.Add(fl::MakeClient(spec));
  fl::FederatedAveraging server(init, SmallRun(budget));
  return server.Run(store, 21);
}

void ExpectSameLog(const fl::FlLog& a, const fl::FlLog& b) {
  const auto av = a.final_global.values();
  const auto bv = b.final_global.values();
  ASSERT_EQ(av.size(), bv.size());
  // memcmp, not ==: bit-identity is the claim.
  EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)), 0);
  ASSERT_EQ(a.client_losses.size(), b.client_losses.size());
  for (std::size_t r = 0; r < a.client_losses.size(); ++r) {
    ASSERT_EQ(a.client_losses[r].size(), b.client_losses[r].size());
    EXPECT_EQ(std::memcmp(a.client_losses[r].data(), b.client_losses[r].data(),
                          a.client_losses[r].size() * sizeof(float)),
              0)
        << "round " << r;
  }
}

TEST(ClientStore, HotAndColdFleetsAreBitIdentical) {
  const fl::FlLog live = RunLive(4, /*budget=*/4);
  const fl::FlLog cold = RunCold(4, {}, /*budget=*/4);
  ExpectSameLog(live, cold);
}

TEST(ClientStore, SpillResidentHotSizeAndBudgetCannotAffectResults) {
  // Where the same record bytes wait (resident vs shard file, big vs tiny
  // LRU budget) and how many workers train must be invisible in the log.
  const fl::FlLog reference = RunCold(4, {}, /*budget=*/1);

  fl::StoreOptions tiny;
  tiny.hot_bytes = 1;  // every eviction spills straight to disk
  tiny.shard_clients = 2;
  tiny.spill_dir = TempPath("store_tiny_spill");
  ExpectSameLog(reference, RunCold(4, std::move(tiny), /*budget=*/4));

  fl::StoreOptions roomy;
  roomy.hot_bytes = std::size_t{64} << 20;  // nothing ever spills
  roomy.spill_dir = TempPath("store_roomy_spill");
  ExpectSameLog(reference, RunCold(4, std::move(roomy), /*budget=*/4));

  ExpectSameLog(reference, RunCold(4, {}, /*budget=*/4));
}

TEST(ClientStore, StatsCountTheSpillLifecycle) {
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::StoreOptions sopts;
  sopts.hot_bytes = 1;
  sopts.shard_clients = 2;
  sopts.spill_dir = TempPath("store_stats_spill");
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(2));
  server.Run(store, 21);

  const fl::StoreStats& stats = store.stats();
  EXPECT_EQ(stats.evictions, 9u);  // 3 clients x 3 rounds re-serialized
  EXPECT_EQ(stats.spills, 9u);     // 1-byte budget: every record spills
  EXPECT_GT(stats.cold_loads, 0u);
  EXPECT_EQ(stats.hot_records, 0u);
  EXPECT_EQ(stats.hot_bytes, 0u);
  EXPECT_EQ(stats.spilled_records, 3u);  // the whole fleet lives on disk
}

// ---- the in-phase client lifecycle -----------------------------------------

/// CIP clients (their secret t lives across rounds) over MakeSpecs' data.
std::vector<fl::ClientSpec> MakeCipSpecs(std::size_t num_clients) {
  std::vector<fl::ClientSpec> specs = MakeSpecs(num_clients);
  for (fl::ClientSpec& spec : specs) {
    spec.kind = fl::ClientKind::kCip;
    spec.cip.perturb_steps = 2;
    spec.cip.perturb_batch = 8;
  }
  return specs;
}

/// Bytes of one trained CIP client's record (its t plus its momentum).
std::size_t TrainedCipRecordBytes() {
  const fl::ClientSpec spec = MakeCipSpecs(1)[0];
  const auto client = fl::MakeClient(spec);
  client->SetGlobal(fl::InitialStateFor(spec));
  client->TrainLocal(fl::MakeRoundContext(1, 1, 0));
  return fl::EncodeClientRecord(0, client->ExportState()).size();
}

/// A cold store whose hot set holds two and a half trained CIP records, so
/// a sparse cohort both spills and cold-loads, and which records stay
/// resident depends on the order they are checked in.
fl::StoreOptions SpillingOptions(const std::string& dir_name) {
  fl::StoreOptions sopts;
  sopts.hot_bytes = TrainedCipRecordBytes() * 5 / 2;
  sopts.shard_clients = 2;
  sopts.spill_dir = TempPath(dir_name);
  std::filesystem::remove_all(sopts.spill_dir);
  return sopts;
}

constexpr std::size_t kLifecycleClients = 6;
constexpr std::size_t kLifecycleRounds = 6;
constexpr float kLifecycleParticipation = 0.5f;
constexpr std::uint64_t kLifecycleSeed = 41;

/// What one run leaves behind: the log, each round's store counters and the
/// store's final records.
struct LifecycleOutcome {
  fl::FlLog log;
  std::vector<std::array<std::size_t, 4>> counters;  // hot, cold, evict, spill
  std::vector<std::pair<std::uint64_t, fl::ClientState>> states;
};

LifecycleOutcome RunLifecycle(std::size_t budget, const std::string& dir) {
  auto specs = MakeCipSpecs(kLifecycleClients);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), SpillingOptions(dir));
  fl::FlOptions opts;
  opts.rounds = kLifecycleRounds;
  opts.participation = kLifecycleParticipation;
  opts.max_parallel_clients = budget;
  LifecycleOutcome out;
  out.log = fl::FederatedAveraging(init, opts).Run(store, kLifecycleSeed);
  for (const fl::RoundStats& rs : out.log.telemetry.rounds) {
    out.counters.push_back({rs.store_hot_hits, rs.store_cold_loads,
                            rs.store_evictions, rs.store_spills});
  }
  out.states = store.ExportStates();
  return out;
}

/// The round engine written out serially with the coordinator-side store
/// calls: materialize the whole cohort, train it in id order, evict it in id
/// order, fold in id order.
LifecycleOutcome RunSerialReference(const std::string& dir) {
  auto specs = MakeCipSpecs(kLifecycleClients);
  fl::ModelState global = fl::InitialStateFor(specs[0]);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), SpillingOptions(dir));
  LifecycleOutcome out;
  for (std::size_t round = 1; round <= kLifecycleRounds; ++round) {
    const fl::StoreStats before = store.stats();
    const std::vector<std::size_t> cohort =
        fl::SampleCohort(kLifecycleSeed, round, kLifecycleClients,
                         kLifecycleParticipation);
    std::vector<fl::ClientStore::Handle> live;
    for (const std::size_t k : cohort) live.push_back(store.Materialize(k));
    fl::TreeAccumulator acc;
    std::vector<float> losses;
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      live[i]->SetGlobal(global);
      acc.Add(live[i]->TrainLocal(
          fl::MakeRoundContext(kLifecycleSeed, round, cohort[i])));
      losses.push_back(live[i]->LastTrainLoss());
    }
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      store.Evict(cohort[i], *live[i]);
    }
    global = acc.FinishMean();
    out.log.client_losses.push_back(std::move(losses));
    const fl::StoreStats& after = store.stats();
    out.counters.push_back({after.hot_hits - before.hot_hits,
                            after.cold_loads - before.cold_loads,
                            after.evictions - before.evictions,
                            after.spills - before.spills});
  }
  out.log.final_global = std::move(global);
  out.states = store.ExportStates();
  return out;
}

void ExpectSameOutcome(const LifecycleOutcome& a, const LifecycleOutcome& b) {
  ExpectSameLog(a.log, b.log);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(a.states[i].first, b.states[i].first);
    EXPECT_EQ(fl::EncodeClientRecord(a.states[i].first, a.states[i].second),
              fl::EncodeClientRecord(b.states[i].first, b.states[i].second))
        << "client " << a.states[i].first;
  }
}

TEST(ClientStore, InPhaseLifecycleMatchesSerialStoreCallsAtEveryBudget) {
  // Building, training and exporting each cohort member on its runner must
  // leave the store exactly as the serial Materialize/Evict loop does: same
  // per-round hot/cold/eviction/spill counts, same records, same log.
  const LifecycleOutcome reference = RunSerialReference("lifecycle_ref");
  ASSERT_EQ(reference.counters.size(), kLifecycleRounds);
  std::size_t hot = 0, cold = 0, spills = 0;
  for (const auto& c : reference.counters) {
    hot += c[0];
    cold += c[1];
    spills += c[3];
  }
  ASSERT_GT(hot, 0u) << "the reference never hit the hot set";
  ASSERT_GT(cold, 0u) << "the reference never cold-loaded";
  ASSERT_GT(spills, 0u) << "the reference never spilled";
  for (const std::size_t budget : {1u, 2u, 4u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectSameOutcome(reference,
                      RunLifecycle(budget, "lifecycle_b" +
                                               std::to_string(budget)));
  }
}

/// Forwards to a real client and counts how many are alive at once.
class CountingClient : public fl::ClientBase {
 public:
  static inline std::atomic<int> alive{0};
  static inline std::atomic<int> peak{0};

  explicit CountingClient(std::unique_ptr<fl::ClientBase> inner)
      : inner_(std::move(inner)) {
    const int now = ++alive;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  ~CountingClient() override { --alive; }

  void SetGlobal(const fl::ModelState& g) override { inner_->SetGlobal(g); }
  fl::ModelState TrainLocal(fl::RoundContext ctx) override {
    return inner_->TrainLocal(std::move(ctx));
  }
  double EvalAccuracy(const data::Dataset& d) override {
    return inner_->EvalAccuracy(d);
  }
  float LastTrainLoss() const override { return inner_->LastTrainLoss(); }
  const data::Dataset& LocalData() const override {
    return inner_->LocalData();
  }
  fl::ClientState ExportState() const override {
    return inner_->ExportState();
  }
  void RestoreState(const fl::ClientState& s) override {
    inner_->RestoreState(s);
  }

 private:
  std::unique_ptr<fl::ClientBase> inner_;
};

TEST(ClientStore, AtMostOneClientPerRunnerIsAlive) {
  constexpr std::size_t kFleet = 8;
  auto specs = std::make_shared<std::vector<fl::ClientSpec>>(
      MakeCipSpecs(kFleet));
  const fl::ModelState init = fl::InitialStateFor((*specs)[0]);
  for (const std::size_t budget : {1u, 2u, 4u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    fl::ClientStore store(
        kFleet,
        [specs](std::size_t id) -> std::unique_ptr<fl::ClientBase> {
          return std::make_unique<CountingClient>(
              fl::MakeClient((*specs)[id]));
        },
        SpillingOptions("alive_b" + std::to_string(budget)));
    CountingClient::peak = 0;
    fl::FlOptions opts;
    opts.rounds = 2;  // the whole fleet is the cohort: 8 clients per round
    opts.max_parallel_clients = budget;
    fl::FederatedAveraging(init, opts).Run(store, 9);
    EXPECT_EQ(CountingClient::alive.load(), 0);
    EXPECT_GE(CountingClient::peak.load(), 1);
    EXPECT_LE(CountingClient::peak.load(), static_cast<int>(budget));
  }
}

TEST(ClientStore, FailedMaterializeKeepsTheRecord) {
  // A build that throws after Checkout (here the factory itself) must put the
  // record back: the retry restores the same state instead of a fresh one.
  auto specs = std::make_shared<std::vector<fl::ClientSpec>>(MakeCipSpecs(2));
  auto fail = std::make_shared<bool>(false);
  fl::ClientStore store(
      2,
      [specs, fail](std::size_t id) -> std::unique_ptr<fl::ClientBase> {
        CIP_CHECK_MSG(!*fail, "injected factory failure");
        return fl::MakeClient((*specs)[id]);
      },
      fl::StoreOptions{});
  store.Evict(1, *store.Materialize(1));
  fl::ClientState before;
  ASSERT_TRUE(store.PeekState(1, before));
  *fail = true;
  EXPECT_THROW(store.Materialize(1), CheckError);
  *fail = false;
  fl::ClientState after;
  ASSERT_TRUE(store.PeekState(1, after));
  EXPECT_EQ(fl::EncodeClientRecord(1, before),
            fl::EncodeClientRecord(1, after));
  const fl::ClientStore::Handle h = store.Materialize(1);
  EXPECT_EQ(fl::EncodeClientRecord(1, h->ExportState()),
            fl::EncodeClientRecord(1, before));
}

TEST(ClientStore, BorrowedStoreMatchesColdFactoryStore) {
  // Live (borrowed) fleets and cold factory fleets are interchangeable
  // entry points: same specs, same seed, bit-identical logs.
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  std::vector<std::unique_ptr<fl::ClientBase>> owned;
  std::vector<fl::ClientBase*> ptrs;
  for (const fl::ClientSpec& spec : specs) {
    owned.push_back(fl::MakeClient(spec));
    ptrs.push_back(owned.back().get());
  }
  fl::ClientStore borrowed{std::span<fl::ClientBase* const>(ptrs)};
  const fl::FlLog via_borrowed =
      fl::FederatedAveraging(init, SmallRun(2)).Run(borrowed, 33);
  fl::ClientStore cold = fl::MakeClientStore(std::move(specs));
  const fl::FlLog via_cold =
      fl::FederatedAveraging(init, SmallRun(2)).Run(cold, 33);
  ExpectSameLog(via_borrowed, via_cold);
}

// ---- adversarial shard files -----------------------------------------------

/// A cold spilling store whose whole fleet has trained once, so every
/// client's record lives in shard files on disk.
struct SpilledStore {
  fl::ClientStore store;
  std::string shard_path;  // the shard holding client 1's record
};

SpilledStore MakeSpilledStore(const std::string& dir_name) {
  auto specs = MakeSpecs(3);
  const fl::ModelState init = fl::InitialStateFor(specs[0]);
  fl::StoreOptions sopts;
  sopts.hot_bytes = 1;
  sopts.shard_clients = 2;  // client 1 -> shard 0, slot 1
  const std::string dir = TempPath(dir_name);
  sopts.spill_dir = dir;
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  fl::FederatedAveraging server(init, SmallRun(2));
  server.Run(store, 21);
  return SpilledStore{std::move(store), dir + "/shard_0.cip"};
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardFile, RejectsTruncationAtEveryByte) {
  SpilledStore s = MakeSpilledStore("shard_trunc");
  const std::string good = ReadFileBytes(s.shard_path);
  ASSERT_GT(good.size(), 32u);
  for (std::size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(s.shard_path, good.substr(0, len));
    EXPECT_THROW(s.store.Materialize(1), CheckError)
        << "shard truncated to " << len << " bytes must not load";
  }
  WriteFileBytes(s.shard_path, good);
  const fl::ClientStore::Handle h = s.store.Materialize(1);
  EXPECT_TRUE(h);  // intact file still materializes
}

TEST(ShardFile, RejectsHostileHeaderAndDirectory) {
  SpilledStore s = MakeSpilledStore("shard_hostile");
  const std::string good = ReadFileBytes(s.shard_path);

  auto corrupt = [&](std::size_t begin, std::size_t n) {
    std::string bad = good;
    for (std::size_t i = begin; i < begin + n; ++i) bad[i] = '\xFF';
    WriteFileBytes(s.shard_path, bad);
    EXPECT_THROW(s.store.Materialize(1), CheckError)
        << "bytes [" << begin << ", " << begin + n << ") saturated";
  };
  corrupt(0, 4);    // magic
  corrupt(4, 4);    // version
  corrupt(8, 8);    // shard index
  corrupt(16, 8);   // slot count (hostile: would size the directory)
  corrupt(24, 8);   // data_end past the file
  corrupt(32 + 16, 16);  // client 1's directory entry: offset/length wild

  // A zeroed directory offset means "absent", not "read from offset 0".
  std::string absent = good;
  for (std::size_t i = 32 + 16; i < 32 + 32; ++i) absent[i] = '\0';
  WriteFileBytes(s.shard_path, absent);
  EXPECT_THROW(s.store.Materialize(1), CheckError);

  WriteFileBytes(s.shard_path, good);
  EXPECT_TRUE(s.store.Materialize(1));
}

TEST(ClientStore, ColdConstructionRemovesStaleShards) {
  const std::string dir = TempPath("stale_shards");
  std::filesystem::create_directories(dir);
  WriteFileBytes(dir + "/shard_0.cip", "stale bytes from a previous run");
  fl::StoreOptions sopts;
  sopts.spill_dir = dir;
  auto specs = MakeSpecs(2);
  fl::ClientStore store =
      fl::MakeClientStore(std::move(specs), std::move(sopts));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard_0.cip"));
}

}  // namespace
}  // namespace cip
