#include "fl/client_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "fl/serialize.h"

namespace cip::fl {
namespace {

// Client-record framing ("CIPR"): one client's serialized cross-round state.
constexpr std::uint32_t kRecordMagic = 0x43495052;
// Shard-file framing ("CIPH"): header + fixed directory + record heap.
constexpr std::uint32_t kShardMagic = 0x43495048;
constexpr std::uint32_t kShardVersion = 1;
// u32 magic + u32 version + u64 shard_index + u64 slots + u64 data_end.
constexpr std::uint64_t kShardHeaderBytes = 32;
// Directory slot: u64 blob offset (0 = absent) + u64 blob length.
constexpr std::uint64_t kDirEntryBytes = 16;
// Same ceiling as fl/checkpoint applies per client: a count above this is a
// hostile or corrupt record, rejected before any allocation is sized from it.
constexpr std::uint64_t kMaxTensorsPerRecord = std::uint64_t{1} << 20;

}  // namespace

std::string EncodeClientRecord(std::uint64_t id, const ClientState& state) {
  std::ostringstream os(std::ios::binary);
  wire::WriteU32(os, kRecordMagic);
  wire::WriteU64(os, id);
  wire::WriteU64(os, state.tensors.size());
  for (const Tensor& t : state.tensors) SaveTensor(t, os);
  return os.str();
}

ClientState DecodeClientRecord(const std::string& blob,
                               std::uint64_t expect_id) {
  std::istringstream is(blob, std::ios::binary);
  CIP_CHECK_MSG(wire::ReadU32(is) == kRecordMagic, "bad client-record magic");
  const std::uint64_t id = wire::ReadU64(is);
  CIP_CHECK_MSG(id == expect_id, "client record for id " << id
                                     << " found in slot for id " << expect_id);
  const std::uint64_t count = wire::ReadU64(is);
  CIP_CHECK_MSG(count <= kMaxTensorsPerRecord,
                "implausible tensor count " << count << " in client record");
  ClientState state;
  // Materializing a cold record is allocate-by-contract — the produced
  // ClientState IS the client's state buffer.
  // CIP_ANALYZE_OK(hot-alloc): count validated against kMaxTensorsPerRecord
  state.tensors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // CIP_ANALYZE_OK(hot-alloc): reserved above; payload IS the state itself
    state.tensors.push_back(LoadTensor(is));
  }
  is.peek();
  CIP_CHECK_MSG(is.eof(), "trailing bytes after client record");
  return state;
}

ClientStore::ClientStore() = default;

ClientStore::ClientStore(std::span<ClientBase* const> clients)
    : mode_(Mode::kBorrowed),
      num_clients_(clients.size()),
      clients_(clients.begin(), clients.end()) {
  for (const ClientBase* c : clients_) {
    CIP_CHECK_MSG(c != nullptr, "null client in borrowed fleet");
  }
}

ClientStore::ClientStore(std::size_t num_clients, Factory factory,
                         StoreOptions opts)
    : mode_(Mode::kCold),
      num_clients_(num_clients),
      factory_(std::move(factory)),
      opts_(std::move(opts)) {
  CIP_CHECK_MSG(num_clients_ >= 1, "cold store needs at least one client");
  CIP_CHECK_MSG(factory_ != nullptr, "cold store needs a client factory");
  CIP_CHECK_MSG(opts_.shard_clients >= 1, "shard_clients must be >= 1");
  if (opts_.spill_dir.empty()) return;
  // The spill dir is scratch owned by this store: restarts go through
  // checkpoints, never through leftover shard files, so stale ones are
  // removed up front rather than trusted.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(opts_.spill_dir, ec);
  CIP_CHECK_MSG(!ec, "cannot create spill dir '" << opts_.spill_dir
                                                 << "': " << ec.message());
  for (const auto& entry : fs::directory_iterator(opts_.spill_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("shard_") && name.ends_with(".cip")) {
      fs::remove(entry.path(), ec);
    }
  }
}

ClientBase* ClientStore::Add(std::unique_ptr<ClientBase> client) {
  CIP_CHECK_MSG(mode_ == Mode::kLive,
                "Add is only valid on a live (default-constructed) store");
  CIP_CHECK_MSG(client != nullptr, "cannot Add a null client");
  owned_.push_back(std::move(client));
  clients_.push_back(owned_.back().get());
  num_clients_ = clients_.size();
  return clients_.back();
}

std::size_t ClientStore::num_clients() const { return num_clients_; }

void ClientStore::CheckId(std::size_t id) const {
  CIP_CHECK_MSG(id < num_clients_, "client id " << id
                                       << " out of range for fleet of "
                                       << num_clients_);
}

// CIP_HOT
std::string ClientStore::Checkout(std::size_t id) {
  CheckId(id);
  if (mode_ != Mode::kCold) return {};
  if (hot_.contains(id)) {
    ++stats_.hot_hits;
    return EraseRecord(id);  // ownership moves to the caller (bumps version)
  }
  if (!spilled_.contains(id)) return {};
  // Read strictly before dropping the record: a corrupt shard throws with
  // the store unchanged.
  std::string record = ReadShardRecord(id);
  ++stats_.cold_loads;
  EraseRecord(id);
  return record;
}

// CIP_HOT
ClientStore::Handle ClientStore::Build(std::size_t id,
                                       const std::string& record) const {
  CheckId(id);
  Handle h;
  if (mode_ != Mode::kCold) {
    h.ptr_ = clients_[id];
    return h;
  }
  h.owned_ = factory_(id);
  CIP_CHECK_MSG(h.owned_ != nullptr,
                "client factory returned null for id " << id);
  h.ptr_ = h.owned_.get();
  // No record: a client that never participated builds fresh from the
  // factory alone.
  if (!record.empty()) h.ptr_->RestoreState(DecodeClientRecord(record, id));
  return h;
}

// CIP_HOT
std::string ClientStore::Export(std::size_t id,
                                const ClientBase& client) const {
  CheckId(id);
  if (mode_ != Mode::kCold) return {};  // persistent objects keep their state
  const ClientState state = client.ExportState();
  // Stateless clients rebuild fresh; keep no record for them so the store
  // stays O(stateful participants), not O(sampled-ever).
  if (state.tensors.empty()) return {};
  return EncodeClientRecord(id, state);
}

// CIP_HOT
void ClientStore::Checkin(std::size_t id, std::string record) {
  CheckId(id);
  if (mode_ != Mode::kCold) return;
  if (record.empty()) {
    EraseRecord(id);
    return;
  }
  ++stats_.evictions;
  InsertRecord(id, std::move(record));
}

ClientStore::Handle ClientStore::Materialize(std::size_t id) {
  std::string record = Checkout(id);
  try {
    return Build(id, record);
  } catch (...) {
    if (!record.empty()) InsertRecord(id, std::move(record));
    throw;
  }
}

void ClientStore::Evict(std::size_t id, const ClientBase& client) {
  Checkin(id, Export(id, client));
}

std::vector<std::pair<std::uint64_t, ClientState>> ClientStore::ExportStates()
    const {
  std::vector<std::pair<std::uint64_t, ClientState>> out;
  if (mode_ == Mode::kCold) {
    // Merge the two sorted id streams (hot blobs and spilled markers are
    // disjoint by construction) without disturbing LRU recency: a checkpoint
    // is an observer, not a use.
    out.reserve(hot_.size() + spilled_.size());
    auto hot_it = hot_.begin();
    auto sp_it = spilled_.begin();
    while (hot_it != hot_.end() || sp_it != spilled_.end()) {
      if (sp_it == spilled_.end() ||
          (hot_it != hot_.end() && hot_it->first < *sp_it)) {
        out.emplace_back(hot_it->first,
                         DecodeClientRecord(hot_it->second, hot_it->first));
        ++hot_it;
      } else {
        out.emplace_back(*sp_it,
                         DecodeClientRecord(ReadShardRecord(*sp_it), *sp_it));
        ++sp_it;
      }
    }
    return out;
  }
  for (std::size_t id = 0; id < clients_.size(); ++id) {
    ClientState state = clients_[id]->ExportState();
    if (!state.tensors.empty()) out.emplace_back(id, std::move(state));
  }
  return out;
}

void ClientStore::RestoreStates(
    const std::vector<std::pair<std::uint64_t, ClientState>>& states) {
  if (mode_ == Mode::kCold) {
    // Every previously recorded id may now hold different bytes (or none):
    // move its version so PeekState-derived caches drop their entries.
    for (const auto& [id, blob] : hot_) ++state_versions_[id];
    for (const std::size_t id : spilled_) ++state_versions_[id];
    hot_.clear();
    lru_.clear();
    lru_pos_.clear();
    spilled_.clear();
    stats_.hot_bytes = 0;
    stats_.hot_records = 0;
    stats_.spilled_records = 0;
    for (const auto& [id, state] : states) {
      CIP_CHECK_MSG(id < num_clients_, "checkpoint client id "
                                           << id << " out of range for fleet of "
                                           << num_clients_);
      if (state.tensors.empty()) continue;
      InsertRecord(static_cast<std::size_t>(id), EncodeClientRecord(id, state));
    }
    return;
  }
  // Dense semantics for persistent fleets: every client is restored, and ids
  // absent from the sparse checkpoint get an empty state (which stateless
  // clients accept and stateful clients correctly reject as a mismatch).
  std::map<std::uint64_t, const ClientState*> by_id;
  for (const auto& [id, state] : states) {
    CIP_CHECK_MSG(id < clients_.size(), "checkpoint client id "
                                            << id << " out of range for fleet of "
                                            << clients_.size());
    by_id[id] = &state;
  }
  const ClientState empty;
  for (std::size_t id = 0; id < clients_.size(); ++id) {
    const auto it = by_id.find(id);
    clients_[id]->RestoreState(it == by_id.end() ? empty : *it->second);
  }
}

void ClientStore::BroadcastFinal(const ModelState& global) {
  // Cold stores have no persistent objects (clients_ is empty): the final
  // global lives in the run log and checkpoint instead.
  for (ClientBase* c : clients_) c->SetGlobal(global);
}

bool ClientStore::PeekState(std::size_t id, ClientState& out) const {
  CheckId(id);
  if (mode_ != Mode::kCold) {
    out = clients_[id]->ExportState();
    return !out.tensors.empty();
  }
  if (const auto hot_it = hot_.find(id); hot_it != hot_.end()) {
    out = DecodeClientRecord(hot_it->second, id);
    return true;
  }
  if (spilled_.contains(id)) {
    out = DecodeClientRecord(ReadShardRecord(id), id);
    return true;
  }
  return false;
}

std::uint64_t ClientStore::state_version(std::size_t id) const {
  const auto it = state_versions_.find(id);
  return it == state_versions_.end() ? 0 : it->second;
}

void ClientStore::InsertRecord(std::size_t id, std::string blob) {
  EraseRecord(id);
  ++state_versions_[id];
  stats_.hot_bytes += blob.size();
  ++stats_.hot_records;
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
  // Admitting the freshly evicted record to the hot set is the store's
  // purpose; the byte budget is enforced immediately by SpillOverBudget.
  // CIP_ANALYZE_OK(hot-alloc): hot-set admission is the store's contract
  hot_.emplace(id, std::move(blob));
  SpillOverBudget();
}

std::string ClientStore::EraseRecord(std::size_t id) {
  std::string blob;
  bool erased = false;
  if (auto it = hot_.find(id); it != hot_.end()) {
    stats_.hot_bytes -= it->second.size();
    --stats_.hot_records;
    lru_.erase(lru_pos_.at(id));
    lru_pos_.erase(id);
    blob = std::move(it->second);
    hot_.erase(it);
    erased = true;
  }
  if (spilled_.erase(id) > 0) {
    --stats_.spilled_records;
    erased = true;
  }
  if (erased) ++state_versions_[id];
  return blob;
}

void ClientStore::SpillOverBudget() {
  // Without a spill dir the budget is unenforced: every record stays
  // resident (documented in StoreOptions::hot_bytes).
  if (opts_.spill_dir.empty()) return;
  while (stats_.hot_bytes > opts_.hot_bytes && !lru_.empty()) {
    const std::size_t victim = lru_.back();
    const auto it = hot_.find(victim);
    WriteShardRecord(victim, it->second);
    ++stats_.spills;
    // CIP_ANALYZE_OK(hot-alloc): bookkeeping node that frees the blob's bytes
    spilled_.insert(victim);
    ++stats_.spilled_records;
    stats_.hot_bytes -= it->second.size();
    --stats_.hot_records;
    hot_.erase(it);
    lru_pos_.erase(victim);
    lru_.pop_back();
  }
}

std::string ClientStore::ShardPath(std::size_t shard) const {
  return opts_.spill_dir + "/shard_" + std::to_string(shard) + ".cip";
}

void ClientStore::WriteShardRecord(std::size_t id, const std::string& blob) {
  const std::size_t shard = id / opts_.shard_clients;
  const std::size_t slot = id % opts_.shard_clients;
  const std::string path = ShardPath(shard);
  const std::uint64_t dir_begin = kShardHeaderBytes;
  const std::uint64_t data_begin =
      dir_begin + static_cast<std::uint64_t>(opts_.shard_clients) *
                      kDirEntryBytes;
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  if (!f.is_open()) {
    // First spill into this shard: lay down the header and a zeroed
    // directory (offset 0 marks an absent slot), then reopen read-write.
    std::ofstream init(path, std::ios::binary);
    CIP_CHECK_MSG(init.is_open(), "cannot create shard file " << path);
    wire::WriteU32(init, kShardMagic);
    wire::WriteU32(init, kShardVersion);
    wire::WriteU64(init, shard);
    wire::WriteU64(init, opts_.shard_clients);
    wire::WriteU64(init, data_begin);
    const std::string zeros(
        static_cast<std::size_t>(data_begin - dir_begin), '\0');
    init.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    CIP_CHECK_MSG(init.good(), "short write creating shard file " << path);
    init.close();
    f.open(path, std::ios::binary | std::ios::in | std::ios::out);
    CIP_CHECK_MSG(f.is_open(), "cannot reopen shard file " << path);
  }
  f.seekg(24);  // header field: data_end
  std::uint64_t data_end = wire::ReadU64(f);
  f.seekg(static_cast<std::streamoff>(dir_begin + slot * kDirEntryBytes));
  const std::uint64_t old_offset = wire::ReadU64(f);
  const std::uint64_t old_length = wire::ReadU64(f);
  std::uint64_t offset;
  if (old_offset != 0 && old_length >= blob.size()) {
    // Constant-size client states take this path every time after the first
    // spill: in-place overwrite, zero steady-state file growth.
    offset = old_offset;
  } else {
    offset = data_end;
    data_end += blob.size();
    f.seekp(24);
    wire::WriteU64(f, data_end);
  }
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  f.seekp(static_cast<std::streamoff>(dir_begin + slot * kDirEntryBytes));
  wire::WriteU64(f, offset);
  wire::WriteU64(f, blob.size());
  CIP_CHECK_MSG(f.good(), "short write spilling client " << id << " to "
                                                         << path);
}

std::string ClientStore::ReadShardRecord(std::size_t id) const {
  const std::size_t shard = id / opts_.shard_clients;
  const std::size_t slot = id % opts_.shard_clients;
  const std::string path = ShardPath(shard);
  std::ifstream f(path, std::ios::binary);
  CIP_CHECK_MSG(f.is_open(), "missing shard file " << path);
  f.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(f.tellg());
  f.seekg(0);
  CIP_CHECK_MSG(wire::ReadU32(f) == kShardMagic,
                "bad shard magic in " << path);
  CIP_CHECK_MSG(wire::ReadU32(f) == kShardVersion,
                "unsupported shard version in " << path);
  const std::uint64_t shard_index = wire::ReadU64(f);
  CIP_CHECK_MSG(shard_index == shard, "shard file " << path
                                          << " claims index " << shard_index);
  const std::uint64_t slots = wire::ReadU64(f);
  CIP_CHECK_MSG(slots == opts_.shard_clients,
                "shard file " << path << " has " << slots
                              << " slots, store expects "
                              << opts_.shard_clients);
  const std::uint64_t data_end = wire::ReadU64(f);
  const std::uint64_t dir_begin = kShardHeaderBytes;
  const std::uint64_t data_begin = dir_begin + slots * kDirEntryBytes;
  // Every offset below is validated against this audited bound before any
  // seek or allocation: data_end must sit inside the actual file.
  CIP_CHECK_MSG(data_end >= data_begin && data_end <= file_size,
                "hostile data_end " << data_end << " in shard " << path);
  f.seekg(static_cast<std::streamoff>(dir_begin + slot * kDirEntryBytes));
  const std::uint64_t offset = wire::ReadU64(f);
  const std::uint64_t length = wire::ReadU64(f);
  CIP_CHECK_MSG(offset != 0, "no spilled record for client " << id << " in "
                                                             << path);
  CIP_CHECK_MSG(offset >= data_begin && offset <= data_end &&
                    length <= data_end - offset,
                "hostile directory entry for client " << id << " in " << path);
  std::string blob(static_cast<std::size_t>(length), '\0');
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(blob.data(), static_cast<std::streamsize>(length));
  CIP_CHECK_MSG(static_cast<std::uint64_t>(f.gcount()) == length,
                "truncated record for client " << id << " in " << path);
  return blob;
}

}  // namespace cip::fl
