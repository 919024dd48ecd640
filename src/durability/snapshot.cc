#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "durability/file_io.h"
#include "util/byte_codec.h"
#include "util/crc32.h"

namespace savg {

namespace {

constexpr char kSnapshotMagic[4] = {'S', 'V', 'G', 'S'};
constexpr uint32_t kSnapshotVersion = 1;
/// 2: the cached basis and keys are those of the compact LP with one row
/// per co-display entry. Version 1 states carried the two-cap LP's, whose
/// tag-2 column was y, not s; they are refused, never decoded.
constexpr uint32_t kStateVersion = 2;
/// magic + version + session_id + epoch + applied_seq + payload_len
/// + payload_crc + header_crc.
constexpr size_t kSnapshotHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4;
/// Decoded dimensions become ints (UserId, ItemId, SlotId).
constexpr uint32_t kMaxDim = std::numeric_limits<int>::max();

void EncodeItemValues(const std::vector<ItemValue>& entries,
                      std::string* out) {
  PutU32(static_cast<uint32_t>(entries.size()), out);
  for (const ItemValue& e : entries) {
    PutU32(static_cast<uint32_t>(e.item), out);
    PutF32(e.value, out);
  }
}

/// Rejects an item id >= `num_items`: the LP and the objective index
/// per-item arrays by it.
bool DecodeItemValues(ByteReader* in, uint32_t num_items,
                      std::vector<ItemValue>* out) {
  uint32_t count = 0;
  if (!in->ReadCount(&count, 8)) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t item = 0;
    if (!in->ReadU32(&item) || !in->ReadF32(&(*out)[i].value) ||
        item >= num_items) {
      return false;
    }
    (*out)[i].item = static_cast<ItemId>(item);
  }
  return true;
}

void EncodeFloats(const std::vector<float>& values, std::string* out) {
  PutU32(static_cast<uint32_t>(values.size()), out);
  for (float f : values) PutF32(f, out);
}

bool DecodeFloats(ByteReader* in, std::vector<float>* out) {
  uint32_t count = 0;
  if (!in->ReadCount(&count, 4)) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!in->ReadF32(&(*out)[i])) return false;
  }
  return true;
}

void EncodeBasisSide(const std::vector<VarBasisStatus>& side,
                     std::string* out) {
  PutU32(static_cast<uint32_t>(side.size()), out);
  for (VarBasisStatus s : side) {
    PutU8(static_cast<uint8_t>(s), out);
  }
}

bool DecodeBasisSide(ByteReader* in, std::vector<VarBasisStatus>* out) {
  uint32_t count = 0;
  if (!in->ReadCount(&count, 1)) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t v = 0;
    if (!in->ReadU8(&v)) return false;
    if (v > static_cast<uint8_t>(VarBasisStatus::kBasic)) return false;
    (*out)[i] = static_cast<VarBasisStatus>(v);
  }
  return true;
}

}  // namespace

void EncodeSessionState(const SessionState& state, std::string* out) {
  PutU32(kStateVersion, out);

  // --- instance -----------------------------------------------------------
  const SvgicInstance& inst = state.instance;
  const SocialGraph& graph = inst.graph();
  const int n = inst.num_users();
  const int m = inst.num_items();
  PutU32(static_cast<uint32_t>(n), out);
  PutU32(static_cast<uint32_t>(m), out);
  PutU32(static_cast<uint32_t>(inst.num_slots()), out);
  PutF64(inst.lambda(), out);
  PutU32(static_cast<uint32_t>(graph.num_edges()), out);
  for (const Edge& e : graph.edges()) {
    PutU32(static_cast<uint32_t>(e.u), out);
    PutU32(static_cast<uint32_t>(e.v), out);
  }
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      // p() widens the stored float; the narrowing cast recovers it exactly.
      PutF32(static_cast<float>(inst.p(u, c)), out);
    }
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EncodeItemValues(inst.TauEntries(e), out);
  }
  EncodeFloats(inst.commodity_values(), out);
  EncodeFloats(inst.slot_weights(), out);
  PutU32(static_cast<uint32_t>(inst.finalized_edge_count()), out);
  PutU32(static_cast<uint32_t>(inst.pairs().size()), out);
  for (const FriendPair& pair : inst.pairs()) {
    PutU32(static_cast<uint32_t>(pair.u), out);
    PutU32(static_cast<uint32_t>(pair.v), out);
    PutU32(static_cast<uint32_t>(pair.uv), out);
    PutU32(static_cast<uint32_t>(pair.vu), out);
    EncodeItemValues(pair.weights, out);
  }

  // --- served configuration ----------------------------------------------
  const Configuration& config = state.config;
  PutU32(static_cast<uint32_t>(config.num_users()), out);
  PutU32(static_cast<uint32_t>(config.num_slots()), out);
  PutU32(static_cast<uint32_t>(config.num_items()), out);
  for (UserId u = 0; u < config.num_users(); ++u) {
    for (SlotId s = 0; s < config.num_slots(); ++s) {
      PutU32(static_cast<uint32_t>(config.At(u, s)), out);
    }
  }

  // --- cached basis + keys ------------------------------------------------
  EncodeBasisSide(state.basis.structural, out);
  EncodeBasisSide(state.basis.logical, out);
  PutU32(static_cast<uint32_t>(state.keys.cols.size()), out);
  for (uint64_t key : state.keys.cols) PutU64(key, out);
  PutU32(static_cast<uint32_t>(state.keys.rows.size()), out);
  for (uint64_t key : state.keys.rows) PutU64(key, out);
  PutU8(state.valid_basis ? 1 : 0, out);
  PutU32(static_cast<uint32_t>(state.num_resolves), out);

  // --- rounding RNG -------------------------------------------------------
  for (int i = 0; i < 4; ++i) PutU64(state.rng.s[i], out);
  PutU8(state.rng.has_cached_normal ? 1 : 0, out);
  PutF64(state.rng.cached_normal, out);

  // --- dirty flags --------------------------------------------------------
  PutU32(static_cast<uint32_t>(state.dirty.size()), out);
  out->append(state.dirty.data(), state.dirty.size());
  PutU8(state.all_dirty ? 1 : 0, out);
}

Result<SessionState> DecodeSessionState(const char* data, size_t size) {
  ByteReader in(data, size);
  const auto corrupt = [](const std::string& what) {
    return Status::InvalidArgument("corrupt session state: " + what);
  };

  uint32_t version = 0;
  if (!in.ReadU32(&version)) return corrupt("missing version");
  if (version != kStateVersion) {
    return Status::InvalidArgument("unsupported session state version " +
                                   std::to_string(version));
  }

  // --- instance -----------------------------------------------------------
  uint32_t n = 0, m = 0, k = 0, num_edges = 0;
  double lambda = 0.0;
  if (!in.ReadU32(&n) || !in.ReadU32(&m) || !in.ReadU32(&k) ||
      !in.ReadF64(&lambda) || !in.ReadCount(&num_edges, 8)) {
    return corrupt("instance dims");
  }
  // Bound every dimension before anything is sized by it: each must fit
  // an int, every user owns a dirty flag at the end of the payload, and
  // the preference matrix after the edge list holds 4 bytes per (u, c).
  if (n > kMaxDim || m > kMaxDim || k > kMaxDim) {
    return corrupt("instance dims");
  }
  if (n > in.remaining()) return corrupt("user count");
  if (static_cast<uint64_t>(n) * m * 4 > in.remaining() - 8ull * num_edges) {
    return corrupt("preference matrix");
  }
  SocialGraph graph(static_cast<int>(n));
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t u = 0, v = 0;
    if (!in.ReadU32(&u) || !in.ReadU32(&v)) return corrupt("edge list");
    auto id = graph.AddEdge(static_cast<UserId>(u), static_cast<UserId>(v));
    // Dense insertion order is the edge-id contract tau_[] depends on.
    if (!id.ok() || *id != static_cast<EdgeId>(e)) return corrupt("edge ids");
  }
  SvgicInstance instance(std::move(graph), static_cast<int>(m),
                         static_cast<int>(k), lambda);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t c = 0; c < m; ++c) {
      float p = 0.0f;
      if (!in.ReadF32(&p)) return corrupt("preference matrix");
      instance.set_p(static_cast<UserId>(u), static_cast<ItemId>(c), p);
    }
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    std::vector<ItemValue> entries;
    if (!DecodeItemValues(&in, m, &entries)) return corrupt("tau entries");
    for (const ItemValue& entry : entries) {
      // Entries arrive sorted, so the sorted-insert path appends.
      instance.SetTauValue(static_cast<EdgeId>(e), entry.item, entry.value);
    }
  }
  std::vector<float> commodity, slots;
  if (!DecodeFloats(&in, &commodity) || !DecodeFloats(&in, &slots)) {
    return corrupt("commodity/slot weights");
  }
  // Either vector is absent or holds one value per item / slot.
  if ((!commodity.empty() && commodity.size() != m) ||
      (!slots.empty() && slots.size() != k)) {
    return corrupt("commodity/slot weights");
  }
  if (!commodity.empty()) instance.set_commodity_values(std::move(commodity));
  if (!slots.empty()) instance.set_slot_weights(std::move(slots));
  uint32_t finalized_edges = 0, num_pairs = 0;
  if (!in.ReadU32(&finalized_edges) || !in.ReadCount(&num_pairs, 20)) {
    return corrupt("pair header");
  }
  if (finalized_edges > num_edges) return corrupt("finalized edge count");
  // A pair's edge ids are -1 (that direction is absent) or an edge of
  // the graph.
  const auto valid_edge = [num_edges](uint32_t e) {
    return e < num_edges || static_cast<EdgeId>(e) == -1;
  };
  std::vector<FriendPair> pairs(num_pairs);
  for (uint32_t i = 0; i < num_pairs; ++i) {
    uint32_t u = 0, v = 0, uv = 0, vu = 0;
    if (!in.ReadU32(&u) || !in.ReadU32(&v) || !in.ReadU32(&uv) ||
        !in.ReadU32(&vu) || !DecodeItemValues(&in, m, &pairs[i].weights)) {
      return corrupt("pair list");
    }
    if (u >= n || v >= n || !valid_edge(uv) || !valid_edge(vu)) {
      return corrupt("pair ids");
    }
    pairs[i].u = static_cast<UserId>(u);
    pairs[i].v = static_cast<UserId>(v);
    pairs[i].uv = static_cast<EdgeId>(uv);
    pairs[i].vu = static_cast<EdgeId>(vu);
  }
  instance.RestoreFinalizedPairs(std::move(pairs),
                                 static_cast<int>(finalized_edges));
  // Well-formed bytes can still hold an instance no resolve accepts (a
  // negative utility, more slots than items); refuse it here, whole.
  const Status valid = instance.Validate();
  if (!valid.ok()) return corrupt("instance: " + valid.message());

  SessionState state;
  state.instance = std::move(instance);

  // --- served configuration ----------------------------------------------
  uint32_t cu = 0, cs = 0, ci = 0;
  if (!in.ReadU32(&cu) || !in.ReadU32(&cs) || !in.ReadU32(&ci)) {
    return corrupt("config dims");
  }
  // Ids are never reused, so the served configuration never has more
  // users or items than the instance it was rounded from.
  if (cu > n || ci > m || cs > kMaxDim) return corrupt("config dims");
  if (static_cast<uint64_t>(cu) * cs * 4 > in.remaining()) {
    return corrupt("config assignments");
  }
  if (cu > 0) {
    Configuration config(static_cast<int>(cu), static_cast<int>(cs),
                         static_cast<int>(ci));
    for (uint32_t u = 0; u < cu; ++u) {
      for (uint32_t s = 0; s < cs; ++s) {
        uint32_t raw = 0;
        if (!in.ReadU32(&raw)) return corrupt("config assignments");
        const ItemId c = static_cast<ItemId>(raw);
        if (c == kNoItem) continue;
        // An item out of range or shown twice is corrupt bytes too.
        const Status set =
            config.Set(static_cast<UserId>(u), static_cast<SlotId>(s), c);
        if (!set.ok()) return corrupt("config assignments");
      }
    }
    state.config = std::move(config);
  }

  // --- cached basis + keys ------------------------------------------------
  if (!DecodeBasisSide(&in, &state.basis.structural) ||
      !DecodeBasisSide(&in, &state.basis.logical)) {
    return corrupt("basis");
  }
  uint32_t num_cols = 0, num_rows = 0;
  if (!in.ReadCount(&num_cols, 8)) return corrupt("column keys");
  state.keys.cols.resize(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    if (!in.ReadU64(&state.keys.cols[i])) return corrupt("column keys");
  }
  if (!in.ReadCount(&num_rows, 8)) return corrupt("row keys");
  state.keys.rows.resize(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    if (!in.ReadU64(&state.keys.rows[i])) return corrupt("row keys");
  }
  // Basis projection reads the basis at each key's position.
  if (num_cols != state.basis.structural.size() ||
      num_rows != state.basis.logical.size()) {
    return corrupt("key counts");
  }
  uint8_t valid_basis = 0;
  uint32_t num_resolves = 0;
  if (!in.ReadU8(&valid_basis) || !in.ReadU32(&num_resolves)) {
    return corrupt("resolve counter");
  }
  state.valid_basis = valid_basis != 0;
  state.num_resolves = static_cast<int>(num_resolves);

  // --- rounding RNG -------------------------------------------------------
  for (int i = 0; i < 4; ++i) {
    if (!in.ReadU64(&state.rng.s[i])) return corrupt("rng");
  }
  uint8_t has_normal = 0;
  if (!in.ReadU8(&has_normal) || !in.ReadF64(&state.rng.cached_normal)) {
    return corrupt("rng");
  }
  state.rng.has_cached_normal = has_normal != 0;

  // --- dirty flags --------------------------------------------------------
  uint32_t dirty_size = 0;
  const char* dirty = nullptr;
  if (!in.ReadCount(&dirty_size, 1) || !in.ReadBytes(dirty_size, &dirty)) {
    return corrupt("dirty flags");
  }
  state.dirty.assign(dirty, dirty + dirty_size);
  uint8_t all_dirty = 0;
  if (!in.ReadU8(&all_dirty)) return corrupt("dirty flags");
  state.all_dirty = all_dirty != 0;

  if (in.remaining() != 0) return corrupt("trailing bytes");
  return state;
}

uint64_t SessionStateDigest(const SessionState& state) {
  std::string encoded;
  EncodeSessionState(state, &encoded);
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (char c : encoded) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return hash;
}

Status WriteSnapshotFile(const std::string& path, uint32_t session_id,
                         uint32_t epoch, uint64_t applied_seq,
                         const SessionState& state) {
  std::string payload;
  EncodeSessionState(state, &payload);

  std::string file;
  file.reserve(kSnapshotHeaderBytes + payload.size());
  file.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(kSnapshotVersion, &file);
  PutU32(session_id, &file);
  PutU32(epoch, &file);
  PutU64(applied_seq, &file);
  PutU64(payload.size(), &file);
  PutU32(Crc32(payload.data(), payload.size()), &file);
  PutU32(Crc32(file.data(), file.size()), &file);  // header CRC
  file += payload;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unknown("open(" + tmp + "): " + std::strerror(errno));
  }
  Status status = WriteAll(fd, file.data(), file.size(), tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::Unknown("fsync(" + tmp + "): " + std::strerror(errno));
  }
  if (!status.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::Unknown("rename(" + tmp + " -> " + path +
                             "): " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename itself must be durable, or a crash could resurrect the old
  // directory entry while the changelog has already rotated past it.
  return SyncDirectory(DirnameOf(path));
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  SAVG_ASSIGN_OR_RETURN(const std::string data,
                        ReadWholeFile(path, "snapshot"));
  if (data.size() < kSnapshotHeaderBytes) {
    return Status::InvalidArgument(path + ": truncated snapshot header");
  }
  if (std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an SVGS snapshot");
  }
  ByteReader header(data.data() + 4, kSnapshotHeaderBytes - 4);
  SnapshotData snapshot;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0, header_crc = 0;
  header.ReadU32(&snapshot.version);
  header.ReadU32(&snapshot.session_id);
  header.ReadU32(&snapshot.epoch);
  header.ReadU64(&snapshot.applied_seq);
  header.ReadU64(&payload_len);
  header.ReadU32(&payload_crc);
  header.ReadU32(&header_crc);
  if (Crc32(data.data(), kSnapshotHeaderBytes - 4) != header_crc) {
    return Status::InvalidArgument(path + ": snapshot header CRC mismatch");
  }
  if (snapshot.version != kSnapshotVersion) {
    return Status::InvalidArgument(path + ": unsupported snapshot version " +
                                   std::to_string(snapshot.version));
  }
  if (data.size() - kSnapshotHeaderBytes != payload_len) {
    return Status::InvalidArgument(path + ": snapshot payload truncated");
  }
  const char* payload = data.data() + kSnapshotHeaderBytes;
  if (Crc32(payload, payload_len) != payload_crc) {
    return Status::InvalidArgument(path + ": snapshot payload CRC mismatch");
  }
  SAVG_ASSIGN_OR_RETURN(snapshot.state,
                        DecodeSessionState(payload, payload_len));
  return snapshot;
}

}  // namespace savg
