#include "service/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "common/check.h"
#include "service/cache.h"
#include "service/service.h"
#include "topology/serialize.h"

namespace commsched::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderSize = 40;

struct Header {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t kind;
  std::uint64_t payload_size;
  std::uint64_t payload_hash;
};
static_assert(sizeof(Header) == kHeaderSize, "artifact header is 5 packed u64s");

const char* KindPrefix(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kModel:
      return "model";
  }
  CS_UNREACHABLE("bad ArtifactKind");
}

/// Read-only mmap of a whole file, unmapped on destruction.
class Mapping {
 public:
  Mapping() = default;
  Mapping(const char* data, std::size_t size) : data_(data), size_(size) {}
  Mapping(Mapping&& other) noexcept : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  Mapping& operator=(Mapping&&) = delete;
  ~Mapping() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  }

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// nullopt when the file cannot be opened or mapped; a zero-byte file maps
/// to an empty Mapping (rejected later as a truncated header).
std::optional<Mapping> MapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Mapping();
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data == MAP_FAILED) return std::nullopt;
  return Mapping(static_cast<const char*>(data), size);
}

VerifyResult VerifyMapped(const Mapping& mapping) {
  VerifyResult result;
  if (mapping.size() < kHeaderSize) {
    result.error = "truncated header: file holds " + std::to_string(mapping.size()) +
                   " bytes, header needs " + std::to_string(kHeaderSize);
    return result;
  }
  Header header{};
  std::memcpy(&header, mapping.data(), kHeaderSize);
  result.kind = header.kind;
  result.payload_size = header.payload_size;
  if (header.magic != kStoreMagic) {
    result.error = "bad magic (not a commsched artifact)";
    return result;
  }
  if (header.version != kStoreVersion) {
    result.error = "unsupported version " + std::to_string(header.version);
    return result;
  }
  if (header.kind != static_cast<std::uint64_t>(ArtifactKind::kModel)) {
    result.error = "unknown artifact kind " + std::to_string(header.kind);
    return result;
  }
  const std::size_t actual = mapping.size() - kHeaderSize;
  if (header.payload_size != actual) {
    result.error = "payload size mismatch: header says " + std::to_string(header.payload_size) +
                   ", file holds " + std::to_string(actual);
    return result;
  }
  const std::string_view payload(mapping.data() + kHeaderSize, actual);
  if (HashBytes(payload) != header.payload_hash) {
    result.error = "payload hash mismatch (corrupted contents)";
    return result;
  }
  result.ok = true;
  return result;
}

bool WriteAll(int fd, const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t wrote = ::write(fd, cursor, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  return true;
}

std::string HexKey(std::uint64_t key) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(key));
  return buffer;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string dir)
    : dir_(std::move(dir)),
      hit_counter_(&obs::Registry::Global().GetCounter("store.hit")),
      miss_counter_(&obs::Registry::Global().GetCounter("store.miss")),
      write_counter_(&obs::Registry::Global().GetCounter("store.write")),
      corrupt_counter_(&obs::Registry::Global().GetCounter("store.corrupt")) {
  if (dir_.empty()) throw ConfigError("store directory must not be empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw ConfigError("cannot open store directory '" + dir_ + "'" +
                      (ec ? ": " + ec.message() : ""));
  }
}

std::string ArtifactStore::FileName(ArtifactKind kind, std::uint64_t key) {
  return std::string(KindPrefix(kind)) + "-" + HexKey(key) + ".csart";
}

bool ArtifactStore::Put(ArtifactKind kind, std::uint64_t key, const std::string& payload) {
  Header header{};
  header.magic = kStoreMagic;
  header.version = kStoreVersion;
  header.kind = static_cast<std::uint64_t>(kind);
  header.payload_size = payload.size();
  header.payload_hash = HashBytes(payload);

  const std::string name = FileName(kind, key);
  // Dot-prefixed so ListKeys and fsck skip half-written files; pid-suffixed
  // so daemons sharing a store directory never clobber each other's temps.
  const std::string tmp = dir_ + "/." + name + ".tmp" + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = WriteAll(fd, &header, kHeaderSize) && WriteAll(fd, payload.data(), payload.size()) &&
            ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (ok) ok = ::rename(tmp.c_str(), (dir_ + "/" + name).c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_counter_->Add();
  return true;
}

std::optional<std::string> ArtifactStore::Get(ArtifactKind kind, std::uint64_t key) {
  const std::string path = dir_ + "/" + FileName(kind, key);
  std::optional<Mapping> mapping = MapFile(path);
  if (!mapping.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_->Add();
    return std::nullopt;
  }
  const VerifyResult verdict = VerifyMapped(*mapping);
  if (!verdict.ok || verdict.kind != static_cast<std::uint64_t>(kind)) {
    NoteCorrupt();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter_->Add();
  return std::string(mapping->data() + kHeaderSize, mapping->size() - kHeaderSize);
}

std::vector<std::uint64_t> ArtifactStore::ListKeys(ArtifactKind kind) const {
  const std::string prefix = std::string(KindPrefix(kind)) + "-";
  const std::string suffix = ".csart";
  std::vector<std::uint64_t> keys;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 16 + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
    const std::string hex = name.substr(prefix.size(), 16);
    char* end = nullptr;
    const std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
    if (end != hex.c_str() + hex.size()) continue;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ArtifactStore::NoteCorrupt() {
  corrupt_.fetch_add(1, std::memory_order_relaxed);
  corrupt_counter_->Add();
}

StoreStats ArtifactStore::Stats() const {
  StoreStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.corrupt = corrupt_.load(std::memory_order_relaxed);
  return stats;
}

VerifyResult ArtifactStore::VerifyFile(const std::string& path) {
  std::optional<Mapping> mapping = MapFile(path);
  if (!mapping.has_value()) {
    VerifyResult result;
    result.error = "cannot open or map file";
    return result;
  }
  return VerifyMapped(*mapping);
}

namespace {

void AppendU64(std::string* out, std::uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  out->append(bytes, 8);
}

/// Bounds-checked cursor over a payload; every over-read throws ConfigError
/// so a truncated artifact degrades to a cold solve.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& data) : data_(data) {}

  std::uint64_t U64() {
    Require(8);
    std::uint64_t value = 0;
    std::memcpy(&value, data_.data() + pos_, 8);
    pos_ += 8;
    return value;
  }

  std::string Bytes(std::size_t count) {
    Require(count);
    std::string bytes = data_.substr(pos_, count);
    pos_ += count;
    return bytes;
  }

  std::vector<std::uint64_t> U64Vector() {
    const std::uint64_t count = U64();
    RequireCount(count);
    std::vector<std::uint64_t> values(count);
    if (count > 0) std::memcpy(values.data(), data_.data() + pos_, count * 8);
    pos_ += count * 8;
    return values;
  }

  std::vector<double> Doubles(std::uint64_t count) {
    RequireCount(count);
    std::vector<double> values(count);
    if (count > 0) std::memcpy(values.data(), data_.data() + pos_, count * 8);
    pos_ += count * 8;
    return values;
  }

  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }

 private:
  void Require(std::uint64_t bytes) {
    if (bytes > data_.size() - pos_) {
      throw ConfigError("model artifact payload is truncated");
    }
  }

  /// Count-of-u64 variant of Require: compares against remaining/8 so a
  /// hostile count near 2^64 cannot wrap `count * 8` past the bound.
  void RequireCount(std::uint64_t count) {
    if (count > (data_.size() - pos_) / 8) {
      throw ConfigError("model artifact payload is truncated");
    }
  }

  const std::string& data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string EncodeModelArtifact(const NetworkModel& model) {
  const std::string topo_text = topo::ToText(model.graph);
  const route::UpDownState state = model.routing.ExportState();
  std::string out;
  AppendU64(&out, topo_text.size());
  out += topo_text;
  AppendU64(&out, state.root);
  AppendU64(&out, state.level.size());
  for (const std::size_t level : state.level) AppendU64(&out, level);
  AppendU64(&out, state.up_end.size());
  for (const topo::SwitchId end : state.up_end) AppendU64(&out, end);
  AppendU64(&out, state.dist_to_dest.size());
  for (const auto& dist : state.dist_to_dest) {
    AppendU64(&out, dist.size());
    for (const std::size_t d : dist) AppendU64(&out, d);
  }
  const dist::DistanceTable& table = model.table;
  AppendU64(&out, table.size());
  for (const double value : table.values()) {
    char bytes[8];
    std::memcpy(bytes, &value, 8);
    out.append(bytes, 8);
  }
  return out;
}

std::shared_ptr<const NetworkModel> DecodeModelArtifact(const std::string& payload) {
  PayloadReader reader(payload);
  const std::uint64_t text_size = reader.U64();
  topo::SwitchGraph graph = topo::FromText(reader.Bytes(text_size));

  route::UpDownState state;
  state.root = reader.U64();
  {
    const std::vector<std::uint64_t> level = reader.U64Vector();
    state.level.assign(level.begin(), level.end());
  }
  {
    const std::vector<std::uint64_t> up_end = reader.U64Vector();
    state.up_end.assign(up_end.begin(), up_end.end());
  }
  const std::uint64_t rows = reader.U64();
  if (rows > payload.size()) throw ConfigError("model artifact payload is truncated");
  state.dist_to_dest.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::vector<std::uint64_t> dist = reader.U64Vector();
    state.dist_to_dest.emplace_back(dist.begin(), dist.end());
  }

  const std::uint64_t n = reader.U64();
  // 2^24 switches is far beyond any real fabric and keeps n*n from wrapping.
  if (n > (1ULL << 24)) throw ConfigError("model artifact payload is truncated");
  std::vector<double> values = reader.Doubles(n * n);
  if (!reader.AtEnd()) throw ConfigError("model artifact has trailing bytes");

  // NetworkModel's restore constructor re-validates every shape (routing
  // state and table order) against the parsed graph and rejects non-finite
  // or negative distances, so a payload that is internally consistent but
  // lies about the topology still fails here rather than serving wrong
  // routes or indexing the table out of bounds.
  return std::make_shared<const NetworkModel>(
      std::move(graph), std::move(state),
      dist::DistanceTable::FromValues(static_cast<std::size_t>(n), std::move(values)));
}

}  // namespace commsched::svc
