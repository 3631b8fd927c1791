// Content-addressed on-disk artifact store (DESIGN.md §14).
//
// The expensive artifacts behind a served topology — the up*/down* routing
// state and the O(N²) resistance-solve DistanceTable — are pure functions of
// the network, so a daemon restart re-paying them is waste. The store
// persists each NetworkModel under its content hash (the same FNV-1a value
// the LRU cache keys on) in a flat directory of
// `model-<16 hex>.csart` files:
//
//   [ header: 40 bytes                      ] [ payload: payload_size bytes ]
//     u64 magic        0x43534152540a0001
//     u64 version      1
//     u64 kind         ArtifactKind
//     u64 payload_size
//     u64 payload_hash FNV-1a over the payload bytes
//
// Fields are native-endian: artifacts are a per-host cache, not an exchange
// format. Writes go to a dot-prefixed temp file in the same directory and
// rename() into place, so readers (and fsck) never observe a half-written
// artifact and a crash leaves at worst an ignorable temp file. Reads mmap
// the file and verify magic/version/kind/size/hash before trusting a byte;
// anything inconsistent counts store.corrupt and reads as a miss — a
// corrupt artifact degrades to a re-solve, never to a wrong answer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace commsched::svc {

struct NetworkModel;

/// First 8 bytes of every artifact file ("CSART" + framing).
inline constexpr std::uint64_t kStoreMagic = 0x43534152540a0001ULL;
inline constexpr std::uint64_t kStoreVersion = 1;

/// What an artifact contains (the header's `kind` field and the filename
/// prefix). Today only whole network models; the u64 leaves room.
enum class ArtifactKind : std::uint64_t {
  kModel = 1,  // topology text + routing state + distance table
};

/// Point-in-time store statistics (mirrored into the registry as
/// store.{hit,miss,write,corrupt}).
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrupt = 0;
};

/// Outcome of verifying one artifact file (shared by Get and store_fsck).
struct VerifyResult {
  bool ok = false;
  std::string error;  // empty when ok
  std::uint64_t kind = 0;
  std::uint64_t payload_size = 0;
};

/// A directory of hash-named, hash-verified artifacts. Thread-safe: Put and
/// Get are plain filesystem operations plus atomic counters.
class ArtifactStore {
 public:
  /// Opens (creating if needed) the store directory. Throws ConfigError
  /// when the path exists but is not a directory or cannot be created.
  explicit ArtifactStore(std::string dir);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Persists `payload` under (kind, key) via temp-file + rename. Failures
  /// are swallowed (best-effort write-behind: a full disk must not fail the
  /// request whose model was just solved); returns whether the artifact
  /// landed.
  bool Put(ArtifactKind kind, std::uint64_t key, const std::string& payload);

  /// Reads and verifies the artifact for (kind, key). nullopt when absent
  /// (store.miss) or when any header/hash check fails (store.corrupt).
  [[nodiscard]] std::optional<std::string> Get(ArtifactKind kind, std::uint64_t key);

  /// Keys of every artifact of `kind` present on disk (by filename; the
  /// contents are only verified when read). Sorted ascending.
  [[nodiscard]] std::vector<std::uint64_t> ListKeys(ArtifactKind kind) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] StoreStats Stats() const;

  /// Counts an artifact that passed the header/hash checks but failed to
  /// decode or did not match its key — corruption detected above the byte
  /// layer (the warm-boot and GetModel fallback paths).
  void NoteCorrupt();

  /// Full verification of one artifact file: header shape, magic, version,
  /// known kind, size against the file, FNV hash over the payload. The
  /// engine of tools/store_fsck.
  [[nodiscard]] static VerifyResult VerifyFile(const std::string& path);

  /// `model-<16 hex of key>.csart` (no directory).
  [[nodiscard]] static std::string FileName(ArtifactKind kind, std::uint64_t key);

 private:
  std::string dir_;
  obs::Counter* hit_counter_;
  obs::Counter* miss_counter_;
  obs::Counter* write_counter_;
  obs::Counter* corrupt_counter_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> corrupt_{0};
};

/// Serializes a model into an ArtifactKind::kModel payload: the canonical
/// topology text plus the exported routing state plus the raw distance
/// values — everything needed to restore without a BFS or resistance solve.
[[nodiscard]] std::string EncodeModelArtifact(const NetworkModel& model);

/// Rebuilds a model from a kModel payload. Throws ConfigError on a
/// truncated or shape-inconsistent payload (callers fall back to a cold
/// solve).
[[nodiscard]] std::shared_ptr<const NetworkModel> DecodeModelArtifact(const std::string& payload);

}  // namespace commsched::svc
