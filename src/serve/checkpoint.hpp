// ComponentIndex checkpoints ("LOGCCKP1"): the fast-recovery half of the
// durability layer (serve/wal.hpp is the complete-history half; layout in
// docs/FILE_FORMATS.md).
//
// A checkpoint is one epoch's canonical min-id label array plus the WAL
// byte offset it corresponds to: recovery loads the labels, then replays
// only the WAL records past that offset instead of the whole stream. The
// sizes array and component count are NOT stored — the engine recomputes
// them (and its member lists) from the canonical labels when it adopts
// them, so a checkpoint cannot smuggle in an inconsistent (labels, sizes)
// pair.
//
// Atomicity: the state is written to `path + ".tmp"`, fsynced, and renamed
// into place (then the directory is fsynced). A crash at ANY point leaves
// either the previous complete checkpoint or the new complete checkpoint —
// never a half-written file under the live name. Both header and payload
// carry CRC32C checksums; a checkpoint that fails validation is reported
// as corruption and recovery falls back to a full WAL replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/status.hpp"

namespace logcc::serve {

inline constexpr char kCheckpointMagic[8] = {'L', 'O', 'G', 'C',
                                             'C', 'K', 'P', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// 64-byte checkpoint header. Native-endian, tagged; `header_crc` covers
/// the preceding 60 bytes, `payload_crc` the labels array that follows.
struct CheckpointHeader {
  char magic[8];                 // kCheckpointMagic
  std::uint32_t version;         // kCheckpointVersion
  std::uint32_t endian;          // graph::kEndianTag
  std::uint64_t n;               // vertices; payload is n u32 labels
  std::uint64_t epoch;           // engine epoch the snapshot was taken at
  std::uint64_t batches;         // batches applied up to this snapshot
  std::uint64_t wal_offset;      // replay the WAL from this byte offset
  std::uint64_t num_components;  // cross-checked against the rebuilt index
  std::uint32_t payload_crc;     // crc32c of the labels payload
  std::uint32_t header_crc;      // crc32c of header bytes [0, 60)
};
static_assert(sizeof(CheckpointHeader) == 64,
              "checkpoint header must stay 64 bytes");

/// One recoverable engine state: what write_checkpoint persists and
/// read_checkpoint returns.
struct CheckpointState {
  std::uint64_t n = 0;
  std::uint64_t epoch = 0;
  std::uint64_t batches = 0;
  std::uint64_t wal_offset = 0;
  std::uint64_t num_components = 0;
  /// Canonical min-id labels (labels[v] <= v, labels[labels[v]] ==
  /// labels[v]) — the engine's flat forest.
  std::vector<graph::VertexId> labels;
};

/// Atomically replaces the checkpoint at `path` (tmp + fsync + rename +
/// directory fsync). `state.labels.size()` must equal `state.n`.
util::Status write_checkpoint(const std::string& path,
                              const CheckpointState& state);

/// Loads and validates the checkpoint at `path`. kNotFound when absent
/// (recovery then replays the WAL from the start); kCorruption on any
/// checksum/size/canonicity violation — a corrupt checkpoint never yields
/// state.
util::Status read_checkpoint(const std::string& path, CheckpointState* out);

}  // namespace logcc::serve
