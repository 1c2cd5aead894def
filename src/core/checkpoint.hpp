// Crash-safe checkpointing for the online serving loop. A checkpoint is a
// versioned, CRC-protected frame around the full predictor state plus the
// online-trainer cursor, written with the classic temp-file + atomic-rename
// dance and a retained `<path>.last-good` generation:
//
//   magic "PRCK" (u32) | format version (u32) | payload size (u64)
//   | CRC-32 of payload (u32) | payload bytes
//
// The payload is PrionnPredictor::save() followed by the
// OnlineCheckpointState, so a restart resumes the *training trajectory*
// bit-exactly — weights, Adam moments, dropout RNG streams and the
// replay cursor all come back.
//
// Load-time policy: a damaged primary (bad magic, wrong version, short
// payload, CRC mismatch) is not fatal; resume_checkpoint() falls back to
// the last-good generation and reports which one it used.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/predictor.hpp"

namespace prionn::core {

/// Unusable checkpoint stream: truncated, corrupt, or wrong version.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCheckpointMagic = 0x5052434B;  // "PRCK"
/// Version 2: conv2d records carry per-axis padding (stride, pad_h, pad_w)
/// and maxpool2d records a per-axis window. Version 3: the predictor and
/// network streams inside the payload carry their own version after
/// their magic.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Cursor of the online replay loop at checkpoint time. Taken right after
/// a training event: `next_index` is the submission whose prediction has
/// not happened yet, and the completion bookkeeping is reconstructed by
/// replaying jobs[0..next_index) through the heap without any model work.
struct OnlineCheckpointState {
  std::uint64_t next_index = 0;
  std::uint64_t submissions_since_train = 0;
  bool embedding_ready = false;
};

/// Frame `payload` (magic/version/size/CRC header + bytes) onto a stream.
void write_checkpoint(std::ostream& os, std::string_view payload);

/// Unframe and verify; throws CheckpointError on any damage.
std::string read_checkpoint(std::istream& is);

/// Serialise predictor + cursor into a checkpoint payload.
std::string encode_checkpoint(const PrionnPredictor& predictor,
                              const OnlineCheckpointState& state);

struct DecodedCheckpoint {
  PrionnPredictor predictor;
  OnlineCheckpointState state;
};

/// Inverse of encode_checkpoint. Throws CheckpointError (payload damage
/// that slipped past the CRC would surface in the predictor loader).
DecodedCheckpoint decode_checkpoint(const std::string& payload);

/// `<path>.last-good`: the previous generation, rotated on every write.
std::string last_good_path(const std::string& path);

/// Durable write: frame into `<path>.tmp`, rotate the current `path` to
/// last-good, then atomically rename the temp file over `path`. The
/// kCheckpointTruncate / kSnapshotCorrupt fault points damage the primary
/// *after* the rename (modelling a torn write on a non-atomic filesystem),
/// which is exactly the case the last-good fallback exists for.
void write_checkpoint_file(const std::string& path,
                           const PrionnPredictor& predictor,
                           const OnlineCheckpointState& state);

/// Strict single-file read; throws CheckpointError / std::runtime_error.
DecodedCheckpoint read_checkpoint_file(const std::string& path);

enum class CheckpointSource { kPrimary, kLastGood, kNone };
const char* checkpoint_source_name(CheckpointSource s) noexcept;

struct ResumeResult {
  std::optional<DecodedCheckpoint> checkpoint;  // nullopt => cold start
  CheckpointSource source = CheckpointSource::kNone;
  /// Why the primary was rejected, when the last-good (or nothing) was
  /// used instead; empty when the primary loaded cleanly.
  std::string primary_error;
};

/// Recovery policy entry point: try `path`, fall back to last-good, else
/// report a cold start. Never throws for damaged files — only for I/O
/// conditions that make the decision itself impossible.
ResumeResult resume_checkpoint(const std::string& path);

}  // namespace prionn::core
