// The paper's central data-mapping idea (section 2.1): crop/pad each job
// script to a fixed 64 x 64 character grid and map every character to one
// or more "pixels" via one of four transforms:
//   binary   - 0 for whitespace, 1 otherwise (lossy, 1 channel)
//   simple   - the ASCII code scaled to [0, 1] (lossless, 1 channel)
//   one-hot  - a 128-wide indicator vector (lossless, 128 channels)
//   word2vec - a learned dense character embedding (lossless, d channels)
// The 2-D mapping preserves the script's line structure; the 1-D mapping
// flattens all lines into one sequence first.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "embed/word2vec.hpp"
#include "tensor/tensor.hpp"

namespace prionn::core {

enum class Transform { kBinary, kSimple, kOneHot, kWord2Vec };

std::string_view transform_name(Transform t) noexcept;

struct ScriptImageOptions {
  std::size_t rows = 64;
  std::size_t cols = 64;
  Transform transform = Transform::kWord2Vec;
};

class ScriptImageMapper {
 public:
  /// The word2vec transform needs a trained embedding; the other three
  /// ignore it.
  explicit ScriptImageMapper(ScriptImageOptions options = {},
                             embed::CharEmbedding embedding = {});

  const ScriptImageOptions& options() const noexcept { return options_; }
  std::size_t channels() const noexcept;

  /// Crop/pad a script to the rows x cols character grid (pad with spaces,
  /// crop overflow) — exposed for inspection tools and tests.
  std::vector<std::string> to_grid(std::string_view script) const;

  /// 2-D mapping: one sample of shape (channels, rows, cols).
  tensor::Tensor map_2d(std::string_view script) const;
  /// 1-D mapping: one sample of shape (channels, 1, rows * cols), the
  /// flattened script as a one-row image.
  tensor::Tensor map_1d(std::string_view script) const;

  /// Batch versions: (N, channels, rows, cols) / (N, channels, 1,
  /// rows * cols).
  /// Span-based so the serving path can map a window of queued requests
  /// without first copying them into a vector.
  tensor::Tensor map_batch_2d(std::span<const std::string> scripts) const;
  tensor::Tensor map_batch_1d(std::span<const std::string> scripts) const;

  const embed::CharEmbedding& embedding() const noexcept {
    return embedding_;
  }

 private:
  /// Write one character's pixel values at grid position (r, c) into a
  /// (channels, rows, cols) sample buffer.
  void write_pixel(float* sample, std::size_t r, std::size_t c,
                   char ch) const noexcept;

  ScriptImageOptions options_;
  embed::CharEmbedding embedding_;
};

}  // namespace prionn::core
