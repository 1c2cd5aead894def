#include "core/script_image.hpp"

#include <stdexcept>

#include "embed/char_vocab.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace prionn::core {

std::string_view transform_name(Transform t) noexcept {
  switch (t) {
    case Transform::kBinary: return "binary";
    case Transform::kSimple: return "simple";
    case Transform::kOneHot: return "one-hot";
    case Transform::kWord2Vec: return "word2vec";
  }
  return "unknown";
}

ScriptImageMapper::ScriptImageMapper(ScriptImageOptions options,
                                     embed::CharEmbedding embedding)
    : options_(options), embedding_(std::move(embedding)) {
  if (options_.rows == 0 || options_.cols == 0)
    throw std::invalid_argument("ScriptImageMapper: grid must be non-empty");
  if (options_.transform == Transform::kWord2Vec && embedding_.empty())
    throw std::invalid_argument(
        "ScriptImageMapper: word2vec transform needs a trained embedding");
}

std::size_t ScriptImageMapper::channels() const noexcept {
  switch (options_.transform) {
    case Transform::kBinary:
    case Transform::kSimple: return 1;
    case Transform::kOneHot: return embed::CharVocab::kSize;
    case Transform::kWord2Vec: return embedding_.dimension();
  }
  return 1;
}

std::vector<std::string> ScriptImageMapper::to_grid(
    std::string_view script) const {
  auto lines = util::split_lines(script);
  lines.resize(options_.rows);  // crop or extend with empty lines
  for (auto& line : lines) line.resize(options_.cols, ' ');
  // Post-condition for the crop/pad above: every script maps to exactly
  // the configured grid (the paper's 64x64), whatever its original shape.
  PRIONN_DCHECK(lines.size() == options_.rows &&
                lines.front().size() == options_.cols &&
                lines.back().size() == options_.cols)
      << "ScriptImageMapper::to_grid: grid is not " << options_.rows << "x"
      << options_.cols;
  return lines;
}

void ScriptImageMapper::write_pixel(float* sample, std::size_t r,
                                    std::size_t c, char ch) const noexcept {
  const std::size_t plane = options_.rows * options_.cols;
  const std::size_t offset = r * options_.cols + c;
  switch (options_.transform) {
    case Transform::kBinary:
      sample[offset] = (ch == ' ' || ch == '\t') ? 0.0f : 1.0f;
      break;
    case Transform::kSimple:
      // Unique value per ASCII character, scaled into [0, 1] so the first
      // convolution sees inputs of unit order.
      sample[offset] = static_cast<float>(embed::CharVocab::token(ch)) /
                       static_cast<float>(embed::CharVocab::kSize - 1);
      break;
    case Transform::kOneHot:
      sample[embed::CharVocab::token(ch) * plane + offset] = 1.0f;
      break;
    case Transform::kWord2Vec: {
      const auto v = embedding_.vector_of(ch);
      PRIONN_DCHECK(v.size() == embedding_.dimension())
          << "ScriptImageMapper: embedding vector width " << v.size()
          << " != dimension " << embedding_.dimension();
      for (std::size_t d = 0; d < v.size(); ++d)
        sample[d * plane + offset] = v[d];
      break;
    }
  }
}

tensor::Tensor ScriptImageMapper::map_2d(std::string_view script) const {
  PRIONN_CHECK(channels() > 0)
      << "ScriptImageMapper: transform '"
      << transform_name(options_.transform) << "' yields zero channels";
  tensor::Tensor out({channels(), options_.rows, options_.cols});
  const auto grid = to_grid(script);
  for (std::size_t r = 0; r < options_.rows; ++r)
    for (std::size_t c = 0; c < options_.cols; ++c)
      write_pixel(out.data(), r, c, grid[r][c]);
  return out;
}

tensor::Tensor ScriptImageMapper::map_1d(std::string_view script) const {
  tensor::Tensor image = map_2d(script);
  // The flattened sequence is the same data viewed as one image row,
  // (channels, 1, rows * cols): the grid rows are concatenated, matching
  // the paper's "all lines of the text are concatenated into a single
  // line".
  image.reshape({channels(), 1, options_.rows * options_.cols});
  return image;
}

tensor::Tensor ScriptImageMapper::map_batch_2d(
    std::span<const std::string> scripts) const {
  PRIONN_CHECK(channels() > 0)
      << "ScriptImageMapper: transform '"
      << transform_name(options_.transform) << "' yields zero channels";
  tensor::Tensor out(
      {scripts.size(), channels(), options_.rows, options_.cols});
  const std::size_t sample_size = channels() * options_.rows * options_.cols;
  PRIONN_DCHECK(out.size() == scripts.size() * sample_size)
      << "ScriptImageMapper::map_batch_2d: tensor/sample stride mismatch";
  // The paper maps scripts "concurrently"; each script is independent.
  util::parallel_for(0, scripts.size(), [&](std::size_t i) {
    const auto grid = to_grid(scripts[i]);
    float* sample = out.data() + i * sample_size;
    for (std::size_t r = 0; r < options_.rows; ++r)
      for (std::size_t c = 0; c < options_.cols; ++c)
        write_pixel(sample, r, c, grid[r][c]);
  });
  return out;
}

tensor::Tensor ScriptImageMapper::map_batch_1d(
    std::span<const std::string> scripts) const {
  tensor::Tensor out = map_batch_2d(scripts);
  out.reshape({scripts.size(), channels(), 1, options_.rows * options_.cols});
  return out;
}

}  // namespace prionn::core
