// Factory for the paper's three deep models (section 2.2):
//   - NN:     fully connected network over the flattened 1-D mapping
//   - 1D-CNN: 1-D convolutions over the flattened mapping, run as 1 x k
//             Conv2d layers over a (C, 1, rows * cols) image
//   - 2D-CNN: 2-D convolutions over the script grid — the paper's choice,
//             "four convolutional layers and four fully connected layers".
// Two presets: `kPaper` follows the paper's depth/width; `kFast` is a
// scaled-down variant for CPU-bound tests and benches (DESIGN.md section 2
// notes all timing results are comparative, so the preset applies
// uniformly across models).
#pragma once

#include <cstdint>
#include <string_view>

#include "nn/network.hpp"

namespace prionn::core {

enum class ModelKind { kFullyConnected, kCnn1d, kCnn2d };
enum class ModelPreset { kPaper, kFast };

std::string_view model_name(ModelKind kind) noexcept;

struct ModelConfig {
  ModelKind kind = ModelKind::kCnn2d;
  ModelPreset preset = ModelPreset::kFast;
  std::size_t channels = 4;  // input channels (transform-dependent)
  std::size_t rows = 64;
  std::size_t cols = 64;
  std::size_t classes = 960;
  double dropout = 0.1;
  std::uint64_t seed = 123;
};

/// Build an untrained model for the given input geometry.
nn::Network build_model(const ModelConfig& config);

}  // namespace prionn::core
