#include "core/model_zoo.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pool.hpp"

namespace prionn::core {

std::string_view model_name(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kFullyConnected: return "NN";
    case ModelKind::kCnn1d: return "1D-CNN";
    case ModelKind::kCnn2d: return "2D-CNN";
  }
  return "unknown";
}

namespace {

using nn::Network;

/// Four conv blocks + four fully connected layers (paper preset), or a
/// narrower variant with the same shape (fast preset).
Network build_cnn2d(const ModelConfig& cfg, util::Rng& rng) {
  const bool paper = cfg.preset == ModelPreset::kPaper;
  const std::size_t c1 = paper ? 8 : 4, c2 = paper ? 16 : 8,
                    c3 = paper ? 16 : 8, c4 = paper ? 32 : 16;
  Network net;
  net.emplace<nn::Conv2d>(cfg.channels, c1, 3, 3, 1, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Conv2d>(c1, c2, 3, 3, 1, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Conv2d>(c2, c3, 3, 3, 1, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Conv2d>(c3, c4, 3, 3, 1, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2, 2);
  net.emplace<nn::Flatten>();
  const std::size_t flat = c4 * (cfg.rows / 16) * (cfg.cols / 16);
  const std::size_t f1 = paper ? 256 : 128, f2 = paper ? 128 : 96,
                    f3 = paper ? 128 : 64;
  net.emplace<nn::Dense>(flat, f1, rng);
  net.emplace<nn::Relu>();
  if (cfg.dropout > 0.0) net.emplace<nn::Dropout>(cfg.dropout, rng());
  net.emplace<nn::Dense>(f1, f2, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(f2, f3, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(f3, cfg.classes, rng);
  return net;
}

/// Several 1-D conv layers followed by fully connected layers (paper
/// section 2.2). The flattened script is a (C, 1, rows * cols) image, so
/// each 1-D convolution is a 1 x k Conv2d padded by (0, k / 2) and each
/// pool a 1 x 4 MaxPool2d.
Network build_cnn1d(const ModelConfig& cfg, util::Rng& rng) {
  const bool paper = cfg.preset == ModelPreset::kPaper;
  const std::size_t c1 = paper ? 8 : 4, c2 = paper ? 16 : 8,
                    c3 = paper ? 32 : 16;
  const std::size_t length = cfg.rows * cfg.cols;
  Network net;
  net.emplace<nn::Conv2d>(cfg.channels, c1, 1, 7, 1, 0, 3, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(1, 4);
  net.emplace<nn::Conv2d>(c1, c2, 1, 5, 1, 0, 2, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(1, 4);
  net.emplace<nn::Conv2d>(c2, c3, 1, 3, 1, 0, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(1, 4);
  net.emplace<nn::Flatten>();
  const std::size_t flat = c3 * (length / 64);
  const std::size_t f1 = paper ? 256 : 128, f2 = paper ? 128 : 64;
  net.emplace<nn::Dense>(flat, f1, rng);
  net.emplace<nn::Relu>();
  if (cfg.dropout > 0.0) net.emplace<nn::Dropout>(cfg.dropout, rng());
  net.emplace<nn::Dense>(f1, f2, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(f2, cfg.classes, rng);
  return net;
}

/// "Many fully connected hidden layers" over the flattened sequence.
Network build_fully_connected(const ModelConfig& cfg, util::Rng& rng) {
  const bool paper = cfg.preset == ModelPreset::kPaper;
  const std::size_t input = cfg.channels * cfg.rows * cfg.cols;
  const std::size_t h1 = paper ? 512 : 192, h2 = paper ? 256 : 128,
                    h3 = paper ? 128 : 64;
  Network net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(input, h1, rng);
  net.emplace<nn::Relu>();
  if (cfg.dropout > 0.0) net.emplace<nn::Dropout>(cfg.dropout, rng());
  net.emplace<nn::Dense>(h1, h2, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(h2, h3, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(h3, cfg.classes, rng);
  return net;
}

}  // namespace

nn::Network build_model(const ModelConfig& cfg) {
  if (cfg.rows % 16 != 0 || cfg.cols % 16 != 0)
    throw std::invalid_argument(
        "build_model: rows/cols must be divisible by 16 (four 2x2 pools)");
  util::Rng rng(cfg.seed);
  switch (cfg.kind) {
    case ModelKind::kCnn2d: return build_cnn2d(cfg, rng);
    case ModelKind::kCnn1d: return build_cnn1d(cfg, rng);
    case ModelKind::kFullyConnected: return build_fully_connected(cfg, rng);
  }
  throw std::invalid_argument("build_model: unknown model kind");
}

}  // namespace prionn::core
