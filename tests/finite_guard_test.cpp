// Regression tests for the finite-loss contract: adversarial script-image
// batches (all-zero, huge-magnitude, NaN-poisoned) must either train to a
// finite loss or throw nn::TrainingDiverged at the loss — NaN must never
// propagate into predictions. Divergence is a *recoverable* fault (the
// serving layer discards the diverged model and keeps the last good
// one), which is why these are exception tests rather than death tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/script_image.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace {

using prionn::core::ScriptImageMapper;
using prionn::core::ScriptImageOptions;
using prionn::core::Transform;
using prionn::nn::Network;
using prionn::tensor::Tensor;

constexpr std::size_t kGrid = 8;
constexpr std::size_t kClasses = 4;

Network tiny_classifier() {
  prionn::util::Rng rng(7);
  Network net;
  net.emplace<prionn::nn::Flatten>();
  net.emplace<prionn::nn::Dense>(kGrid * kGrid, 16, rng);
  net.emplace<prionn::nn::Relu>();
  net.emplace<prionn::nn::Dense>(16, kClasses, rng);
  return net;
}

Tensor script_batch(const std::vector<std::string>& scripts) {
  const ScriptImageMapper mapper(
      ScriptImageOptions{kGrid, kGrid, Transform::kBinary});
  return mapper.map_batch_2d(scripts);
}

std::vector<std::uint32_t> cycling_labels(std::size_t n) {
  std::vector<std::uint32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<std::uint32_t>(i % kClasses);
  return labels;
}

prionn::nn::FitOptions fit_options() {
  prionn::nn::FitOptions options;
  options.epochs = 5;
  options.batch_size = 4;
  return options;
}

TEST(FiniteGuardTest, AllZeroImagesTrainToFiniteLossAndFinitePredictions) {
  // Empty scripts map to all-space grids, i.e. all-zero binary images.
  const std::vector<std::string> scripts(8, "");
  const Tensor batch = script_batch(scripts);
  for (std::size_t i = 0; i < batch.size(); ++i) ASSERT_EQ(batch[i], 0.0f);

  Network net = tiny_classifier();
  prionn::nn::Adam opt(1e-3);
  const auto report =
      net.fit(batch, cycling_labels(scripts.size()), opt, fit_options());
  for (const double loss : report.epoch_loss)
    EXPECT_TRUE(std::isfinite(loss)) << "epoch loss diverged";

  const Tensor probs = net.predict_probabilities(batch);
  for (std::size_t i = 0; i < probs.size(); ++i)
    EXPECT_TRUE(std::isfinite(probs[i])) << "prediction " << i;
}

TEST(FiniteGuardTest, NanPoisonedImagesTripTheLossGuard) {
  std::vector<std::string> scripts(8, "#!/bin/bash\nsrun ./app\n");
  Tensor batch = script_batch(scripts);
  batch[3] = std::numeric_limits<float>::quiet_NaN();
  batch[batch.size() - 1] = std::numeric_limits<float>::quiet_NaN();

  Network net = tiny_classifier();
  prionn::nn::Adam opt(1e-3);
  const auto labels = cycling_labels(scripts.size());
  EXPECT_THROW(net.fit(batch, labels, opt, fit_options()),
               prionn::nn::TrainingDiverged);
}

TEST(FiniteGuardTest, HugeMagnitudeImagesThrowInsteadOfPoisoningWeights) {
  std::vector<std::string> scripts(8, "#!/bin/bash\n");
  Tensor batch = script_batch(scripts);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i] = 1e30f;

  // The first batches stay representable, but the gradient steps blow the
  // weights up until the logits overflow float; the loss guard must stop
  // training at that point rather than let NaN weights serve predictions.
  Network net = tiny_classifier();
  prionn::nn::Sgd opt(0.1);
  const auto labels = cycling_labels(scripts.size());
  prionn::nn::FitOptions options = fit_options();
  options.epochs = 50;
  EXPECT_THROW(net.fit(batch, labels, opt, options),
               prionn::nn::TrainingDiverged);
}

}  // namespace
