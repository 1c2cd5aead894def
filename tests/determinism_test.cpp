// Thread-count independence: every parallel kernel must give the same bits
// at every lane width, so that a run's arithmetic never depends on the
// machine's core count or on how the serving lanes are set. Each product
// and train step below is run at lane width 1 (fully inline) as the
// reference, then at every width up to the pool's size.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_zoo.hpp"
#include "core/predictor.hpp"
#include "nn/conv2d.hpp"
#include "nn/lockstep.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "tensor/gemm.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace t = prionn::tensor;
using prionn::util::ThreadPool;
using LaneWidth = ThreadPool::LaneWidth;

namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Runs `run` at lane widths 1..pool size and expects identical output
/// bytes at every width.
void expect_width_independent(
    const std::function<std::vector<float>()>& run) {
  std::vector<float> reference;
  {
    LaneWidth lanes(1);
    reference = run();
  }
  for (std::size_t width = 2; width <= ThreadPool::global().size();
       ++width) {
    LaneWidth lanes(width);
    const std::vector<float> got = run();
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          got.size() * sizeof(float)),
              0)
        << "lane width " << width;
  }
}

enum class Op { kGemm, kGemmAt, kGemmBt };

struct Product {
  const char* name;
  Op op;
  std::size_t m, k, n;
  float beta;
};

/// C = A * B (+ beta C) with A, B and C stored as each op expects.
std::vector<float> run_product(const Product& p) {
  const auto a = random_floats(p.m * p.k, 1);
  const auto b = random_floats(p.k * p.n, 2);
  auto c = random_floats(p.m * p.n, 3);
  switch (p.op) {
    case Op::kGemm:
      t::gemm(p.m, p.k, p.n, 1.0f, a.data(), b.data(), p.beta, c.data());
      break;
    case Op::kGemmAt:
      t::gemm_at(p.m, p.k, p.n, 1.0f, a.data(), b.data(), p.beta, c.data());
      break;
    case Op::kGemmBt:
      t::gemm_bt(p.m, p.k, p.n, 1.0f, a.data(), b.data(), p.beta, c.data());
      break;
  }
  return c;
}

/// One layer of the kFast 2D-CNN at batch 32 on 64 x 64 images:
/// out channels, patch rows (in channels x 3 x 3) and batch x pixels.
struct ConvShape {
  const char* name;
  std::size_t oc, pr, wide;
};
constexpr ConvShape kConvShapes[] = {
    {"conv1", 4, 4 * 9, 32 * 64 * 64},
    {"conv2", 8, 4 * 9, 32 * 32 * 32},
    {"conv3", 8, 8 * 9, 32 * 16 * 16},
    {"conv4", 16, 8 * 9, 32 * 8 * 8},
};

}  // namespace

TEST(ThreadCountIndependence, ConvProductsAtEveryLaneWidth) {
  for (const auto& s : kConvShapes) {
    // Forward Y = W * cols, backward dW += dY * cols^T and
    // d(cols) = W^T * dY: the three products Conv2d issues.
    const Product products[] = {
        {"forward", Op::kGemm, s.oc, s.pr, s.wide, 0.0f},
        {"dW", Op::kGemmBt, s.oc, s.wide, s.pr, 1.0f},
        {"dcols", Op::kGemmAt, s.pr, s.oc, s.wide, 0.0f},
    };
    for (const auto& p : products) {
      SCOPED_TRACE(std::string(s.name) + " " + p.name);
      expect_width_independent([&] { return run_product(p); });
    }
  }
}

TEST(ThreadCountIndependence, DenseProductsAtEveryLaneWidth) {
  // The kFast head at batch 32 (forward X * W^T, backward dW += dY^T * X
  // and dX = dY * W), plus a tall product and a deep one big enough to
  // split by kMR row tiles and by kKC depth blocks.
  const Product products[] = {
      {"fc1 forward", Op::kGemmBt, 32, 256, 128, 0.0f},
      {"fc1 dW", Op::kGemmAt, 128, 32, 256, 1.0f},
      {"fc1 dX", Op::kGemm, 32, 128, 256, 0.0f},
      {"out forward", Op::kGemmBt, 32, 64, 960, 0.0f},
      {"out dW", Op::kGemmAt, 960, 32, 64, 1.0f},
      {"out dX", Op::kGemm, 32, 960, 64, 0.0f},
      {"tall", Op::kGemm, 1024, 96, 64, 0.5f},
      {"deep", Op::kGemmBt, 32, 4096, 256, 0.0f},
  };
  for (const auto& p : products) {
    SCOPED_TRACE(p.name);
    expect_width_independent([&] { return run_product(p); });
  }
}

namespace {

/// One Adam step of a kFast zoo model at batch 32: the loss's bits, every
/// gradient, every updated weight, then the logits of the next forward
/// pass must not depend on the lane width.
void expect_train_batch_width_independent(prionn::core::ModelKind kind) {
  prionn::core::ModelConfig config;
  config.kind = kind;
  config.preset = prionn::core::ModelPreset::kFast;
  const std::size_t batch = 32;
  // The 1D-CNN reads the grid as one (C, 1, rows * cols) row.
  const t::Shape shape =
      kind == prionn::core::ModelKind::kCnn1d
          ? t::Shape{batch, config.channels, 1, config.rows * config.cols}
          : t::Shape{batch, config.channels, config.rows, config.cols};
  t::Tensor x(shape, random_floats(batch * config.channels * config.rows *
                                       config.cols,
                                   4));
  std::vector<std::uint32_t> y(batch);
  for (std::size_t i = 0; i < batch; ++i)
    y[i] = static_cast<std::uint32_t>((i * 37) % config.classes);

  expect_width_independent([&] {
    prionn::nn::Network net = prionn::core::build_model(config);
    prionn::nn::Adam opt(1e-3);
    const double loss = net.train_batch(x, y, opt);
    std::vector<float> out(sizeof loss / sizeof(float));
    std::memcpy(out.data(), &loss, sizeof loss);
    for (const auto* g : net.gradients())
      out.insert(out.end(), g->data(), g->data() + g->size());
    for (const auto* p : net.parameters())
      out.insert(out.end(), p->data(), p->data() + p->size());
    const t::Tensor logits = net.forward(x, /*training=*/false);
    out.insert(out.end(), logits.data(), logits.data() + logits.size());
    return out;
  });
}

}  // namespace

TEST(ThreadCountIndependence, Cnn2dTrainBatchAtEveryLaneWidth) {
  expect_train_batch_width_independent(prionn::core::ModelKind::kCnn2d);
}

TEST(ThreadCountIndependence, Cnn1dTrainBatchAtEveryLaneWidth) {
  expect_train_batch_width_independent(prionn::core::ModelKind::kCnn1d);
}

namespace {

/// A conv layer position: in and out channels, a square image side and
/// the kernel, stride and padding.
struct ConvLayer {
  const char* name;
  std::size_t in_c, out_c, height, width, kernel_h, kernel_w, stride, pad,
      batch;
};

/// The four kPaper conv positions at batch 32 on 64 x 64 grids, and an odd
/// geometry whose rows, panels and depth blocks never line up (13 x 17,
/// 32 channels so the patch matrix has more than one depth block).
constexpr ConvLayer kConvLayers[] = {
    {"paper conv1", 4, 8, 64, 64, 3, 3, 1, 1, 32},
    {"paper conv2", 8, 16, 32, 32, 3, 3, 1, 1, 32},
    {"paper conv3", 16, 16, 16, 16, 3, 3, 1, 1, 32},
    {"paper conv4", 16, 32, 8, 8, 3, 3, 1, 1, 32},
    {"odd 5x3", 32, 6, 13, 17, 5, 3, 1, 2, 33},
    {"odd 3x3 stride 2", 32, 6, 13, 17, 3, 3, 2, 1, 33},
};

prionn::nn::Conv2d make_conv(const ConvLayer& l) {
  prionn::util::Rng rng(5);
  return prionn::nn::Conv2d(l.in_c, l.out_c, l.kernel_h, l.kernel_w, l.stride,
                            l.pad, l.pad, rng);
}

t::Tensor conv_input(const ConvLayer& l) {
  return t::Tensor({l.batch, l.in_c, l.height, l.width},
                   random_floats(l.batch * l.in_c * l.height * l.width, 6));
}

}  // namespace

TEST(ThreadCountIndependence, ImplicitConvForwardAtEveryLaneWidth) {
  for (const auto& l : kConvLayers) {
    SCOPED_TRACE(l.name);
    const t::Tensor x = conv_input(l);
    expect_width_independent([&] {
      prionn::nn::Conv2d conv = make_conv(l);
      const t::Tensor y = conv.forward(x, /*training=*/true);
      return std::vector<float>(y.data(), y.data() + y.size());
    });
  }
}

TEST(ThreadCountIndependence, ImplicitConvBackwardAtEveryLaneWidth) {
  for (const auto& l : kConvLayers) {
    SCOPED_TRACE(l.name);
    const t::Tensor x = conv_input(l);
    expect_width_independent([&] {
      prionn::nn::Conv2d conv = make_conv(l);
      const t::Tensor y = conv.forward(x, /*training=*/true);
      // The output doubles as the incoming gradient: dW, db, then dX.
      const t::Tensor dx = conv.backward(y);
      std::vector<float> out;
      for (const auto* g : conv.gradients())
        out.insert(out.end(), g->data(), g->data() + g->size());
      out.insert(out.end(), dx.data(), dx.data() + dx.size());
      return out;
    });
  }
}

namespace {

/// A 3-head word2vec 2D-CNN predictor small enough to train in a test.
prionn::core::PredictorOptions small_predictor_options() {
  prionn::core::PredictorOptions o;
  o.image.rows = o.image.cols = 16;
  o.image.transform = prionn::core::Transform::kWord2Vec;
  o.runtime_bins = 64;
  o.io_bins = 16;
  o.epochs = 2;
  o.predict_io = true;
  return o;
}

std::vector<prionn::trace::JobRecord> small_jobs(std::size_t n) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(n + n / 8, 2016));
  return prionn::trace::completed_jobs(gen.generate());
}

std::vector<std::string> scripts_of(
    const std::vector<prionn::trace::JobRecord>& jobs) {
  std::vector<std::string> scripts;
  for (const auto& job : jobs) scripts.push_back(job.script);
  return scripts;
}

std::string predictor_bytes(const prionn::core::PrionnPredictor& p) {
  std::ostringstream os(std::ios::binary);
  p.save(os);
  return std::move(os).str();
}

}  // namespace

// PrionnPredictor trains and queries its three heads side by side over the
// calling thread's lanes; the lane width must change where each head runs,
// never what it computes.
TEST(ThreadCountIndependence, PredictorHeadsAtEveryLaneWidth) {
  const auto jobs = small_jobs(48);
  const auto scripts = scripts_of(jobs);
  std::string reference_bytes;
  std::vector<prionn::core::ConfidentPrediction> reference;
  for (std::size_t width = 1; width <= 4; ++width) {
    SCOPED_TRACE("lane width " + std::to_string(width));
    const LaneWidth lanes(width);
    prionn::core::PrionnPredictor p(small_predictor_options());
    p.fit_embedding(scripts);
    p.train(jobs);
    const std::string bytes = predictor_bytes(p);
    const auto got = p.predict_batch(scripts);
    if (width == 1) {
      reference_bytes = bytes;
      reference = got;
      continue;
    }
    EXPECT_TRUE(bytes == reference_bytes) << "save() bytes differ";
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value.runtime_minutes,
                reference[i].value.runtime_minutes);
      EXPECT_EQ(got[i].value.bytes_read, reference[i].value.bytes_read);
      EXPECT_EQ(got[i].value.bytes_written,
                reference[i].value.bytes_written);
      EXPECT_EQ(got[i].runtime_confidence, reference[i].runtime_confidence);
      EXPECT_EQ(got[i].read_confidence, reference[i].read_confidence);
      EXPECT_EQ(got[i].write_confidence, reference[i].write_confidence);
    }
  }
}

// Heads running side by side share the caller's lanes: each gets
// ceil(lanes / heads) for its own GEMMs and per-sample loops. A lone head
// (predict_io = false), or any head under a one-lane caller, keeps the
// caller's lanes.
TEST(ThreadCountIndependence, LoneHeadKeepsTheCallersLanes) {
  for (std::size_t width = 1; width <= ThreadPool::global().size();
       ++width) {
    SCOPED_TRACE("lane width " + std::to_string(width));
    const LaneWidth lanes(width);
    const std::size_t caller_lanes = ThreadPool::global().lanes();

    std::size_t lone_lanes = 0;
    prionn::nn::for_each_head(
        1, [&](std::size_t) { lone_lanes = ThreadPool::global().lanes(); });
    EXPECT_EQ(lone_lanes, caller_lanes);

    std::vector<std::size_t> head_lanes(3, 0);
    prionn::nn::for_each_head(3, [&](std::size_t h) {
      head_lanes[h] = ThreadPool::global().lanes();
    });
    for (std::size_t h = 0; h < 3; ++h)
      EXPECT_EQ(head_lanes[h], (caller_lanes + 2) / 3) << "head " << h;
    EXPECT_EQ(ThreadPool::global().lanes(), caller_lanes);
  }
}

// When several heads diverge at once, train() rethrows the runtime head's
// TrainingDiverged whichever head finishes first, and leaves the caller's
// lane width as it found it.
TEST(ThreadCountIndependence, DivergingHeadsRethrowTheRuntimeHeads) {
  const auto jobs = small_jobs(32);
  const auto scripts = scripts_of(jobs);
  auto options = small_predictor_options();
  // Every head's first step trips this, each with its own gradient norm
  // in the message.
  options.max_gradient_norm = 1e-12;

  // The runtime head alone: the message names its own gradient norm.
  auto runtime_only = options;
  runtime_only.predict_io = false;
  std::string runtime_message;
  {
    prionn::core::PrionnPredictor p(runtime_only);
    p.fit_embedding(scripts);
    try {
      p.train(jobs);
    } catch (const prionn::nn::TrainingDiverged& e) {
      runtime_message = e.what();
    }
  }
  ASSERT_FALSE(runtime_message.empty());

  for (std::size_t width = 1; width <= 4; ++width) {
    SCOPED_TRACE("lane width " + std::to_string(width));
    const LaneWidth lanes(width);
    const std::size_t expected_lanes = ThreadPool::global().lanes();
    for (int attempt = 0; attempt < 3; ++attempt) {
      prionn::core::PrionnPredictor p(options);
      p.fit_embedding(scripts);
      try {
        p.train(jobs);
        ADD_FAILURE() << "train() did not throw";
      } catch (const prionn::nn::TrainingDiverged& e) {
        EXPECT_EQ(std::string(e.what()), runtime_message);
      }
      EXPECT_EQ(ThreadPool::global().lanes(), expected_lanes);
    }
  }
}
