// Per-layer probes of the traced run. Each layer is driven through its
// public functions at fixed sizes and timed from outside:
//
//   nn      nn::Network::layer(i).forward/backward per layer position of
//           the 2D-CNN (batch 32 train step, batch 1 inference)
//   tensor  tensor::gemm and tensor::im2col_strided at the four conv shapes
//   core    PrionnPredictor::{fit_embedding, train, map_sample,
//           predict_batch_mapped}
//   ml      FallbackPredictor::fit_baseline and its RF predictions
//   trace   trace::WorkloadGenerator::generate
//   sched   submit + snapshot_turnaround (unless the workload measured it)
//
// It also prints the computed cost model: analytic FLOPs and bytes per nn
// position and per kernel shape, and the measured-over-model residual.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fallback.hpp"
#include "core/model_zoo.hpp"
#include "core/predictor.hpp"
#include "nn/network.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "trace/workload.hpp"
#include "turnaround.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using prionn::tensor::Shape;
using prionn::tensor::Tensor;

std::size_t elems(const Shape& s) {
  std::size_t n = 1;
  for (const auto d : s) n *= d;
  return n;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  prionn::util::Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Median wall time in microseconds of `fn`, over at least `min_reps`
/// calls and at least `min_s` seconds.
template <typename Fn>
double time_us(Fn&& fn, int min_reps, double min_s) {
  std::vector<double> us;
  const double stop = now_s() + min_s;
  for (int i = 0; i < min_reps || now_s() < stop; ++i) {
    const double t0 = now_s();
    fn();
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

/// Analytic cost of one layer position for a batch of n: FLOPs of the
/// forward pass (backward taken as twice that for conv2d/dense, once for
/// the element-wise layers) and bytes of tensors read and written.
struct LayerCost {
  double fwd_flops = 0.0, bwd_flops = 0.0;
  double fwd_bytes = 0.0, bwd_bytes = 0.0;
};

LayerCost layer_cost(const std::string& kind, const Shape& in,
                     const Shape& out, std::size_t params, std::size_t n) {
  const double b = static_cast<double>(n);
  const double in_e = static_cast<double>(elems(in)) * b;
  const double out_e = static_cast<double>(elems(out)) * b;
  const double w = static_cast<double>(params);
  LayerCost c;
  if (kind == "conv2d") {
    const double taps = static_cast<double>(in[0]) * 9.0;  // Cin x 3 x 3
    c.fwd_flops = 2.0 * out_e * taps;
    c.bwd_flops = 2.0 * c.fwd_flops;
    // input, weights, output, plus the lowered patch matrix written and
    // read once (im2col multiplies the input traffic by the tap count).
    const double cols = out_e / static_cast<double>(out[0]) * taps;
    c.fwd_bytes = 4.0 * (in_e + w + out_e + 2.0 * cols);
    c.bwd_bytes = 4.0 * (2.0 * in_e + 2.0 * w + out_e + 4.0 * cols);
  } else if (kind == "dense") {
    c.fwd_flops = 2.0 * b * static_cast<double>(elems(in)) *
                  static_cast<double>(elems(out));
    c.bwd_flops = 2.0 * c.fwd_flops;
    c.fwd_bytes = 4.0 * (in_e + w + out_e);
    c.bwd_bytes = 4.0 * (2.0 * in_e + 2.0 * w + out_e);
  } else {
    c.fwd_flops = std::max(in_e, out_e);
    c.bwd_flops = c.fwd_flops;
    c.fwd_bytes = 4.0 * (in_e + out_e);
    c.bwd_bytes = 4.0 * (2.0 * out_e + in_e);
  }
  return c;
}

struct ConvShape {
  std::size_t cin, cout, hw;
};

/// The four conv positions of the kFast 2D-CNN on a g x g grid.
std::vector<ConvShape> conv_shapes(std::size_t grid) {
  return {{4, 4, grid}, {4, 8, grid / 2}, {8, 8, grid / 4},
          {8, 16, grid / 8}};
}

struct Calibration {
  double gflops = 0.0;  // best measured GEMM rate
  double gbps = 0.0;    // measured copy bandwidth (read + write)
};

/// Copy bandwidth of a buffer larger than the caches, in GB/s of bytes
/// read plus written: the byte term of the cost model.
double copy_gbps(const Config& cfg) {
  const std::size_t n = (cfg.smoke ? 1u : 8u) << 20;  // floats
  std::vector<float> a(n, 1.0f), b(n, 0.0f);
  const double us = time_us(
      [&] {
        std::copy(a.begin(), a.end(), b.begin());
        a[n / 2] = b[n / 3];  // keep the copy observable
      },
      5, cfg.smoke ? 0.01 : 0.1);
  return 8.0 * static_cast<double>(n) / us / 1e3;
}

Calibration probe_tensor(const Config& cfg, std::size_t grid,
                         std::size_t batch, Recorder& rec) {
  Calibration cal;
  cal.gbps = copy_gbps(cfg);
  const double min_s = cfg.smoke ? 0.01 : 0.15;
  int k = 1;
  for (const auto& s : conv_shapes(grid)) {
    prionn::tensor::Conv2dGeom g;
    g.channels = s.cin;
    g.height = g.width = s.hw;
    g.pad_h = g.pad_w = 1;
    const std::size_t pr = g.patch_rows(), pixels = g.patch_cols();
    const std::size_t wide = batch * pixels;
    const Tensor image = random_tensor({batch, s.cin, s.hw, s.hw}, 7 + k);
    const Tensor weight = random_tensor({s.cout, pr}, 11 + k);
    std::vector<float> cols(pr * wide), out(s.cout * wide);
    const std::size_t in_stride = s.cin * s.hw * s.hw;
    const double im2col_us = time_us(
        [&] {
          for (std::size_t n = 0; n < batch; ++n)
            prionn::tensor::im2col_strided(g, image.data() + n * in_stride,
                                           cols.data() + n * pixels, wide);
        },
        5, min_s);
    const double gemm_us = time_us(
        [&] {
          prionn::tensor::gemm(s.cout, pr, wide, 1.0f, weight.data(),
                               cols.data(), 0.0f, out.data());
        },
        5, min_s);
    const double flops = 2.0 * static_cast<double>(s.cout * pr * wide);
    const double bytes =
        4.0 * static_cast<double>(batch * in_stride + pr * wide);
    const double gflops = flops / gemm_us / 1e3;
    const double gbps = bytes / im2col_us / 1e3;
    cal.gflops = std::max(cal.gflops, gflops);
    const std::string conv = "conv" + std::to_string(k);
    rec.set("tensor.gemm." + conv + ".gflops", gflops, "GFLOP/s", 1);
    rec.set("tensor.im2col." + conv + ".gbps_computed", gbps, "GB/s", 1);
    std::printf("costmodel tensor.gemm.%s m=%zu k=%zu n=%zu flops=%.4g "
                "(computed) measured_us=%.2f\n",
                conv.c_str(), s.cout, pr, wide, flops, gemm_us);
    std::printf("costmodel tensor.im2col.%s bytes=%.4g (computed) "
                "measured_us=%.2f\n",
                conv.c_str(), bytes, im2col_us);
    ++k;
  }
  return cal;
}

void probe_nn(const Config& cfg, std::size_t grid, std::size_t batch,
              const Calibration& cal, Recorder& rec) {
  prionn::core::ModelConfig mc;
  mc.kind = prionn::core::ModelKind::kCnn2d;
  mc.preset = prionn::core::ModelPreset::kFast;
  mc.channels = 4;
  mc.rows = mc.cols = grid;
  mc.classes = 960;
  mc.dropout = 0.05;
  prionn::nn::Network net = prionn::core::build_model(mc);
  const std::size_t depth = net.depth();
  const int reps = cfg.smoke ? 2 : 7;

  std::vector<Shape> in_shape(depth), out_shape(depth);
  Shape s{4, grid, grid};
  for (std::size_t i = 0; i < depth; ++i) {
    in_shape[i] = s;
    s = net.layer(i).output_shape(s);
    out_shape[i] = s;
  }

  // Train-step shape: forward then backward through every position.
  std::vector<std::vector<double>> fwd(depth), bwd(depth), fwd1(depth);
  const Tensor input = random_tensor({batch, 4, grid, grid}, 3);
  Shape grad_shape{batch};
  for (const auto d : out_shape.back()) grad_shape.push_back(d);
  const Tensor grad = random_tensor(grad_shape, 5);
  for (int r = 0; r < reps; ++r) {
    Tensor x = input;
    for (std::size_t i = 0; i < depth; ++i) {
      const double t0 = now_s();
      x = net.layer(i).forward(x, true);
      fwd[i].push_back((now_s() - t0) * 1e6);
    }
    Tensor g = grad;
    for (std::size_t i = depth; i-- > 0;) {
      const double t0 = now_s();
      g = net.layer(i).backward(g);
      bwd[i].push_back((now_s() - t0) * 1e6);
    }
    net.zero_gradients();
  }
  // Inference shape: one sample, no dropout.
  const Tensor one = random_tensor({1, 4, grid, grid}, 9);
  for (int r = 0; r < reps * 3; ++r) {
    Tensor x = one;
    for (std::size_t i = 0; i < depth; ++i) {
      const double t0 = now_s();
      x = net.layer(i).forward(x, false);
      fwd1[i].push_back((now_s() - t0) * 1e6);
    }
  }

  double step_us = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string kind = net.layer(i).kind();
    char prefix[48];
    std::snprintf(prefix, sizeof prefix, "nn.%02zu.%s", i, kind.c_str());
    const std::string p = prefix;
    const double f = median(fwd[i]), b = median(bwd[i]);
    step_us += f + b;
    rec.set(p + ".fwd_us", f, "us", fwd[i].size());
    rec.set(p + ".bwd_us", b, "us", bwd[i].size());
    rec.set(p + ".fwd_us.b1", median(fwd1[i]), "us", fwd1[i].size());
    const LayerCost c = layer_cost(kind, in_shape[i], out_shape[i],
                                   net.layer(i).parameter_count(), batch);
    if (kind == "conv2d" || kind == "dense")
      rec.set(p + ".gflops", (c.fwd_flops + c.bwd_flops) / (f + b) / 1e3,
              "GFLOP/s", fwd[i].size());
    // Computed model: compute at the best GEMM rate plus traffic at the
    // copy bandwidth, for the whole train step of this position.
    const double model_us = (c.fwd_flops + c.bwd_flops) / (cal.gflops * 1e3) +
                            (c.fwd_bytes + c.bwd_bytes) / (cal.gbps * 1e3);
    std::printf("costmodel %-24s flops=%-10.4g bytes=%-10.4g (computed) "
                "model_us=%-10.2f measured_us=%-10.2f residual=%.2f\n",
                p.c_str(), c.fwd_flops + c.bwd_flops,
                c.fwd_bytes + c.bwd_bytes, model_us, f + b,
                model_us > 0.0 ? (f + b) / model_us : 0.0);
  }
  rec.set("nn.train_step_ms", step_us / 1e3, "ms",
          static_cast<std::size_t>(reps));
}

void probe_core(const Config& cfg, std::size_t grid,
                const std::vector<prionn::trace::JobRecord>& jobs,
                Recorder& rec) {
  prionn::core::PredictorOptions o;
  o.image.transform = prionn::core::Transform::kWord2Vec;
  o.image.rows = o.image.cols = grid;
  o.preset = prionn::core::ModelPreset::kFast;
  o.epochs = 1;
  prionn::core::PrionnPredictor predictor(o);
  const std::size_t corpus_n = std::min<std::size_t>(jobs.size(), 500);
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < corpus_n; ++i) corpus.push_back(jobs[i].script);
  double t0 = now_s();
  predictor.fit_embedding(corpus);
  rec.set("embed.fit_ms", (now_s() - t0) * 1e3, "ms", 1);

  const std::size_t train_n = cfg.smoke ? 32 : 128;
  const std::vector<prionn::trace::JobRecord> window(
      jobs.begin(), jobs.begin() + static_cast<long>(train_n));
  t0 = now_s();
  predictor.train(window);
  const double train_s = now_s() - t0;
  rec.set("core.train_s", train_s, "s", 1);
  rec.set("core.train_samples_per_s", static_cast<double>(train_n) / train_s,
          "1/s", 1);

  std::vector<double> map_us;
  std::vector<Tensor> samples;
  for (std::size_t i = 0; i < std::min<std::size_t>(jobs.size(), 200); ++i) {
    t0 = now_s();
    samples.push_back(predictor.map_sample(jobs[i].script));
    map_us.push_back((now_s() - t0) * 1e6);
  }
  rec.set("core.map_us", median(map_us), "us", map_us.size());

  const auto batch_of = [&](std::size_t n) {
    Shape shape{n};
    for (const auto d : samples[0].shape()) shape.push_back(d);
    Tensor t(shape);
    const std::size_t per = samples[0].size();
    for (std::size_t i = 0; i < n; ++i)
      std::copy_n(samples[i % samples.size()].data(), per,
                  t.data() + i * per);
    return t;
  };
  const double min_s = cfg.smoke ? 0.01 : 0.3;
  const Tensor b1 = batch_of(1), b32 = batch_of(32);
  rec.set("core.predict_us.b1",
          time_us([&] { predictor.predict_batch_mapped(b1); }, 5, min_s), "us",
          1);
  rec.set("core.predict_us.b32",
          time_us([&] { predictor.predict_batch_mapped(b32); }, 3, min_s), "us",
          1);
}

void probe_ml(const std::vector<prionn::trace::JobRecord>& jobs,
              Recorder& rec) {
  prionn::core::FallbackPredictor fallback;
  const auto window_n = std::min<std::size_t>(jobs.size(), 500);
  const std::vector<prionn::trace::JobRecord> window(
      jobs.begin(), jobs.begin() + static_cast<long>(window_n));
  const double t0 = now_s();
  fallback.fit_baseline(window);
  rec.set("ml.rf_fit_ms", (now_s() - t0) * 1e3, "ms", 1);
  std::vector<double> us;
  for (std::size_t i = 0; i < std::min<std::size_t>(jobs.size(), 200); ++i) {
    const double t1 = now_s();
    fallback.predict(nullptr, jobs[i]);
    us.push_back((now_s() - t1) * 1e6);
  }
  rec.set("ml.rf_predict_us", median(us), "us", us.size());
}

}  // namespace

void run_probes(const Config& cfg, Recorder& rec) {
  const std::size_t grid = cfg.smoke ? 16 : 64;
  const std::size_t batch = cfg.smoke ? 4 : 32;
  rec.note("probe.nn", "2D-CNN kFast on " + std::to_string(grid) + "x" +
                           std::to_string(grid) + ", batch " +
                           std::to_string(batch) + " and 1");

  std::vector<double> gen_ms;
  std::vector<prionn::trace::JobRecord> jobs;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    prionn::trace::WorkloadGenerator gen(
        prionn::trace::WorkloadOptions::cab(cfg.smoke ? 300 : 2000, cfg.seed));
    jobs = prionn::trace::completed_jobs(gen.generate());
    gen_ms.push_back((now_s() - t0) * 1e3);
  }
  rec.set("trace.generate_ms", median(gen_ms), "ms", gen_ms.size());

  const Calibration cal = probe_tensor(cfg, grid, batch, rec);
  std::printf("costmodel calibration gemm_gflops=%.2f copy_gbps=%.2f "
              "(best GEMM rate, measured copy bandwidth)\n",
              cal.gflops, cal.gbps);
  probe_nn(cfg, grid, batch, cal, rec);
  probe_core(cfg, grid, jobs, rec);
  probe_ml(jobs, rec);
  if (!rec.has("sched.snapshot_us")) {
    Tracer off(false);
    const auto sim = sim_jobs(jobs);
    record_sched_layer(
        sched_pass(sim, contended_nodes(sim, kTargetQueue), off), sim.size(),
        rec);
  }
}

}  // namespace perfbench
