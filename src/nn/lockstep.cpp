#include "nn/lockstep.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace prionn::nn {

void for_each_head(std::size_t heads,
                   const std::function<void(std::size_t)>& head) {
  std::vector<std::exception_ptr> errors(heads);
  const auto run = [&](std::size_t i) {
    try {
      head(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  auto& pool = util::ThreadPool::global();
  const std::size_t lanes = pool.lanes();
  if (heads > 1 && lanes > 1) {
    // Each head's own loops split ceil(lanes / heads) ways; the pool gives
    // a chunk to whichever thread is idle, such as a spare lane or one
    // whose head has finished.
    const std::size_t width = (lanes + heads - 1) / heads;
    pool.parallel_for(0, heads, [&](std::size_t i) {
      const util::ThreadPool::LaneWidth head_lanes(width);
      run(i);
    });
  } else {
    for (std::size_t i = 0; i < heads; ++i) run(i);
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

namespace {

/// Gather rows `idx` of a batch tensor into a contiguous sub-batch.
Tensor gather(const Tensor& batch, std::span<const std::size_t> idx) {
  const std::size_t sample = batch.size() / batch.dim(0);
  Shape shape = batch.shape();
  shape[0] = idx.size();
  Tensor out(std::move(shape));
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::copy_n(batch.data() + idx[i] * sample, sample,
                out.data() + i * sample);
  return out;
}

}  // namespace

/// The driver over a fixed set of networks. Heads are indexed by their
/// position in `nets`; a step runs a subset of them (the ones still in
/// the lockstep).
class Lockstep {
 public:
  explicit Lockstep(std::span<Network* const> nets)
      : nets_(nets.begin(), nets.end()) {
    for (Network* net : nets_) {
      auto* conv = net->layers_.empty()
                       ? nullptr
                       : dynamic_cast<Conv2d*>(net->layers_.front().get());
      if (!conv || (!convs_.empty() && !conv->stacks_with(*convs_.front()))) {
        convs_.clear();
        return;
      }
      convs_.push_back(conv);
    }
  }

  /// Forward of every network over x.
  std::vector<Tensor> forward(const Tensor& x, bool training) {
    std::vector<std::size_t> heads(nets_.size());
    std::iota(heads.begin(), heads.end(), 0);
    std::vector<Tensor> acts = forward0(heads, x);
    for_each_head(heads.size(), [&](std::size_t h) {
      acts[h] = nets_[h]->forward_layers(
          stacked() ? std::move(acts[h]) : Tensor(x), first(), training);
    });
    return acts;
  }

  /// One optimiser step of the networks `heads` on the mini-batch x, with
  /// labels[h], opts[h]. Sets loss[h], or errors[h] for a network whose
  /// loss or guard threw; such a network's weights and optimiser are left
  /// untouched.
  void step(std::span<const std::size_t> heads, const Tensor& x,
            std::span<const std::vector<std::uint32_t>> labels,
            std::span<Optimizer* const> opts, const FitOptions& options,
            std::span<double> loss, std::span<std::exception_ptr> errors) {
    std::vector<Tensor> acts = forward0(heads, x);
    // Layers first()..L forward, the loss and layers L..first() backward;
    // acts[h] ends as the gradient w.r.t. layer 0's output when stacked.
    for_each_head(heads.size(), [&](std::size_t k) {
      const std::size_t h = heads[k];
      Network& net = *nets_[h];
      try {
        net.zero_gradients();
        const Tensor logits = net.forward_layers(
            stacked() ? std::move(acts[h]) : Tensor(x), first(), true);
        LossResult result = softmax_cross_entropy(logits, labels[h]);
        loss[h] = result.value;
        acts[h] = net.backward_layers(std::move(result.grad), first(),
                                      /*input_gradient=*/stacked());
      } catch (...) {
        errors[h] = std::current_exception();
      }
    });
    std::vector<std::size_t> live;
    for (const std::size_t h : heads)
      if (!errors[h]) live.push_back(h);
    if (stacked() && !live.empty()) {
      std::vector<Conv2d*> convs;
      std::vector<const Tensor*> grads;
      for (const std::size_t h : live) {
        convs.push_back(convs_[h]);
        grads.push_back(&acts[h]);
      }
      const bool timed = obs::layer_timing_enabled();
      const std::uint64_t t0 = timed ? util::Timer::now_ns() : 0;
      Conv2d::backward_parameters_stacked(convs, x, grads);
      if (timed)
        layer0(live.front()).backward->inc(util::Timer::now_ns() - t0);
    }
    for_each_head(live.size(), [&](std::size_t k) {
      const std::size_t h = live[k];
      try {
        nets_[h]->apply_gradients(*opts[h], options.gradient_clip,
                                  options.max_gradient_norm);
      } catch (...) {
        errors[h] = std::current_exception();
      }
    });
  }

 private:
  bool stacked() const noexcept { return !convs_.empty(); }
  /// The first layer the fork runs.
  std::size_t first() const noexcept { return stacked() ? 1 : 0; }

  /// The stacked layer-0 forward of `heads`: outputs indexed by head, or
  /// all empty when layer 0 does not stack.
  std::vector<Tensor> forward0(std::span<const std::size_t> heads,
                               const Tensor& x) {
    std::vector<Tensor> acts(nets_.size());
    if (!stacked() || heads.empty()) return acts;
    std::vector<Conv2d*> convs;
    for (const std::size_t h : heads) convs.push_back(convs_[h]);
    const bool timed = obs::layer_timing_enabled();
    const std::uint64_t t0 = timed ? util::Timer::now_ns() : 0;
    std::vector<Tensor> out = Conv2d::forward_stacked(convs, x);
    if (timed) layer0(heads.front()).forward->inc(util::Timer::now_ns() - t0);
    for (std::size_t k = 0; k < heads.size(); ++k)
      acts[heads[k]] = std::move(out[k]);
    return acts;
  }

  /// Layer 0's timing counters. They are named by position and kind, so
  /// every network's layer-0 counters are the same pair: a stacked call
  /// adds its wall time there once.
  const Network::LayerCounters& layer0(std::size_t h) {
    return nets_[h]->layer_counters().front();
  }

  std::vector<Network*> nets_;
  /// Each network's layer 0, when all of them are Conv2d's that stack with
  /// each other; empty otherwise.
  std::vector<Conv2d*> convs_;
};

std::vector<FitReport> fit_lockstep(std::span<const FitHead> heads,
                                    const Tensor& inputs,
                                    const FitOptions& options) {
  const std::size_t n = inputs.dim(0);
  for (const FitHead& head : heads)
    if (head.labels.size() != n)
      throw std::invalid_argument("Network::fit: label count mismatch");
  if (options.batch_size == 0)
    throw std::invalid_argument("Network::fit: batch_size must be > 0");

  const std::size_t count = heads.size();
  std::vector<Network*> nets;
  std::vector<Optimizer*> opts;
  for (const FitHead& head : heads) {
    nets.push_back(head.net);
    opts.push_back(head.opt);
  }
  Lockstep lockstep(nets);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(options.shuffle_seed);

  std::vector<FitReport> reports(count);
  std::vector<double> base_lr(count), best_loss(count), loss(count),
      loss_sum(count);
  std::vector<std::size_t> epochs_without_improvement(count, 0);
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::vector<std::uint32_t>> labels(count);
  for (std::size_t h = 0; h < count; ++h) {
    reports[h].epoch_loss.reserve(options.epochs);
    base_lr[h] = opts[h]->learning_rate();
    best_loss[h] = std::numeric_limits<double>::infinity();
  }
  // Heads still in the lockstep, in index order.
  std::vector<std::size_t> active(count);
  std::iota(active.begin(), active.end(), 0);

  for (std::size_t epoch = 0; epoch < options.epochs && !active.empty();
       ++epoch) {
    if (options.shuffle) rng.shuffle(order);
    std::fill(loss_sum.begin(), loss_sum.end(), 0.0);
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n && !active.empty();
         start += options.batch_size) {
      const std::size_t rows = std::min(options.batch_size, n - start);
      const std::span<const std::size_t> idx(order.data() + start, rows);
      const Tensor x = gather(inputs, idx);
      for (const std::size_t h : active) {
        labels[h].resize(rows);
        for (std::size_t i = 0; i < rows; ++i)
          labels[h][i] = heads[h].labels[idx[i]];
      }
      lockstep.step(active, x, labels, opts, options, loss, errors);
      std::erase_if(active, [&](std::size_t h) { return !!errors[h]; });
      for (const std::size_t h : active) loss_sum[h] += loss[h];
      ++batches;
    }
    // Heads that early-stop leave after their epoch.
    std::vector<std::size_t> continuing;
    for (const std::size_t h : active) {
      const double epoch_loss =
          batches ? loss_sum[h] / static_cast<double>(batches) : 0.0;
      reports[h].epoch_loss.push_back(epoch_loss);

      if (options.lr_decay_per_epoch != 1.0)
        opts[h]->set_learning_rate(opts[h]->learning_rate() *
                                   options.lr_decay_per_epoch);
      if (options.early_stop_patience > 0) {
        if (epoch_loss < best_loss[h] - options.min_loss_delta) {
          best_loss[h] = epoch_loss;
          epochs_without_improvement[h] = 0;
        } else if (++epochs_without_improvement[h] >=
                   options.early_stop_patience) {
          continue;
        }
      }
      continuing.push_back(h);
    }
    active = std::move(continuing);
  }
  // A head that threw leaves fit() by its exception, which does not
  // restore the base rate; every other head returns and does.
  for (std::size_t h = 0; h < count; ++h)
    if (!errors[h] && options.lr_decay_per_epoch != 1.0)
      opts[h]->set_learning_rate(base_lr[h]);
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return reports;
}

std::vector<Tensor> forward_lockstep(std::span<Network* const> nets,
                                     const Tensor& batch, bool training) {
  return Lockstep(nets).forward(batch, training);
}

}  // namespace prionn::nn
