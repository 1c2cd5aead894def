#include "nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "nn/lockstep.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"
#include "util/timer.hpp"

namespace prionn::nn {

Network& Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->parameter_count();
  return n;
}

Shape Network::output_shape(Shape input) const {
  for (const auto& l : layers_) input = l->output_shape(input);
  return input;
}

const std::vector<Network::LayerCounters>& Network::layer_counters() {
  if (layer_counters_.size() != layers_.size()) {
    layer_counters_.resize(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      char position[24];
      std::snprintf(position, sizeof position, "%02zu_", i);
      const std::string layer = position + layers_[i]->kind();
      layer_counters_[i] = {
          &obs::registry().counter(
              "prionn_nn_forward_ns_total_" + layer,
              "accumulated forward time at this layer position, ns"),
          &obs::registry().counter(
              "prionn_nn_backward_ns_total_" + layer,
              "accumulated backward time at this layer position, ns")};
    }
  }
  return layer_counters_;
}

Tensor Network::forward(const Tensor& batch, bool training) {
  return forward_layers(batch, 0, training);
}

Tensor Network::forward_layers(Tensor x, std::size_t first, bool training) {
  // One relaxed load per call while layer timing is off.
  const std::vector<LayerCounters>* counters =
      obs::layer_timing_enabled() ? &layer_counters() : nullptr;
  for (std::size_t i = first; i < layers_.size(); ++i) {
    const std::uint64_t t0 = counters ? util::Timer::now_ns() : 0;
    x = layers_[i]->forward(std::move(x), training);
    if (counters) (*counters)[i].forward->inc(util::Timer::now_ns() - t0);
  }
  return x;
}

Tensor Network::backward(const Tensor& grad_output) {
  return backward_layers(grad_output, 0, /*input_gradient=*/true);
}

Tensor Network::backward_layers(Tensor g, std::size_t first,
                                bool input_gradient) {
  const std::vector<LayerCounters>* counters =
      obs::layer_timing_enabled() ? &layer_counters() : nullptr;
  for (std::size_t i = layers_.size(); i-- > first;) {
    const std::uint64_t t0 = counters ? util::Timer::now_ns() : 0;
    if (i == first && !input_gradient) {
      layers_[i]->backward_parameters(g);
      g = Tensor();
    } else {
      g = layers_[i]->backward(std::move(g));
    }
    if (counters) (*counters)[i].backward->inc(util::Timer::now_ns() - t0);
  }
  return g;
}

void Network::zero_gradients() {
  for (const auto& l : layers_) l->zero_gradients();
}

std::vector<Tensor*> Network::parameters() const {
  std::vector<Tensor*> out;
  for (const auto& l : layers_)
    for (Tensor* p : l->parameters()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Network::gradients() const {
  std::vector<Tensor*> out;
  for (const auto& l : layers_)
    for (Tensor* g : l->gradients()) out.push_back(g);
  return out;
}

void Network::apply_gradients(Optimizer& opt, double gradient_clip,
                              double max_gradient_norm) {
  if (gradient_clip > 0.0) {
    for (Tensor* g : gradients())
      tensor::clip_inplace(g->span(), static_cast<float>(gradient_clip));
  }
  if (max_gradient_norm > 0.0) {
    double sq = 0.0;
    for (const Tensor* g : gradients())
      for (const float v : g->span()) sq += static_cast<double>(v) * v;
    const double norm = std::sqrt(sq);
    if (!std::isfinite(norm) || norm > max_gradient_norm)
      throw TrainingDiverged("Network::train_batch: gradient norm " +
                             std::to_string(norm) + " exceeds limit " +
                             std::to_string(max_gradient_norm));
  }
  opt.step(parameters(), gradients());
}

double Network::train_batch(const Tensor& inputs,
                            std::span<const std::uint32_t> labels,
                            Optimizer& opt, double gradient_clip,
                            double max_gradient_norm) {
  FitOptions one_step;
  one_step.epochs = 1;
  one_step.batch_size = std::max<std::size_t>(inputs.dim(0), 1);
  one_step.shuffle = false;
  one_step.gradient_clip = gradient_clip;
  one_step.max_gradient_norm = max_gradient_norm;
  return fit(inputs, labels, opt, one_step).final_loss();
}

FitReport Network::fit(const Tensor& inputs,
                       std::span<const std::uint32_t> labels, Optimizer& opt,
                       const FitOptions& options) {
  const FitHead head{this, &opt, labels};
  return std::move(fit_lockstep({&head, 1}, inputs, options).front());
}

std::vector<std::uint32_t> Network::predict_classes(const Tensor& inputs) {
  const Tensor logits = forward(inputs, /*training=*/false);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  std::vector<std::uint32_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint32_t>(tensor::argmax(
        std::span<const float>(logits.data() + i * c, c)));
  return out;
}

Tensor Network::predict_probabilities(const Tensor& inputs) {
  return softmax_probabilities(forward(inputs, /*training=*/false));
}

std::vector<Network::Top1> Network::predict_top1(const Tensor& inputs) {
  return top1(forward(inputs, /*training=*/false));
}

std::vector<Network::Top1> Network::top1(const Tensor& logits) {
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  std::vector<Top1> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const float> row(logits.data() + i * c, c);
    const std::size_t cls = tensor::argmax(row);
    // Stable softmax anchored at the winning logit: the argmax logit is
    // the row maximum, so every exponent is <= 0 and the sum is >= 1.
    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j)
      denom += std::exp(static_cast<double>(row[j]) -
                        static_cast<double>(row[cls]));
    out[i].cls = static_cast<std::uint32_t>(cls);
    out[i].probability = 1.0 / denom;
  }
  return out;
}

double Network::accuracy(const Tensor& inputs,
                         std::span<const std::uint32_t> labels) {
  const auto pred = predict_classes(inputs);
  if (pred.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

std::string Network::summary(const Shape& input_sample) const {
  std::ostringstream os;
  Shape shape = input_sample;
  os << "input " << tensor::shape_to_string(shape) << "\n";
  for (const auto& l : layers_) {
    shape = l->output_shape(shape);
    os << "  " << l->kind() << " -> " << tensor::shape_to_string(shape)
       << " (" << l->parameter_count() << " params)\n";
  }
  os << "total parameters: " << parameter_count() << "\n";
  return os.str();
}

void Network::save(std::ostream& os) const { save_network(os, *this); }

Network Network::load(std::istream& is) { return load_network(is); }

}  // namespace prionn::nn
