#include "core/predictor.hpp"

#include "nn/lockstep.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"
#include "util/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace prionn::core {

PrionnPredictor::PrionnPredictor(PredictorOptions options)
    : options_(options),
      runtime_bins_(options.runtime_bins),
      io_bins_(options.io_bins),
      heads_{Head{{}, nn::Adam(options.learning_rate)},
             Head{{}, nn::Adam(options.learning_rate)},
             Head{{}, nn::Adam(options.learning_rate)}} {
  ModelConfig cfg;
  cfg.kind = options_.model;
  cfg.preset = options_.preset;
  cfg.rows = options_.image.rows;
  cfg.cols = options_.image.cols;
  cfg.dropout = options_.dropout;
  switch (options_.image.transform) {
    case Transform::kBinary:
    case Transform::kSimple: cfg.channels = 1; break;
    case Transform::kOneHot: cfg.channels = embed::CharVocab::kSize; break;
    case Transform::kWord2Vec:
      cfg.channels = options_.word2vec_dimension;
      break;
  }
  for (std::size_t h = 0; h < head_count(); ++h) {
    cfg.classes = h == 0 ? options_.runtime_bins : options_.io_bins;
    cfg.seed = options_.seed + h;
    heads_[h].net = build_model(cfg);
  }
  if (options_.image.transform != Transform::kWord2Vec) ensure_mapper();
}

void PrionnPredictor::ensure_mapper() {
  if (!mapper_)
    mapper_.emplace(options_.image, embedding_);
}

const ScriptImageMapper& PrionnPredictor::mapper() const {
  if (!mapper_)
    throw std::logic_error(
        "PrionnPredictor: word2vec embedding not fitted yet");
  return *mapper_;
}

void PrionnPredictor::fit_embedding(const std::vector<std::string>& scripts) {
  if (options_.image.transform != Transform::kWord2Vec) return;
  PRIONN_OBS_SPAN("train.embedding_fit");
  PRIONN_OBS_INC("prionn_embedding_fits_total",
                 "one-off word2vec corpus fits");
  embed::Word2VecOptions w2v;
  w2v.dimension = options_.word2vec_dimension;
  w2v.seed = options_.seed ^ 0x77327665ULL;  // "w2ve"
  embed::Word2VecTrainer trainer(w2v);
  embedding_ = trainer.train(scripts);
  mapper_.reset();
  ensure_mapper();
}

void PrionnPredictor::set_embedding(embed::CharEmbedding embedding) {
  embedding_ = std::move(embedding);
  if (options_.image.transform == Transform::kWord2Vec) {
    mapper_.reset();
    if (!embedding_.empty()) ensure_mapper();
  }
}

tensor::Tensor PrionnPredictor::map_batch(
    std::span<const std::string> scripts) const {
  // The script->image transform (incl. the embedding lookup for word2vec)
  // is the first leg of the per-job hot path.
  PRIONN_OBS_SPAN("predict.map_image");
  const bool two_d = options_.model == ModelKind::kCnn2d;
  return two_d ? mapper().map_batch_2d(scripts)
               : mapper().map_batch_1d(scripts);
}

tensor::Tensor PrionnPredictor::map_sample(std::string_view script) const {
  const bool two_d = options_.model == ModelKind::kCnn2d;
  return two_d ? mapper().map_2d(script) : mapper().map_1d(script);
}

PrionnPredictor::TrainReport PrionnPredictor::train(
    const std::vector<trace::JobRecord>& completed_jobs) {
  PRIONN_OBS_SPAN("train.fit");
  PRIONN_OBS_TIME("prionn_train_latency_ns",
                  "wall time of one train() call (all heads)");
  if (completed_jobs.empty())
    throw std::invalid_argument("PrionnPredictor::train: no jobs");
  if (options_.image.transform == Transform::kWord2Vec && !mapper_)
    throw std::logic_error(
        "PrionnPredictor::train: call fit_embedding() first");

  std::vector<std::string> scripts;
  std::vector<std::uint32_t> labels[3];  // per head
  scripts.reserve(completed_jobs.size());
  for (const auto& job : completed_jobs) {
    scripts.push_back(job.script);
    labels[0].push_back(runtime_bins_.label_of(job.runtime_minutes));
    labels[1].push_back(io_bins_.label_of(job.bytes_read));
    labels[2].push_back(io_bins_.label_of(job.bytes_written));
  }
  tensor::Tensor batch = map_batch(scripts);
  // Fault-injection point: a corrupted ingestion path or DMA error shows
  // up as garbage in the training batch; the harness models it as NaNs so
  // the divergence-rollback path can be driven deterministically.
  if (util::fault::fire(util::fault::FaultPoint::kNanPoisonBatch))
    util::fault::poison_with_nans(batch.span(),
                                  options_.seed + training_events_);

  nn::FitOptions fit;
  fit.epochs = options_.epochs;
  fit.batch_size = options_.batch_size;
  fit.shuffle_seed = options_.seed + training_events_;
  fit.max_gradient_norm = options_.max_gradient_norm;
  std::array<nn::FitHead, 3> fit_heads;
  for (std::size_t h = 0; h < head_count(); ++h)
    fit_heads[h] = {&heads_[h].net, &heads_[h].opt, labels[h]};
  const std::vector<nn::FitReport> reports = nn::fit_lockstep(
      std::span(fit_heads.data(), head_count()), batch, fit);
  double loss[3] = {0.0, 0.0, 0.0};
  for (std::size_t h = 0; h < head_count(); ++h)
    loss[h] = reports[h].final_loss();
  trained_ = true;
  ++training_events_;
  return {loss[0], loss[1], loss[2]};
}

std::vector<ConfidentPrediction> PrionnPredictor::predict_batch(
    std::span<const std::string> scripts) {
  if (!trained_)
    throw std::logic_error("PrionnPredictor::predict: model not trained");
  if (scripts.empty()) return {};
  return predict_batch_mapped(map_batch(scripts));
}

std::vector<ConfidentPrediction> PrionnPredictor::predict_batch_mapped(
    const tensor::Tensor& batch) {
  if (!trained_)
    throw std::logic_error("PrionnPredictor::predict: model not trained");
  if (batch.empty()) return {};
  PRIONN_OBS_SPAN("predict.forward");
  const std::size_t n = batch.dim(0);

  std::array<nn::Network*, 3> nets;
  for (std::size_t h = 0; h < head_count(); ++h) nets[h] = &heads_[h].net;
  const std::vector<tensor::Tensor> logits = nn::forward_lockstep(
      std::span(nets.data(), head_count()), batch, /*training=*/false);
  std::vector<nn::Network::Top1> top[3];
  for (std::size_t h = 0; h < head_count(); ++h)
    top[h] = nn::Network::top1(logits[h]);
  const auto& runtime_top = top[0];
  const auto& read_top = top[1];
  const auto& write_top = top[2];

  std::vector<ConfidentPrediction> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A zero-minute prediction would produce an infinite bandwidth; the
    // shortest representable job is one minute, as in the generator.
    out[i].value.runtime_minutes =
        std::max(1.0, runtime_bins_.minutes_of(runtime_top[i].cls));
    out[i].runtime_confidence = runtime_top[i].probability;
    if (options_.predict_io) {
      out[i].value.bytes_read = io_bins_.bytes_of(read_top[i].cls);
      out[i].value.bytes_written = io_bins_.bytes_of(write_top[i].cls);
      out[i].read_confidence = read_top[i].probability;
      out[i].write_confidence = write_top[i].probability;
    }
  }
  return out;
}

JobPrediction PrionnPredictor::predict(const std::string& script) {
  return predict_batch(std::span<const std::string>(&script, 1))
      .front()
      .value;
}

ConfidentPrediction PrionnPredictor::predict_with_confidence(
    const std::string& script) {
  return predict_batch(std::span<const std::string>(&script, 1)).front();
}

namespace {

constexpr std::uint32_t kPredictorMagic = 0x50524f4e;  // "PRON"
/// Stream version, written right after the magic. Version 1 is the
/// unversioned stream before it, whose first options field (image rows)
/// this loader reads as a version and rejects.
constexpr std::uint32_t kPredictorVersion = 2;

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("PrionnPredictor::load: truncated");
  return v;
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

double read_f64(std::istream& is) {
  double v = 0.0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("PrionnPredictor::load: truncated");
  return v;
}

/// A checkpoint payload that passed the CRC can still carry hostile
/// options (the CRC authenticates nothing); building networks from them
/// would turn a 50-byte stream into gigabytes of allocations. Bounds are
/// generous multiples of anything the paper's configurations use.
void validate_loaded_options(const PredictorOptions& o) {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error("PrionnPredictor::load: implausible " + what);
  };
  if (static_cast<std::uint64_t>(o.image.transform) >
      static_cast<std::uint64_t>(Transform::kWord2Vec))
    fail("transform");
  if (static_cast<std::uint64_t>(o.model) >
      static_cast<std::uint64_t>(ModelKind::kCnn2d))
    fail("model kind");
  if (static_cast<std::uint64_t>(o.preset) >
      static_cast<std::uint64_t>(ModelPreset::kFast))
    fail("model preset");
  if (o.image.rows == 0 || o.image.rows > 4096 || o.image.cols == 0 ||
      o.image.cols > 4096)
    fail("image grid");
  if (o.runtime_bins == 0 || o.runtime_bins > (1u << 20)) fail("runtime bins");
  if (o.io_bins == 0 || o.io_bins > (1u << 20)) fail("io bins");
  if (o.word2vec_dimension == 0 || o.word2vec_dimension > 4096)
    fail("word2vec dimension");
  if (!std::isfinite(o.learning_rate)) fail("learning rate");
  if (!(o.dropout >= 0.0 && o.dropout < 1.0)) fail("dropout");
  if (!std::isfinite(o.max_gradient_norm)) fail("gradient norm cap");
}

}  // namespace

void PrionnPredictor::save(std::ostream& os) const {
  os.write(reinterpret_cast<const char*>(&kPredictorMagic),
           sizeof(kPredictorMagic));
  os.write(reinterpret_cast<const char*>(&kPredictorVersion),
           sizeof(kPredictorVersion));
  write_u64(os, static_cast<std::uint64_t>(options_.image.rows));
  write_u64(os, static_cast<std::uint64_t>(options_.image.cols));
  write_u64(os, static_cast<std::uint64_t>(options_.image.transform));
  write_u64(os, static_cast<std::uint64_t>(options_.model));
  write_u64(os, static_cast<std::uint64_t>(options_.preset));
  write_u64(os, options_.runtime_bins);
  write_u64(os, options_.io_bins);
  write_u64(os, options_.word2vec_dimension);
  write_u64(os, options_.epochs);
  write_u64(os, options_.batch_size);
  write_f64(os, options_.learning_rate);
  write_f64(os, options_.dropout);
  write_f64(os, options_.max_gradient_norm);
  write_u64(os, options_.predict_io ? 1 : 0);
  write_u64(os, options_.seed);
  write_u64(os, trained_ ? 1 : 0);
  write_u64(os, training_events_);
  const bool has_embedding =
      options_.image.transform == Transform::kWord2Vec && !embedding_.empty();
  write_u64(os, has_embedding ? 1 : 0);
  if (has_embedding) embedding_.save(os);
  for (std::size_t h = 0; h < head_count(); ++h) heads_[h].net.save(os);
  // Optimiser moments, keyed by Network::parameters() order, so the
  // warm-start training trajectory survives a restart bit-exactly.
  for (std::size_t h = 0; h < head_count(); ++h)
    heads_[h].opt.save(os, heads_[h].net.parameters());
}

PrionnPredictor PrionnPredictor::load(std::istream& is) {
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is || magic != kPredictorMagic)
    throw std::runtime_error("PrionnPredictor::load: bad magic");
  std::uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is) throw std::runtime_error("PrionnPredictor::load: truncated");
  if (version != kPredictorVersion)
    throw std::runtime_error(
        "PrionnPredictor::load: unsupported stream version " +
        std::to_string(version) + " (reads " +
        std::to_string(kPredictorVersion) + ")");
  PredictorOptions opts;
  opts.image.rows = static_cast<std::size_t>(read_u64(is));
  opts.image.cols = static_cast<std::size_t>(read_u64(is));
  opts.image.transform = static_cast<Transform>(read_u64(is));
  opts.model = static_cast<ModelKind>(read_u64(is));
  opts.preset = static_cast<ModelPreset>(read_u64(is));
  opts.runtime_bins = static_cast<std::size_t>(read_u64(is));
  opts.io_bins = static_cast<std::size_t>(read_u64(is));
  opts.word2vec_dimension = static_cast<std::size_t>(read_u64(is));
  opts.epochs = static_cast<std::size_t>(read_u64(is));
  opts.batch_size = static_cast<std::size_t>(read_u64(is));
  opts.learning_rate = read_f64(is);
  opts.dropout = read_f64(is);
  opts.max_gradient_norm = read_f64(is);
  opts.predict_io = read_u64(is) != 0;
  opts.seed = read_u64(is);
  validate_loaded_options(opts);

  PrionnPredictor p(opts);
  p.trained_ = read_u64(is) != 0;
  p.training_events_ = static_cast<std::size_t>(read_u64(is));
  if (read_u64(is) != 0) {
    p.embedding_ = embed::CharEmbedding::load(is);
    p.mapper_.reset();
    p.ensure_mapper();
  }
  for (std::size_t h = 0; h < p.head_count(); ++h)
    p.heads_[h].net = nn::Network::load(is);
  for (std::size_t h = 0; h < p.head_count(); ++h)
    p.heads_[h].opt.load(is, p.heads_[h].net.parameters());
  return p;
}

std::vector<JobPrediction> PrionnPredictor::predict(
    const std::vector<std::string>& scripts) {
  const auto confident = predict_batch(scripts);
  std::vector<JobPrediction> out(confident.size());
  for (std::size_t i = 0; i < confident.size(); ++i)
    out[i] = confident[i].value;
  return out;
}

}  // namespace prionn::core
