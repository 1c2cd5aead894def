// The lockstep driver: the one epoch/mini-batch loop of the nn library.
// It steps N networks over one input batch, one shuffled order and one
// sequence of mini-batches, each network with its own labels and
// optimiser: the PRIONN heads (runtime, bytes read, bytes written) read
// the same script images and train on the same mini-batches.
//
// Each mini-batch is gathered once. When every network starts with a
// Conv2d and the convs share one geometry, layer 0 runs as one stacked
// product for all of them (Conv2d::forward_stacked, then
// Conv2d::backward_parameters_stacked for the weight gradient) on the
// caller's lanes, so the shared images are lowered once instead of once
// per network. The networks then fork over the caller's lanes
// (for_each_head) through layers 1..L, their losses, gradient-norm guards
// and optimiser steps. A network whose layer 0 is not a stacking Conv2d
// runs layer 0 in the fork like every other layer. The stacked rows keep
// each network's arithmetic (tensor::kMR in tensor/gemm.hpp), so a
// network gets the same bits in lockstep as trained alone; Network::fit
// and train_batch are the one-network calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/network.hpp"

namespace prionn::nn {

/// Runs head(0) .. head(heads - 1), independent per-network jobs. When
/// more than one head and more than one of the calling thread's lanes are
/// available, the heads run side by side over those lanes, each at lane
/// width ceil(lanes / heads): three heads on 4 lanes split their own loops
/// in two, and an idle thread (the spare lane, or one whose head is done)
/// takes the other half. Otherwise they run in series on the calling
/// thread at its own lane width, so a lone head keeps every lane for its
/// layers. Every layer gives the same bits at any width, so this moves
/// work but changes no arithmetic. Every head runs to the end; then the
/// exception of the lowest-indexed head that threw is rethrown, so which
/// error the caller sees never depends on timing.
void for_each_head(std::size_t heads,
                   const std::function<void(std::size_t)>& head);

/// One network of a lockstep fit, with its optimiser and one label per
/// input row.
struct FitHead {
  Network* net = nullptr;
  Optimizer* opt = nullptr;
  std::span<const std::uint32_t> labels;
};

/// Network::fit of every head on the rows of `inputs`, in lockstep; returns
/// each head's report. A head whose step throws (TrainingDiverged) leaves
/// the lockstep after that step, with its weights and optimiser moments as
/// they were before it; a head that early-stops leaves after its epoch.
/// The others run to the end, and then the lowest-indexed head's exception
/// is rethrown.
std::vector<FitReport> fit_lockstep(std::span<const FitHead> heads,
                                    const Tensor& inputs,
                                    const FitOptions& options);

/// Network::forward of every network over the same batch, layer 0 stacked
/// as in fit_lockstep; returns each network's output (logits).
std::vector<Tensor> forward_lockstep(std::span<Network* const> nets,
                                     const Tensor& batch, bool training);

}  // namespace prionn::nn
