// The lockstep-lane engine behind train_holt (core/predictor.h): candidate
// blocks, the replay kernel in one version per instruction set, and the
// scan that folds their results.  Internal to the library; the entry points
// take the kernel version explicitly so tests can run every version the host
// supports, while train_holt always uses dispatched().
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/predictor.h"

namespace greenhetero::holt_lanes {

/// Candidates replayed in lockstep.  The Holt recurrence is a chain of
/// dependent FP operations, so one candidate at a time is bound by FP
/// latency; independent chains keep the vector pipes busy.  24 lanes hold a
/// whole refinement row (17 beta values) in one replay, where 16 needed a
/// second replay with one live lane, and fill three AVX-512 registers.
inline constexpr int kLanes = 24;

/// Recurrence steps between two abandon checks of a replay.  A check costs
/// a compare and a reduction across the lanes; checking every step would
/// cost more than it saves.
inline constexpr int kCheckEvery = 8;

/// Up to kLanes (alpha, beta) candidates and, after replay, the SSE of each.
/// Fixed-size, so training allocates nothing.
struct Block {
  double alpha[kLanes] = {};
  double beta[kLanes] = {};
  double sse[kLanes] = {};
  int size = 0;

  void add(HoltParams candidate) {
    candidate.validate();
    alpha[size] = candidate.alpha;
    beta[size] = candidate.beta;
    ++size;
  }
  [[nodiscard]] bool full() const { return size == kLanes; }
};

/// Versions of the replay kernel.  All are compiled from one source with the
/// library's flags (no FMA contraction, no fast-math), so every lane performs
/// the same IEEE operations at every vector width.
enum class Isa { kBaseline, kAvx2, kAvx512 };

[[nodiscard]] std::string_view to_string(Isa isa);

/// The versions this host can run, baseline first.
[[nodiscard]] std::vector<Isa> supported();

/// The widest supported version, chosen once per process; train_holt's.
[[nodiscard]] Isa dispatched();

/// Replays every candidate of `block` over `history` (at least 3 points).
/// Lane k's SSE is bitwise holt_sse(history, {alpha[k], beta[k]}) unless the
/// replay is abandoned: at a check every few steps it stops once no lane's
/// partial SSE is < `limit`.  A partial SSE never falls, so an abandoned
/// lane's final SSE is not < `limit` either, and neither is the partial one
/// left in block.sse.  A NaN limit abandons at the first check.  Returns the
/// number of recurrence steps replayed (history.size() - 2 when complete).
int replay(Isa isa, std::span<const double> history, Block& block,
           double limit);

/// What a training scan did: replays run, and how many were abandoned.
struct Stats {
  int replays = 0;
  int abandoned = 0;
};

/// train_holt on kernel version `isa`: train_holt(history, grid_steps) is
/// train(history, grid_steps, dispatched()).  Adds its replays to `stats`
/// if given.
[[nodiscard]] HoltParams train(std::span<const double> history,
                               int grid_steps, Isa isa,
                               Stats* stats = nullptr);

}  // namespace greenhetero::holt_lanes
