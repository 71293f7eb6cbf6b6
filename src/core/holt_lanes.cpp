#include "core/holt_lanes.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define GH_HOLT_X86 1
#endif

namespace greenhetero::holt_lanes {
namespace {

/// The replay kernel's single source.  Each lane performs
/// HoltPredictor::observe/predict's arithmetic op for op (the first two
/// observations seed level and trend identically for every candidate).
/// Lanes past block.size replay a copy of lane 0 and are ignored.  Always
/// inlined, so each caller below compiles it for its own target.
[[gnu::always_inline]] inline int replay_body(std::span<const double> history,
                                              Block& block, double limit) {
  double alpha[kLanes];
  double beta[kLanes];
  double keep_level[kLanes];
  double keep_trend[kLanes];
  double level[kLanes];
  double trend[kLanes];
  double sse[kLanes];
  for (int k = 0; k < kLanes; ++k) {
    const int src = k < block.size ? k : 0;
    alpha[k] = block.alpha[src];
    beta[k] = block.beta[src];
    keep_level[k] = 1.0 - alpha[k];
    keep_trend[k] = 1.0 - beta[k];
    level[k] = history[1];
    trend[k] = history[1] - history[0];
    sse[k] = 0.0;
  }
  const std::size_t n = history.size();
  std::size_t i = 2;
  while (i < n) {
    const std::size_t stop = std::min<std::size_t>(n, i + kCheckEvery);
    for (; i < stop; ++i) {
      const double value = history[i];
      for (int k = 0; k < kLanes; ++k) {
        const double forecast = level[k] + trend[k];
        const double err = forecast - value;
        sse[k] += err * err;
        const double prev_level = level[k];
        level[k] = alpha[k] * value + keep_level[k] * forecast;
        trend[k] =
            beta[k] * (level[k] - prev_level) + keep_trend[k] * trend[k];
      }
    }
    // All ones while some lane can still beat `limit`; a mask rather than
    // a bool, so the reduction vectorizes.  NaN compares false, so a NaN
    // lane is never live and a NaN limit leaves no lane live.
    std::int64_t live = 0;
    for (int k = 0; k < kLanes; ++k) live |= sse[k] < limit ? -1 : 0;
    if (live == 0) break;
  }
  std::copy_n(sse, block.size, block.sse);
  return static_cast<int>(i - 2);
}

int replay_baseline(std::span<const double> history, Block& block,
                    double limit) {
  return replay_body(history, block, limit);
}

#ifdef GH_HOLT_X86
[[gnu::target("avx2")]] int replay_avx2(std::span<const double> history,
                                        Block& block, double limit) {
  return replay_body(history, block, limit);
}

[[gnu::target("avx512f")]] int replay_avx512(std::span<const double> history,
                                             Block& block, double limit) {
  return replay_body(history, block, limit);
}
#endif

bool host_supports(Isa isa) {
#ifdef GH_HOLT_X86
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kBaseline:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == Isa::kBaseline;
#endif
}

/// The incumbent's acceptance threshold: a candidate wins only if its SSE
/// is below it.  NaN when the incumbent's SSE is NaN or infinite.
double improvement_limit(double best_sse) {
  return best_sse - 1e-12 * (1.0 + best_sse);
}

}  // namespace

std::string_view to_string(Isa isa) {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512f";
  }
  return "?";
}

std::vector<Isa> supported() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
    if (host_supports(isa)) out.push_back(isa);
  }
  return out;
}

Isa dispatched() {
  // No allocation: the first call lands inside a profiled training span.
  static const Isa chosen = host_supports(Isa::kAvx512) ? Isa::kAvx512
                            : host_supports(Isa::kAvx2) ? Isa::kAvx2
                                                        : Isa::kBaseline;
  return chosen;
}

int replay(Isa isa, std::span<const double> history, Block& block,
           double limit) {
  switch (isa) {
#ifdef GH_HOLT_X86
    case Isa::kAvx2:
      return replay_avx2(history, block, limit);
    case Isa::kAvx512:
      return replay_avx512(history, block, limit);
#endif
    default:
      return replay_baseline(history, block, limit);
  }
}

HoltParams train(std::span<const double> history, int grid_steps, Isa isa,
                 Stats* stats) {
  if (history.size() < 3) {
    throw PredictorError("holt training: need at least 3 observations");
  }
  grid_steps = std::max(grid_steps, 4);
  // Start from the defaults: a candidate must *strictly* beat the incumbent
  // to win.  On degenerate histories (e.g. a constant overnight-zero solar
  // series) every (alpha, beta) ties at SSE 0 and the defaults must survive
  // — alpha = 0 would freeze the predictor at its initial level forever.
  HoltParams best{};
  double best_sse = holt_sse(history, best);
  const auto improves = [&](double sse) {
    return sse < improvement_limit(best_sse);
  };
  // Candidates are replayed a block at a time, but the incumbent is updated
  // strictly in candidate order, so the result equals a one-at-a-time scan.
  // The fold stops at the first lane whose beta fails `in_bounds` (checked
  // against the live incumbent) and reports whether every lane was consumed.
  //
  // The replay may abandon the block against the limit at its start: the
  // incumbent's SSE only falls during the fold, so its limit never rises,
  // and a lane whose partial SSE is not below the starting limit
  // cannot improve at any point of the fold.  An abandoned block therefore
  // folds exactly as a complete one would: no lane improves, and the
  // in_bounds scan, which reads only beta and the incumbent, is unchanged.
  // A NaN or infinite incumbent SSE makes the limit NaN; then no SSE
  // improves, and the replay stops at its first check.
  const auto record = [&](int steps) {
    if (stats == nullptr) return;
    ++stats->replays;
    if (steps < static_cast<int>(history.size()) - 2) ++stats->abandoned;
  };
  Block block;
  const auto evaluate_and_fold = [&](auto in_bounds) {
    record(replay(isa, history, block, improvement_limit(best_sse)));
    int k = 0;
    for (; k < block.size && in_bounds(block.beta[k]); ++k) {
      if (improves(block.sse[k])) {
        best_sse = block.sse[k];
        best = HoltParams{block.alpha[k], block.beta[k]};
      }
    }
    const bool consumed_all = k == block.size;
    block.size = 0;
    return consumed_all;
  };
  const auto unbounded = [](double) { return true; };
  const double step = 1.0 / grid_steps;
  for (int i = 0; i <= grid_steps; ++i) {
    for (int j = 0; j <= grid_steps; ++j) {
      block.add(HoltParams{i * step, j * step});
      if (block.full()) evaluate_and_fold(unbounded);
    }
  }
  if (block.size > 0) evaluate_and_fold(unbounded);
  // Local refinement in steps of step/8.  The window follows the incumbent:
  // both loop bounds re-read `best`, so every improvement re-centres the
  // remaining rows (and the end of the current row) on the new winner.
  // Rows with `a` outside [0, 1] evaluate nothing.
  const double fine = step / 8.0;
  const auto within_row = [&](double b) { return b <= best.beta + step; };
  for (double a = best.alpha - step; a <= best.alpha + step; a += fine) {
    if (a < 0.0 || a > 1.0) continue;
    double b = best.beta - step;
    for (;;) {
      // Speculate on the row's next in-range values of b under the current
      // bound; an improvement can move the bound either way, which the fold
      // re-checks lane by lane.
      for (; !block.full() && within_row(b); b += fine) {
        if (b >= 0.0 && b <= 1.0) block.add(HoltParams{a, b});
      }
      if (block.size == 0 || !evaluate_and_fold(within_row)) break;
    }
  }
  return best;
}

}  // namespace greenhetero::holt_lanes
