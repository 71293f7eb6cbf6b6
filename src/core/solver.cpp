#include "core/solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "telemetry/telemetry.h"

namespace greenhetero {

double GroupModel::perf_at(Watts per_server) const {
  if (per_server.value() < min_power.value()) return 0.0;
  const double x = std::min(per_server.value(), max_power.value());
  return std::max(fit(x), 0.0);
}

Watts GroupModel::saturation_power() const {
  if (fit.a < 0.0) {
    const double vertex = fit.vertex();
    if (vertex > min_power.value() && vertex < max_power.value()) {
      return Watts{vertex};
    }
  }
  return max_power;
}

GroupModel GroupModel::from_record(const ProfileRecord& record, int count) {
  if (count <= 0) {
    throw SolverError("group model: count must be positive");
  }
  return GroupModel{record.fit, record.min_power, record.max_power, count};
}

double Allocation::ratio_sum() const {
  double total = 0.0;
  for (double r : ratios) total += r;
  return total;
}

namespace {

/// One group's admission check.  A fitted quadratic that evaluates to a
/// non-finite Perf anywhere on [idle, peak] would poison every backend's
/// comparisons (NaN compares false, so the "best" candidate is arbitrary);
/// finite values at both endpoints of the bounded range imply finite
/// coefficients and therefore finite values everywhere between them, so the
/// two evaluations below are a complete check.  Rejecting here — instead of
/// silently clamping downstream — surfaces the corrupted database record to
/// the caller (the controller catches SolverError and falls back to a safe
/// allocation).
void validate_group(const GroupModel& g, std::size_t index) {
  if (g.count <= 0) {
    throw SolverError("solver: group count must be positive");
  }
  if (g.max_power.value() <= g.min_power.value()) {
    throw SolverError("solver: group power range is empty");
  }
  if (!std::isfinite(g.fit(g.min_power.value())) ||
      !std::isfinite(g.fit(g.max_power.value()))) {
    throw SolverError(
        "solver: group " + std::to_string(index) +
        " has a non-finite fitted Perf inside its operating range"
        " (a=" + std::to_string(g.fit.a) + ", b=" + std::to_string(g.fit.b) +
        ", c=" + std::to_string(g.fit.c) +
        ", range=[" + std::to_string(g.min_power.value()) + ", " +
        std::to_string(g.max_power.value()) + "] W)");
  }
}

/// Active-set sweep budget: 2^16 subsets is the exhaustive-search cap.
constexpr std::size_t kMaxAnalyticGroups = 16;

/// solve_subset's search-space cap: 2^20 active-count vectors (four groups
/// of 31 servers).  A larger rack is refused rather than enumerated.
constexpr std::size_t kMaxCountVectors = std::size_t{1} << 20;

void validate_inputs(std::span<const GroupModel> groups, Watts total_supply,
                     std::size_t max_groups) {
  if (groups.empty() || groups.size() > max_groups) {
    throw SolverError("solver: group count out of range");
  }
  if (total_supply.value() <= 0.0) {
    throw SolverError("solver: total supply must be positive");
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    validate_group(groups[i], i);
  }
}

/// Per-group performance when it receives `ratio` of the supply.
double group_perf(const GroupModel& g, double ratio, Watts total) {
  const Watts per_server{ratio * total.value() / static_cast<double>(g.count)};
  return static_cast<double>(g.count) * g.perf_at(per_server);
}

}  // namespace

double Solver::evaluate(std::span<const GroupModel> groups,
                        std::span<const double> ratios, Watts total_supply) {
  if (ratios.size() != groups.size()) {
    throw SolverError("solver: ratio/group size mismatch");
  }
  double perf = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    perf += group_perf(groups[i], ratios[i], total_supply);
  }
  return perf;
}

namespace {

/// Solver entry points, in the catalog's `backend` label order.
enum class Backend { kAnalyticN, kSubset };
constexpr telemetry::CounterId kSolverCalls = "gh_solver_calls_total";
static_assert(kSolverCalls.label_value(Backend::kAnalyticN) == "analytic_n" &&
              kSolverCalls.label_value(Backend::kSubset) == "subset");

/// Counter + trace event for one solver entry-point call (no-op outside a
/// telemetry scope; benches hammering the solver directly stay clean).
/// `iterations` is the entry point's unit of search work — objective /
/// candidate evaluations — so gh_solver_iterations_total divided by
/// gh_solver_calls_total exposes each path's per-call search cost.

void report_solve(Backend backend, std::span<const GroupModel> groups,
                  Watts total_supply, const Allocation& result,
                  std::uint64_t iterations) {
  telemetry::Telemetry* t = telemetry::current();
  if (t == nullptr) return;
  t->metrics().counter(kSolverCalls, backend).increment();
  t->metrics()
      .counter("gh_solver_iterations_total", backend)
      .increment(static_cast<double>(iterations));
  if (!t->traced()) return;
  t->emit("solve", {{"backend", kSolverCalls.label_value(backend)},
                    {"groups", groups.size()},
                    {"supply_w", total_supply.value()},
                    {"ratios", result.ratios},
                    {"predicted_perf", result.predicted_perf}});
}

/// Output sanity guard: a numerical backend must never hand the Enforcer a
/// non-finite or out-of-range allocation.  Non-finite or negative ratios
/// become 0, an over-committed sum is renormalised, and the performance
/// estimate is recomputed after a repair.  (A ratio beyond a group's
/// saturation cap is wasteful but valid — enforcement clamps it — so it is
/// not treated as a defect.)  Repairs count into gh_solver_repairs_total;
/// the healthy backends never trip this, so the metric stays absent (and
/// the pass free) in clean runs.
void sanitize_allocation(std::span<const GroupModel> groups, Watts total,
                         bool recompute_perf, Allocation& result) {
  int repairs = 0;
  for (double& r : result.ratios) {
    if (!std::isfinite(r) || r < 0.0) {
      r = 0.0;
      ++repairs;
    }
  }
  const double sum = result.ratio_sum();
  if (sum > 1.0 + 1e-9) {
    for (double& r : result.ratios) r /= sum;
    ++repairs;
  }
  if (!std::isfinite(result.predicted_perf)) {
    result.predicted_perf = 0.0;
    ++repairs;
  }
  if (repairs == 0) return;
  if (recompute_perf && result.ratios.size() == groups.size()) {
    // A poisoned fit can re-introduce NaN through evaluate; clamp once more.
    result.predicted_perf = Solver::evaluate(groups, result.ratios, total);
    if (!std::isfinite(result.predicted_perf)) result.predicted_perf = 0.0;
  }
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics().counter("gh_solver_repairs_total").increment(repairs);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Closed-form KKT / water-filling engine behind Solver::solve.
//
// Each group's feasible per-server power is {0} ∪ [lo, hi]: the idle cliff
// makes the problem non-convex, but once an *active set* is fixed (which
// groups get any power at all) the objective is a sum of clamped quadratics
// and the KKT conditions solve it in closed form.  The backend enumerates
// active sets (pruned by a weak-duality bound built from the full set's
// multiplier), water-fills each set's strictly concave members by sweeping
// the Lagrange multiplier down the sorted marginal-utility breakpoints, and
// enumerates endpoint configurations for degenerate (near-linear / convex)
// members.  Every candidate is validated against the full clamped objective
// through the same ratio round-trip evaluate() performs, so the winning
// value is exactly what the caller will observe.
// ---------------------------------------------------------------------------

namespace {

/// Curvature above this is treated as degenerate (near-linear or convex):
/// the interior stationary point either does not exist or hides behind an
/// ill-conditioned division by 2a, so the group is handled by endpoint
/// enumeration instead of water-filling.
constexpr double kEdgeCurvature = -1e-6;

/// Endpoint-configuration budget per active set.  More than 8 degenerate
/// members is pathological; the overflow is pinned at its better endpoint
/// (the candidate is still validated against the clamped objective).
constexpr int kMaxEdgeBits = 8;

/// Raw scalars of one group, unpacked once from its GroupModel.
struct RawGroup {
  double n;      ///< server count
  double a, b, c;
  double min_w;  ///< the off-below-idle cliff
  double max_w;
};

/// Mirror of GroupModel::perf_at on raw scalars: same operations in the
/// same order, so scalar evaluation matches Solver::evaluate bit-for-bit.
double perf_scalar(const RawGroup& g, double per_server) {
  if (per_server < g.min_w) return 0.0;
  const double x = std::min(per_server, g.max_w);
  return std::max((g.a * x + g.b) * x + g.c, 0.0);
}

/// Mirror of group_perf (including the ratio -> per-server round trip).
double group_perf_scalar(const RawGroup& g, double ratio, double total) {
  const double per_server = ratio * total / g.n;
  return g.n * perf_scalar(g, per_server);
}

/// One group's precomputed analytic view.  Trivially default-constructible,
/// so the solve's fixed-capacity array costs nothing until
/// analytic_precompute value-initialises an entry.
struct AnalyticGroup {
  RawGroup raw;
  double lo;      ///< effective floor: cliff, lifted to the fit's first zero
                  ///< when Perf(min_w) clamps to 0
  double hi;      ///< saturation: beyond this more watts buy nothing
  double w_lo;    ///< n * lo
  double w_hi;    ///< n * hi
  double f_lo;    ///< clamped per-server Perf at lo
  double f_hi;    ///< clamped per-server Perf at hi
  double d_lo;    ///< fit slope at lo (the marginal entering the range)
  double d_hi;    ///< fit slope at hi
  double na;      ///< n / (2a) (0 when the curvature vanishes)
  double nb;      ///< n * b / (2a)
  double inv_2a;  ///< 1 / (2a) — the water-filling response slope
  double z;       ///< n * Perf at 0 W (non-zero only when min_w == 0)
  double u;       ///< n * max(f_lo, f_hi) - z: crude subset bound term
  std::size_t index;  ///< position in the caller's group list
  bool edge;          ///< degenerate curvature: endpoint treatment
};

/// Build the analytic view of one (already validated) group.  Returns false
/// when the group cannot contribute positive performance anywhere in its
/// range — it is left out of the active-set sweep and always gets ratio 0.
bool analytic_precompute(const RawGroup& raw, std::size_t index,
                         AnalyticGroup& g) {
  g = AnalyticGroup{};
  g.raw = raw;
  g.index = index;
  const auto fit = [&](double x) { return (raw.a * x + raw.b) * x + raw.c; };
  // Saturation (GroupModel::saturation_power semantics).
  double hi = raw.max_w;
  if (raw.a < 0.0) {
    const double vertex = -raw.b / (2.0 * raw.a);
    if (vertex > raw.min_w && vertex < raw.max_w) hi = vertex;
  }
  double lo = raw.min_w;
  if (fit(raw.min_w) < 0.0) {
    if (fit(hi) <= 0.0) return false;  // Perf <= 0 on the whole useful range
    // The fit's first zero in (min_w, hi]: powering the group below it
    // yields zero Perf, so the effective floor moves up to the root.
    // Stable roots via the q-formula; linear root when curvature vanishes.
    double root = hi;
    if (std::fabs(raw.a) > 1e-300) {
      const double disc = raw.b * raw.b - 4.0 * raw.a * raw.c;
      if (disc > 0.0) {
        const double q =
            -0.5 * (raw.b + std::copysign(std::sqrt(disc), raw.b));
        double found = std::numeric_limits<double>::infinity();
        const double r1 = q / raw.a;
        const double r2 =
            q != 0.0 ? raw.c / q : std::numeric_limits<double>::infinity();
        for (double r : {r1, r2}) {
          if (std::isfinite(r) && r > raw.min_w && r <= hi && r < found) {
            found = r;
          }
        }
        if (std::isfinite(found)) root = found;
      }
    } else if (raw.b != 0.0) {
      const double r = -raw.c / raw.b;
      if (std::isfinite(r) && r > raw.min_w && r <= hi) root = r;
    }
    lo = root;
  }
  if (lo > hi) lo = hi;
  g.lo = lo;
  g.hi = hi;
  g.w_lo = raw.n * lo;
  g.w_hi = raw.n * hi;
  g.f_lo = perf_scalar(raw, lo);
  g.f_hi = perf_scalar(raw, hi);
  g.z = raw.n * perf_scalar(raw, 0.0);
  g.u = raw.n * std::max(g.f_lo, g.f_hi) - g.z;
  if (raw.n * std::max(g.f_lo, g.f_hi) <= 0.0) return false;
  g.d_lo = 2.0 * raw.a * lo + raw.b;
  g.d_hi = 2.0 * raw.a * hi + raw.b;
  if (raw.a != 0.0) {
    g.inv_2a = 1.0 / (2.0 * raw.a);
    g.na = raw.n / (2.0 * raw.a);
    g.nb = raw.n * raw.b / (2.0 * raw.a);
  }
  g.edge = raw.a >= kEdgeCurvature;
  return true;
}

/// A ratio vector indexed like the caller's group list.  Fixed capacity
/// keeps every solve buffer on the stack: the solve allocates nothing but
/// the returned Allocation, on any thread.
using RatioBuffer = std::array<double, kMaxAnalyticGroups>;

/// The best candidate seen so far: its clamped-objective value, its ratio
/// vector, and the multiplier of the configuration that produced it (used
/// for the dual pruning bound).
struct BestCandidate {
  double value = -std::numeric_limits<double>::infinity();
  RatioBuffer ratios{};
  double lambda = 0.0;
};

/// Convert a per-server candidate (indexed like `gs`, 0 = inactive) into
/// ratios and return its value through the same ratio round-trip
/// evaluate() performs.  A ratio meant to put a group exactly on a floor
/// can land one ULP below it after the round trip, which the idle cliff
/// would punish with the whole group's performance — nudge such ratios up
/// until the round trip clears the cliff.
double assemble_candidate(std::span<const AnalyticGroup> gs,
                          std::size_t total_groups, double P,
                          std::span<const double> per_server,
                          RatioBuffer& ratios) {
  std::fill_n(ratios.begin(), total_groups, 0.0);
  for (std::size_t j = 0; j < gs.size(); ++j) {
    const AnalyticGroup& g = gs[j];
    const double p = per_server[j];
    if (p <= 0.0) continue;
    double ratio = g.raw.n * p / P;
    if (p >= g.raw.min_w) {
      for (int guard = 0;
           guard < 4 && ratio * P / g.raw.n < g.raw.min_w; ++guard) {
        ratio = std::nextafter(ratio, 2.0);
      }
    }
    ratios[g.index] = ratio;
  }
  double value = 0.0;
  for (const AnalyticGroup& g : gs) {
    value += group_perf_scalar(g.raw, ratios[g.index], P);
  }
  return value;
}

/// Solve one active set: enumerate its endpoint configurations, water-fill
/// the strictly concave members per configuration, validate every candidate
/// and merge improvements into `best` (strict >, so the first achiever of
/// the optimum wins regardless of what pruning skipped).  Returns the best
/// value this mask achieved, or -inf when its floors alone blow the budget.
double solve_mask(std::span<const AnalyticGroup> gs,
                  std::size_t total_groups, double P, std::uint32_t mask,
                  std::uint64_t& evals, RatioBuffer& cand_ratios,
                  BestCandidate& best) {
  std::array<std::uint8_t, kMaxAnalyticGroups> concave{};
  std::array<std::uint8_t, kMaxAnalyticGroups> edge{};
  std::array<std::uint8_t, kMaxAnalyticGroups> pinned{};
  int n_concave = 0, n_edge = 0, n_pinned = 0;
  double floor_w = 0.0;
  for (std::uint32_t mm = mask; mm != 0; mm &= mm - 1) {
    const int j = std::countr_zero(mm);
    const AnalyticGroup& g = gs[static_cast<std::size_t>(j)];
    floor_w += g.w_lo;
    if (g.hi - g.lo < 1e-12) {
      pinned[n_pinned++] = static_cast<std::uint8_t>(j);
    } else if (g.edge) {
      edge[n_edge++] = static_cast<std::uint8_t>(j);
    } else {
      concave[n_concave++] = static_cast<std::uint8_t>(j);
    }
  }
  if (floor_w > P) return -std::numeric_limits<double>::infinity();

  double concave_floor = 0.0;
  for (int k = 0; k < n_concave; ++k) {
    concave_floor += gs[concave[static_cast<std::size_t>(k)]].w_lo;
  }

  double mask_best = -std::numeric_limits<double>::infinity();
  std::array<double, kMaxAnalyticGroups> p{};

  const auto consider = [&](double lambda) {
    ++evals;
    const double value =
        assemble_candidate(gs, total_groups, P,
                           {p.data(), gs.size()}, cand_ratios);
    if (value > mask_best) mask_best = value;
    if (value > best.value) {
      best.value = value;
      best.lambda = lambda;
      std::swap(best.ratios, cand_ratios);
    }
  };

  /// Concave members' per-server response at multiplier λ, written into p.
  const auto place_concave = [&](double lambda) {
    double used = 0.0;
    for (int k = 0; k < n_concave; ++k) {
      const std::uint8_t j = concave[static_cast<std::size_t>(k)];
      const AnalyticGroup& g = gs[j];
      double pj = g.lo;
      if (g.d_lo > 0.0) {
        pj = std::clamp((lambda - g.raw.b) * g.inv_2a, g.lo, g.hi);
      }
      p[j] = pj;
      used += g.raw.n * pj;
    }
    return used;
  };

  // Outer loop: which degenerate member (if any) absorbs the budget at an
  // interior point.  A convex member can sit strictly inside (lo, hi) at
  // the optimum only as the single budget-balancing absorber — two interior
  // convex members could trade watts for a second-order gain — so trying
  // one absorber at a time is exhaustive.  A near-linear absorber fills at
  // its flat marginal λ = b instead of via the 1/(2a) root machinery.
  for (int absorber = -1; absorber < n_edge; ++absorber) {
    const AnalyticGroup* ab = nullptr;
    std::uint8_t ab_index = 0;
    if (absorber >= 0) {
      ab_index = edge[static_cast<std::size_t>(absorber)];
      ab = &gs[ab_index];
    }
    std::array<std::uint8_t, kMaxAnalyticGroups> free_edges{};
    int n_free = 0;
    for (int k = 0; k < n_edge; ++k) {
      if (k != absorber) free_edges[n_free++] = edge[static_cast<std::size_t>(k)];
    }
    const int cfg_bits = std::min(n_free, kMaxEdgeBits);

    for (int cfg = 0; cfg < (1 << cfg_bits); ++cfg) {
      p.fill(0.0);
      double fixed_w = 0.0;
      for (int k = 0; k < n_pinned; ++k) {
        const AnalyticGroup& g = gs[pinned[static_cast<std::size_t>(k)]];
        p[pinned[static_cast<std::size_t>(k)]] = g.lo;
        fixed_w += g.w_lo;
      }
      for (int k = 0; k < n_free; ++k) {
        const AnalyticGroup& g = gs[free_edges[static_cast<std::size_t>(k)]];
        const bool at_hi = k < cfg_bits ? ((cfg >> k) & 1) != 0
                                        : g.f_hi > g.f_lo;
        p[free_edges[static_cast<std::size_t>(k)]] = at_hi ? g.hi : g.lo;
        fixed_w += at_hi ? g.w_hi : g.w_lo;
      }
      if (fixed_w + concave_floor + (ab != nullptr ? ab->w_lo : 0.0) > P) {
        continue;  // this configuration overdraws even at the floors
      }
      const double budget = P - fixed_w;

      if (ab != nullptr && ab->raw.a < 1e-6) {
        // Near-linear absorber: its marginal is essentially the constant b,
        // so dV/dλ flips sign exactly at λ = b — the joint optimum fills
        // the concave members to that marginal and hands the remainder to
        // the absorber.  (This sidesteps the ill-conditioned 1/(2a) root
        // machinery entirely; the O(|a|·range²) curvature term is far
        // below the oracle's tolerance.)
        const double lambda = std::max(ab->raw.b, 0.0);
        const double used = place_concave(lambda);
        const double leftover = budget - used;
        if (leftover >= ab->w_lo - 1e-9) {
          p[ab_index] =
              std::min(ab->hi, std::max(ab->lo, leftover / ab->raw.n));
          consider(lambda);
        }
        continue;
      }

      // λ-breakpoint sweep.  Each member's per-server response
      // p_i(λ) = clamp((λ - b_i) / (2 a_i), lo_i, hi_i) is piecewise linear
      // in λ, so the set's total draw is too; walk λ down the sorted
      // breakpoints (the fit marginals at each member's lo and hi) and
      // solve each linear segment for budget crossings.  Without an
      // absorber the draw is monotone (first crossing wins); the convex
      // absorber's draw *rises* with λ, so every segment's root is a KKT
      // candidate and all of them are evaluated.
      struct Breakpoint {
        double lam;
        std::uint8_t j;
        std::uint8_t kind;  ///< 0/1 concave leaves-lo/saturates;
                            ///< 2/3 absorber leaves-hi/reaches-lo
      };
      std::array<Breakpoint, 2 * kMaxAnalyticGroups + 2> bps;
      int n_bps = 0;
      double w_base = concave_floor;  // watts of members clamped at an endpoint
      double sum_a = 0.0;             // Σ n/(2a) over free members
      double sum_b = 0.0;             // Σ n*b/(2a) over free members
      for (int k = 0; k < n_concave; ++k) {
        const std::uint8_t j = concave[static_cast<std::size_t>(k)];
        const AnalyticGroup& g = gs[j];
        if (g.d_lo <= 0.0) continue;  // marginal never positive: stays at lo
        bps[n_bps++] = {g.d_lo, j, 0};
        if (g.d_hi > 0.0) bps[n_bps++] = {g.d_hi, j, 1};
      }
      if (ab != nullptr) {
        w_base += ab->w_hi;  // at λ = ∞ a convex absorber clamps at hi
        const std::uint8_t j = edge[static_cast<std::size_t>(absorber)];
        if (ab->d_hi > 0.0) bps[n_bps++] = {ab->d_hi, j, 2};
        if (ab->d_lo > 0.0) bps[n_bps++] = {ab->d_lo, j, 3};
      }
      // Insertion sort: n_bps <= 2 * kMaxAnalyticGroups and typically < 8,
      // where this beats std::sort.  The (lam, j, kind) key is unique per
      // entry, so any correct sort yields the same sequence.
      const auto bp_before = [](const Breakpoint& x, const Breakpoint& y) {
        if (x.lam != y.lam) return x.lam > y.lam;
        if (x.j != y.j) return x.j < y.j;
        return x.kind < y.kind;
      };
      for (int k = 1; k < n_bps; ++k) {
        const Breakpoint key = bps[static_cast<std::size_t>(k)];
        int t = k - 1;
        while (t >= 0 && bp_before(key, bps[static_cast<std::size_t>(t)])) {
          bps[static_cast<std::size_t>(t + 1)] = bps[static_cast<std::size_t>(t)];
          --t;
        }
        bps[static_cast<std::size_t>(t + 1)] = key;
      }

      const auto place_absorber = [&](double lambda) {
        if (ab == nullptr) return;
        p[ab - gs.data()] = std::clamp((lambda - ab->raw.b) * ab->inv_2a,
                                       ab->lo, ab->hi);
      };
      const auto try_root = [&](double lam_lo, double lam_hi) {
        if (sum_a == 0.0) return false;
        const double lam_r = (budget - w_base + sum_b) / sum_a;
        if (!(lam_r >= lam_lo - 1e-9 && lam_r <= lam_hi + 1e-9)) return false;
        const double lambda =
            std::max(std::clamp(lam_r, lam_lo, lam_hi), 0.0);
        place_concave(lambda);
        place_absorber(lambda);
        consider(lambda);
        return true;
      };

      double lam_prev = std::numeric_limits<double>::infinity();
      bool crossed = false;
      for (int k = 0; k < n_bps; ++k) {
        const double lam_k = std::max(bps[k].lam, 0.0);
        if (ab != nullptr) {
          // Non-monotone draw: harvest every segment's budget crossing.
          crossed = try_root(lam_k, lam_prev) || crossed;
        } else {
          const double w_at = w_base + sum_a * lam_k - sum_b;
          if (w_at >= budget) {
            const double lambda =
                sum_a < 0.0 ? std::clamp((budget - w_base + sum_b) / sum_a,
                                         lam_k, lam_prev)
                            : lam_k;
            place_concave(std::max(lambda, 0.0));
            consider(std::max(lambda, 0.0));
            crossed = true;
            break;
          }
        }
        if (bps[k].lam <= 0.0) break;  // λ* >= 0: lower breakpoints moot
        const AnalyticGroup& g = gs[bps[k].j];
        const double na = g.na;
        const double nb = g.nb;
        switch (bps[k].kind) {
          case 0:  // concave member leaves its floor
            w_base -= g.w_lo;
            sum_a += na;
            sum_b += nb;
            break;
          case 1:  // concave member saturates
            sum_a -= na;
            sum_b -= nb;
            w_base += g.w_hi;
            break;
          case 2:  // absorber drops below hi into the interior
            w_base -= g.w_hi;
            sum_a += na;
            sum_b += nb;
            break;
          default:  // absorber reaches its floor
            sum_a -= na;
            sum_b -= nb;
            w_base += g.w_lo;
            break;
        }
        lam_prev = lam_k;
      }
      if (ab != nullptr) {
        // The final segment [0, lam_prev] can hold one more root.  A
        // root-free absorber configuration produces no candidate at all:
        // its endpoint variants are covered by the absorber-less pass.
        (void)try_root(0.0, lam_prev);
      } else if (!crossed) {
        // No binding crossing at λ >= 0.  Either the final segment still
        // crosses, or the set cannot use the budget and the surplus
        // charges the battery.
        double lambda = 0.0;
        const double w_at0 = w_base - sum_b;
        if (w_at0 >= budget && sum_a < 0.0) {
          lambda = std::clamp((budget - w_base + sum_b) / sum_a, 0.0,
                              lam_prev);
        }
        lambda = std::max(lambda, 0.0);
        const double used = place_concave(lambda);
        consider(lambda);
        // Leftover handed to a degenerate member held at its floor
        // (splitting it never beats a single recipient at this curvature);
        // covers surplus the λ machinery leaves behind.
        const double leftover = std::max(0.0, budget - used);
        if (leftover > 1e-9) {
          for (int k = 0; k < n_free; ++k) {
            const std::uint8_t j = free_edges[static_cast<std::size_t>(k)];
            const AnalyticGroup& g = gs[j];
            if (p[j] != g.lo || g.hi <= g.lo) continue;
            const double saved = p[j];
            p[j] = std::min(g.hi, g.lo + leftover / g.raw.n);
            consider(lambda);
            p[j] = saved;
          }
        }
      }
    }
  }
  return mask_best;
}

/// Solve one validated instance; `evals` counts candidate evaluations.
/// The winner's ratios are indexed like `raw`.
BestCandidate analytic_solve(std::span<const RawGroup> raw, double P,
                             std::uint64_t& evals) {
  std::array<AnalyticGroup, kMaxAnalyticGroups> useful;
  std::size_t m = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (analytic_precompute(raw[i], i, useful[m])) ++m;
  }
  const std::span<const AnalyticGroup> gs{useful.data(), m};

  BestCandidate best;
  RatioBuffer cand_ratios{};

  // Baseline candidate: everything off (it is the only feasible point when
  // every floor exceeds the budget, and it anchors comparisons when groups
  // are live at 0 W because their floor is 0).
  std::array<double, kMaxAnalyticGroups> p{};
  ++evals;
  best.value = assemble_candidate(gs, raw.size(), P, {p.data(), m},
                                  cand_ratios);
  std::swap(best.ratios, cand_ratios);

  if (m > 0) {
    double sum_w_hi = 0.0;
    double z_total = 0.0;
    for (const AnalyticGroup& g : gs) {
      sum_w_hi += g.w_hi;
      z_total += g.z;
    }
    if (sum_w_hi <= P) {
      // Abundance fast path: every group can afford its own best point, so
      // the optimum decouples into per-group argmaxes over {off, lo, hi}
      // (concave members rise to hi; a decreasing or convex fit may prefer
      // its floor or staying off).
      for (std::size_t j = 0; j < m; ++j) {
        const AnalyticGroup& g = gs[j];
        const double f0 = g.z / g.raw.n;
        if (g.f_hi >= g.f_lo && g.f_hi >= f0) {
          p[j] = g.hi;
        } else if (g.f_lo >= f0) {
          p[j] = g.lo;
        } else {
          p[j] = 0.0;
        }
      }
      ++evals;
      const double value = assemble_candidate(gs, raw.size(), P,
                                              {p.data(), m}, cand_ratios);
      if (value > best.value) {
        best.value = value;
        std::swap(best.ratios, cand_ratios);
      }
    } else {
      const std::uint32_t full = (std::uint32_t{1} << m) - 1;
      const double full_value = solve_mask(gs, raw.size(), P, full, evals,
                                           cand_ratios, best);

      // Weak-duality pruning bound.  For any λ >= 0 and any candidate of
      // any mask:  value <= λ·P + Σ_{i∉mask} z_i + Σ_{i∈mask} score_i(λ),
      // where score_i = max_p (n·Perf_i(p) - λ·n·p) over p ∈ [lo, hi].
      // With λ taken from the incumbent's configuration the bound is tight
      // at the optimum, so subsets that merely re-shuffle watts are
      // rejected without being solved.  Rebuilt every time the incumbent
      // improves, which keeps it tight as the enumeration runs.
      std::array<double, kMaxAnalyticGroups> adj{};
      const bool have_dual =
          full_value > -std::numeric_limits<double>::infinity();
      double lam = 0.0;
      double dual_base = z_total;
      const auto rebuild_dual = [&](double lambda) {
        lam = lambda;
        dual_base = lam * P + z_total;
        for (std::size_t j = 0; j < m; ++j) {
          const AnalyticGroup& g = gs[j];
          double sc = std::max(g.raw.n * g.f_lo - lam * g.w_lo,
                               g.raw.n * g.f_hi - lam * g.w_hi);
          // A concave member's score peaks strictly inside (lo, hi) only
          // when λ sits between the endpoint marginals; otherwise the
          // clamped interior point is one of the endpoints above.
          if (g.raw.a < 0.0 && lam < g.d_lo && lam > g.d_hi) {
            const double pp = (lam - g.raw.b) * g.inv_2a;
            sc = std::max(sc, g.raw.n * perf_scalar(g.raw, pp) -
                                  lam * g.raw.n * pp);
          }
          adj[j] = sc - g.z;
        }
      };
      if (have_dual) rebuild_dual(std::max(best.lambda, 0.0));

      // Exact bound test for one mask — identical to what a full 2^m
      // enumeration would compute, used on the few masks that survive the
      // droppable-set filter below (and on every mask when no dual bound
      // is available).  Returns true when `best` improved.
      const auto test_and_solve = [&](std::uint32_t mask) {
        double ub = z_total;
        double floors = 0.0;
        double dual = dual_base;
        for (std::uint32_t mm = mask; mm != 0; mm &= mm - 1) {
          const std::size_t j =
              static_cast<std::size_t>(std::countr_zero(mm));
          ub += gs[j].u;
          floors += gs[j].w_lo;
          dual += adj[j];
        }
        if (floors > P) return false;
        const double bound = have_dual ? std::min(ub, dual) : ub;
        if (bound < best.value) return false;
        const double before = best.value;
        (void)solve_mask(gs, raw.size(), P, mask, evals, cand_ratios,
                         best);
        return best.value > before;
      };

      if (!have_dual) {
        // The full set cannot pay its floors: no dual multiplier exists, so
        // fall back to the crude bound over every proper subset.
        for (std::uint32_t mask = full - 1; mask != 0; --mask) {
          (void)test_and_solve(mask);
        }
      } else {
        // Droppable-set enumeration.  A mask survives the dual bound only
        // if bound(mask) = bound(full) - Σ_{j∈C} adj_j >= T for its
        // complement C, which forces every j ∈ C to satisfy
        //   max(adj_j, 0) <= bound(full) - T - Σ_k min(adj_k, 0).
        // Only subsets of that droppable set D are enumerated — typically
        // a handful of masks instead of 2^m.  When a solve improves the
        // incumbent, the dual is rebuilt around it and the (now smaller)
        // family is re-derived.  The rounds terminate because a round only
        // restarts on a strict improvement; the first kDoneCap masks tried
        // are remembered so a restart does not test them again (a mask past
        // the cap may be tested twice, which costs time only).
        constexpr std::size_t kDoneCap = 64;
        std::array<std::uint32_t, kDoneCap> done{};
        std::size_t n_done = 0;
        for (bool improved = true; improved;) {
          improved = false;
          double sum_adj = 0.0;
          double neg_sum = 0.0;
          for (std::size_t j = 0; j < m; ++j) {
            sum_adj += adj[j];
            neg_sum += std::min(adj[j], 0.0);
          }
          const double bound_full = dual_base + sum_adj;
          const double slack =
              bound_full - best.value - neg_sum + 1e-6;
          std::uint32_t droppable = 0;
          for (std::size_t j = 0; j < m; ++j) {
            if (std::max(adj[j], 0.0) <= slack) {
              droppable |= std::uint32_t{1} << j;
            }
          }
          // Non-empty subsets of `droppable` in ascending order (single
          // drops come before their unions).
          for (std::uint32_t comp = (0u - droppable) & droppable; comp != 0;
               comp = (comp - droppable) & droppable) {
            const std::uint32_t mask = full ^ comp;
            if (mask == 0) continue;
            const auto done_end = done.begin() + n_done;
            if (std::find(done.begin(), done_end, mask) != done_end) continue;
            if (n_done < kDoneCap) done[n_done++] = mask;
            if (test_and_solve(mask)) {
              rebuild_dual(std::max(best.lambda, 0.0));
              improved = true;
              break;
            }
          }
        }
      }
    }
  }

  // best.value was computed by assemble_candidate through the exact ratio
  // round-trip evaluate() performs (excluded groups contribute an exact
  // 0.0), so it already *is* the validated objective.
  return best;
}

RawGroup raw_group(const GroupModel& g, int count) {
  return RawGroup{static_cast<double>(count), g.fit.a, g.fit.b, g.fit.c,
                  g.min_power.value(), g.max_power.value()};
}

/// A group's best Perf per watt it receives on [idle, peak]: Perf(p)/p =
/// a·p + b + c/p peaks at an end or at its stationary point sqrt(c/a) (flat
/// Perf beyond peak only lowers it).  Unbounded for a zero floor.
double best_perf_per_watt(const GroupModel& g) {
  const double lo = g.min_power.value();
  const double hi = g.max_power.value();
  if (lo <= 0.0) return std::numeric_limits<double>::infinity();
  double best =
      std::max(g.perf_at(g.min_power) / lo, g.perf_at(g.max_power) / hi);
  if (g.fit.a != 0.0 && g.fit.c / g.fit.a > 0.0) {
    const double p = std::sqrt(g.fit.c / g.fit.a);
    if (p > lo && p < hi) best = std::max(best, g.perf_at(Watts{p}) / p);
  }
  return best;
}

}  // namespace

Allocation Solver::solve(std::span<const GroupModel> groups,
                         Watts total_supply) {
  validate_inputs(groups, total_supply, kMaxAnalyticGroups);
  std::array<RawGroup, kMaxAnalyticGroups> raw;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    raw[i] = raw_group(groups[i], groups[i].count);
  }
  std::uint64_t evals = 0;
  const BestCandidate best =
      analytic_solve({raw.data(), groups.size()}, total_supply.value(), evals);
  Allocation result{
      {best.ratios.begin(), best.ratios.begin() + groups.size()},
      best.value,
      {}};
  sanitize_allocation(groups, total_supply, /*recompute_perf=*/true, result);
  report_solve(Backend::kAnalyticN, groups, total_supply, result, evals);
  return result;
}

Allocation Solver::solve_subset(std::span<const GroupModel> groups,
                                Watts total_supply) {
  validate_inputs(groups, total_supply, kMaxSubsetGroups);
  const std::size_t n = groups.size();
  const double P = total_supply.value();

  // Count vectors are numbered in lexicographic order (group 0 most
  // significant), so comparing numbers compares vectors.
  std::size_t vectors = 1;
  for (const GroupModel& g : groups) {
    if (static_cast<std::size_t>(g.count) >= kMaxCountVectors / vectors) {
      throw SolverError("subset solver: more than " +
                        std::to_string(kMaxCountVectors) +
                        " active-count vectors");
    }
    vectors *= static_cast<std::size_t>(g.count) + 1;
  }
  std::array<int, kMaxSubsetGroups> k{};
  const auto decode = [&](std::size_t number) {
    for (std::size_t g = n; g-- > 0;) {
      const std::size_t radix = static_cast<std::size_t>(groups[g].count) + 1;
      k[g] = static_cast<int>(number % radix);
      number /= radix;
    }
  };

  // Fractional-knapsack bound on any solve of `k`: group g yields at most
  // k_g·best_perf_g (its best per-server Perf) and at most per_watt_g per
  // watt, so filling P richest-per-watt first bounds the sum.  The margin
  // covers rounding, so the bound holds for the solver's computed values.
  std::array<double, kMaxSubsetGroups> best_perf{};
  std::array<double, kMaxSubsetGroups> per_watt{};
  std::array<std::size_t, kMaxSubsetGroups> by_rate{};
  for (std::size_t g = 0; g < n; ++g) {
    best_perf[g] = std::max(groups[g].perf_at(groups[g].min_power),
                            groups[g].perf_at(groups[g].saturation_power()));
    per_watt[g] = best_perf_per_watt(groups[g]);
    // Insertion into by_rate[0..g], richest per watt first.
    std::size_t j = g;
    for (; j > 0 && per_watt[by_rate[j - 1]] < per_watt[g]; --j) {
      by_rate[j] = by_rate[j - 1];
    }
    by_rate[j] = g;
  }
  const auto upper_bound = [&] {
    double left = P;
    double bound = 0.0;
    for (std::size_t i = 0; i < n && left > 0.0; ++i) {
      const std::size_t g = by_rate[i];
      const double cap = k[g] * best_perf[g];
      if (cap <= 0.0) continue;
      const double need = cap / per_watt[g];
      bound += need < left ? cap : left * per_watt[g];
      left -= std::min(need, left);
    }
    return bound * (1.0 + 1e-9) + 1e-9;
  };

  // Every vector but the all-zero one, best bound first, ties in
  // lexicographic order.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(vectors - 1);
  for (std::size_t number = 1; number < vectors; ++number) {
    decode(number);
    order.emplace_back(upper_bound(), number);
  }
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });

  // The incumbent starts as the all-zero vector (nobody woken, value 0).
  // A vector replaces it when it scores more, or as much from earlier in
  // lexicographic order: the result is the one a plain lexicographic scan
  // keeping the first strict improvement finds.  A vector whose bound is
  // below the incumbent cannot score as much, and neither can any vector
  // after it in `order`.
  double best_value = 0.0;
  std::size_t best_number = 0;
  RatioBuffer best_ratios{};
  std::uint64_t solves = 0;
  std::uint64_t evals = 0;
  for (const auto& [bound, number] : order) {
    if (bound < best_value) break;
    decode(number);
    std::array<RawGroup, kMaxSubsetGroups> raw;
    std::array<std::size_t, kMaxSubsetGroups> index;
    std::size_t m = 0;
    for (std::size_t g = 0; g < n; ++g) {
      if (k[g] == 0) continue;
      raw[m] = raw_group(groups[g], k[g]);
      index[m++] = g;
    }
    ++solves;
    const BestCandidate c = analytic_solve({raw.data(), m}, P, evals);
    if (c.value > best_value ||
        (c.value == best_value && number < best_number)) {
      best_value = c.value;
      best_number = number;
      best_ratios.fill(0.0);
      for (std::size_t j = 0; j < m; ++j) best_ratios[index[j]] = c.ratios[j];
    }
  }

  decode(best_number);
  Allocation best{{best_ratios.begin(), best_ratios.begin() + n},
                  best_value,
                  std::vector<int>(n, 0)};
  for (std::size_t g = 0; g < n; ++g) {
    if (best.ratios[g] > 0.0) best.active_counts[g] = k[g];
  }
  // Subset performance is computed against activation counts, so a repair
  // must not overwrite it with the whole-group estimate.
  sanitize_allocation(groups, total_supply, /*recompute_perf=*/false, best);
  report_solve(Backend::kSubset, groups, total_supply, best, solves);
  return best;
}

}  // namespace greenhetero
