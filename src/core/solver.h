// Problem Solver (Section IV-B.3).
//
// Given the database's per-server quadratic projections, the Solver finds
// the power allocation ratios (PAR) that maximise total rack performance:
//
//   maximise  sum_i  count_i * Perf_i(ratio_i * P_total / count_i)
//   s.t.      sum_i ratio_i <= 1,  ratio_i >= 0
//
// where Perf_i is the clamped projection (zero below the server's operating
// range, flat above it) and servers of one type share their group's power
// equally.  The surplus ratio 1 - sum(ratio_i) is left for battery charging.
//
// Solver::solve is the one exact engine: a closed-form KKT active-set
// sweep for any group count up to 16 — exhaustive over active sets, exact
// per-set Lagrangian, every candidate validated against the full clamped
// objective.  check::oracle_solve (an exhaustive simplex scan sharing no
// code with it) is the reference the tests and benches measure it against;
// solve_subset is the subset-activation extension, an exact search over
// active-count vectors that runs the same engine once per vector it cannot
// rule out.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "core/database.h"
#include "util/units.h"

namespace greenhetero {

class SolverError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the Solver knows about one server group: the fitted projection, the
/// observed operating range, and the group size.
struct GroupModel {
  Quadratic fit;          ///< per-server Perf = a*P^2 + b*P + c
  Watts min_power{0.0};   ///< below this a server cannot operate
  Watts max_power{0.0};   ///< above this performance is flat
  int count = 1;

  /// Clamped per-server projection (paper Equations 6-7 semantics).
  [[nodiscard]] double perf_at(Watts per_server) const;
  /// Per-server power beyond which more watts buy nothing (the smaller of
  /// max_power and the fitted vertex when the parabola opens downward).
  [[nodiscard]] Watts saturation_power() const;

  /// Build from a database record.
  [[nodiscard]] static GroupModel from_record(const ProfileRecord& record,
                                              int count);

};

/// A solved allocation: one ratio per group (of the total supply), summing
/// to <= 1, plus the model-predicted rack performance.
///
/// `active_counts` is empty for the paper's policies (every server of a
/// group shares its power).  The subset-activation extension fills it: the
/// group's power goes to that many servers and the rest sleep.
struct Allocation {
  std::vector<double> ratios;
  double predicted_perf = 0.0;
  std::vector<int> active_counts;

  [[nodiscard]] double ratio_sum() const;

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64_array(self.ratios);
    io.f64(self.predicted_perf);
    io.seq(self.active_counts, [&io](auto& n) { io.i64(n); });
  }
};

class Solver {
 public:
  /// Main entry: the closed-form KKT/water-filling engine for 1..16 groups.
  /// Sweeps active sets with each group clamped at its idle floor or
  /// saturation cap, solves the interior Lagrangian in closed form per set,
  /// and validates every candidate against the full clamped objective.
  /// Exact on concave fits; degenerate (near-linear / convex) fits are
  /// handled by endpoint enumeration plus a residual absorber and stay
  /// within the differential oracle's tolerance.  Emits the "solve" trace
  /// event and counters under the backend label "analytic_n".
  [[nodiscard]] static Allocation solve(std::span<const GroupModel> groups,
                                        Watts total_supply);

  /// Largest group count solve_subset accepts.  Over 1000 seeded
  /// check::random_group_models instances of up to 4 groups of 1..6 servers
  /// (at most 2401 count vectors) the slowest solve took 0.46 ms, mean
  /// 0.013 ms (Release, shared 4-core Xeon VM; 0.82 ms under load);
  /// allowing 5 groups (at most 16807 vectors) the slowest took 2.5 ms
  /// (4.8 ms under load), past the 1 ms budget a solve may take.
  static constexpr std::size_t kMaxSubsetGroups = 4;

  /// Subset-activation extension (beyond the paper): like solve(), but each
  /// group may concentrate its share on k <= count servers and sleep the
  /// rest — under deep scarcity, fully powering a few servers beats
  /// spreading watts below everyone's floor.  For a fixed active-count
  /// vector k this *is* solve()'s problem with count = k_g, so the result
  /// is the best such solve over every vector, exactly as a lexicographic
  /// scan keeping the first strict improvement finds it: nobody is woken
  /// when every vector scores 0.  Vectors are visited best upper bound
  /// first and the scan stops at the first bound below the incumbent.
  /// Fills Allocation::active_counts (0 for a group the winning solve
  /// leaves unpowered).
  [[nodiscard]] static Allocation solve_subset(
      std::span<const GroupModel> groups, Watts total_supply);

  /// Model-predicted performance of an arbitrary ratio vector.
  [[nodiscard]] static double evaluate(std::span<const GroupModel> groups,
                                       std::span<const double> ratios,
                                       Watts total_supply);
};

}  // namespace greenhetero
