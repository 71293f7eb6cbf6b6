// Fault injector: expands a FaultPlan's windowed events into a sorted
// stream of begin/end actions and hands the simulator the actions due at
// each substep boundary.  The injector is pure schedule replay — it holds
// no randomness and no simulator state, so it is trivially deterministic.
#pragma once

#include <vector>

#include "faults/fault_plan.h"
#include "util/units.h"

namespace greenhetero {

/// One edge of a fault window.  `begin == false` marks the window's end
/// (the simulator undoes the fault's effect).
struct FaultAction {
  Minutes at{0.0};
  FaultKind kind = FaultKind::kServerCrash;
  bool begin = true;
  int target = -1;
  double value = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// All actions due at or before `now`, in schedule order; each action is
  /// returned exactly once across calls.
  [[nodiscard]] std::vector<FaultAction> take_due(Minutes now);

  [[nodiscard]] bool exhausted() const { return next_ >= actions_.size(); }
  [[nodiscard]] std::size_t pending() const {
    return actions_.size() - next_;
  }

  /// Checkpoint the delivery cursor only — the action schedule itself is
  /// rebuilt deterministically from the configured plan on resume.
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.fixed_count(self.actions_.size(), "fault injector: action count");
    io.cursor(self.next_, self.actions_.size(), "fault injector: cursor");
  }

 private:
  std::vector<FaultAction> actions_;  ///< sorted by (at, end-before-begin)
  std::size_t next_ = 0;
};

}  // namespace greenhetero
