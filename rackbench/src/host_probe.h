// A fixed reference kernel that measures how fast the host runs right now.
//
// On a shared host the same code runs up to a third slower when other
// tenants load the machine, and that state drifts over minutes, so two
// sets of timed runs of one program disagree by more than any useful
// regression bound.  The end-to-end run times this kernel between its
// timed chunks and divides each run's time by the kernel's median time in
// that run, which cancels most of the drift.
//
// The kernel mixes the kinds of work a rack-epoch does: dependent
// floating-point smoothing loops, table lookups in an L2-sized array,
// sorting, and a node-based map with heap blocks of assorted sizes.  It is
// the benchmark's own code and calls nothing in the library (its heap
// blocks come from malloc, not from the global operator new the library
// replaces), so no change to the library can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace rackbench {

class HostProbe {
 public:
  HostProbe();

  /// Seconds taken by one pass of the kernel.
  double run();

  /// The kernel's median pass on the reference host (a 4-vCPU Xeon VM),
  /// the scale at which host-normalized times are reported.
  static constexpr double kReferenceSeconds = 3.2e-3;

 private:
  std::vector<double> series_;
  std::vector<std::uint64_t> table_;
  std::vector<int> keys_;
  std::vector<int> sorted_;
  double sink_ = 0.0;
};

}  // namespace rackbench
