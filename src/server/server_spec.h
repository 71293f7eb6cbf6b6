// Server platform descriptions (Table II of the paper).
//
// Six configurations are evaluated: five Intel CPU platforms spanning three
// microarchitecture generations plus an Nvidia Titan Xp GPU node.  The
// peak/idle powers here are the paper's measured wall powers and are the
// anchor points of every ground-truth performance curve in the simulator.
#pragma once

#include <array>
#include <span>
#include <stdexcept>
#include <string_view>

#include "util/units.h"

namespace greenhetero {

enum class ServerModel {
  kXeonE5_2620,  ///< 2.0 GHz, 2 sockets, 12 cores, 178 W / 88 W
  kXeonE5_2650,  ///< 2.0 GHz, 1 socket, 8 cores, 112 W / 66 W
  kXeonE5_2603,  ///< 1.8 GHz, 1 socket, 4 cores, 79 W / 58 W
  kCoreI7_8700K, ///< 3.7 GHz, 1 socket, 6 cores, 88 W / 39 W
  kCoreI5_4460,  ///< 3.2 GHz, 1 socket, 4 cores, 96 W / 47 W
  kTitanXp,      ///< 1582 MHz, 3840 CUDA cores, 411 W / 149 W
};

inline constexpr int kServerModelCount = 6;

struct ServerSpec {
  ServerModel model;
  std::string_view name;
  double frequency_ghz;
  int sockets;
  int cores;
  Watts peak_power;
  Watts idle_power;
  bool is_gpu;
  /// Number of operating DVFS states (frequency levels) between idle and
  /// peak; the power-state set S_N of Section IV-B.4 additionally contains
  /// the off/sleep state below them.
  int dvfs_states;

  /// Dynamic power range available to allocation decisions.
  [[nodiscard]] Watts dynamic_range() const { return peak_power - idle_power; }
};

/// Table II entry for a model.
[[nodiscard]] const ServerSpec& server_spec(ServerModel model);

/// All six Table II configurations.
[[nodiscard]] std::span<const ServerSpec> all_server_specs();

}  // namespace greenhetero
