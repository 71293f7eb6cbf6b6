#include "server/server_spec.h"

#include <string>

namespace greenhetero {

namespace {

constexpr std::array<ServerSpec, kServerModelCount> kSpecs = {{
    {ServerModel::kXeonE5_2620, "Xeon E5-2620", 2.0, 2, 12, Watts{178.0},
     Watts{88.0}, false, 12},
    {ServerModel::kXeonE5_2650, "Xeon E5-2650", 2.0, 1, 8, Watts{112.0},
     Watts{66.0}, false, 12},
    {ServerModel::kXeonE5_2603, "Xeon E5-2603", 1.8, 1, 4, Watts{79.0},
     Watts{58.0}, false, 10},
    {ServerModel::kCoreI7_8700K, "Core i7-8700K", 3.7, 1, 6, Watts{88.0},
     Watts{39.0}, false, 16},
    {ServerModel::kCoreI5_4460, "Core i5-4460", 3.2, 1, 4, Watts{96.0},
     Watts{47.0}, false, 14},
    {ServerModel::kTitanXp, "Nvidia Titan Xp", 1.582, 1, 3840, Watts{411.0},
     Watts{149.0}, true, 20},
}};

}  // namespace

const ServerSpec& server_spec(ServerModel model) {
  for (const auto& spec : kSpecs) {
    if (spec.model == model) return spec;
  }
  throw std::invalid_argument("unknown server model");
}

std::span<const ServerSpec> all_server_specs() { return kSpecs; }

}  // namespace greenhetero
