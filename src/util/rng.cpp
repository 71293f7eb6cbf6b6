#include "util/rng.h"

#include <sstream>
#include <string>

#include "checkpoint/serializer.h"

namespace greenhetero {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Rng Rng::fork(std::uint64_t label) const {
  // splitmix64-style mix of (seed, label); independent of this engine's
  // consumed state so forking is order-insensitive.
  std::uint64_t z = seed_ + label * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return Rng{z};
}

template <class Self, class Io>
void Rng::fields(Self& self, Io& io) {
  io.u64(self.seed_);
  // The standard guarantees operator<< / operator>> round-trip the engine
  // exactly; the textual image is locale-independent digits and spaces.
  std::string image;
  if constexpr (!Io::kLoading) {
    std::ostringstream state;
    state << self.engine_;
    image = state.str();
  }
  io.str(image);
  if constexpr (Io::kLoading) {
    std::istringstream state(image);
    state >> self.engine_;
    if (state.fail()) {
      throw checkpoint::CheckpointError("rng: malformed engine state image");
    }
  }
}

GH_CHECKPOINT_FIELDS(Rng);

}  // namespace greenhetero
