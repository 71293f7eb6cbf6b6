// reproduce: the paper's figures, tables and ablations from one declared
// matrix (bench_common.h).  Each named figure prints its tables and writes
// <figure>.json, every double in shortest round-trip form, to
// $GH_BENCH_OUT_DIR (else the current directory); no argument runs them all.
//
//   reproduce                                   # every figure
//   reproduce fig8 fig11                        # just these
//   GH_BENCH_OUT_DIR=bench/figures reproduce    # refresh the committed set
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace greenhetero::bench;
  const std::vector<std::string_view> known = figure_names();
  std::vector<std::string_view> chosen(argv + 1, argv + argc);
  for (std::string_view name : chosen) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string list;
    for (std::string_view k : known) (list += ' ') += k;
    std::fprintf(stderr, "reproduce: unknown figure '%s'; one of:%s\n",
                 std::string(name).c_str(), list.c_str());
    return 2;
  }
  if (chosen.empty()) chosen = known;

  for (std::string_view name : chosen) {
    const Rendered figure = render(name);
    const std::string path = out_dir() + "/" + std::string(name) + ".json";
    std::ofstream out(path);
    out << figure.json;
    if (!out) {
      std::fprintf(stderr, "reproduce: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s-> %s\n\n", figure.text.c_str(), path.c_str());
  }
  return 0;
}
