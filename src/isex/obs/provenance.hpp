// isex::obs — benchmark provenance: where did this BENCH_*.json come from?
//
// Every bench emitter stamps its output with the build type, git revision,
// load average and CPU count at run time. tools/bench_compare refuses to
// diff runs whose provenance makes the comparison meaningless (debug vs
// release, or a machine under heavy unrelated load) — the original
// BENCH_micro.json baseline was recorded in a debug build at load ≈ 15 and
// silently compared as if it meant something.
#pragma once

#include <string>

#include "isex/util/json_writer.hpp"

namespace isex::obs {

struct Provenance {
  std::string build_type;   // CMAKE_BUILD_TYPE baked in at compile time
  std::string git_sha;      // $GITHUB_SHA or $ISEX_GIT_SHA, else the sha
                            // at configure time (+"-dirty"), else "unknown"
  double load_avg_1m = -1;  // getloadavg(); -1 if unavailable
  int num_cpus = 0;
  std::string hostname;
};

/// Captures provenance for the current process/build.
Provenance collect_provenance();

/// Writes `{"build_type":..,"git_sha":..,"load_avg_1m":..,"num_cpus":..,
/// "hostname":..}`.
void write_provenance_json(util::JsonWriter& w, const Provenance& p);

}  // namespace isex::obs
