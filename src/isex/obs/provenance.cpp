#include "isex/obs/provenance.hpp"

#include <unistd.h>

#include <cstdlib>
#include <thread>

#ifndef ISEX_BUILD_TYPE
#define ISEX_BUILD_TYPE "unknown"
#endif
#ifndef ISEX_CONFIGURE_GIT_SHA
#define ISEX_CONFIGURE_GIT_SHA "unknown"
#endif

namespace isex::obs {

Provenance collect_provenance() {
  Provenance p;
  p.build_type = ISEX_BUILD_TYPE;
  if (p.build_type.empty()) p.build_type = "unknown";
  const char* sha = std::getenv("GITHUB_SHA");
  if (sha == nullptr || *sha == '\0') sha = std::getenv("ISEX_GIT_SHA");
  p.git_sha = (sha != nullptr && *sha != '\0') ? sha : ISEX_CONFIGURE_GIT_SHA;
  double loads[1] = {-1.0};
  if (::getloadavg(loads, 1) == 1) p.load_avg_1m = loads[0];
  p.num_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (p.num_cpus <= 0) p.num_cpus = 1;
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p.hostname = host;
  } else {
    p.hostname = "unknown";
  }
  return p;
}

void write_provenance_json(util::JsonWriter& w, const Provenance& p) {
  w.begin_object().key("build_type").string(p.build_type);
  w.key("git_sha").string(p.git_sha);
  w.key("load_avg_1m").number(p.load_avg_1m);
  w.key("num_cpus").integer(p.num_cpus);
  w.key("hostname").string(p.hostname).end_object();
}

}  // namespace isex::obs
