#include "isex/obs/provenance.hpp"

#include <unistd.h>

#include <cstdlib>
#include <ostream>
#include <thread>

#include "isex/obs/metrics.hpp"

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

void write_provenance_json(std::ostream& out, const Provenance& p) {
  out << "{\"build_type\": \"" << json_escape(p.build_type)
      << "\", \"git_sha\": \"" << json_escape(p.git_sha)
      << "\", \"load_avg_1m\": " << p.load_avg_1m
      << ", \"num_cpus\": " << p.num_cpus << ", \"hostname\": \""
      << json_escape(p.hostname) << "\"}";
}

}  // namespace isex::obs
