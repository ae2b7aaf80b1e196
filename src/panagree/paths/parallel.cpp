#include "panagree/paths/parallel.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace panagree::paths {

namespace {

std::size_t online_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return online_cpus();
}

std::string affinity_summary() {
  return "cpus=" + std::to_string(resolve_thread_count(0)) + "/" +
         std::to_string(online_cpus());
}

}  // namespace panagree::paths
