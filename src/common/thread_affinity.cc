#include "src/common/thread_affinity.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace coopfs {

int AllowedCpuCount() {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 && CPU_COUNT(&allowed) > 0) {
    return CPU_COUNT(&allowed);
  }
#endif
  return 1;
}

bool PinToAllowedCpu(unsigned index) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) == 0) {
    return false;
  }
  int skip = static_cast<int>(index % static_cast<unsigned>(CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    }
  }
#else
  (void)index;
#endif
  return false;
}

}  // namespace coopfs
