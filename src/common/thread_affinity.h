// Spreading a process's own threads over the CPUs it may run on.
//
// Threads a process starts together can stay on the CPU they were created
// on for a whole short run (seen on a 4-vCPU VM: 8 busy threads on one CPU
// for 0.57 s), which serializes them: a concurrent storm then measures one
// core and its locks are never contended. Pinning thread t to the
// (t mod n)-th allowed CPU makes such threads overlap. Only the calling
// thread's affinity changes, within the set the process was given.
#ifndef COOPFS_SRC_COMMON_THREAD_AFFINITY_H_
#define COOPFS_SRC_COMMON_THREAD_AFFINITY_H_

namespace coopfs {

// Number of CPUs the calling thread may run on; 1 where that is unknown.
int AllowedCpuCount();

// Pins the calling thread to the (index mod n)-th of the n CPUs it may run
// on. Returns false where it could not (no affinity API, or the call
// failed); the thread then keeps its previous affinity.
bool PinToAllowedCpu(unsigned index);

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_THREAD_AFFINITY_H_
