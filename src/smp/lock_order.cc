#include "src/smp/lock_order.h"

#include <cstdio>
#include <cstdlib>

namespace sva::smp {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kVfs:
      return "vfs";
    case LockRank::kInode:
      return "inode";
    case LockRank::kTasks:
      return "tasks";
    case LockRank::kPipes:
      return "pipes";
    case LockRank::kEvq:
      return "evq";
    case LockRank::kFiles:
      return "files";
    case LockRank::kAddrSpace:
      return "addrspace";
  }
  return "unknown";
}

void LockOrderChecker::FatalInversion(LockRank incoming, const uint8_t* held,
                                      int depth) {
  std::fprintf(stderr,
               "lock-order violation: acquiring %s(rank %u) while holding [",
               LockRankName(incoming), static_cast<unsigned>(incoming));
  for (int i = 0; i < depth; ++i) {
    std::fprintf(stderr, "%s%s(rank %u)", i ? " -> " : "",
                 LockRankName(static_cast<LockRank>(held[i])),
                 static_cast<unsigned>(held[i]));
  }
  std::fprintf(stderr,
               "]; required order is vfs -> inode -> tasks -> pipes -> evq -> "
               "files -> addrspace (docs/CONCURRENCY.md)\n");
  std::abort();
}

}  // namespace sva::smp
