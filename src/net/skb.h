// The packet-buffer allocator: skb-style fixed-size buffers carved from a
// dedicated kernel pool (the skbuff cache) *correlated* with a metapool —
// the paper's core mechanism applied to the packet path. Every buffer that
// DMA can land in or that the stack frames into is pchk.reg.obj'd on
// allocation and pchk.drop.obj'd on free, so the parser's pointer
// arithmetic over header length fields is checkable against true object
// bounds.
#ifndef SVA_SRC_NET_SKB_H_
#define SVA_SRC_NET_SKB_H_

#include <cstdint>

#include "src/hw/machine.h"
#include "src/runtime/metapool_runtime.h"
#include "src/runtime/pool_allocator.h"
#include "src/support/status.h"

namespace sva::net {

// One buffer size fits every frame (MTU 1500 + link header + headroom),
// like Linux's single-size skb data area for MTU-sized traffic.
inline constexpr uint64_t kSkbBufferBytes = 2048;

// A packet buffer handle: the pool object's address in machine memory plus
// the number of valid frame bytes in it.
struct Skb {
  uint64_t addr = 0;
  uint32_t len = 0;
};

// PageProvider over the machine's bump allocator (the net subsystem's own
// instance: no dependency on the kernel's allocator wiring).
class NetPages : public runtime::PageProvider {
 public:
  explicit NetPages(hw::Machine& machine) : machine_(machine) {}
  uint64_t AllocatePage() override { return machine_.AllocatePhysicalPage(); }
  uint64_t page_size() const override { return hw::kPageSize; }
  uint64_t span() const override { return machine_.memory().size(); }

 private:
  hw::Machine& machine_;
};

class SkbPool {
 public:
  // `pools` may be null (no-check kernel modes); with checks on, a TH
  // complete metapool "MPc.skbuff" tracks every live buffer.
  SkbPool(hw::Machine& machine, runtime::MetaPoolRuntime* pools,
          bool safety_checks);

  // SVA-PORT(alloc): allocation performs the pchk.reg.obj the safety
  // compiler inserts after kmem_cache_alloc.
  Result<Skb> Alloc();
  // SVA-PORT(alloc): free performs pchk.drop.obj before the slot returns
  // to the cache's free list.
  Status Free(uint64_t addr);

  runtime::MetaPool* metapool() { return metapool_; }
  const runtime::PoolAllocator& cache() const { return cache_; }
  uint64_t live() const { return cache_.live_objects(); }

 private:
  NetPages pages_;
  runtime::PoolAllocator cache_;
  runtime::MetaPoolRuntime* pools_;
  runtime::MetaPool* metapool_ = nullptr;
};

}  // namespace sva::net

#endif  // SVA_SRC_NET_SKB_H_
