// The minikernel's memory allocators, ported to SVA per Section 6.2:
//
//  * kmem_cache_create/alloc/free — the pool allocator (typed slab caches).
//    Ported changes: SLAB_NO_REAP semantics (pages never leave a live
//    pool), type-size slot alignment, and per-cache metapool registration.
//  * kmalloc/kfree — the ordinary allocator, implemented as a collection of
//    size-class caches; the exposed relationship means one metapool per
//    size class rather than one for all of kmalloc.
//  * alloc_bootmem — early boot allocation, usable before the caches exist.
//
// In the kSvaSafe configuration every allocation/free performs the
// pchk.reg.obj/pchk.drop.obj work against the MetaPool runtime — this is
// the instrumentation the safety-checking compiler inserts, applied to the
// natively-compiled kernel.
#ifndef SVA_SRC_KERNEL_ALLOC_H_
#define SVA_SRC_KERNEL_ALLOC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/config.h"
#include "src/runtime/metapool_runtime.h"
#include "src/runtime/pool_allocator.h"
#include "src/support/status.h"

namespace sva::kernel {

// PageProvider over the machine's physical page allocator.
class MachinePages : public runtime::PageProvider {
 public:
  explicit MachinePages(hw::Machine& machine) : machine_(machine) {}
  uint64_t AllocatePage() override { return machine_.AllocatePhysicalPage(); }
  uint64_t page_size() const override { return hw::kPageSize; }
  uint64_t span() const override { return machine_.memory().size(); }

 private:
  hw::Machine& machine_;
};

class KernelAllocators {
 public:
  KernelAllocators(hw::Machine& machine, runtime::MetaPoolRuntime* pools,
                   bool safety_checks);

  // kmem_cache_create: returns a cache handle. In safe mode a TH complete
  // metapool is created for the cache.
  runtime::PoolAllocator* CreateCache(const std::string& name,
                                      uint64_t object_size);
  // kmem_cache_alloc / kmem_cache_free.
  Result<uint64_t> CacheAlloc(runtime::PoolAllocator* cache);
  Status CacheFree(runtime::PoolAllocator* cache, uint64_t addr);

  // kmalloc / kfree.
  Result<uint64_t> Kmalloc(uint64_t size);
  Status Kfree(uint64_t addr);
  uint64_t KmallocSize(uint64_t addr) const {
    return kmalloc_->AllocationSize(addr);
  }
  const runtime::OrdinaryAllocator& kmalloc() const { return *kmalloc_; }

  // _alloc_bootmem: early allocations, registered like kmalloc's.
  Result<uint64_t> AllocBootmem(uint64_t size);

  // The metapool an address of this cache belongs to (safe mode only).
  runtime::MetaPool* PoolForCache(const runtime::PoolAllocator* cache) const;
  runtime::MetaPool* PoolForKmallocClass(uint64_t size) const;

  runtime::MetaPoolRuntime* pools() { return pools_; }
  bool safety_checks() const { return safety_checks_; }

 private:
  MachinePages pages_;
  runtime::MetaPoolRuntime* pools_;  // Null when checks are off.
  const bool safety_checks_;
  std::unique_ptr<runtime::OrdinaryAllocator> kmalloc_;
  std::map<std::string, std::unique_ptr<runtime::PoolAllocator>> caches_;
  std::map<const runtime::PoolAllocator*, runtime::MetaPool*> cache_pools_;
  // Indexed like kmalloc_->caches(); empty when checks are off.
  std::vector<runtime::MetaPool*> kmalloc_pools_;
};

}  // namespace sva::kernel

#endif  // SVA_SRC_KERNEL_ALLOC_H_
