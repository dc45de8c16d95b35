#include "src/kernel/alloc.h"

#include "src/support/strings.h"

namespace sva::kernel {

KernelAllocators::KernelAllocators(hw::Machine& machine,
                                   runtime::MetaPoolRuntime* pools,
                                   bool safety_checks)
    : pages_(machine),
      pools_(pools),
      safety_checks_(safety_checks && pools != nullptr),
      kmalloc_(std::make_unique<runtime::OrdinaryAllocator>(pages_)) {
  if (safety_checks_) {
    // SVA-PORT(alloc): one metapool per kmalloc size class — the exposed
    // kmalloc/kmem_cache relationship of Section 6.2 avoids merging all of
    // kmalloc. Every object of a class's pool comes from that class's
    // cache, so a class whose slots fit in a page gets the slab-indexed
    // registry (slab_registry.h on why that is sound for these non-TH
    // pools too).
    for (const auto& cache : kmalloc_->caches()) {
      runtime::MetaPool* pool = pools_->GetPool(
          StrCat("MPk.", cache->name()), /*type_homogeneous=*/false,
          /*element_size=*/cache->object_size(), /*complete=*/true);
      pool->UseSlabRegistry(*cache);
      kmalloc_pools_.push_back(pool);
    }
  }
}

runtime::PoolAllocator* KernelAllocators::CreateCache(const std::string& name,
                                                      uint64_t object_size) {
  auto cache =
      std::make_unique<runtime::PoolAllocator>(name, object_size, pages_);
  runtime::PoolAllocator* raw = cache.get();
  caches_[name] = std::move(cache);
  if (safety_checks_) {
    // SVA-PORT(alloc): typed caches map to type-homogeneous, complete
    // metapools; identified to the safety-checking compiler at creation.
    // A cache whose slots fit in a page gets the slab-indexed registry.
    runtime::MetaPool* pool =
        pools_->GetPool(StrCat("MPc.", name), /*type_homogeneous=*/true,
                        object_size, /*complete=*/true);
    pool->UseSlabRegistry(*raw);
    cache_pools_[raw] = pool;
  }
  return raw;
}

Result<uint64_t> KernelAllocators::CacheAlloc(runtime::PoolAllocator* cache) {
  uint64_t addr = cache->Allocate();
  if (addr == 0) {
    return Internal(StrCat("cache ", cache->name(), ": out of memory"));
  }
  if (safety_checks_) {
    // SVA-PORT(alloc): object registration inserted at the allocation site.
    SVA_RETURN_IF_ERROR(pools_->RegisterObject(*cache_pools_.at(cache), addr,
                                               cache->object_size()));
  }
  return addr;
}

Status KernelAllocators::CacheFree(runtime::PoolAllocator* cache,
                                   uint64_t addr) {
  if (safety_checks_) {
    SVA_RETURN_IF_ERROR(pools_->DropObject(*cache_pools_.at(cache), addr));
  }
  return cache->Free(addr);
}

Result<uint64_t> KernelAllocators::Kmalloc(uint64_t size) {
  uint64_t addr = kmalloc_->Allocate(size);
  if (addr == 0) {
    return Internal(StrCat("kmalloc(", size, "): out of memory"));
  }
  if (safety_checks_) {
    const size_t cls = runtime::OrdinaryAllocator::ClassIndex(size);
    SVA_RETURN_IF_ERROR(pools_->RegisterObject(
        *kmalloc_pools_[cls], addr, kmalloc_->caches()[cls]->object_size()));
  }
  return addr;
}

Status KernelAllocators::Kfree(uint64_t addr) {
  if (safety_checks_) {
    uint64_t cls = kmalloc_->AllocationSize(addr);
    if (cls == 0) {
      return SafetyViolation(
          StrCat("kfree of unknown address 0x", std::hex, addr));
    }
    SVA_RETURN_IF_ERROR(pools_->DropObject(*PoolForKmallocClass(cls), addr));
  }
  return kmalloc_->Free(addr);
}

Result<uint64_t> KernelAllocators::AllocBootmem(uint64_t size) {
  // Bootmem shares the kmalloc implementation during normal operation; a
  // real kernel would use a distinct early allocator (Section 6.2: the
  // stack-promotion interface uses _alloc_bootmem early, kmalloc later).
  return Kmalloc(size);
}

runtime::MetaPool* KernelAllocators::PoolForCache(
    const runtime::PoolAllocator* cache) const {
  auto it = cache_pools_.find(cache);
  return it == cache_pools_.end() ? nullptr : it->second;
}

runtime::MetaPool* KernelAllocators::PoolForKmallocClass(uint64_t size) const {
  const size_t cls = runtime::OrdinaryAllocator::ClassIndex(size);
  return cls < kmalloc_pools_.size() ? kmalloc_pools_[cls] : nullptr;
}

}  // namespace sva::kernel
