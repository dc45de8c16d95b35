#include "src/net/skb.h"

namespace sva::net {

SkbPool::SkbPool(hw::Machine& machine, runtime::MetaPoolRuntime* pools,
                 bool safety_checks)
    : pages_(machine),
      cache_("skbuff", kSkbBufferBytes, pages_),
      pools_(safety_checks ? pools : nullptr) {
  if (pools_ != nullptr) {
    metapool_ = pools_->GetPool("MPc.skbuff", /*type_homogeneous=*/true,
                                kSkbBufferBytes, /*complete=*/true);
    // Every buffer is one 2 KiB slot of cache_: registering, dropping and
    // bounds-checking a frame is one bit operation on the slab registry.
    metapool_->UseSlabRegistry(cache_);
  }
}

Result<Skb> SkbPool::Alloc() {
  uint64_t addr = cache_.Allocate();
  if (addr == 0) {
    return FailedPrecondition("skb pool exhausted");
  }
  if (pools_ != nullptr) {
    Status reg = pools_->RegisterObject(*metapool_, addr, kSkbBufferBytes);
    if (!reg.ok()) {
      (void)cache_.Free(addr);
      return reg;
    }
  }
  Skb skb;
  skb.addr = addr;
  return skb;
}

Status SkbPool::Free(uint64_t addr) {
  if (pools_ != nullptr) {
    SVA_RETURN_IF_ERROR(pools_->DropObject(*metapool_, addr));
  }
  return cache_.Free(addr);
}

}  // namespace sva::net
