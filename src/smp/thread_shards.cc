#include "src/smp/thread_shards.h"

#include <algorithm>
#include <utility>

namespace sva::smp::internal {
namespace {

std::atomic<uint64_t> next_shard_set_id{1};

// Every shard the thread claimed. Its destructor, at thread exit, hands each
// one back to its registry if the registry still exists.
struct ThreadClaims {
  std::vector<std::pair<std::weak_ptr<ShardRegistryBase>, void*>> claims;
  size_t prune_at = 64;

  ~ThreadClaims() {
    for (auto& [registry, slot] : claims) {
      if (std::shared_ptr<ShardRegistryBase> live = registry.lock()) {
        live->Release(slot);
      }
    }
    for (TlsShardEntry& e : tls_shards) {
      e = TlsShardEntry{};
    }
  }
};

thread_local ThreadClaims thread_claims;

}  // namespace

uint64_t NextShardSetId() {
  return next_shard_set_id.fetch_add(1, std::memory_order_relaxed);
}

const void* ThreadToken() { return &thread_claims; }

void NoteClaim(std::weak_ptr<ShardRegistryBase> registry, void* slot) {
  ThreadClaims& mine = thread_claims;
  // A long-lived thread touching many short-lived sets (one runtime per
  // test, say) drops the claims of destroyed sets as it goes.
  if (mine.claims.size() >= mine.prune_at) {
    std::erase_if(mine.claims,
                  [](const auto& claim) { return claim.first.expired(); });
    mine.prune_at = std::max<size_t>(64, 2 * mine.claims.size());
  }
  mine.claims.emplace_back(std::move(registry), slot);
}

}  // namespace sva::smp::internal
