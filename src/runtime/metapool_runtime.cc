#include "src/runtime/metapool_runtime.h"

#include <algorithm>
#include <vector>

#include "src/smp/epoch.h"
#include "src/support/strings.h"
#include "src/trace/trace.h"

namespace sva::runtime {

const char* CheckKindName(CheckKind kind) {
  switch (kind) {
    case CheckKind::kBounds:
      return "bounds";
    case CheckKind::kLoadStore:
      return "load-store";
    case CheckKind::kIndirectCall:
      return "indirect-call";
    case CheckKind::kIllegalFree:
      return "illegal-free";
    case CheckKind::kRegistration:
      return "registration";
  }
  return "unknown";
}

namespace {

// --- Per-thread object-lookup cache ----------------------------------------
//
// Each thread keeps a small table of per-pool caches keyed by the pool's
// globally unique cache id (direct-mapped; a collision merely evicts, a
// perf event, never a correctness one). An entry records the pool
// generation observed before the locked tree lookup that produced it; the
// probe re-reads the pool's generation and refuses any older entry. Since a
// drop bumps the generation only after the removal leaves the tree, an
// entry describing a dropped object is always generation-stale by the time
// the drop returns — no locks on the hit path.
struct TlsPoolCache {
  uint64_t pool_id = 0;  // 0 = empty slot.
  uint64_t generation = 0;
  // Global epoch in which `generation` was last verified against the pool.
  // While the epoch has not advanced, TlsProbe skips the generation
  // acquire load entirely (see the soundness argument there).
  uint64_t epoch = 0;
  LookupCache cache;
};

constexpr size_t kTlsPoolCacheSlots = 32;
thread_local std::array<TlsPoolCache, kTlsPoolCacheSlots> tls_pool_caches;

// Pool cache ids are never recycled, so a stale TLS slot can never be
// mistaken for a newly created pool occupying the same slot.
std::atomic<uint64_t> next_pool_cache_id{1};

using smp::Bump;
using smp::LoadCounter;
using smp::StoreCounter;

}  // namespace

// --- MetaPool ---------------------------------------------------------------

MetaPool::MetaPool(std::string name, bool type_homogeneous,
                   uint64_t element_size, bool complete)
    : name_(std::move(name)),
      type_homogeneous_(type_homogeneous),
      element_size_(element_size),
      complete_(complete),
      cache_id_(next_pool_cache_id.fetch_add(1, std::memory_order_relaxed)) {}

uint32_t MetaPool::StripeMaskFor(uint64_t start, uint64_t size) {
  constexpr uint32_t kAllStripes = (1u << kNumStripes) - 1;
  uint64_t first = start >> kStripeShift;
  uint64_t last = first;
  if (size != 0) {
    uint64_t len = size - 1;
    uint64_t end_inclusive =
        start > UINT64_MAX - len ? UINT64_MAX : start + len;
    last = end_inclusive >> kStripeShift;
  }
  if (last - first >= kNumStripes - 1) {
    return kAllStripes;
  }
  uint32_t mask = 0;
  for (uint64_t w = first;; ++w) {
    mask |= 1u << (w & (kNumStripes - 1));
    if (w == last) {
      break;
    }
  }
  return mask;
}

namespace {
// Locks the masked stripes in ascending index order (the repo-wide stripe
// lock order; see DESIGN.md §SMP) and releases them on destruction.
template <typename StripeArray>
class StripeMaskLock {
 public:
  StripeMaskLock(StripeArray& stripes, uint32_t mask)
      : stripes_(stripes), mask_(mask) {
    for (size_t i = 0; i < stripes_.size(); ++i) {
      if (mask_ & (1u << i)) {
        stripes_[i].lock.lock();
      }
    }
  }
  ~StripeMaskLock() {
    for (size_t i = 0; i < stripes_.size(); ++i) {
      if (mask_ & (1u << i)) {
        stripes_[i].lock.unlock();
      }
    }
  }
  StripeMaskLock(const StripeMaskLock&) = delete;
  StripeMaskLock& operator=(const StripeMaskLock&) = delete;

 private:
  StripeArray& stripes_;
  const uint32_t mask_;
};
}  // namespace

bool MetaPool::UseSlabRegistry(const PoolAllocator& allocator) {
  const PageProvider& pages = allocator.pages();
  if (slab_ != nullptr) {
    return slab_->page_size() == pages.page_size() &&
           slab_->stride() == allocator.slot_stride() &&
           slab_->object_size() == allocator.object_size() &&
           slab_->span() == pages.span();
  }
  if (live_objects() != 0) {
    return false;
  }
  slab_ = SlabRegistry::Create(pages.page_size(), allocator.slot_stride(),
                               allocator.object_size(), pages.span());
  return slab_ != nullptr;
}

bool MetaPool::RegisterRange(uint64_t start, uint64_t size) {
  if (slab_ != nullptr) {
    if (!slab_->Register(start, size)) {
      return false;
    }
    slab_live_.Add();
    return true;
  }
  const uint32_t mask = StripeMaskFor(start, size);
  StripeMaskLock guard(stripes_, mask);
  // Any live range overlapping [start, end] shares an address window with
  // it, so the overlap surfaces as an Insert failure in one of the masked
  // stripes; partially completed inserts are rolled back.
  uint32_t inserted = 0;
  for (size_t i = 0; i < kNumStripes; ++i) {
    if ((mask & (1u << i)) == 0) {
      continue;
    }
    if (!stripes_[i].tree.Insert(start, size)) {
      for (size_t j = 0; j < i; ++j) {
        if (inserted & (1u << j)) {
          stripes_[j].tree.RemoveAt(start);
        }
      }
      return false;
    }
    inserted |= 1u << i;
  }
  live_objects_.fetch_add(1, std::memory_order_release);
  return true;
}

std::optional<ObjectRange> MetaPool::RemoveStart(uint64_t start) {
  if (slab_ != nullptr) {
    // No node to retire and no cached copy to invalidate: a slab lookup
    // reads the live bit itself (slab_registry.h on racing lookups).
    std::optional<ObjectRange> removed = slab_->Drop(start);
    if (removed.has_value()) {
      slab_live_.Sub();
    }
    return removed;
  }
  constexpr uint32_t kAllStripes = (1u << kNumStripes) - 1;
  std::optional<ObjectRange> removed;
  // The detached splay nodes outlive the removal by a grace period
  // (shared_ptr because std::function requires a copyable callable).
  auto detached = std::make_shared<std::vector<void*>>();
  {
    // Drops are rare next to checks: take every stripe, so the removal is
    // atomic with respect to lookups without a two-phase size probe.
    StripeMaskLock guard(stripes_, kAllStripes);
    void* node = nullptr;
    removed = stripes_[StripeFor(start)].tree.ExtractAt(start, &node);
    if (!removed.has_value()) {
      return std::nullopt;
    }
    if (node != nullptr) {
      detached->push_back(node);
    }
    const uint32_t mask = StripeMaskFor(removed->start, removed->size);
    for (size_t i = 0; i < kNumStripes; ++i) {
      if (i != StripeFor(start) && (mask & (1u << i)) != 0) {
        node = nullptr;
        stripes_[i].tree.ExtractAt(start, &node);
        if (node != nullptr) {
          detached->push_back(node);
        }
      }
    }
    live_objects_.fetch_sub(1, std::memory_order_release);
    // The per-thread cache contract: bump only after the trees no longer
    // hold the object, so every cached copy of it is generation-stale from
    // here on. Other threads' epoch-fresh entries may still serve it until
    // the next epoch advance — see TlsProbe for why that is sound.
    generation_.fetch_add(1, std::memory_order_release);
  }
  // Same-thread drop-then-check must miss immediately, not at the next
  // epoch boundary: kill this thread's own slot for the pool.
  TlsPoolCache& slot = tls_pool_caches[cache_id_ % kTlsPoolCacheSlots];
  if (slot.pool_id == cache_id_) {
    slot.pool_id = 0;
  }
  smp::EpochDomain::Global().Retire([detached] {
    for (void* node : *detached) {
      SplayTree::FreeNode(node);
    }
  });
  return removed;
}

[[gnu::always_inline]] inline const ObjectRange* MetaPool::TlsProbe(
    uint64_t addr) const {
  TlsPoolCache& slot = tls_pool_caches[cache_id_ % kTlsPoolCacheSlots];
  if (slot.pool_id != cache_id_) {
    return nullptr;
  }
  // Epoch-fresh fast path (docs/CONCURRENCY.md §5): a slot whose generation
  // was verified in the current global epoch skips the pool-generation
  // acquire load — the hot check path becomes one relaxed epoch load plus
  // the TLS cache probe. Soundness: every drop retires its memory through
  // the same epoch machinery, and a retiree from epoch E is reclaimed only
  // once the global epoch reaches E+2; a hit served here is stale by less
  // than one epoch, so it can only approve access to memory that is still
  // intact. RemoveStart additionally self-invalidates the dropping
  // thread's own slot, so a same-thread drop-then-check misses
  // deterministically, with no epoch lag.
  const uint64_t now = smp::EpochDomain::Global().epoch();
  if (slot.epoch != now) {
    if (slot.generation != generation_.load(std::memory_order_acquire)) {
      return nullptr;
    }
    slot.epoch = now;  // Verified: fresh for the rest of this epoch.
  }
  return slot.cache.Find(addr);
}

void MetaPool::TlsFill(uint64_t generation, const ObjectRange& range) {
  TlsPoolCache& slot = tls_pool_caches[cache_id_ % kTlsPoolCacheSlots];
  if (slot.pool_id != cache_id_ || slot.generation != generation) {
    slot.pool_id = cache_id_;
    slot.generation = generation;
    slot.cache.Reset();
  }
  // Tag with the fill-time epoch: drops that raced the locked lookup are at
  // most epoch-current, so their memory outlives every hit this tag can
  // authorize (same argument as in TlsProbe).
  slot.epoch = smp::EpochDomain::Global().epoch();
  slot.cache.Remember(range);
}

std::optional<ObjectRange> MetaPool::Lookup(uint64_t addr) {
  if (slab_ != nullptr) {
    return slab_->Lookup(addr);
  }
  const bool use_cache = cache_enabled();
  if (use_cache) {
    if (const ObjectRange* hit = TlsProbe(addr)) {
      Bump(cache_counts_.Local().hits);
      trace::Emit(trace::EventId::kCacheHit, addr);
      return *hit;
    }
  }
  if (live_objects_.load(std::memory_order_acquire) == 0) {
    return std::nullopt;  // Empty pool: no miss is charged (cold registry).
  }
  if (use_cache) {
    Bump(cache_counts_.Local().misses);
    trace::Emit(trace::EventId::kCacheMiss, addr);
  }
  // Read the generation before the locked lookup: if a drop races in after
  // this point it bumps the generation past `gen`, so whatever we cache
  // below is already stale and can never serve the dropped object.
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  Stripe& stripe = stripes_[StripeFor(addr)];
  std::optional<ObjectRange> found;
  uint64_t rotation_delta = 0;
  {
    std::lock_guard<smp::SpinLock> guard(stripe.lock);
    uint64_t rotations_before = stripe.tree.rotations();
    found = stripe.tree.LookupContaining(addr);
    rotation_delta = stripe.tree.rotations() - rotations_before;
  }
  if (rotation_delta != 0) {
    trace::Emit(trace::EventId::kSplayRotation, rotation_delta);
  }
  if (found.has_value() && use_cache) {
    TlsFill(gen, *found);
  }
  return found;
}

std::optional<ObjectRange> MetaPool::LookupStart(uint64_t start) {
  if (slab_ != nullptr) {
    std::optional<ObjectRange> found = slab_->Lookup(start);
    if (found.has_value() && found->start != start) {
      return std::nullopt;
    }
    return found;
  }
  const bool use_cache = cache_enabled();
  if (use_cache) {
    // Exact-start lookups can only be served by an entry starting there.
    const ObjectRange* hit = TlsProbe(start);
    if (hit != nullptr && hit->start == start) {
      Bump(cache_counts_.Local().hits);
      return *hit;
    }
  }
  if (live_objects_.load(std::memory_order_acquire) == 0) {
    return std::nullopt;
  }
  if (use_cache) {
    Bump(cache_counts_.Local().misses);
  }
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  Stripe& stripe = stripes_[StripeFor(start)];
  std::optional<ObjectRange> found;
  {
    std::lock_guard<smp::SpinLock> guard(stripe.lock);
    found = stripe.tree.LookupStart(start);
  }
  if (found.has_value() && use_cache) {
    TlsFill(gen, *found);
  }
  return found;
}

void MetaPool::set_cache_enabled(bool enabled) {
  cache_enabled_.store(enabled, std::memory_order_relaxed);
  // Start cold on any toggle: bumping the generation invalidates every
  // thread's entries for this pool.
  generation_.fetch_add(1, std::memory_order_release);
}

uint64_t MetaPool::cache_hits() const {
  uint64_t total = 0;
  cache_counts_.ForEach(
      [&total](const CacheCounts& c) { total += LoadCounter(c.hits); });
  return total;
}

uint64_t MetaPool::cache_misses() const {
  uint64_t total = 0;
  cache_counts_.ForEach(
      [&total](const CacheCounts& c) { total += LoadCounter(c.misses); });
  return total;
}

uint64_t MetaPool::comparisons() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<smp::SpinLock> guard(stripe.lock);
    total += stripe.tree.comparisons();
  }
  return total;
}

uint64_t MetaPool::rotations() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<smp::SpinLock> guard(stripe.lock);
    total += stripe.tree.rotations();
  }
  return total;
}

void MetaPool::ResetStats() {
  cache_counts_.ForEachMutable([](CacheCounts& c) {
    StoreCounter(c.hits, 0);
    StoreCounter(c.misses, 0);
  });
  for (Stripe& stripe : stripes_) {
    std::lock_guard<smp::SpinLock> guard(stripe.lock);
    stripe.tree.ResetStats();
  }
}

// --- MetaPoolRuntime --------------------------------------------------------

MetaPool* MetaPoolRuntime::CreatePool(const std::string& name,
                                      bool type_homogeneous,
                                      uint64_t element_size, bool complete) {
  auto pool = std::make_unique<MetaPool>(name, type_homogeneous, element_size,
                                         complete);
  MetaPool* raw = pool.get();
  std::lock_guard<smp::SpinLock> guard(pools_lock_);
  raw->set_cache_enabled(lookup_cache_enabled_);
  pools_[name] = std::move(pool);
  return raw;
}

void MetaPoolRuntime::set_lookup_cache_enabled(bool enabled) {
  std::lock_guard<smp::SpinLock> guard(pools_lock_);
  lookup_cache_enabled_ = enabled;
  for (auto& [name, pool] : pools_) {
    pool->set_cache_enabled(enabled);
  }
}

const CheckStats& MetaPoolRuntime::stats() const {
  CheckStats total;
  stats_shards_.ForEach([&total](const CheckStats& shard) {
    total.bounds_performed += LoadCounter(shard.bounds_performed);
    total.bounds_failed += LoadCounter(shard.bounds_failed);
    total.loadstore_performed += LoadCounter(shard.loadstore_performed);
    total.loadstore_failed += LoadCounter(shard.loadstore_failed);
    total.indirect_performed += LoadCounter(shard.indirect_performed);
    total.indirect_failed += LoadCounter(shard.indirect_failed);
    total.frees_checked += LoadCounter(shard.frees_checked);
    total.frees_failed += LoadCounter(shard.frees_failed);
    total.reduced_checks += LoadCounter(shard.reduced_checks);
    total.registrations += LoadCounter(shard.registrations);
    total.drops += LoadCounter(shard.drops);
  });
  {
    std::lock_guard<smp::SpinLock> guard(pools_lock_);
    for (const auto& [name, pool] : pools_) {
      total.cache_hits += pool->cache_hits();
      total.cache_misses += pool->cache_misses();
      total.splay_comparisons += pool->comparisons();
      total.splay_rotations += pool->rotations();
    }
  }
  stats_ = total;
  return stats_;
}

void MetaPoolRuntime::ResetStats() {
  stats_shards_.ForEachMutable([](CheckStats& shard) {
    StoreCounter(shard.bounds_performed, 0);
    StoreCounter(shard.bounds_failed, 0);
    StoreCounter(shard.loadstore_performed, 0);
    StoreCounter(shard.loadstore_failed, 0);
    StoreCounter(shard.indirect_performed, 0);
    StoreCounter(shard.indirect_failed, 0);
    StoreCounter(shard.frees_checked, 0);
    StoreCounter(shard.frees_failed, 0);
    StoreCounter(shard.reduced_checks, 0);
    StoreCounter(shard.registrations, 0);
    StoreCounter(shard.drops, 0);
  });
  stats_ = CheckStats{};
  std::lock_guard<smp::SpinLock> guard(pools_lock_);
  for (auto& [name, pool] : pools_) {
    pool->ResetStats();
  }
}

void MetaPoolRuntime::ClearViolations() {
  std::lock_guard<smp::SpinLock> guard(violations_lock_);
  violations_.clear();
}

MetaPool* MetaPoolRuntime::FindPool(const std::string& name) const {
  std::lock_guard<smp::SpinLock> guard(pools_lock_);
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second.get();
}

MetaPool* MetaPoolRuntime::GetPool(const std::string& name,
                                   bool type_homogeneous,
                                   uint64_t element_size, bool complete) {
  if (MetaPool* p = FindPool(name)) {
    return p;
  }
  return CreatePool(name, type_homogeneous, element_size, complete);
}

Status MetaPoolRuntime::Fail(CheckKind kind, const MetaPool* pool,
                             uint64_t address, uint64_t aux,
                             std::string detail) {
  Violation v;
  v.kind = kind;
  v.pool = pool != nullptr ? pool->name() : "";
  v.address = address;
  v.aux = aux;
  v.detail = std::move(detail);
  {
    std::lock_guard<smp::SpinLock> guard(violations_lock_);
    violations_.push_back(v);
  }
  if (mode_ == EnforcementMode::kRecord) {
    return OkStatus();
  }
  return SafetyViolation(StrCat(CheckKindName(kind), " check failed in pool ",
                                v.pool, " at 0x", std::hex, address, ": ",
                                v.detail));
}

Status MetaPoolRuntime::RegisterObject(MetaPool& pool, uint64_t start,
                                       uint64_t size) {
  Bump(Shard().registrations);
  trace::Emit(trace::EventId::kPchkRegObj, start, size);
  if (!pool.RegisterRange(start, size)) {
    const SlabRegistry* slab = pool.slab();
    return Fail(CheckKind::kRegistration, &pool, start, size,
                slab != nullptr && !slab->FitsGrid(start, size)
                    ? "object does not fit the pool's slab slot grid"
                    : "object overlaps an already-registered object");
  }
  return OkStatus();
}

Status MetaPoolRuntime::DropObject(MetaPool& pool, uint64_t start) {
  CheckStats& shard = Shard();
  Bump(shard.drops);
  Bump(shard.frees_checked);
  trace::Emit(trace::EventId::kPchkDropObj, start);
  std::optional<ObjectRange> removed = pool.RemoveStart(start);
  if (!removed.has_value()) {
    Bump(shard.frees_failed);
    return Fail(CheckKind::kIllegalFree, &pool, start, 0,
                "free of pointer that is not the start of a live object");
  }
  return OkStatus();
}

Status MetaPoolRuntime::RegisterUserspace(MetaPool& pool, uint64_t user_base,
                                          uint64_t user_size) {
  // Idempotent: re-registering the exact same userspace object is harmless.
  std::optional<ObjectRange> existing = pool.LookupStart(user_base);
  if (existing.has_value()) {
    if (existing->size == user_size) {
      return OkStatus();
    }
    return Fail(CheckKind::kRegistration, &pool, user_base, user_size,
                "userspace range conflicts with a differently-sized object "
                "registered at the same base");
  }
  if (pool.RegisterRange(user_base, user_size)) {
    return OkStatus();
  }
  // A partial overlap with an existing object: previously this was silently
  // dropped, leaving userspace unregistered so that later syscall-argument
  // bounds checks failed spuriously.
  return Fail(CheckKind::kRegistration, &pool, user_base, user_size,
              "userspace range partially overlaps a registered object");
}

Status MetaPoolRuntime::BoundsCheck(MetaPool& pool, uint64_t src,
                                    uint64_t derived) {
  trace::Span span(trace::EventId::kBoundsCheck, trace::HistId::kNone, src,
                   derived);
  Bump(Shard().bounds_performed);
  std::optional<ObjectRange> obj = pool.Lookup(src);
  if (obj.has_value() && obj->Contains(derived)) [[likely]] {
    return OkStatus();
  }
  return BoundsCheckSlow(pool, src, derived, obj);
}

Status MetaPoolRuntime::BoundsCheckSlow(MetaPool& pool, uint64_t src,
                                        uint64_t derived,
                                        const std::optional<ObjectRange>& obj) {
  if (obj.has_value()) {
    Bump(Shard().bounds_failed);
    return Fail(CheckKind::kBounds, &pool, derived, src,
                StrCat("derived pointer escapes object [0x", std::hex,
                       obj->start, ", 0x", obj->end(), ")"));
  }
  if (!pool.complete()) {
    // Reduced check (Section 4.5): the source may be a legal unregistered
    // external object. If the *derived* pointer lands inside some other
    // registered object, the indexing crossed an object boundary — fail.
    Bump(Shard().reduced_checks);
    std::optional<ObjectRange> hit = pool.Lookup(derived);
    if (hit.has_value() && !hit->Contains(src)) {
      Bump(Shard().bounds_failed);
      return Fail(CheckKind::kBounds, &pool, derived, src,
                  "indexing from unregistered source into a registered "
                  "object");
    }
    return OkStatus();
  }
  Bump(Shard().bounds_failed);
  return Fail(CheckKind::kBounds, &pool, derived, src,
              "source pointer not registered in its metapool");
}

Status MetaPoolRuntime::BoundsCheckDirect(uint64_t start, uint64_t derived,
                                          uint64_t end) {
  Bump(Shard().bounds_performed);
  if (derived >= start && derived < end) [[likely]] {
    return OkStatus();
  }
  return FailDirect(start, derived, end);
}

Status MetaPoolRuntime::FailDirect(uint64_t start, uint64_t derived,
                                   uint64_t end) {
  Bump(Shard().bounds_failed);
  return Fail(CheckKind::kBounds, nullptr, derived, start,
              StrCat("derived pointer outside static bounds [0x", std::hex,
                     start, ", 0x", end, ")"));
}

std::optional<ObjectRange> MetaPoolRuntime::GetBounds(MetaPool& pool,
                                                      uint64_t addr) {
  return pool.Lookup(addr);
}

Status MetaPoolRuntime::LoadStoreCheck(MetaPool& pool, uint64_t addr) {
  trace::Span span(trace::EventId::kLoadStoreCheck, trace::HistId::kNone,
                   addr);
  if (!pool.complete()) {
    // No load-store checks are possible on incomplete partitions (I2).
    Bump(Shard().reduced_checks);
    return OkStatus();
  }
  Bump(Shard().loadstore_performed);
  if (pool.Lookup(addr).has_value()) [[likely]] {
    return OkStatus();
  }
  return FailLoadStore(pool, addr);
}

Status MetaPoolRuntime::FailLoadStore(const MetaPool& pool, uint64_t addr) {
  Bump(Shard().loadstore_failed);
  return Fail(CheckKind::kLoadStore, &pool, addr, 0,
              "pointer does not reference a registered object of its "
              "metapool");
}

uint64_t MetaPoolRuntime::RegisterTargetSet(std::vector<uint64_t> targets) {
  std::sort(targets.begin(), targets.end());
  std::lock_guard<smp::SpinLock> guard(targets_lock_);
  target_sets_.push_back(std::move(targets));
  return target_sets_.size() - 1;
}

Status MetaPoolRuntime::IndirectCallCheck(uint64_t fp, uint64_t set_id) {
  trace::Span span(trace::EventId::kIndirectCallCheck, trace::HistId::kNone,
                   fp, set_id);
  Bump(Shard().indirect_performed);
  {
    std::lock_guard<smp::SpinLock> guard(targets_lock_);
    if (set_id < target_sets_.size()) {
      const std::vector<uint64_t>& set = target_sets_[set_id];
      if (std::binary_search(set.begin(), set.end(), fp)) {
        return OkStatus();
      }
    }
  }
  Bump(Shard().indirect_failed);
  return Fail(CheckKind::kIndirectCall, nullptr, fp, set_id,
              "indirect call target not in the compiler-computed callee set");
}

}  // namespace sva::runtime
