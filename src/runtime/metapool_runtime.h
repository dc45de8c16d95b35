// The MetaPool runtime (Sections 4.3-4.6): object registries keyed by
// metapool, plus the three run-time checks the SVM verifier inserts into
// kernel bytecode. This is part of the SVA trusted computing base.
//
// Each metapool keeps its registry in one of two forms:
//
//  * Slab-indexed (slab_registry.h): a pool whose objects all come from one
//    kmem_cache-style PoolAllocator with slots no larger than a page — the
//    kernel's MPc.* caches, MPc.skbuff, MPc.net_sock and the MPk.kmalloc-32
//    ... MPk.kmalloc-4096 classes. The allocator's owner switches the pool
//    over at creation (MetaPool::UseSlabRegistry). One live bit per slot;
//    register, drop and lookup are one atomic operation each on a slot
//    found by address arithmetic, with no lock, no search and nothing
//    retired through the epoch.
//  * Striped splay trees: every other pool (MPu.user, the kmalloc classes
//    above a page, every SVM/bytecode pool).
//
// Thread safety (DESIGN.md §SMP): checks arrive concurrently from every
// virtual CPU, so each splay-registry metapool shards its objects over
// kNumStripes splay trees by address window, each stripe guarded by its own
// spinlock; an object is inserted into every stripe its range touches, so a
// lookup only ever probes the single stripe of the queried address. The
// object-lookup cache in front of the trees is per-thread (TLS) and
// validated against a per-pool generation counter, so the hot fast path
// takes no lock at all. The check entry points and CheckStats counts are
// the same for both registries. CheckStats and the per-pool cache hit/miss
// counts live in per-thread single-writer shards (smp/thread_shards.h): a
// check bumps them with a plain load and store, no locked instruction.
#ifndef SVA_SRC_RUNTIME_METAPOOL_RUNTIME_H_
#define SVA_SRC_RUNTIME_METAPOOL_RUNTIME_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/checks.h"
#include "src/runtime/lookup_cache.h"
#include "src/runtime/pool_allocator.h"
#include "src/runtime/slab_registry.h"
#include "src/runtime/splay_tree.h"
#include "src/smp/percpu.h"
#include "src/smp/sync.h"
#include "src/smp/thread_shards.h"
#include "src/support/status.h"

namespace sva::runtime {

using LookupCache = LookupCacheT<ObjectRange>;

// What the runtime does when a check fails. The paper's SVM stops the
// offending operation; kRecord exists for the benchmark harness and for the
// exploit study's reporting.
enum class EnforcementMode {
  kTrap,    // Checks return a SafetyViolation status.
  kRecord,  // Violations are logged; checks return OK.
};

class MetaPoolRuntime;

// One metapool: the run-time reflection of one points-to partition.
//
// Concurrency: RegisterRange/RemoveStart/Lookup/LookupStart are safe to call
// from any thread. The registry is striped by 4 KiB address window; a range
// lives in every stripe it touches (all stripes once it spans >= kNumStripes
// windows), so Lookup(addr) needs only stripe(addr). Drops bump the pool
// generation *after* the tree removal, which is what lets the per-thread
// lookup cache skip locking: an entry is served only if its recorded
// generation still matches, and any entry for a dropped object was tagged
// with a pre-drop generation.
class MetaPool {
 public:
  static constexpr size_t kNumStripes = 16;
  static constexpr uint64_t kStripeShift = 12;  // 4 KiB address windows.

  MetaPool(std::string name, bool type_homogeneous, uint64_t element_size,
           bool complete);

  const std::string& name() const { return name_; }
  bool type_homogeneous() const { return type_homogeneous_; }
  uint64_t element_size() const { return element_size_; }
  bool complete() const { return complete_; }
  void set_complete(bool c) { complete_ = c; }

  size_t live_objects() const {
    return slab_ != nullptr ? slab_live_.value()
                            : live_objects_.load(std::memory_order_relaxed);
  }

  // Direct (uninstrumented) registry access used by the runtime and tests.
  // Registers [start, start+size); false on overlap with a live object.
  bool RegisterRange(uint64_t start, uint64_t size);
  // Removes the object starting exactly at `start`; nullopt if none does.
  std::optional<ObjectRange> RemoveStart(uint64_t start);
  // The registered object containing `addr`, if any (per-thread cache +
  // single-stripe splay lookup).
  std::optional<ObjectRange> Lookup(uint64_t addr);
  // The registered object starting exactly at `start`, if any.
  std::optional<ObjectRange> LookupStart(uint64_t start);

  // Switches the pool to the slab-indexed registry when every object of
  // the pool comes from `allocator` and its slots fit in a page; returns
  // whether the pool now uses it. Call when creating the pool, before it
  // holds objects or is shared between threads. Calling it again with an
  // allocator of the same geometry keeps the registry.
  bool UseSlabRegistry(const PoolAllocator& allocator);
  // The slab registry, or null for a pool on the striped splay registry.
  const SlabRegistry* slab() const { return slab_.get(); }

  // Per-pool object-lookup cache switch. Disabling (or re-enabling) starts
  // every thread's cache cold for this pool. Enabled by default.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const {
    return cache_enabled_.load(std::memory_order_relaxed);
  }

  // Fast-path counters: lookups absorbed by the per-thread cache, lookups
  // that fell through to a tree, and splay comparisons over all stripes.
  // The hit/miss counts fold per-thread shards: exact at quiescence.
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;
  uint64_t comparisons() const;
  uint64_t rotations() const;
  void ResetStats();

 private:
  struct alignas(smp::kCacheLineBytes) Stripe {
    mutable smp::SpinLock lock;
    SplayTree tree;
  };

  static size_t StripeFor(uint64_t addr) {
    return static_cast<size_t>(addr >> kStripeShift) & (kNumStripes - 1);
  }
  // Bitmask of stripes the range [start, start+size) touches.
  static uint32_t StripeMaskFor(uint64_t start, uint64_t size);

  // Per-thread cache probe/fill (implemented over the TLS slot table in
  // metapool_runtime.cc). `generation` is the pool generation observed
  // *before* the locked tree lookup that produced `range`.
  const ObjectRange* TlsProbe(uint64_t addr) const;
  void TlsFill(uint64_t generation, const ObjectRange& range);

  const std::string name_;
  const bool type_homogeneous_;
  const uint64_t element_size_;
  bool complete_;

  // Set for a slab-indexed pool, which then never touches stripes_, the
  // generation or the per-thread cache.
  std::unique_ptr<SlabRegistry> slab_;
  std::array<Stripe, kNumStripes> stripes_;
  // Bumped (release) after every removal; per-thread cache entries tagged
  // with an older generation are never served.
  std::atomic<uint64_t> generation_{1};
  // Live registrations. A splay pool keeps one atomic, because Lookup reads
  // it as an emptiness test; a slab pool counts per CPU, so a kmalloc and
  // a kfree write only their own CPU's line.
  std::atomic<uint64_t> live_objects_{0};
  smp::ShardedCounter slab_live_;
  // Globally unique, never recycled: keys this pool's slot in each thread's
  // cache table, so a destroyed pool's entries can never alias a new pool.
  const uint64_t cache_id_;
  std::atomic<bool> cache_enabled_{true};
  struct CacheCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  smp::ThreadShards<CacheCounts> cache_counts_;
};

// Owns all metapools of one executing kernel/program and implements the
// pchk.*/sva.* operations against them.
//
// Concurrency: the check/registration entry points are thread-safe (striped
// pool registries, spinlocked violation log and target sets, per-thread
// check counters). stats(), violations() and pools() report a consistent
// snapshot only at quiescence (no checks in flight), which is how the
// harnesses use them; ResetStats() must run at quiescence too.
class MetaPoolRuntime {
 public:
  explicit MetaPoolRuntime(EnforcementMode mode = EnforcementMode::kTrap)
      : mode_(mode) {}

  MetaPool* CreatePool(const std::string& name, bool type_homogeneous,
                       uint64_t element_size, bool complete);
  MetaPool* FindPool(const std::string& name) const;
  // Finds or creates with the given properties.
  MetaPool* GetPool(const std::string& name, bool type_homogeneous,
                    uint64_t element_size, bool complete);

  // --- Object registration (Table 3) ---------------------------------------
  // pchk.reg.obj: registers [start, start+size) in `pool`.
  Status RegisterObject(MetaPool& pool, uint64_t start, uint64_t size);
  // pchk.drop.obj: removes the object starting at `start`.
  Status DropObject(MetaPool& pool, uint64_t start);
  // Registers all of userspace as a single object (Section 4.6) so that
  // syscall pointer arguments check out but cannot straddle into the kernel.
  // Re-registering the exact same range is an idempotent no-op; a partial
  // overlap with an existing object is reported as a registration violation
  // (previously it silently left userspace unregistered, making later
  // syscall bounds checks fail spuriously).
  Status RegisterUserspace(MetaPool& pool, uint64_t user_base,
                           uint64_t user_size);

  // --- Run-time checks (Section 4.5) ----------------------------------------
  // sva.boundscheck: `derived` must lie within the same registered object as
  // `src`. For incomplete pools the check degrades to the "reduced" form.
  Status BoundsCheck(MetaPool& pool, uint64_t src, uint64_t derived);
  // sva.boundscheck.direct: bounds known statically, no splay lookup.
  Status BoundsCheckDirect(uint64_t start, uint64_t derived, uint64_t end);
  // sva.getbounds: object lookup without failing (incomplete-pool misses
  // return nullopt).
  std::optional<ObjectRange> GetBounds(MetaPool& pool, uint64_t addr);
  // sva.lscheck: `addr` must lie inside some registered object. No-op
  // (reduced) for incomplete pools.
  Status LoadStoreCheck(MetaPool& pool, uint64_t addr);
  // sva.indirectcheck support: target sets computed by the call graph.
  uint64_t RegisterTargetSet(std::vector<uint64_t> targets);
  Status IndirectCallCheck(uint64_t fp, uint64_t set_id);

  // --- State -----------------------------------------------------------------
  EnforcementMode mode() const { return mode_; }
  void set_mode(EnforcementMode mode) { mode_ = mode; }
  const std::vector<Violation>& violations() const { return violations_; }
  void ClearViolations();
  // Returns the counters folded over every thread's shard (including those
  // of threads that have exited), with the per-pool fast-path counters
  // (cache hits/misses, splay comparisons) folded in.
  const CheckStats& stats() const;
  void ResetStats();
  // Counter shards held: at most the threads that ever checked at once.
  size_t stats_shard_count() const { return stats_shards_.shard_count(); }

  // Toggles the per-pool object-lookup cache on every pool (existing and
  // future). Enabled by default; the benchmark harness disables it to
  // measure the bare splay-tree path.
  void set_lookup_cache_enabled(bool enabled);
  bool lookup_cache_enabled() const { return lookup_cache_enabled_; }

  const std::map<std::string, std::unique_ptr<MetaPool>>& pools() const {
    return pools_;
  }

 private:
  Status Fail(CheckKind kind, const MetaPool* pool, uint64_t address,
              uint64_t aux, std::string detail);
  // The checks' failure and reduced-check paths, kept out of line so the
  // passing path stays a short leaf-like sequence.
  [[gnu::noinline]] Status BoundsCheckSlow(
      MetaPool& pool, uint64_t src, uint64_t derived,
      const std::optional<ObjectRange>& obj);
  [[gnu::noinline, gnu::cold]] Status FailDirect(uint64_t start,
                                                 uint64_t derived,
                                                 uint64_t end);
  [[gnu::noinline, gnu::cold]] Status FailLoadStore(const MetaPool& pool,
                                                    uint64_t addr);
  // The calling thread's counter shard, bumped with smp::Bump (it has no
  // other writer).
  CheckStats& Shard() { return stats_shards_.Local(); }

  EnforcementMode mode_;
  bool lookup_cache_enabled_ = true;
  mutable smp::SpinLock pools_lock_;
  std::map<std::string, std::unique_ptr<MetaPool>> pools_;
  mutable smp::SpinLock targets_lock_;
  std::vector<std::vector<uint64_t>> target_sets_;
  mutable smp::SpinLock violations_lock_;
  std::vector<Violation> violations_;
  smp::ThreadShards<CheckStats> stats_shards_;
  // stats() folds the shards and the per-pool counters into this scratch on
  // demand; mutable so the accessor can stay const.
  mutable CheckStats stats_;
};

}  // namespace sva::runtime

#endif  // SVA_SRC_RUNTIME_METAPOOL_RUNTIME_H_
