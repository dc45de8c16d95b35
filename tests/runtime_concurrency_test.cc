// Concurrency tests for the sharded metapool runtime: N worker threads
// issuing mixed register/drop/bounds-check/load-store-check traffic against
// shared metapools. Run under the tsan preset (ctest -L concurrency) these
// must be data-race free; under any build they must be deterministic where
// the workload is (disjoint per-thread address regions).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/metapool_runtime.h"
#include "src/runtime/pool_allocator.h"
#include "src/smp/percpu.h"

namespace sva::runtime {
namespace {

constexpr unsigned kThreads = 8;

// Disjoint per-thread address regions, far enough apart that even the
// largest object a worker registers cannot reach a neighbour's region.
uint64_t RegionBase(unsigned thread) {
  return 0x200000000ull + (static_cast<uint64_t>(thread) << 28);
}

void RunOnThreads(unsigned threads, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([t, &fn] {
      smp::ScopedCpu bind(t);
      fn(t);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

TEST(RuntimeConcurrencyTest, ConcurrentChecksOnStableObjects) {
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("stable", true, 64, /*complete=*/true);
  constexpr uint64_t kObjects = 32;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(
          rt.RegisterObject(*pool, RegionBase(t) + i * 0x1000, 64).ok());
    }
  }
  rt.ResetStats();

  constexpr uint64_t kIters = 5000;
  RunOnThreads(kThreads, [&](unsigned t) {
    for (uint64_t i = 0; i < kIters; ++i) {
      uint64_t base = RegionBase(t) + (i % kObjects) * 0x1000;
      EXPECT_TRUE(rt.LoadStoreCheck(*pool, base + (i % 64)).ok());
      EXPECT_TRUE(rt.BoundsCheck(*pool, base, base + 63).ok());
    }
  });

  EXPECT_TRUE(rt.violations().empty());
  // Per-CPU counter shards must not lose increments.
  EXPECT_EQ(rt.stats().total_performed(), kThreads * kIters * 2);
  EXPECT_EQ(rt.stats().total_failed(), 0u);
}

TEST(RuntimeConcurrencyTest, MixedRegisterDropCheckStress) {
  MetaPoolRuntime rt;
  // Two shared pools, including spanning objects that straddle every
  // stripe, so concurrent multi-stripe inserts/removes and single-stripe
  // lookups interleave.
  MetaPool* a = rt.CreatePool("stress_a", true, 64, /*complete=*/true);
  MetaPool* b = rt.CreatePool("stress_b", false, 0, /*complete=*/true);

  std::atomic<uint64_t> local_failures{0};
  constexpr uint64_t kIters = 4000;
  RunOnThreads(kThreads, [&](unsigned t) {
    std::mt19937_64 rng(t * 7919 + 1);
    uint64_t region = RegionBase(t);
    uint64_t expected_failures = 0;
    for (uint64_t i = 0; i < kIters; ++i) {
      MetaPool* pool = (rng() & 1) ? a : b;
      uint64_t slot = rng() % 16;
      uint64_t start = region + slot * 0x100000;
      // Sizes up to 128 KiB: 32 address windows, i.e. objects that live in
      // every stripe of the pool.
      uint64_t size = 64 + (rng() % 0x20000);
      switch (rng() % 4) {
        case 0:
          (void)rt.RegisterObject(*pool, start, size);
          break;
        case 1:
          // A failed drop (no live object at start) counts as a failed
          // check in the stats, like a bad free.
          if (!rt.DropObject(*pool, start).ok()) {
            ++expected_failures;
          }
          break;
        case 2: {
          // In-region probe; sound either way, must never crash or race.
          Status s = rt.LoadStoreCheck(*pool, start + (rng() % size));
          if (!s.ok()) {
            ++expected_failures;
          }
          break;
        }
        default: {
          Status s = rt.BoundsCheck(*pool, start, start + (rng() % size));
          if (!s.ok()) {
            ++expected_failures;
          }
          break;
        }
      }
    }
    local_failures.fetch_add(expected_failures, std::memory_order_relaxed);
  });

  // Every check failure a worker observed is in the shared violation log
  // (registration violations are logged too, so >= rather than ==).
  EXPECT_GE(rt.violations().size(), local_failures.load());
  EXPECT_EQ(rt.stats().total_failed(), local_failures.load());
}

// The model check: per-thread operation sequences over disjoint address
// regions are generated from fixed seeds, executed concurrently on one
// shared pool, then replayed serially on a fresh pool. Disjointness means
// interleaving cannot change any op's outcome, so the concurrent run must
// match the serialized replay op for op.
struct Op {
  enum Kind { kRegister, kDrop, kLsCheck, kBoundsCheck } kind;
  uint64_t start = 0;
  uint64_t size = 0;
  uint64_t addr = 0;
};

std::vector<Op> MakeOps(unsigned thread, uint64_t count) {
  std::mt19937_64 rng(thread * 104729 + 17);
  std::vector<Op> ops;
  ops.reserve(count);
  uint64_t region = RegionBase(thread);
  for (uint64_t i = 0; i < count; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng() % 4);
    op.start = region + (rng() % 16) * 0x100000;
    op.size = 32 + (rng() % 0x20000);
    op.addr = op.start + (rng() % op.size);
    ops.push_back(op);
  }
  return ops;
}

std::vector<bool> ApplyOps(MetaPoolRuntime& rt, MetaPool& pool,
                           const std::vector<Op>& ops) {
  std::vector<bool> outcomes;
  outcomes.reserve(ops.size());
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kRegister:
        outcomes.push_back(rt.RegisterObject(pool, op.start, op.size).ok());
        break;
      case Op::kDrop:
        outcomes.push_back(rt.DropObject(pool, op.start).ok());
        break;
      case Op::kLsCheck:
        outcomes.push_back(rt.LoadStoreCheck(pool, op.addr).ok());
        break;
      case Op::kBoundsCheck:
        outcomes.push_back(rt.BoundsCheck(pool, op.start, op.addr).ok());
        break;
    }
  }
  return outcomes;
}

TEST(RuntimeConcurrencyTest, ConcurrentMatchesSerializedReplay) {
  constexpr uint64_t kOpsPerThread = 3000;
  std::vector<std::vector<Op>> sequences;
  for (unsigned t = 0; t < kThreads; ++t) {
    sequences.push_back(MakeOps(t, kOpsPerThread));
  }

  MetaPoolRuntime concurrent_rt;
  MetaPool* concurrent_pool =
      concurrent_rt.CreatePool("model", true, 64, /*complete=*/true);
  std::vector<std::vector<bool>> concurrent(kThreads);
  RunOnThreads(kThreads, [&](unsigned t) {
    concurrent[t] = ApplyOps(concurrent_rt, *concurrent_pool, sequences[t]);
  });

  MetaPoolRuntime serial_rt;
  MetaPool* serial_pool =
      serial_rt.CreatePool("model", true, 64, /*complete=*/true);
  for (unsigned t = 0; t < kThreads; ++t) {
    std::vector<bool> replay =
        ApplyOps(serial_rt, *serial_pool, sequences[t]);
    ASSERT_EQ(concurrent[t].size(), replay.size());
    for (size_t i = 0; i < replay.size(); ++i) {
      ASSERT_EQ(concurrent[t][i], replay[i])
          << "thread " << t << " op " << i << " kind "
          << static_cast<int>(sequences[t][i].kind)
          << " diverged between concurrent and serialized execution";
    }
  }
  // Same traffic, same end state: live object counts agree.
  EXPECT_EQ(concurrent_pool->live_objects(), serial_pool->live_objects());
}

TEST(RuntimeConcurrencyTest, CacheToggleDuringTraffic) {
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("toggle", true, 64, /*complete=*/true);
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(rt.RegisterObject(*pool, RegionBase(t), 4096).ok());
  }
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) {
      pool->set_cache_enabled(i & 1);
      std::this_thread::yield();
    }
    stop.store(true);
  });
  RunOnThreads(kThreads, [&](unsigned t) {
    uint64_t base = RegionBase(t);
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(rt.LoadStoreCheck(*pool, base + 128).ok());
      EXPECT_TRUE(rt.BoundsCheck(*pool, base, base + 4095).ok());
    }
  });
  toggler.join();
  EXPECT_TRUE(rt.violations().empty());
}

// Bump pages over a bounded span, so a pool over them can be slab-indexed.
class BoundedPages : public PageProvider {
 public:
  explicit BoundedPages(uint64_t span = 1ull << 22) : span_(span) {}
  uint64_t AllocatePage() override {
    uint64_t page = next_.fetch_add(4096, std::memory_order_relaxed);
    return page + 4096 <= span_ ? page : 0;
  }
  uint64_t page_size() const override { return 4096; }
  uint64_t span() const override { return span_; }

 private:
  const uint64_t span_;
  std::atomic<uint64_t> next_{4096};
};

TEST(RuntimeConcurrencyTest, SlabPoolRegisterCheckDropStress) {
  // Four threads on one slab-indexed pool. Slots are dealt round-robin, so
  // every thread's slots share live-bit words with the other threads' and
  // each register/drop is a read-modify-write racing its neighbours'.
  constexpr unsigned kSlabThreads = 4;
  constexpr uint64_t kSlotsPerThread = 64;
  constexpr uint64_t kObject = 48;
  BoundedPages pages;
  PoolAllocator cache("obj", kObject, pages);
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("MPc.obj", true, kObject, /*complete=*/true);
  ASSERT_TRUE(pool->UseSlabRegistry(cache));
  std::vector<std::vector<uint64_t>> slots(kSlabThreads);
  for (uint64_t i = 0; i < kSlabThreads * kSlotsPerThread; ++i) {
    uint64_t addr = cache.Allocate();
    ASSERT_NE(addr, 0u);
    slots[i % kSlabThreads].push_back(addr);
  }

  constexpr uint64_t kRounds = 300;
  std::atomic<uint64_t> wrong{0};
  RunOnThreads(kSlabThreads, [&](unsigned t) {
    const std::vector<uint64_t>& mine = slots[t];
    const std::vector<uint64_t>& theirs = slots[(t + 1) % kSlabThreads];
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (uint64_t addr : mine) {
        bool ok = rt.RegisterObject(*pool, addr, kObject).ok() &&
                  rt.BoundsCheck(*pool, addr + 8, addr + kObject - 1).ok() &&
                  rt.LoadStoreCheck(*pool, addr + kObject - 1).ok() &&
                  !rt.BoundsCheck(*pool, addr, addr + kObject).ok();
        // A neighbour's slot is live or not at any moment; a hit must
        // still be exactly that slot.
        std::optional<ObjectRange> other =
            rt.GetBounds(*pool, theirs[round % kSlotsPerThread] + 4);
        ok = ok && (!other.has_value() ||
                    (other->start == theirs[round % kSlotsPerThread] &&
                     other->size == kObject));
        ok = ok && rt.DropObject(*pool, addr).ok() &&
             !rt.BoundsCheck(*pool, addr, addr + 1).ok();
        if (!ok) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(pool->live_objects(), 0u);
  const uint64_t ops = kSlabThreads * kSlotsPerThread * kRounds;
  const CheckStats& stats = rt.stats();
  EXPECT_EQ(stats.registrations, ops);
  EXPECT_EQ(stats.drops, ops);
  EXPECT_EQ(stats.frees_failed, 0u);
  EXPECT_EQ(stats.bounds_performed, 3 * ops);
  // Exactly the two overflow probes per op fail, nothing else.
  EXPECT_EQ(stats.bounds_failed, 2 * ops);
  EXPECT_EQ(rt.violations().size(), 2 * ops);
  EXPECT_EQ(stats.splay_comparisons, 0u);
}

// Four CPUs allocate from one kmem_cache and from kmalloc, hand every
// object to the next CPU and free what the previous CPU handed them, so
// nearly every free lands in a different CPU's magazine than its
// allocation came from and slots migrate through the shared depot. No slot
// may be handed out twice, and at quiescence the counters and the
// live-set enumeration must name exactly the objects still in flight.
TEST(RuntimeConcurrencyTest, CrossCpuAllocFreeKeepsLiveSetsExact) {
  constexpr unsigned kCpus = 4;
  constexpr int kRounds = 200;
  constexpr int kBatch = 24;
  constexpr uint64_t kObject = 48;
  constexpr uint64_t kSizes[] = {16, 100, 500, 2000};
  // Room for every object of the run to be in flight at once: a CPU that
  // runs ahead fills its neighbour's mailbox before the neighbour drains.
  constexpr uint64_t kSpan = 1ull << 26;
  BoundedPages pages(kSpan);
  PoolAllocator cache("obj", kObject, pages);
  OrdinaryAllocator kmalloc(pages);
  // One claim flag per 8-byte address: set while some CPU holds the object
  // starting there.
  std::vector<std::atomic<uint8_t>> held(kSpan / 8);
  struct Mailbox {
    std::mutex lock;
    std::vector<uint64_t> objects;
    std::vector<uint64_t> buffers;
  };
  std::array<Mailbox, kCpus> boxes;
  std::atomic<uint64_t> wrong{0};
  std::atomic<unsigned> started{0};

  RunOnThreads(kCpus, [&](unsigned cpu) {
    // Start together, so the CPUs' rounds overlap.
    started.fetch_add(1);
    while (started.load() < kCpus) {
      std::this_thread::yield();
    }
    auto claim = [&](uint64_t addr) {
      if (addr == 0 || held[addr / 8].exchange(1) != 0) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    };
    auto release = [&](uint64_t addr) {
      if (held[addr / 8].exchange(0) != 1) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    };
    for (int round = 0; round < kRounds; ++round) {
      std::vector<uint64_t> objects;
      std::vector<uint64_t> buffers;
      for (int i = 0; i < kBatch; ++i) {
        uint64_t obj = cache.Allocate();
        claim(obj);
        objects.push_back(obj);
        const uint64_t size = kSizes[(round + i) % 4];
        uint64_t buf = kmalloc.Allocate(size);
        claim(buf);
        if (kmalloc.AllocationSize(buf) !=
            kmalloc.CacheFor(size)->object_size()) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        buffers.push_back(buf);
      }
      {
        Mailbox& next = boxes[(cpu + 1) % kCpus];
        std::lock_guard<std::mutex> guard(next.lock);
        next.objects.insert(next.objects.end(), objects.begin(),
                            objects.end());
        next.buffers.insert(next.buffers.end(), buffers.begin(),
                            buffers.end());
      }
      objects.clear();
      buffers.clear();
      {
        Mailbox& mine = boxes[cpu];
        std::lock_guard<std::mutex> guard(mine.lock);
        objects.swap(mine.objects);
        buffers.swap(mine.buffers);
      }
      for (uint64_t obj : objects) {
        release(obj);
        if (!cache.Free(obj).ok()) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (uint64_t buf : buffers) {
        release(buf);
        if (!kmalloc.Free(buf).ok()) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0u);

  std::vector<uint64_t> objects;
  std::vector<uint64_t> buffers;
  for (Mailbox& box : boxes) {
    objects.insert(objects.end(), box.objects.begin(), box.objects.end());
    buffers.insert(buffers.end(), box.buffers.begin(), box.buffers.end());
  }
  EXPECT_EQ(cache.live_objects(), objects.size());
  EXPECT_EQ(cache.total_allocations(), uint64_t{kCpus} * kRounds * kBatch);
  std::vector<uint64_t> listed = cache.LiveObjects();
  std::sort(listed.begin(), listed.end());
  std::sort(objects.begin(), objects.end());
  EXPECT_EQ(listed, objects);
  std::vector<uint64_t> listed_buffers;
  uint64_t live_buffers = 0;
  for (const auto& cls : kmalloc.caches()) {
    live_buffers += cls->live_objects();
    for (uint64_t addr : cls->LiveObjects()) {
      listed_buffers.push_back(addr);
    }
  }
  EXPECT_EQ(live_buffers, buffers.size());
  std::sort(listed_buffers.begin(), listed_buffers.end());
  std::sort(buffers.begin(), buffers.end());
  EXPECT_EQ(listed_buffers, buffers);

  for (uint64_t obj : objects) {
    ASSERT_TRUE(cache.Free(obj).ok());
  }
  for (uint64_t buf : buffers) {
    ASSERT_TRUE(kmalloc.Free(buf).ok());
  }
  EXPECT_EQ(cache.live_objects(), 0u);
  EXPECT_TRUE(cache.LiveObjects().empty());
  for (const auto& cls : kmalloc.caches()) {
    EXPECT_EQ(cls->live_objects(), 0u) << cls->name();
  }
}

TEST(RuntimeConcurrencyTest, CheckCountersStayExactOnSharedAndUnboundCpus) {
  // Four threads all bound to CPU 0 and two never bound (they read CPU 0
  // too): six writers on one CPU id. Per-thread single-writer shards keep
  // every count exact, and stats() still sees the counts of threads that
  // have been joined.
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("shared_cpu", true, 64, /*complete=*/true);
  constexpr unsigned kBound = 4;
  constexpr unsigned kUnbound = 2;
  constexpr uint64_t kObjects = 16;
  for (unsigned t = 0; t < kBound + kUnbound; ++t) {
    for (uint64_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(
          rt.RegisterObject(*pool, RegionBase(t) + i * 0x1000, 64).ok());
    }
  }
  rt.ResetStats();
  constexpr uint64_t kIters = 4000;
  auto work = [&](unsigned t) {
    for (uint64_t i = 0; i < kIters; ++i) {
      const uint64_t base = RegionBase(t) + (i % kObjects) * 0x1000;
      EXPECT_TRUE(rt.BoundsCheck(*pool, base, base + 63).ok());
      EXPECT_TRUE(rt.BoundsCheckDirect(base, base + 8, base + 64).ok());
      EXPECT_TRUE(rt.LoadStoreCheck(*pool, base + (i % 64)).ok());
    }
  };
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kBound; ++t) {
    workers.emplace_back([&work, t] {
      smp::ScopedCpu bind(0);
      work(t);
    });
  }
  for (unsigned t = kBound; t < kBound + kUnbound; ++t) {
    workers.emplace_back([&work, t] { work(t); });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  constexpr uint64_t kThreadsRun = kBound + kUnbound;
  const CheckStats& stats = rt.stats();
  EXPECT_EQ(stats.bounds_performed, kThreadsRun * kIters * 2);
  EXPECT_EQ(stats.loadstore_performed, kThreadsRun * kIters);
  EXPECT_EQ(stats.total_failed(), 0u);
  // Every bounds and load-store check made one cache lookup on this splay
  // pool; the direct check makes none.
  EXPECT_EQ(pool->cache_hits() + pool->cache_misses(),
            kThreadsRun * kIters * 2);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, kThreadsRun * kIters * 2);
  EXPECT_TRUE(rt.violations().empty());
}

TEST(RuntimeConcurrencyTest, ThreadsThatComeAndGoReuseCounterShards) {
  // Sixty short-lived workers, two at a time, as a syscall benchmark
  // spawns them: each exiting thread hands its shard back with its counts,
  // so the registry stays at the peak number of concurrent checkers and
  // the totals stay exact.
  MetaPoolRuntime rt;
  MetaPool* pool = rt.CreatePool("churn", true, 64, /*complete=*/true);
  ASSERT_TRUE(rt.RegisterObject(*pool, RegionBase(0), 64).ok());
  rt.ResetStats();
  constexpr unsigned kRounds = 30;
  constexpr uint64_t kChecks = 100;
  for (unsigned round = 0; round < kRounds; ++round) {
    RunOnThreads(2, [&](unsigned) {
      for (uint64_t i = 0; i < kChecks; ++i) {
        EXPECT_TRUE(rt.LoadStoreCheck(*pool, RegionBase(0) + i % 64).ok());
      }
    });
  }
  // The registering main thread plus two concurrent workers.
  EXPECT_LE(rt.stats_shard_count(), 3u);
  EXPECT_EQ(rt.stats().loadstore_performed, kRounds * 2 * kChecks);
  EXPECT_EQ(pool->cache_hits() + pool->cache_misses(),
            kRounds * 2 * kChecks);
}

}  // namespace
}  // namespace sva::runtime
