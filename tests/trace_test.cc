// Tests for the tracing & metrics subsystem: ring wrap/overwrite semantics,
// histogram bucket edges, the disabled-tracepoint no-op guarantee, the
// TSC-backed clock, ring-only check spans and zero-clock uncontended lock
// waits, the multi-producer seqlock protocol under real threads (tsan
// preset), and the /metrics endpoint served end-to-end over the loopback
// stream path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/metrics_server.h"
#include "src/net/client.h"
#include "src/runtime/metapool_runtime.h"
#include "src/smp/percpu.h"
#include "src/trace/drainer.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace sva::trace {
namespace {

// The tracer and metrics registry are process-wide; every test starts and
// ends quiescent so suites can run in any order.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    Metrics::Get().Reset();
  }
  void TearDown() override {
    Tracer::Get().Reset();
    Metrics::Get().Reset();
  }
};

Event MakeEvent(uint64_t ts, uint64_t a0 = 0) {
  Event e;
  e.ts_ns = ts;
  e.id = EventId::kBoundsCheck;
  e.phase = Phase::kInstant;
  e.a0 = a0;
  return e;
}

// --- EventRing: wrap, overwrite, lost accounting -----------------------------

TEST_F(TraceTest, RingDrainsExactlyWhatWasRecorded) {
  EventRing ring;
  ring.Reset(8);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Record(MakeEvent(100 + i, i));
  }
  std::vector<Event> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].ts_ns, 100 + i);
    EXPECT_EQ(out[i].a0, i);
    EXPECT_EQ(out[i].id, EventId::kBoundsCheck);
  }
  EXPECT_EQ(ring.recorded(), 5u);
}

TEST_F(TraceTest, RingWrapOverwritesOldestAndCountsLost) {
  EventRing ring;
  ring.Reset(8);
  // 20 records into 8 slots: the first 12 are overwritten (flight-recorder
  // semantics — producers never block), and the drain reports them lost.
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Record(MakeEvent(i));
  }
  std::vector<Event> out;
  EXPECT_EQ(ring.Drain(&out), 12u);
  ASSERT_EQ(out.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].ts_ns, 12 + i);  // Oldest surviving first.
  }
  EXPECT_EQ(ring.recorded(), 20u);
  // A second drain starts from the new cursor: nothing new, nothing lost.
  out.clear();
  EXPECT_EQ(ring.Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(TraceTest, RingDrainIsIncrementalAcrossWraps) {
  EventRing ring;
  ring.Reset(4);
  for (uint64_t i = 0; i < 3; ++i) {
    ring.Record(MakeEvent(i));
  }
  std::vector<Event> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
  EXPECT_EQ(out.size(), 3u);
  // Wrap twice past the drained cursor: 9 more records into 4 slots.
  for (uint64_t i = 3; i < 12; ++i) {
    ring.Record(MakeEvent(i));
  }
  out.clear();
  EXPECT_EQ(ring.Drain(&out), 5u);  // Positions 3..7 overwritten.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().ts_ns, 8u);
  EXPECT_EQ(out.back().ts_ns, 11u);
}

TEST_F(TraceTest, TracerAccumulatesLostAcrossDrains) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(kModeRing, /*ring_capacity=*/16);
  for (uint64_t i = 0; i < 40; ++i) {
    Emit(EventId::kCacheHit, i);
  }
  std::vector<Event> events = tracer.Drain();
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(tracer.events_lost(), 24u);
  EXPECT_EQ(tracer.events_recorded(), 40u);
  tracer.Disable();
}

// --- Histogram bucket edges --------------------------------------------------

TEST_F(TraceTest, HistogramBucketEdges) {
  Histogram h;
  h.Observe(0);  // bit_width(0) == 0: bucket 0 is exactly zero.
  h.Observe(1);  // Bucket 1: [1, 1].
  h.Observe(2);  // Bucket 2: [2, 3].
  h.Observe(3);
  h.Observe(4);                     // Bucket 3: [4, 7].
  h.Observe(~uint64_t{0});          // Bucket 64: the top of the range.
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 0 + 1 + 2 + 3 + 4 + ~uint64_t{0});
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[64], 1u);
}

TEST_F(TraceTest, HistogramPowerOfTwoStraddlesBucketEdge) {
  Histogram h;
  h.Observe(1023);  // bit_width 10: bucket 10 covers [512, 1023].
  h.Observe(1024);  // bit_width 11: first value of bucket 11.
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[10], 1u);
  EXPECT_EQ(snap.buckets[11], 1u);
}

TEST_F(TraceTest, PrometheusRenderingIsCumulativeWithInfBucket) {
  Histogram h;
  h.Observe(0);
  h.Observe(5);             // Bucket 3, le = 7.
  h.Observe(6);             // Bucket 3.
  h.Observe(~uint64_t{0});  // Bucket 64: representable only as +Inf.
  HistogramSnapshot snap = h.Snapshot();
  snap.name = "test_ns";
  std::string text = RenderPrometheus({}, {snap});
  EXPECT_NE(text.find("# TYPE test_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("test_ns_bucket{le=\"0\"} 1\n"), std::string::npos);
  // Cumulative: the le="7" bucket includes the zero observation.
  EXPECT_NE(text.find("test_ns_bucket{le=\"7\"} 3\n"), std::string::npos);
  // The max-value observation appears only in +Inf (no finite edge).
  EXPECT_NE(text.find("test_ns_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("test_ns_count 4\n"), std::string::npos);
  // Empty buckets are not rendered.
  EXPECT_EQ(text.find("le=\"1\"}"), std::string::npos);
}

TEST_F(TraceTest, PrometheusRenderingGroupsCounterTypes) {
  std::vector<CounterSample> counters = {
      {"sva_x_total", "", 7},
      {"sva_pool_objects", "{pool=\"a\"}", 1},
      {"sva_pool_objects", "{pool=\"b\"}", 2},
  };
  std::string text = RenderPrometheus(counters, {});
  EXPECT_NE(text.find("# TYPE sva_x_total counter\nsva_x_total 7\n"),
            std::string::npos);
  // One TYPE line covers both labelled samples of the same metric.
  size_t type_pos = text.find("# TYPE sva_pool_objects counter");
  ASSERT_NE(type_pos, std::string::npos);
  EXPECT_EQ(text.find("# TYPE sva_pool_objects counter", type_pos + 1),
            std::string::npos);
  EXPECT_NE(text.find("sva_pool_objects{pool=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sva_pool_objects{pool=\"b\"} 2\n"), std::string::npos);
}

// --- Disabled tracepoints are no-ops -----------------------------------------

TEST_F(TraceTest, DisabledTracepointsRecordNothing) {
  ASSERT_EQ(mode(), kModeOff);
  Emit(EventId::kBoundsCheck, 1, 2);
  {
    Span span(EventId::kSyscall, HistId::kSyscallNs, 3);
  }
  smp::SpinLock lock;
  {
    TimedLockGuard guard(lock, HistId::kPipesWaitNs, kLockPipes);
  }
  EXPECT_EQ(Tracer::Get().events_recorded(), 0u);
  EXPECT_TRUE(Tracer::Get().Drain().empty());
  for (const HistogramSnapshot& snap : Metrics::Get().Snapshot()) {
    EXPECT_EQ(snap.count, 0u) << snap.name;
  }
}

TEST_F(TraceTest, MetricsOnlyModeFeedsHistogramsNotRings) {
  Tracer::Get().Enable(kModeMetrics);
  Emit(EventId::kBoundsCheck, 1);  // Instants need the ring: dropped.
  {
    Span span(EventId::kSyscall, HistId::kSyscallNs);
  }
  EXPECT_EQ(Tracer::Get().events_recorded(), 0u);
  EXPECT_EQ(Metrics::Get().hist(HistId::kSyscallNs).Snapshot().count, 1u);
  Tracer::Get().Disable();
}

TEST_F(TraceTest, SpanFeedsRingAndHistogramInFullMode) {
  Tracer::Get().Enable(kModeFull);
  {
    Span span(EventId::kSyscall, HistId::kSyscallNs, /*a0=*/42);
  }
  Tracer::Get().Disable();
  std::vector<Event> events = Tracer::Get().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, EventId::kSyscall);
  EXPECT_EQ(events[0].phase, Phase::kSpan);
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(Metrics::Get().hist(HistId::kSyscallNs).Snapshot().count, 1u);
}

// --- The clock ----------------------------------------------------------------

TEST_F(TraceTest, NowNsIsMonotonicAcrossThreads) {
  // A token passes round 4 threads; each reads NowNs() after taking the
  // token and publishes it with the hand-off, so consecutive readings are
  // ordered by happens-before even though they come from different CPUs.
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kRounds = 2000;
  std::atomic<uint64_t> turn{0};
  std::atomic<uint64_t> last{0};
  std::atomic<uint64_t> backwards{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t mine = 0;
      for (uint64_t n = t; n < kRounds * kThreads; n += kThreads) {
        while (turn.load(std::memory_order_acquire) != n) {
          std::this_thread::yield();
        }
        uint64_t now = NowNs();
        if (now < last.load(std::memory_order_relaxed) || now < mine) {
          backwards.fetch_add(1, std::memory_order_relaxed);
        }
        mine = now;
        last.store(now, std::memory_order_relaxed);
        turn.store(n + 1, std::memory_order_release);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(backwards.load(), 0u);
}

// A NowNs() reading paired with the steady_clock time it was taken at: the
// tightest steady_clock bracket of a few tries, so a preemption next to the
// reading cannot skew a comparison of the two clocks.
struct Stamp {
  uint64_t now = 0;
  uint64_t steady = 0;
};

Stamp TightStamp() {
  Stamp best;
  uint64_t best_gap = UINT64_MAX;
  for (int i = 0; i < 100; ++i) {
    uint64_t before = internal::SteadyNowNs();
    uint64_t now = NowNs();
    uint64_t after = internal::SteadyNowNs();
    if (after - before < best_gap) {
      best_gap = after - before;
      best = {now, before + (after - before) / 2};
    }
  }
  return best;
}

TEST_F(TraceTest, NowNsTracksSteadyClockOverASleep) {
  Stamp start = TightStamp();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stamp end = TightStamp();
  double steady = static_cast<double>(end.steady - start.steady);
  double ours = static_cast<double>(end.now - start.now);
  EXPECT_GE(steady, 20e6);
  EXPECT_NEAR(ours / steady, 1.0, 0.01);
}

// --- Lock waits -----------------------------------------------------------------

TEST_F(TraceTest, UncontendedLockWaitIsZero) {
  Tracer::Get().Enable(kModeMetrics);
  smp::SpinLock lock;
  {
    TimedLockGuard guard(lock, HistId::kPipesWaitNs, kLockPipes);
  }
  HistogramSnapshot snap = Metrics::Get().hist(HistId::kPipesWaitNs).Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.sum, 0u);
}

// A SpinLock that notes a refused try_lock(), so a holder can keep the lock
// until the guard under test has found it taken.
struct WatchedLock {
  void lock() { lock_.lock(); }
  bool try_lock() {
    bool ok = lock_.try_lock();
    if (!ok) {
      refused.store(true, std::memory_order_release);
    }
    return ok;
  }
  void unlock() { lock_.unlock(); }

  smp::SpinLock lock_;
  std::atomic<bool> refused{false};
};

TEST_F(TraceTest, BlockedLockWaitIsTimed) {
  Tracer::Get().Enable(kModeMetrics);
  WatchedLock lock;
  std::atomic<bool> held{false};
  std::thread holder([&] {
    lock.lock();
    held.store(true, std::memory_order_release);
    while (!lock.refused.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lock.unlock();
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    TimedLockGuard guard(lock, HistId::kPipesWaitNs, kLockPipes);
  }
  holder.join();
  HistogramSnapshot snap = Metrics::Get().hist(HistId::kPipesWaitNs).Snapshot();
  ASSERT_EQ(snap.count, 1u);
  // Bucket 20 starts at 2^19 ns (~0.52 ms).
  for (size_t b = 0; b < 20; ++b) {
    EXPECT_EQ(snap.buckets[b], 0u) << "bucket " << b;
  }
  EXPECT_GE(snap.sum, 1u << 19);
}

// --- Check spans are ring-only -------------------------------------------------

TEST_F(TraceTest, MetricsModeCountsChecksWithoutHistograms) {
  runtime::MetaPoolRuntime rt;
  runtime::MetaPool* pool = rt.CreatePool("MPt", true, 64, /*complete=*/true);
  ASSERT_TRUE(rt.RegisterObject(*pool, 0x10000, 64).ok());
  rt.ResetStats();
  Tracer::Get().Enable(kModeMetrics);
  EXPECT_TRUE(rt.BoundsCheck(*pool, 0x10000, 0x10020).ok());
  EXPECT_FALSE(rt.BoundsCheck(*pool, 0x10000, 0x10040).ok());
  Tracer::Get().Disable();
  EXPECT_EQ(rt.stats().bounds_performed, 2u);
  EXPECT_EQ(rt.stats().bounds_failed, 1u);
  EXPECT_EQ(Tracer::Get().events_recorded(), 0u);
  for (const HistogramSnapshot& snap : Metrics::Get().Snapshot()) {
    EXPECT_EQ(snap.count, 0u) << snap.name;
  }
}

TEST_F(TraceTest, RingModeKeepsCheckSpanDurations) {
  runtime::MetaPoolRuntime rt;
  runtime::MetaPool* pool = rt.CreatePool("MPt", true, 64, /*complete=*/true);
  ASSERT_TRUE(rt.RegisterObject(*pool, 0x10000, 64).ok());
  Tracer::Get().Enable(kModeRing);
  EXPECT_TRUE(rt.BoundsCheck(*pool, 0x10000, 0x10020).ok());
  Tracer::Get().Disable();
  std::vector<Event> checks;
  for (const Event& e : Tracer::Get().Drain()) {
    if (e.id == EventId::kBoundsCheck) {
      checks.push_back(e);
    }
  }
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].phase, Phase::kSpan);
  EXPECT_GT(checks[0].dur_ns, 0u);
  EXPECT_EQ(checks[0].a0, 0x10000u);
  EXPECT_EQ(checks[0].a1, 0x10020u);
}

// --- Multi-producer stress (tsan) --------------------------------------------

TEST_F(TraceTest, ConcurrentProducersNeverLoseAccounting) {
  constexpr unsigned kWorkers = 4;
  constexpr uint64_t kPerWorker = 10000;
  Tracer& tracer = Tracer::Get();
  // Small rings force heavy wraparound while all producers are writing.
  tracer.Enable(kModeFull, /*ring_capacity=*/256);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([t] {
      smp::ScopedCpu bind(t);
      for (uint64_t i = 0; i < kPerWorker; ++i) {
        Emit(EventId::kCacheHit, t, i);
        Metrics::Get().hist(HistId::kIrqNs).Observe(i);
        if (i % 64 == 0) {
          Span span(EventId::kSyscall, HistId::kSyscallNs, t);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  tracer.Disable();
  std::vector<Event> events = tracer.Drain();
  // Conservation: every recorded event is either drained or counted lost.
  EXPECT_EQ(events.size() + tracer.events_lost(), tracer.events_recorded());
  EXPECT_GE(tracer.events_recorded(), kWorkers * kPerWorker);
  // Drain orders by (cpu, ts): within each track time never goes backwards
  // — the invariant the Chrome exporter (and trace-validate) rely on.
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].cpu == events[i - 1].cpu) {
      EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
    } else {
      EXPECT_GT(events[i].cpu, events[i - 1].cpu);
    }
  }
  uint64_t hist_count =
      Metrics::Get().hist(HistId::kSyscallNs).Snapshot().count;
  EXPECT_EQ(hist_count, kWorkers * (kPerWorker / 64 + (kPerWorker % 64 != 0)));
  // Concurrent Observe calls on one histogram: the count (the bucket total)
  // and the sum both account for every observation.
  HistogramSnapshot irq = Metrics::Get().hist(HistId::kIrqNs).Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t n : irq.buckets) {
    bucket_total += n;
  }
  EXPECT_EQ(irq.count, bucket_total);
  EXPECT_EQ(irq.count, kWorkers * kPerWorker);
  EXPECT_EQ(irq.sum, kWorkers * (kPerWorker * (kPerWorker - 1) / 2));
}

// --- /metrics over the loopback stream path ----------------------------------

class MetricsServerTest : public ::testing::Test {
 protected:
  MetricsServerTest() : machine_(128ull << 20, 4096) {
    kernel::KernelConfig config;
    config.mode = kernel::KernelMode::kSvaSafe;
    kernel_ = std::make_unique<kernel::Kernel>(machine_, config);
    Status s = kernel_->Boot();
    EXPECT_TRUE(s.ok()) << s.ToString();
    Tracer::Get().Reset();
    Metrics::Get().Reset();
  }
  ~MetricsServerTest() override {
    Tracer::Get().Reset();
    Metrics::Get().Reset();
  }

  hw::Machine machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
};

TEST_F(MetricsServerTest, ServesExpositionOverLoopbackByteExact) {
  kernel::MetricsServer server(*kernel_);
  ASSERT_TRUE(server.Start().ok());
  net::LoopbackClient client(*kernel_->net());
  auto conn = client.OpenStream(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(client.SendStream(*conn, "GET /metrics HTTP/1.0\r\n\r\n").ok());
  auto served = server.ServeOne();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // Byte-exact: what the client drained off the NIC is what the server
  // claims it put on the wire.
  std::string received = client.TakeStream(*conn);
  EXPECT_EQ(received, *served);
  EXPECT_EQ(received.find("HTTP/1.0 200 OK\r\n"), 0u);
  // Every counter surface shows up in the body.
  EXPECT_NE(received.find("sva_kernel_syscalls_total"), std::string::npos);
  EXPECT_NE(received.find("sva_pchk_bounds_checks_total"), std::string::npos);
  EXPECT_NE(received.find("sva_svaos_syscalls_dispatched_total"),
            std::string::npos);
  EXPECT_NE(received.find("sva_net_tx_frames_total"), std::string::npos);
  EXPECT_NE(received.find("{pool="), std::string::npos);
  // Framing: Content-Length matches the actual body.
  size_t header_end = received.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  size_t body_len = received.size() - header_end - 4;
  std::string want = "Content-Length: " + std::to_string(body_len) + "\r\n";
  EXPECT_NE(received.find(want), std::string::npos);
}

TEST_F(MetricsServerTest, UnknownPathGets404) {
  kernel::MetricsServer server(*kernel_);
  ASSERT_TRUE(server.Start().ok());
  net::LoopbackClient client(*kernel_->net());
  auto conn = client.OpenStream(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(client.SendStream(*conn, "GET /health HTTP/1.0\r\n\r\n").ok());
  auto served = server.ServeOne();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(client.TakeStream(*conn), *served);
  EXPECT_EQ(served->find("HTTP/1.0 404 Not Found\r\n"), 0u);
}

TEST_F(MetricsServerTest, ServesBackToBackConnections) {
  kernel::MetricsServer server(*kernel_);
  ASSERT_TRUE(server.Start().ok());
  net::LoopbackClient client(*kernel_->net());
  for (int i = 0; i < 3; ++i) {
    auto conn = client.OpenStream(server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        client.SendStream(*conn, "GET /metrics HTTP/1.0\r\n\r\n").ok());
    auto served = server.ServeOne();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(client.TakeStream(*conn), *served);
  }
  // Scraping itself bumps the counters it reports.
  EXPECT_GE(kernel_->stats().syscalls, 3u * 4u);
}

// --- Task-lifecycle events through the continuous drainer --------------------

// The full fork → exec → exit → wait lifecycle, consumed the way the benches
// consume traces: a ContinuousDrainer thread draining the rings while the
// kernel runs. Fork and exec must emit entry/exit spans (feeding kForkNs /
// kExecNs), fork must emit the conn.forked instant tying child to parent,
// and the demand pager's page-fault spans must show up from the user copies.
TEST_F(MetricsServerTest, ForkExecLifecycleEmitsSpansAndConnForkedInstant) {
  Tracer::Get().Enable(kModeFull, /*ring_capacity=*/4096);
  ContinuousDrainer drainer;
  drainer.Start();
  auto call = [this](kernel::Sys n, uint64_t a0 = 0) {
    auto r = kernel_->Syscall(n, a0);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
    return r.ok() ? *r : ~uint64_t{0};
  };
  uint64_t user = kernel::kUserVirtualBase +
                  static_cast<uint64_t>(kernel_->current_pid()) * 0x100000;
  ASSERT_TRUE(kernel_->PokeUserString(user, "/bin/true").ok());
  const uint64_t child = call(kernel::Sys::kFork);
  ASSERT_EQ(child, 2u);
  // Run the child: switch to it, exec, exit; then reap it from the parent.
  ASSERT_TRUE(kernel_->Yield().ok());
  EXPECT_EQ(call(kernel::Sys::kExecve, user), 0u);
  EXPECT_EQ(call(kernel::Sys::kExit, 0), 0u);
  EXPECT_EQ(call(kernel::Sys::kWaitPid, child), child);
  std::vector<Event> events = drainer.Stop();
  Tracer::Get().Disable();

  bool fork_span = false, exec_span = false, conn_forked = false;
  bool fault_span = false;
  for (const Event& e : events) {
    if (e.id == EventId::kFork && e.phase == Phase::kSpan && e.a0 == 1u) {
      fork_span = true;
    }
    if (e.id == EventId::kExec && e.phase == Phase::kSpan && e.a0 == child) {
      exec_span = true;
    }
    if (e.id == EventId::kConnForked && e.phase == Phase::kInstant) {
      conn_forked = true;
      EXPECT_EQ(e.a0, child);  // a0 = child pid, a1 = parent pid.
      EXPECT_EQ(e.a1, 1u);
    }
    if (e.id == EventId::kPageFault && e.phase == Phase::kSpan) {
      fault_span = true;
    }
  }
  EXPECT_TRUE(fork_span) << "no fork span tagged with the parent pid";
  EXPECT_TRUE(exec_span) << "no exec span tagged with the child pid";
  EXPECT_TRUE(conn_forked) << "no conn.forked instant event";
  EXPECT_TRUE(fault_span) << "user copies should fault pages in under trace";
  EXPECT_GE(Metrics::Get().hist(HistId::kForkNs).Snapshot().count, 1u);
  EXPECT_GE(Metrics::Get().hist(HistId::kExecNs).Snapshot().count, 1u);
  EXPECT_GE(Metrics::Get().hist(HistId::kPageFaultNs).Snapshot().count, 1u);
}

// --- Determinism: identical counters across replicas -------------------------

// Runs one fixed syscall workload against a fresh kernel and returns its
// metrics exposition with the timing histograms zeroed out of the picture
// (counters only). svm-run --cpus N relies on this invariant: replicas of a
// deterministic workload must agree on every count.
std::string RunDeterministicReplica() {
  hw::Machine machine(128ull << 20, 4096);
  kernel::KernelConfig config;
  config.mode = kernel::KernelMode::kSvaSafe;
  kernel::Kernel kernel(machine, config);
  EXPECT_TRUE(kernel.Boot().ok());
  uint64_t user = kernel::kUserVirtualBase +
                  static_cast<uint64_t>(kernel.current_pid()) * 0x100000;
  EXPECT_TRUE(kernel.PokeUserString(user, "/tmp/replica").ok());
  auto call = [&kernel](kernel::Sys n, uint64_t a0 = 0, uint64_t a1 = 0,
                        uint64_t a2 = 0) {
    auto r = kernel.Syscall(n, a0, a1, a2);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : ~uint64_t{0};
  };
  uint64_t fd = call(kernel::Sys::kOpen, user, 1);
  for (int i = 0; i < 32; ++i) {
    call(kernel::Sys::kWrite, fd, user + 4096, 512);
  }
  call(kernel::Sys::kLseek, fd, 0, 0);
  for (int i = 0; i < 32; ++i) {
    call(kernel::Sys::kRead, fd, user + 8192, 512);
  }
  call(kernel::Sys::kClose, fd);
  call(kernel::Sys::kPipe, user + 128);
  uint32_t fds[2];
  EXPECT_TRUE(kernel.PeekUser(user + 128, fds, 8).ok());
  for (int i = 0; i < 16; ++i) {
    call(kernel::Sys::kWrite, fds[1], user + 4096, 256);
    call(kernel::Sys::kRead, fds[0], user + 8192, 256);
  }
  call(kernel::Sys::kGetPid);
  kernel::MetricsServer server(kernel);
  return server.RenderText();
}

// Strips the sva_epoch_* lines from an exposition. The epoch-reclamation
// counters read from the process-global smp::EpochDomain::Global(), which
// every kernel instance in this process shares, so sequential replicas see
// them accumulate. Every other metric is per-kernel and must match exactly.
std::string WithoutProcessGlobalLines(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size() - 1;
    }
    std::string_view line(text.data() + pos, eol - pos + 1);
    if (line.find("sva_epoch_") == std::string_view::npos) {
      out.append(line);
    }
    pos = eol + 1;
  }
  return out;
}

TEST_F(TraceTest, ReplicasOfDeterministicWorkloadAgreeOnAllCounters) {
  // The exposition includes the sva_*_total counter lines; with tracing off
  // the histogram sections are all empty, so whole-text equality (modulo the
  // process-global epoch-domain lines, which accumulate across replicas by
  // design) means every per-kernel counter (kernel, metapool, per-pool,
  // SVA-OS, net) matched.
  std::string first = RunDeterministicReplica();
  EXPECT_NE(first.find("sva_pchk_bounds_checks_total"), std::string::npos);
  EXPECT_NE(first.find("sva_epoch_reclaimed_total"), std::string::npos);
  std::string first_stable = WithoutProcessGlobalLines(first);
  for (int replica = 1; replica < 3; ++replica) {
    EXPECT_EQ(first_stable, WithoutProcessGlobalLines(RunDeterministicReplica()))
        << "replica " << replica;
  }
}

}  // namespace
}  // namespace sva::trace
