#include "src/trace/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace sva::trace {
namespace {

// The global name table. Producers intern once per call site and cache the
// id, so the lock is cold in steady state. Leaf lock: never held while
// acquiring anything else.
struct NameTable {
  smp::SpinLock lock;
  std::vector<std::string> names{"unknown"};
  std::unordered_map<std::string, uint32_t> ids{{"unknown", 0}};
};

NameTable& Names() {
  static NameTable* table = new NameTable();  // Leaked: outlives everything.
  return *table;
}

constexpr size_t kProfRingCapacity = 4096;

// Packs the sample's a0 word: pid<<32 | depth<<16 | mode<<8 | context.
uint64_t PackSampleA0(uint32_t pid, uint8_t depth, uint8_t mode,
                      ProfContext ctx) {
  return static_cast<uint64_t>(pid) << 32 |
         static_cast<uint64_t>(depth) << 16 |
         static_cast<uint64_t>(mode) << 8 |
         static_cast<uint64_t>(ctx);
}

}  // namespace

const char* ProfContextName(ProfContext c) {
  switch (c) {
    case ProfContext::kUnknown: return "unknown";
    case ProfContext::kIdle: return "idle";
    case ProfContext::kGuestThreaded: return "guest-threaded";
    case ProfContext::kGuestInterp: return "guest-interp";
    case ProfContext::kKernelSyscall: return "kernel-syscall";
    case ProfContext::kSvaOsOp: return "svaos-op";
    case ProfContext::kNetIrq: return "net-irq";
    case ProfContext::kNumContexts: break;
  }
  return "unknown";
}

uint32_t InternProfName(std::string_view name) {
  NameTable& table = Names();
  std::lock_guard<smp::SpinLock> guard(table.lock);
  std::string key(name);
  auto it = table.ids.find(key);
  if (it != table.ids.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(table.names.size());
  table.names.push_back(key);
  table.ids.emplace(std::move(key), id);
  return id;
}

std::string ProfNameForId(uint32_t id) {
  NameTable& table = Names();
  std::lock_guard<smp::SpinLock> guard(table.lock);
  if (id >= table.names.size()) {
    return "unknown";
  }
  return table.names[id];
}

Profiler& Profiler::Get() {
  static Profiler* profiler = new Profiler();  // Leaked: see NameTable.
  return *profiler;
}

bool Profiler::Start(const Options& opts) {
  std::lock_guard<std::mutex> guard(control_lock_);
  uint32_t sessions =
      internal::g_prof_sessions.load(std::memory_order_relaxed);
  if (sessions != 0) {
    // Joining an existing session: the first caller's rate wins.
    internal::g_prof_sessions.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (opts.hz == 0 || opts.hz > 100000) {
    return false;
  }
  opts_ = opts;
  if (opts_.num_cpus == 0) {
    opts_.num_cpus = 1;
  }
  if (opts_.num_cpus > smp::kMaxCpus) {
    opts_.num_cpus = smp::kMaxCpus;
  }
  rings_.ForEachMutable(
      [](EventRing& ring) { ring.Reset(kProfRingCapacity); });
  sampler_ticked_.store(false, std::memory_order_relaxed);
  sampler_run_.store(true, std::memory_order_relaxed);
  sampler_ = std::thread([this] { SamplerMain(); });
  // Wait for the first tick, so a session shorter than the sampler thread's
  // start-up latency (milliseconds on a loaded host) still takes a sample.
  while (!sampler_ticked_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Open the producer gate only once the sampler exists, so every push has
  // a chance of being observed.
  internal::g_prof_sessions.store(1, std::memory_order_release);
  return true;
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> guard(control_lock_);
  uint32_t sessions =
      internal::g_prof_sessions.load(std::memory_order_relaxed);
  if (sessions == 0) {
    return;
  }
  if (sessions > 1) {
    internal::g_prof_sessions.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  internal::g_prof_sessions.store(0, std::memory_order_release);
  sampler_run_.store(false, std::memory_order_relaxed);
  if (sampler_.joinable()) {
    sampler_.join();
  }
  // Final drain so nothing recorded by the last tick is stranded in a ring.
  std::lock_guard<smp::SpinLock> store_guard(store_lock_);
  DrainRingsLocked();
}

void Profiler::SamplerMain() {
  const auto period =
      std::chrono::nanoseconds(1000000000ull / opts_.hz);
  auto next = std::chrono::steady_clock::now() + period;
  while (sampler_run_.load(std::memory_order_relaxed)) {
    if (opts_.tick) {
      opts_.tick();  // Normally hw::TimerDevice::FireInterrupt -> SampleNow.
    } else {
      SampleNow();
    }
    sampler_ticked_.store(true, std::memory_order_release);
    std::this_thread::sleep_until(next);
    next += period;
    auto now = std::chrono::steady_clock::now();
    if (next < now) {
      next = now + period;  // Fell behind (suspend, load); don't burst.
    }
  }
}

void Profiler::PushContext(ProfContext ctx, uint32_t name_id, uint32_t pid,
                           uint8_t mode) {
  Slot& slot = slots_.Current();
  slot.seq.fetch_add(1, std::memory_order_relaxed);  // Odd: mid-update.
  std::atomic_thread_fence(std::memory_order_release);
  uint32_t d = slot.depth.load(std::memory_order_relaxed);
  if (d < Slot::kMaxContexts) {
    uint64_t word = static_cast<uint64_t>(name_id) << 32 |
                    static_cast<uint64_t>(pid & 0xffff) << 16 |
                    static_cast<uint64_t>(ctx) << 8 |
                    static_cast<uint64_t>(mode);
    slot.ctx[d].store(word, std::memory_order_relaxed);
  }
  slot.depth.store(d + 1, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);  // Even: settled.
}

void Profiler::PopContext() {
  Slot& slot = slots_.Current();
  slot.seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint32_t d = slot.depth.load(std::memory_order_relaxed);
  if (d > 0) {
    slot.depth.store(d - 1, std::memory_order_relaxed);
  }
  slot.seq.fetch_add(1, std::memory_order_release);
}

void Profiler::PushGuestFrame(uint32_t name_id, bool threaded,
                              bool safe_mode) {
  Slot& slot = slots_.Current();
  slot.seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint32_t d = slot.gdepth.load(std::memory_order_relaxed);
  if (d < Slot::kMaxGuestFrames) {
    uint32_t word = name_id << 2 | (threaded ? 2u : 0u) |
                    (safe_mode ? 1u : 0u);
    slot.gframe[d].store(word, std::memory_order_relaxed);
  } else {
    slot.truncated.fetch_add(1, std::memory_order_relaxed);
  }
  slot.gdepth.store(d + 1, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);
}

void Profiler::PopGuestFrame() {
  Slot& slot = slots_.Current();
  slot.seq.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  uint32_t d = slot.gdepth.load(std::memory_order_relaxed);
  if (d > 0) {
    slot.gdepth.store(d - 1, std::memory_order_relaxed);
  }
  slot.seq.fetch_add(1, std::memory_order_release);
}

void Profiler::SampleNow() {
  if (rings_.ForCpu(0).capacity() == 0) {
    // Direct test callers without a Start(): give the transport rings their
    // capacity (single-caller context by the control-plane rule).
    rings_.ForEachMutable(
        [](EventRing& ring) { ring.Reset(kProfRingCapacity); });
  }
  unsigned cpus = opts_.num_cpus == 0 ? 1 : opts_.num_cpus;
  uint64_t ts = NowNs();
  for (unsigned cpu = 0; cpu < cpus; ++cpu) {
    SampleCpu(cpu, ts);
  }
  std::lock_guard<smp::SpinLock> guard(store_lock_);
  DrainRingsLocked();
}

void Profiler::SampleCpu(unsigned cpu, uint64_t ts_ns) {
  const Slot& slot = slots_.ForCpu(cpu);
  uint32_t depth = 0;
  uint32_t gdepth = 0;
  uint64_t ctx_words[Slot::kMaxContexts];
  uint32_t gframe_words[Slot::kMaxGuestFrames];
  bool settled = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) {
      continue;  // Owner mid-update; retry.
    }
    depth = slot.depth.load(std::memory_order_relaxed);
    gdepth = slot.gdepth.load(std::memory_order_relaxed);
    uint32_t nctx = std::min(depth, Slot::kMaxContexts);
    for (uint32_t i = 0; i < nctx; ++i) {
      ctx_words[i] = slot.ctx[i].load(std::memory_order_relaxed);
    }
    uint32_t ngf = std::min(gdepth, Slot::kMaxGuestFrames);
    for (uint32_t i = 0; i < ngf; ++i) {
      gframe_words[i] = slot.gframe[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == s1) {
      settled = true;
      break;
    }
  }
  ProfContext ctx = ProfContext::kUnknown;
  uint32_t pid = 0;
  uint8_t mode = 0;
  std::vector<uint32_t> frames;
  if (settled) {
    uint32_t nctx = std::min(depth, Slot::kMaxContexts);
    uint32_t ngf = std::min(gdepth, Slot::kMaxGuestFrames);
    if (depth > 0) {
      uint64_t top = ctx_words[nctx - 1];
      pid = static_cast<uint32_t>((top >> 16) & 0xffff);
      ctx = static_cast<ProfContext>((top >> 8) & 0xff);
      mode = static_cast<uint8_t>(top & 0xff);
      if (ctx >= ProfContext::kNumContexts) {
        ctx = ProfContext::kUnknown;
      }
    }
    if (gdepth > 0) {
      // Guest frames sit on top of whatever kernel/SVA-OS context invoked
      // the tier; the top frame decides interp-vs-threaded.
      uint32_t top = ngf > 0 ? gframe_words[ngf - 1] : 0;
      ctx = (top & 2u) != 0 ? ProfContext::kGuestThreaded
                            : ProfContext::kGuestInterp;
      if (depth == 0) {
        mode = (top & 1u) != 0 ? 3 : 0;  // kSvaSafe : kNative.
      }
    }
    frames.reserve(nctx + ngf + 1);
    for (uint32_t i = 0; i < nctx; ++i) {
      frames.push_back(static_cast<uint32_t>(ctx_words[i] >> 32));
    }
    for (uint32_t i = 0; i < ngf; ++i) {
      frames.push_back(gframe_words[i] >> 2);
    }
    if (frames.empty()) {
      ctx = ProfContext::kIdle;
    }
  }

  uint32_t stack_id;
  {
    std::lock_guard<smp::SpinLock> guard(store_lock_);
    if (!settled) {
      ++unattributed_;
    }
    if (frames.empty()) {
      // Idle and unattributed samples get a one-frame synthetic stack so
      // the folded output still accounts for 100% of samples.
      static const uint32_t kIdleId = InternProfName("idle");
      static const uint32_t kUnknownId = 0;
      frames.push_back(ctx == ProfContext::kIdle ? kIdleId : kUnknownId);
    }
    stack_id = InternStack(frames);
    stack_counts_[stack_id] += 1;
    context_counts_[static_cast<size_t>(ctx)] += 1;
    ++samples_;
  }

  Event e;
  e.ts_ns = ts_ns;
  e.dur_ns = 0;
  e.id = EventId::kProfSample;
  e.phase = Phase::kInstant;
  e.cpu = static_cast<uint8_t>(cpu);
  e.a0 = PackSampleA0(pid, static_cast<uint8_t>(std::min<uint32_t>(depth, 255)),
                      mode, ctx);
  e.a1 = stack_id;
  rings_.ForCpu(cpu).Record(e);
  if ((trace::mode() & kModeRing) != 0) {
    // Mirror into the main trace so --trace-out timelines carry samples.
    Tracer::Get().Record(EventId::kProfSample, Phase::kInstant, ts_ns, 0,
                         e.a0, e.a1);
  }
}

uint32_t Profiler::InternStack(const std::vector<uint32_t>& frames) {
  auto it = stack_ids_.find(frames);
  if (it != stack_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(stacks_.size());
  stack_ids_.emplace(frames, id);
  stacks_.push_back(frames);
  stack_counts_.push_back(0);
  return id;
}

void Profiler::DrainRingsLocked() {
  std::vector<Event> events;
  uint64_t lost = 0;
  rings_.ForEachMutable(
      [&events, &lost](EventRing& ring) { lost += ring.Drain(&events); });
  lost_ += lost;
  for (const Event& e : events) {
    if (e.id != EventId::kProfSample) {
      continue;
    }
    ProfSample s;
    s.ts_ns = e.ts_ns;
    s.stack_id = static_cast<uint32_t>(e.a1);
    s.pid = static_cast<uint32_t>(e.a0 >> 32);
    s.cpu = e.cpu;
    s.depth = static_cast<uint8_t>(e.a0 >> 16);
    s.mode = static_cast<uint8_t>(e.a0 >> 8);
    s.context = static_cast<ProfContext>(e.a0 & 0xff);
    if (s.context >= ProfContext::kNumContexts) {
      s.context = ProfContext::kUnknown;
    }
    store_.push_back(s);
  }
  while (store_.size() > kMaxStoredSamples) {
    store_.pop_front();
    ++store_base_;
    ++lost_;  // Readers that fell behind the trim lose these.
  }
}

size_t Profiler::ReadSamples(uint64_t* cursor, std::vector<ProfSample>* out,
                             size_t max) {
  std::lock_guard<smp::SpinLock> guard(store_lock_);
  if (*cursor < store_base_) {
    *cursor = store_base_;  // Trimmed past the reader; clamp forward.
  }
  size_t idx = static_cast<size_t>(*cursor - store_base_);
  size_t n = 0;
  while (idx < store_.size() && n < max) {
    out->push_back(store_[idx]);
    ++idx;
    ++n;
  }
  *cursor += n;
  return n;
}

uint64_t Profiler::EndCursor() const {
  std::lock_guard<smp::SpinLock> guard(store_lock_);
  return store_base_ + store_.size();
}

Profiler::Stats Profiler::stats() const {
  Stats s;
  {
    std::lock_guard<smp::SpinLock> guard(store_lock_);
    s.samples = samples_;
    s.lost = lost_;
    s.unattributed = unattributed_;
  }
  slots_.ForEach([&s](const Slot& slot) {
    s.stacks_truncated += slot.truncated.load(std::memory_order_relaxed);
  });
  return s;
}

std::vector<uint64_t> Profiler::ContextCounts() const {
  std::lock_guard<smp::SpinLock> guard(store_lock_);
  return std::vector<uint64_t>(
      context_counts_,
      context_counts_ + static_cast<size_t>(ProfContext::kNumContexts));
}

std::string Profiler::StackString(uint32_t stack_id) const {
  std::vector<uint32_t> frames;
  {
    std::lock_guard<smp::SpinLock> guard(store_lock_);
    if (stack_id >= stacks_.size()) {
      return "unknown";
    }
    frames = stacks_[stack_id];
  }
  std::string out;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) {
      out += ';';
    }
    out += ProfNameForId(frames[i]);
  }
  return out.empty() ? "unknown" : out;
}

std::string Profiler::FoldedText() const {
  std::vector<std::pair<std::vector<uint32_t>, uint64_t>> rows;
  {
    std::lock_guard<smp::SpinLock> guard(store_lock_);
    rows.reserve(stacks_.size());
    for (size_t id = 0; id < stacks_.size(); ++id) {
      if (stack_counts_[id] > 0) {
        rows.emplace_back(stacks_[id], stack_counts_[id]);
      }
    }
  }
  std::string out;
  for (const auto& [frames, count] : rows) {
    std::string line;
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i != 0) {
        line += ';';
      }
      line += ProfNameForId(frames[i]);
    }
    if (line.empty()) {
      line = "unknown";
    }
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool Profiler::WriteFolded(const std::string& path) const {
  std::string text = FoldedText();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::vector<std::pair<std::string, uint64_t>> Profiler::TopStacks(
    size_t n) const {
  std::vector<std::pair<uint32_t, uint64_t>> rows;
  {
    std::lock_guard<smp::SpinLock> guard(store_lock_);
    for (size_t id = 0; id < stacks_.size(); ++id) {
      if (stack_counts_[id] > 0) {
        rows.emplace_back(static_cast<uint32_t>(id), stack_counts_[id]);
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (rows.size() > n) {
    rows.resize(n);
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(rows.size());
  for (const auto& [id, count] : rows) {
    out.emplace_back(StackString(id), count);
  }
  return out;
}

void Profiler::ResetForTest() {
  while (running()) {
    Stop();
  }
  std::lock_guard<std::mutex> guard(control_lock_);
  std::lock_guard<smp::SpinLock> store_guard(store_lock_);
  rings_.ForEachMutable([](EventRing& ring) {
    if (ring.capacity() != 0) {
      ring.Reset(ring.capacity());
    }
  });
  slots_.ForEachMutable([](Slot& slot) {
    slot.seq.store(0, std::memory_order_relaxed);
    slot.depth.store(0, std::memory_order_relaxed);
    slot.gdepth.store(0, std::memory_order_relaxed);
    slot.truncated.store(0, std::memory_order_relaxed);
  });
  store_.clear();
  store_base_ = 0;
  stack_ids_.clear();
  stacks_.clear();
  stack_counts_.clear();
  samples_ = 0;
  lost_ = 0;
  unattributed_ = 0;
  for (uint64_t& c : context_counts_) {
    c = 0;
  }
  opts_ = Options{};
}

}  // namespace sva::trace
