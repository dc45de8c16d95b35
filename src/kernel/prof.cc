// The perf_event-analog syscall surface: kProfStart opens an fd-backed
// self-profiling session, kProfRead returns 16-byte sample records filtered
// to the owning task, kProfStop (or the fd's last close) ends the session.
//
// Sessions are references on the process-wide trace::Profiler: the first
// start spawns the sampler, which paces at the timer frequency and drives
// hw::TimerDevice::FireInterrupt — the kernel's Boot-installed interrupt
// callback then takes the actual sample, so the "timer interrupt drives the
// profiler" wiring is the same one svm-run and the benches use.
//
// Isolation: a task may only read or stop a session it owns (kEPerm
// otherwise) and reads only ever return samples attributed to the owner's
// pid — an inherited or leaked session fd is useless to any other task.
// The exploit suite's PROF-SPY scenario checks exactly this.
//
// Locking: prof_lock_ is an unranked leaf like the per-queue evq locks —
// taken with no ranked lock held; the only lock acquired under it is the
// profiler's internal store lock, which never calls back into the kernel.
#include "src/kernel/kernel.h"
#include "src/support/strings.h"
#include "src/trace/profiler.h"

namespace sva::kernel {

namespace {
constexpr uint64_t kEPerm = static_cast<uint64_t>(-1);
constexpr uint64_t kEInval = static_cast<uint64_t>(-22);
constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
}  // namespace

Result<uint64_t> Kernel::SysProfStart(uint64_t hz) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  // a0 == 0 keeps the booted rate; an explicit rate reprograms the device
  // (bounds-checked there — 0 is already handled, >crystal is kEInval).
  if (hz != 0) {
    if (!machine_.timer().SetFrequency(hz).ok()) {
      return kEInval;
    }
  }
  trace::Profiler::Options opts;
  opts.hz = static_cast<unsigned>(machine_.timer().frequency_hz());
  opts.num_cpus = smp::kMaxCpus;  // Tasks may run on any worker's vCPU.
  // The guard keeps a late tick (sampler kept alive by another kernel's
  // session) from firing this kernel's timer after the kernel died.
  opts.tick = [this, tick_guard = prof_tick_guard_] {
    std::lock_guard<std::mutex> lock(tick_guard->mu);
    if (tick_guard->alive) {
      machine_.timer().FireInterrupt();
    }
  };
  if (!trace::Profiler::Get().Start(opts)) {
    return kEInval;
  }

  SVA_ASSIGN_OR_RETURN(uint64_t prof_addr,
                       allocators_->CacheAlloc(prof_cache_));
  auto session = std::make_unique<ProfSession>();
  session->addr = prof_addr;
  session->owner_pid = task->pid;
  // Start reading at "now": the session only ever sees samples taken after
  // it was opened.
  session->cursor = trace::Profiler::Get().EndCursor();
  session->active = true;
  int prof_id;
  {
    std::lock_guard<smp::SpinLock> guard(prof_lock_);
    prof_sessions_.push_back(std::move(session));
    prof_id = static_cast<int>(prof_sessions_.size() - 1);
  }
  auto file_addr = allocators_->CacheAlloc(file_cache_);
  if (!file_addr.ok()) {
    DestroyProfSession(prof_id);
    return file_addr.status();
  }
  auto* file = new OpenFile;
  file->addr = *file_addr;
  file->prof_id = prof_id;
  return InstallFd(*task, file);
}

Result<uint64_t> Kernel::SysProfStop(uint64_t fd) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  int prof_id = ProfIdForFd(fd);
  if (prof_id < 0) {
    return kEBadF;
  }
  bool was_active = false;
  {
    std::lock_guard<smp::SpinLock> guard(prof_lock_);
    ProfSession* session = prof_sessions_[static_cast<size_t>(prof_id)].get();
    if (session->owner_pid != task->pid) {
      return kEPerm;  // Only the owner may stop its session.
    }
    was_active = session->active;
    session->active = false;
  }
  if (was_active) {
    // Outside prof_lock_: the last reference joins the sampler thread.
    trace::Profiler::Get().Stop();
  }
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysProfRead(uint64_t fd, uint64_t uaddr,
                                     uint64_t max_records) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  int prof_id = ProfIdForFd(fd);
  if (prof_id < 0) {
    return kEBadF;
  }
  if (max_records == 0) {
    return kEInval;
  }
  if (max_records > kProfMaxRecordsPerRead) {
    max_records = kProfMaxRecordsPerRead;
  }

  std::vector<ProfRecord> out;
  {
    // The session cursor advances under prof_lock_ so two readers of a dup'd
    // fd never return the same sample twice. ReadSamples takes only the
    // profiler's store lock underneath — a leaf below this leaf.
    std::lock_guard<smp::SpinLock> guard(prof_lock_);
    ProfSession* session = prof_sessions_[static_cast<size_t>(prof_id)].get();
    if (session->owner_pid != task->pid) {
      return kEPerm;  // A task may only profile itself (PROF-SPY).
    }
    std::vector<trace::ProfSample> raw;
    while (out.size() < max_records) {
      raw.clear();
      size_t n = trace::Profiler::Get().ReadSamples(&session->cursor, &raw,
                                                    kProfMaxRecordsPerRead);
      if (n == 0) {
        break;
      }
      for (const trace::ProfSample& s : raw) {
        // Samples of other tasks (and idle CPUs) are skipped, not leaked.
        if (static_cast<int>(s.pid) != session->owner_pid) {
          continue;
        }
        ProfRecord r;
        r.ts_ns = s.ts_ns;
        r.pid = s.pid;
        r.cpu = s.cpu;
        r.context = static_cast<uint8_t>(s.context);
        r.mode = s.mode;
        r.depth = s.depth;
        out.push_back(r);
        if (out.size() == max_records) {
          break;
        }
      }
    }
  }
  if (out.empty()) {
    return uint64_t{0};
  }

  // Marshal 16-byte records through a kernel scratch block, one CopyToUser
  // (the kEvqWait scheme).
  uint64_t bytes = out.size() * kProfRecordBytes;
  SVA_ASSIGN_OR_RETURN(uint64_t scratch, allocators_->Kmalloc(bytes));
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t base = scratch + i * kProfRecordBytes;
    Status w = machine_.memory().Write(base, 8, out[i].ts_ns);
    if (w.ok()) {
      w = machine_.memory().Write(
          base + 8, 8,
          static_cast<uint64_t>(out[i].pid) |
              (static_cast<uint64_t>(out[i].cpu) << 32) |
              (static_cast<uint64_t>(out[i].context) << 40) |
              (static_cast<uint64_t>(out[i].mode) << 48) |
              (static_cast<uint64_t>(out[i].depth) << 56));
    }
    if (!w.ok()) {
      (void)allocators_->Kfree(scratch);
      return w;
    }
  }
  Status copy = CopyToUser(*task, uaddr, scratch, bytes);
  SVA_RETURN_IF_ERROR(allocators_->Kfree(scratch));
  SVA_RETURN_IF_ERROR(copy);
  return out.size();
}

void Kernel::DestroyProfSession(int prof_id) {
  uint64_t prof_addr = 0;
  bool was_active = false;
  {
    std::lock_guard<smp::SpinLock> guard(prof_lock_);
    if (prof_id < 0 ||
        static_cast<size_t>(prof_id) >= prof_sessions_.size()) {
      return;
    }
    ProfSession* session = prof_sessions_[static_cast<size_t>(prof_id)].get();
    was_active = session->active;
    session->active = false;
    prof_addr = session->addr;
    session->addr = 0;
  }
  if (was_active) {
    trace::Profiler::Get().Stop();
  }
  if (prof_addr != 0) {
    (void)allocators_->CacheFree(prof_cache_, prof_addr);
  }
}

int Kernel::ProfIdForFd(uint64_t fd) {
  Task* task = current_task();
  if (task == nullptr) {
    return -1;
  }
  auto file = FileForFd(*task, fd);
  return file.ok() ? (*file)->prof_id : -1;
}

}  // namespace sva::kernel
