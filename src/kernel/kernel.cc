#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/support/strings.h"
#include "src/trace/profiler.h"
#include "src/trace/trace.h"

namespace sva::kernel {

namespace {
// Error returns follow the kernel convention of small negative numbers.
constexpr uint64_t kEInval = static_cast<uint64_t>(-22);
constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
constexpr uint64_t kENoEnt = static_cast<uint64_t>(-2);
constexpr uint64_t kEMFile = static_cast<uint64_t>(-24);
constexpr uint64_t kEChild = static_cast<uint64_t>(-10);
constexpr uint64_t kEAgain = static_cast<uint64_t>(-11);
constexpr uint64_t kEMsgSize = static_cast<uint64_t>(-90);
constexpr uint64_t kEAddrInUse = static_cast<uint64_t>(-98);
constexpr uint64_t kENoMem = static_cast<uint64_t>(-12);

// The fd array is modeled at this offset inside the task-cache object; the
// sigaction table sits below it at offset 96 (signals < 32 fit).
constexpr uint64_t kTaskFdArrayOffset = 128;

uint64_t UserBaseForPid(int pid) {
  return kUserVirtualBase + static_cast<uint64_t>(pid) * 0x100000;
}

const char* SyscallName(Sys number) {
  switch (number) {
    case Sys::kExit: return "exit";
    case Sys::kFork: return "fork";
    case Sys::kRead: return "read";
    case Sys::kWrite: return "write";
    case Sys::kOpen: return "open";
    case Sys::kClose: return "close";
    case Sys::kWaitPid: return "waitpid";
    case Sys::kUnlink: return "unlink";
    case Sys::kExecve: return "execve";
    case Sys::kStat: return "stat";
    case Sys::kLseek: return "lseek";
    case Sys::kGetPid: return "getpid";
    case Sys::kKill: return "kill";
    case Sys::kPipe: return "pipe";
    case Sys::kBrk: return "brk";
    case Sys::kSigaction: return "sigaction";
    case Sys::kGetRusage: return "getrusage";
    case Sys::kGetTimeOfDay: return "gettimeofday";
    case Sys::kDup: return "dup";
    case Sys::kSocket: return "socket";
    case Sys::kSend: return "send";
    case Sys::kRecv: return "recv";
    case Sys::kBind: return "bind";
    case Sys::kAccept: return "accept";
    case Sys::kEvqCreate: return "evq_create";
    case Sys::kEvqCtl: return "evq_ctl";
    case Sys::kEvqWait: return "evq_wait";
    case Sys::kProfStart: return "prof_start";
    case Sys::kProfStop: return "prof_stop";
    case Sys::kProfRead: return "prof_read";
  }
  return "unknown";
}

// Interned "syscall:<name>" profiler ids, one per syscall number, filled
// lazily off the sampler-visible fast path (the intern itself takes only
// the profiler's leaf name lock).
uint32_t ProfNameForSyscall(Sys number) {
  static std::array<std::atomic<uint32_t>, 128> ids = {};
  size_t idx = static_cast<uint64_t>(number) & 127;
  uint32_t id = ids[idx].load(std::memory_order_relaxed);
  if (id == 0) {
    id = trace::InternProfName(std::string("syscall:") + SyscallName(number));
    ids[idx].store(id, std::memory_order_relaxed);
  }
  return id;
}
}  // namespace

Kernel::Kernel(hw::Machine& machine, KernelConfig config)
    : machine_(machine),
      config_(config),
      svaos_(machine),
      pools_(runtime::EnforcementMode::kTrap) {}

Kernel::~Kernel() {
  // Files, pipes and inodes are owned by references. Drop the ones the
  // live tasks' fds and the namespace still hold, through the same release
  // paths as close and unlink, so each object is retired exactly once.
  for (auto& [pid, task] : tasks_) {
    CloseAllFds(task);
  }
  if (DirIndex* index = dir_index_.exchange(nullptr,
                                            std::memory_order_relaxed)) {
    for (const auto& [path, inode] : index->entries) {
      UnrefInode(inode);
    }
    delete index;
  }
  // Then drain the epoch machinery: retired fd tables, open files, inodes
  // and directory-index snapshots capture this kernel's allocators in their
  // reclaim callbacks, so every pending retiree must run before the member
  // destructors below tear the allocators down. The caller guarantees no
  // syscall is still in flight, so the pinned-reader population is zero
  // (or draining) and Synchronize terminates.
  smp::EpochDomain::Global().Synchronize();
  // The task index is owned raw: with every reader gone, delete it.
  delete task_index_.exchange(nullptr, std::memory_order_relaxed);
  // The profiler sampler can outlive this kernel (another kernel's session
  // keeps the refcount up) and its tick hook targets our timer: flip the
  // shared guard first so a late tick becomes a locked no-op, then unhook
  // the interrupt callback and release our sessions. The Stops happen with
  // no lock held — the last one joins the sampler thread.
  {
    std::lock_guard<std::mutex> lock(prof_tick_guard_->mu);
    prof_tick_guard_->alive = false;
  }
  machine_.timer().SetInterruptCallback(nullptr);
  int open_sessions = 0;
  {
    std::lock_guard<smp::SpinLock> guard(prof_lock_);
    for (auto& session : prof_sessions_) {
      if (session != nullptr && session->active) {
        session->active = false;
        ++open_sessions;
      }
    }
  }
  for (int i = 0; i < open_sessions; ++i) {
    trace::Profiler::Get().Stop();
  }
}

Status Kernel::Boot() {
  bool safe = config_.mode == KernelMode::kSvaSafe;
  allocators_ = std::make_unique<KernelAllocators>(
      machine_, safe ? &pools_ : nullptr, safe);

  // SVA-PORT(alloc): caches are created with the pool-allocator contract
  // (type-size alignment, SLAB_NO_REAP) and identified to the compiler.
  // The task struct ends with the fd array, so its size scales with the
  // configured fd-table size (satisfying the Table 6 experiment's 25
  // concurrent connections without fd pooling).
  task_cache_ = allocators_->CreateCache(
      "task_struct", kTaskFdArrayOffset + 4 * config_.max_fds);
  task_pool_ = allocators_->PoolForCache(task_cache_);
  inode_cache_ = allocators_->CreateCache("inode", 96);
  file_cache_ = allocators_->CreateCache("filp", 48);
  pipe_cache_ = allocators_->CreateCache("pipe_inode_info", 64);
  evq_cache_ = allocators_->CreateCache("eventpoll", 64);
  prof_cache_ = allocators_->CreateCache("perf_event", 32);

  // Program the sampling-interrupt rate and route the line into the
  // profiler: every FireInterrupt edge takes one sample of each vCPU.
  SVA_RETURN_IF_ERROR(machine_.timer().SetFrequency(config_.timer_hz));
  machine_.timer().SetInterruptCallback(
      [] { trace::Profiler::Get().SampleNow(); });

  if (safe) {
    // SVA-PORT(analysis): all of userspace is one object per metapool
    // reachable from system call arguments (Section 4.6).
    user_pool_ = pools_.GetPool("MPu.user", /*type_homogeneous=*/false,
                                /*element_size=*/0, /*complete=*/true);
  }

  // The network stack boots against the same machine and metapool runtime;
  // SVA modes reach the NIC through SVA-OS I/O ops and the registered rx
  // interrupt, native mode touches the device directly.
  net_ = std::make_unique<net::NetStack>(
      machine_, svaos_, safe ? &pools_ : nullptr, safe,
      /*use_svaos=*/config_.mode != KernelMode::kNative);
  SVA_RETURN_IF_ERROR(net_->Boot());
  // Readiness edges flow from the net stack into the event queues. The
  // callback fires with no net-stack locks held (see NetStack::NotifyReady),
  // so OnSocketReady may take evq_lock_ and per-queue locks freely.
  net_->SetReadyCallback([this](int sid) { OnSocketReady(sid); });
  net_->set_max_accept_backlog(config_.max_accept_backlog);

  // The VM subsystem hooks the shootdown-IPI vector before any address
  // space exists.
  SVA_RETURN_IF_ERROR(vm_.Init());

  if (config_.mode != KernelMode::kNative) {
    // SVA-PORT(svaos): system call handlers are registered through the
    // SVA-OS registration operation instead of a hand-built IDT stub.
    for (Sys number :
         {Sys::kExit, Sys::kFork, Sys::kRead, Sys::kWrite, Sys::kOpen,
          Sys::kClose, Sys::kWaitPid, Sys::kUnlink, Sys::kExecve, Sys::kStat,
          Sys::kLseek,
          Sys::kGetPid, Sys::kKill, Sys::kPipe, Sys::kBrk, Sys::kSigaction,
          Sys::kGetRusage, Sys::kGetTimeOfDay, Sys::kDup, Sys::kSocket,
          Sys::kSend, Sys::kRecv, Sys::kBind, Sys::kAccept, Sys::kEvqCreate,
          Sys::kEvqCtl, Sys::kEvqWait, Sys::kProfStart, Sys::kProfStop,
          Sys::kProfRead}) {
      SVA_RETURN_IF_ERROR(svaos_.RegisterSyscall(
          static_cast<uint64_t>(number),
          [this, number](const svaos::SyscallArgs& call) {
            return HandleSyscall(number, call.args, call.icontext);
          }));
    }
  }

  // /dev/null: ino 0, linked for the kernel's lifetime (unlink refuses it).
  SVA_ASSIGN_OR_RETURN(uint64_t null_addr,
                       allocators_->CacheAlloc(inode_cache_));
  auto* null_dev = new Inode;
  null_dev->addr = null_addr;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(vfs_lock_);
    PublishDirIndex(new DirIndex{{{"/dev/null", null_dev}}});
  }

  // pid 1: init.
  SVA_ASSIGN_OR_RETURN(int pid, CreateTask(/*parent_pid=*/0));
  current_pid_ = pid;
  booted_ = true;
  return OkStatus();
}

void Kernel::TranslatorTax() {
  // Deterministic stand-in for the LLVM-vs-GCC code quality delta the paper
  // measured at <= 13% on kernel paths (DESIGN.md §2 records this
  // substitution).
  volatile uint64_t sink = 0;
  for (unsigned i = 0; i < config_.translator_tax_iterations; ++i) {
    sink = sink + i * 2654435761u;
  }
}

Result<uint64_t> Kernel::Syscall(Sys number, uint64_t a0, uint64_t a1,
                                 uint64_t a2, uint64_t a3) {
  if (!booted_) {
    return FailedPrecondition("kernel not booted");
  }
  trace::Span span(trace::EventId::kSyscall, trace::HistId::kSyscallNs,
                   static_cast<uint64_t>(number));
  // No lock here: each handler takes its subsystem's leaf lock where it
  // touches that state, and an unknown number touches none (SVA-OS and the
  // native switch both return NotFound for it).
  Result<uint64_t> r = Dispatch(number, {a0, a1, a2, a3, 0, 0});
  // The syscall-exit quiescent state (docs/CONCURRENCY.md §5): no epoch
  // guard and no kernel lock is held here, so this thread can drive the
  // grace-period advance and run deferred reclaims.
  smp::EpochDomain::Global().QuiescentState();
  return r;
}

KernelStats Kernel::stats() const {
  KernelStats total;
  stats_shards_.ForEach([&total](const KernelStats& shard) {
    auto load = [](const uint64_t& counter) {
      return std::atomic_ref<const uint64_t>(counter).load(
          std::memory_order_relaxed);
    };
    total.syscalls += load(shard.syscalls);
    total.context_switches += load(shard.context_switches);
    total.forks += load(shard.forks);
    total.execs += load(shard.execs);
    total.signals_delivered += load(shard.signals_delivered);
    total.bytes_copied_user += load(shard.bytes_copied_user);
  });
  return total;
}

Result<uint64_t> Kernel::Dispatch(Sys number,
                                  const std::array<uint64_t, 6>& args) {
  Bump(StatsShard().syscalls);
  // Privilege transitions act on the calling thread's virtual CPU (bound to
  // the boot CPU in single-CPU runs, so single-threaded behaviour is
  // unchanged).
  hw::Cpu& cpu = svaos_.current_cpu().cpu();
  switch (config_.mode) {
    case KernelMode::kNative: {
      // Native dispatch: the hand-written trap stub still saves and
      // restores the interrupted register state (as real kernels do), but
      // without interrupt-context bookkeeping or SVA-OS mediation.
      hw::ControlState saved = cpu.control();
      cpu.control().privilege = hw::Privilege::kKernel;
      Result<uint64_t> r = HandleSyscall(number, args, nullptr);
      cpu.control() = saved;
      return r;
    }
    case KernelMode::kSvaGcc:
      cpu.control().privilege = hw::Privilege::kUser;
      return svaos_.Syscall(static_cast<uint64_t>(number), args);
    case KernelMode::kSvaLlvm:
    case KernelMode::kSvaSafe:
      TranslatorTax();
      cpu.control().privilege = hw::Privilege::kUser;
      return svaos_.Syscall(static_cast<uint64_t>(number), args);
  }
  return Internal("bad kernel mode");
}

Result<uint64_t> Kernel::HandleSyscall(Sys number,
                                       const std::array<uint64_t, 6>& args,
                                       svaos::InterruptContext* icontext) {
  // The whole syscall body is one epoch read-side critical section: every
  // pointer resolved through the epoch-published structures (fd -> file,
  // path -> inode, pid -> task) stays valid until this guard drops at
  // return. Writers inside the body may Retire freely (retirement only
  // enqueues); the grace-period advance runs from the quiescent hook in
  // Syscall(), after the guard is gone. kEvqWait bounds the pin duration
  // by its timeout — the longest a reader may stall reclamation.
  smp::EpochGuard epoch_guard;
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  // Publish "in kernel, running syscall X for pid P" to the sampling
  // profiler. One relaxed load when no profiler is running; a few relaxed
  // stores on this CPU's slot otherwise — never a lock, so the hook is safe
  // under every handler's leaf locks.
  trace::ProfContextScope prof;
  if (trace::prof_enabled()) {
    prof.Enter(trace::ProfContext::kKernelSyscall, ProfNameForSyscall(number),
               static_cast<uint32_t>(task->pid),
               static_cast<uint8_t>(config_.mode));
  }
  if (config_.mode == KernelMode::kSvaSafe) {
    // The load of the current task structure goes through the task cache's
    // metapool (a TH pool: bounds lookups only, no load-store check).
    SVA_RETURN_IF_ERROR(
        BoundsCheckObject(task_pool_, task->addr, task->addr + 8));
  }

  Result<uint64_t> result = [&]() -> Result<uint64_t> {
    switch (number) {
      case Sys::kGetPid:
        return SysGetPid();
      case Sys::kGetTimeOfDay:
        return SysGetTimeOfDay(args[0]);
      case Sys::kGetRusage:
        return SysGetRusage(args[0]);
      case Sys::kOpen:
        return SysOpen(args[0], args[1]);
      case Sys::kClose:
        return SysClose(args[0]);
      case Sys::kRead:
        return SysRead(args[0], args[1], args[2]);
      case Sys::kWrite:
        return SysWrite(args[0], args[1], args[2]);
      case Sys::kLseek:
        return SysLseek(args[0], args[1], args[2]);
      case Sys::kStat:
        return SysStat(args[0]);
      case Sys::kUnlink:
        return SysUnlink(args[0]);
      case Sys::kPipe:
        return SysPipe(args[0]);
      case Sys::kBrk:
        return SysBrk(args[0]);
      case Sys::kSigaction:
        return SysSigaction(args[0], args[1]);
      case Sys::kKill:
        return SysKill(args[0], args[1], icontext);
      case Sys::kFork:
        return SysFork();
      case Sys::kExecve:
        return SysExecve(args[0]);
      case Sys::kExit:
        return SysExit(args[0]);
      case Sys::kWaitPid:
        return SysWaitPid(args[0]);
      case Sys::kDup:
        return SysDup(args[0]);
      case Sys::kSocket:
        return SysSocket(args[0]);
      case Sys::kSend:
        return SysNetSend(args[0], args[1], args[2], args[3]);
      case Sys::kRecv:
        return SysNetRecv(args[0], args[1], args[2]);
      case Sys::kBind:
        return SysNetBind(args[0], args[1], args[2]);
      case Sys::kAccept:
        return SysNetAccept(args[0]);
      case Sys::kEvqCreate:
        return SysEvqCreate();
      case Sys::kEvqCtl:
        return SysEvqCtl(args[0], args[1], args[2], args[3]);
      case Sys::kEvqWait:
        return SysEvqWait(args[0], args[1], args[2], args[3]);
      case Sys::kProfStart:
        return SysProfStart(args[0]);
      case Sys::kProfStop:
        return SysProfStop(args[0]);
      case Sys::kProfRead:
        return SysProfRead(args[0], args[1], args[2]);
    }
    return NotFound(StrCat("unknown syscall ", static_cast<uint64_t>(number)));
  }();

  // Frame-pool exhaustion surfaces mid-copy as a fault that cannot fill;
  // the kernel turns it into -ENOMEM, never an abort or a kill.
  if (!result.ok() &&
      result.status().code() == StatusCode::kResourceExhausted) {
    result = kENoMem;
  }

  // Signal delivery on every syscall return. SVA-PORT(svaos): dispatch
  // saves state on the kernel stack and uses llva.ipush.function instead of
  // rewriting the user stack frame (Section 6.1). The pending mask is an
  // atomic bitmask, so no lock is needed; the entry-resolved task stays
  // pinned by the epoch guard, so it is re-resolved only when the syscall
  // switched tasks (exit hands the CPU to the parent).
  Task* after = current_pid() == task->pid ? task : current_task();
  if (after != nullptr &&
      std::atomic_ref<uint32_t>(after->pending_signals)
              .load(std::memory_order_acquire) != 0) {
    DeliverPendingSignals(*after, icontext);
  }
  return result;
}

void Kernel::DeliverPendingSignals(Task& task,
                                   svaos::InterruptContext* icontext) {
  int pid = task.pid;
  // Claim the whole pending set atomically: concurrent killers may be
  // setting bits while this task drains them, and two return paths must
  // never deliver the same signal twice.
  uint32_t pending = std::atomic_ref<uint32_t>(task.pending_signals)
                         .exchange(0, std::memory_order_acq_rel);
  for (int sig = 0; sig < kMaxSignals; ++sig) {
    if ((pending & (1u << sig)) == 0) {
      continue;
    }
    if (std::atomic_ref<uint64_t>(task.sigactions[sig].handler)
            .load(std::memory_order_acquire) == 0) {
      continue;  // Default action: ignore (minikernel simplification).
    }
    auto deliver = [this, pid](uint64_t signum) {
      Task* t = FindTask(pid);
      if (t != nullptr) {
        std::atomic_ref<uint64_t>(t->signals_delivered)
            .fetch_add(1, std::memory_order_relaxed);
        Bump(StatsShard().signals_delivered);
        (void)signum;
      }
    };
    if (icontext != nullptr) {
      svaos_.IPushFunction(icontext, deliver, static_cast<uint64_t>(sig));
    } else {
      deliver(static_cast<uint64_t>(sig));  // Native path: direct call.
    }
  }
}

// --- User memory ------------------------------------------------------------------

Result<uint64_t> Kernel::UserToPhysical(Task& task, uint64_t uaddr,
                                        bool write) {
  // SVA-PORT(svaos): translation goes through the task's address space —
  // per-CPU TLB hit on the fast path, page-fault-driven demand fill (or
  // COW break, for writes) on a miss. Concurrent workers may share the
  // task; VmManager::Resolve serializes faults on the AS lock.
  return vm_.Resolve(*task.aspace, uaddr, write);
}

Status Kernel::CheckUserRange(Task& task, uint64_t uaddr, uint64_t len) {
  (void)task;
  if (config_.mode != KernelMode::kSvaSafe || user_pool_ == nullptr) {
    return OkStatus();
  }
  // The Section 4.6 check: the whole range must stay inside the single
  // userspace object; a buffer straddling into kernel memory fails here.
  uint64_t last = len == 0 ? uaddr : uaddr + len - 1;
  return pools_.BoundsCheck(*user_pool_, uaddr, last);
}

template <typename Fn>
Status Kernel::ForEachUserPage(Task& task, uint64_t uaddr, uint64_t len,
                               bool write, Fn&& fn) {
  hw::PhysicalMemory& mem = machine_.memory();
  for (uint64_t done = 0; done < len;) {
    const uint64_t va = uaddr + done;
    const uint64_t chunk =
        std::min(len - done, hw::kPageSize - va % hw::kPageSize);
    SVA_ASSIGN_OR_RETURN(uint64_t pa, UserToPhysical(task, va, write));
    if (!mem.Contains(pa, chunk)) {
      return OutOfRange(
          StrCat("user page beyond physical memory at 0x", std::hex, va));
    }
    if (!fn(mem.raw(pa), done, chunk)) {
      break;
    }
    done += chunk;
  }
  return OkStatus();
}

Status Kernel::ReadUserPath(Task& task, uint64_t path_uaddr,
                            std::string* out) {
  // No kernel staging buffer: the lock-free SysStat path must not touch
  // the allocators (their stripe locks are cheap, but the point of the fast
  // path is zero shared writes).
  out->clear();
  bool terminated = false;
  Status walk = ForEachUserPage(
      task, path_uaddr, kMaxPathLength, /*write=*/false,
      [&](const uint8_t* user, uint64_t, uint64_t chunk) {
        const auto* nul =
            static_cast<const uint8_t*>(std::memchr(user, 0, chunk));
        out->append(reinterpret_cast<const char*>(user),
                    nul == nullptr ? chunk : nul - user);
        terminated = nul != nullptr;
        return !terminated;
      });
  // The userspace pool is one object, so one check over exactly the bytes
  // consumed — through the NUL, or through the first byte whose page did
  // not translate — decides what a check per byte would, and never looks
  // past the NUL.
  const uint64_t consumed = out->size() + (terminated || !walk.ok() ? 1 : 0);
  SVA_RETURN_IF_ERROR(CheckUserRange(task, path_uaddr, consumed));
  return walk;
}

Status Kernel::CopyFromUser(Task& task, uint64_t kaddr, uint64_t uaddr,
                            uint64_t len) {
  SVA_RETURN_IF_ERROR(CheckUserRange(task, uaddr, len));
  return CopyBlock(task, uaddr, kaddr, len, /*to_user=*/false);
}

Status Kernel::CopyToUser(Task& task, uint64_t uaddr, uint64_t kaddr,
                          uint64_t len) {
  SVA_RETURN_IF_ERROR(CheckUserRange(task, uaddr, len));
  return CopyBlock(task, uaddr, kaddr, len, /*to_user=*/true);
}

Status Kernel::CopyBlock(Task& task, uint64_t uaddr, uint64_t kaddr,
                         uint64_t len, bool to_user) {
  Bump(StatsShard().bytes_copied_user, len);
  hw::PhysicalMemory& mem = machine_.memory();
  if (!mem.Contains(kaddr, len)) {
    return OutOfRange("kernel buffer beyond physical memory");
  }
  // memmove, not memcpy, here and in Peek/PokeUser: GCC expands a memcpy
  // whose size it knows is at most a page into an inline `rep movsq`, far
  // slower than the library call for the few-byte copies most syscalls
  // make; memmove stays a call.
  return ForEachUserPage(
      task, uaddr, len, /*write=*/to_user,
      [&](uint8_t* user, uint64_t done, uint64_t chunk) {
        uint8_t* kernel = mem.raw(kaddr + done);
        std::memmove(to_user ? user : kernel, to_user ? kernel : user, chunk);
        return true;
      });
}

Status Kernel::PokeUser(uint64_t uaddr, const void* data, uint64_t len) {
  smp::EpochGuard epoch_guard;  // Pins the task, as HandleSyscall does.
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  const auto* bytes = static_cast<const uint8_t*>(data);
  return ForEachUserPage(*task, uaddr, len, /*write=*/true,
                         [bytes](uint8_t* user, uint64_t done, uint64_t chunk) {
                           std::memmove(user, bytes + done, chunk);
                           return true;
                         });
}

Status Kernel::PeekUser(uint64_t uaddr, void* data, uint64_t len) {
  smp::EpochGuard epoch_guard;
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  auto* bytes = static_cast<uint8_t*>(data);
  return ForEachUserPage(*task, uaddr, len, /*write=*/false,
                         [bytes](uint8_t* user, uint64_t done, uint64_t chunk) {
                           std::memmove(bytes + done, user, chunk);
                           return true;
                         });
}

Status Kernel::PokeUserString(uint64_t uaddr, const std::string& text) {
  SVA_RETURN_IF_ERROR(PokeUser(uaddr, text.data(), text.size()));
  uint8_t nul = 0;
  return PokeUser(uaddr + text.size(), &nul, 1);
}

// --- Safe-mode check helpers -----------------------------------------------------

Status Kernel::LsCheckObject(runtime::MetaPool* pool, uint64_t addr) {
  if (config_.mode != KernelMode::kSvaSafe || pool == nullptr) {
    return OkStatus();
  }
  return pools_.LoadStoreCheck(*pool, addr);
}

Status Kernel::BoundsCheckObject(runtime::MetaPool* pool, uint64_t base,
                                 uint64_t derived) {
  if (config_.mode != KernelMode::kSvaSafe || pool == nullptr) {
    return OkStatus();
  }
  return pools_.BoundsCheck(*pool, base, derived);
}

// --- Tasks -------------------------------------------------------------------------

Task* Kernel::FindTask(int pid) {
  // tasks_lock_ guards the map structure; node addresses are stable, so the
  // returned pointer stays valid after release (reaping a task that is
  // still running syscalls is a caller bug, as in any kernel).
  std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : &it->second;
}

Task* Kernel::current_task() {
  const int pid = current_pid();
  {
    // Fast path: binary-search the epoch-published pid snapshot. This runs
    // in every syscall prologue, so it must not contend on tasks_lock_ —
    // before the epoch conversion this lookup was the last lock every
    // syscall still took.
    smp::EpochGuard guard;
    const TaskIndex* index = task_index_.load(std::memory_order_acquire);
    if (index != nullptr) {
      auto it = std::lower_bound(
          index->by_pid.begin(), index->by_pid.end(), pid,
          [](const std::pair<int, Task*>& e, int p) { return e.first < p; });
      if (it != index->by_pid.end() && it->first == pid) {
        return it->second;
      }
    }
  }
  // Slow path: a pid created since the last publish (or a pre-publish
  // caller) resolves through the locked map walk.
  return FindTask(pid);
}

void Kernel::RepublishTaskIndex(int skip_pid) {
  // Caller holds tasks_lock_. Build the sorted snapshot (map iteration is
  // already pid-ordered), publish it, retire the one it replaces. Readers
  // pinned on the old snapshot keep using it; its Task pointers stay valid
  // because map nodes outlive the snapshot retirement (SysWaitPid
  // republishes without the pid BEFORE erasing the node).
  auto* fresh = new TaskIndex;
  fresh->by_pid.reserve(tasks_.size());
  for (auto& [pid, task] : tasks_) {
    if (pid != skip_pid) {
      fresh->by_pid.emplace_back(pid, &task);
    }
  }
  TaskIndex* old = task_index_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    smp::RetireDelete(old);
  }
}

void Kernel::PublishDirIndex(DirIndex* fresh) {
  // Caller holds vfs_lock_. Same snapshot discipline as the task index:
  // SysUnlink drops the entry's inode reference only after publishing its
  // absence, and the inode itself is retired through the epoch machinery,
  // so readers pinned on the old snapshot finish against intact memory.
  DirIndex* old = dir_index_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    smp::RetireDelete(old);
  }
}

Result<int> Kernel::CreateTask(int parent_pid) {
  SVA_ASSIGN_OR_RETURN(uint64_t addr, allocators_->CacheAlloc(task_cache_));
  Task task;
  task.addr = addr;
  {
    // Concurrent forks race on pid allocation; next_pid_ lives under
    // tasks_lock_ with the map it keys.
    std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
    task.pid = next_pid_++;
  }
  task.parent = parent_pid;
  task.alive = true;
  task.fds = FdTablePtr(new FdTable(config_.max_fds));
  // SVA-PORT(svaos): a fresh address space — nothing committed; pages fault
  // in on first touch, and brk grows the frontier lazily toward the cap.
  // Each failure below gives back what the steps before it took.
  auto aspace = vm_.CreateAddressSpace(UserBaseForPid(task.pid),
                                       config_.user_pages_per_task,
                                       config_.max_user_pages_per_task);
  if (!aspace.ok()) {
    (void)allocators_->CacheFree(task_cache_, addr);
    return aspace.status();
  }
  task.aspace = std::move(*aspace);
  task.brk = UserBaseForPid(task.pid) +
             config_.user_pages_per_task * hw::kPageSize / 2;
  if (config_.mode == KernelMode::kSvaSafe && user_pool_ != nullptr) {
    // Register this task's user range as one object (Section 4.6), covering
    // the full growable span so lazy brk needs no re-registration. Spans
    // tile exactly with the per-pid stride, so neighbours never overlap. An
    // overlap with an existing registration is a kernel bug, not a
    // recoverable condition.
    Status reg = pools_.RegisterUserspace(
        *user_pool_, UserBaseForPid(task.pid),
        static_cast<uint64_t>(config_.max_user_pages_per_task) *
            hw::kPageSize);
    if (!reg.ok()) {
      (void)vm_.Destroy(*task.aspace);
      (void)allocators_->CacheFree(task_cache_, addr);
      return reg;
    }
  }
  int pid = task.pid;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
    tasks_[pid] = std::move(task);
    RepublishTaskIndex();
  }
  return pid;
}

Status Kernel::Yield() {
  // tasks_lock_ serializes the scheduler: the current task, the pick of the
  // next alive task in pid order (round robin) and the switch itself are one
  // critical section, so two host threads yielding at once cannot both
  // switch away from the same task. The SVA-OS state save/load below takes
  // no ranked lock.
  std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
  auto cur = tasks_.find(current_pid_);
  if (cur == tasks_.end()) {
    return Internal("no current task");
  }
  Task* current = &cur->second;
  auto it = tasks_.upper_bound(current_pid_);
  while (true) {
    if (it == tasks_.end()) {
      it = tasks_.begin();
    }
    if (it->second.alive && !it->second.zombie) {
      break;
    }
    ++it;
    if (it != tasks_.end() && it->first == current_pid_) {
      break;
    }
  }
  Task& next = it->second;
  if (next.pid == current_pid_) {
    return OkStatus();
  }
  Bump(StatsShard().context_switches);
  if (config_.mode == KernelMode::kNative) {
    // Native context switch: direct struct copies.
    current->cpu_state.control = machine_.cpu().control();
    current->cpu_state.valid = true;
    current->fp_state.fp = machine_.cpu().fp();
    current->fp_state.valid = true;
    if (next.cpu_state.valid) {
      machine_.cpu().control() = next.cpu_state.control;
    }
  } else {
    // SVA-PORT(svaos): context switch through llva.save.integer /
    // llva.load.integer with lazy FP save (Table 1).
    svaos_.SaveIntegerState(&current->cpu_state);
    svaos_.SaveFpState(&current->fp_state, /*always=*/false);
    if (next.cpu_state.valid) {
      SVA_RETURN_IF_ERROR(svaos_.LoadIntegerState(next.cpu_state));
    }
    if (next.fp_state.valid) {
      SVA_RETURN_IF_ERROR(svaos_.LoadFpState(next.fp_state));
    }
  }
  current_pid_ = next.pid;
  return OkStatus();
}

// --- Files --------------------------------------------------------------------------

Status Kernel::FdSlotCheck(Task& task, uint64_t fd) {
  // SVA-safe: indexing the fd array is an array indexing operation; the
  // compiler emits a bounds check against the object backing the array —
  // the task struct while the table is embedded, the kmalloc block once it
  // has grown.
  // fd_block is read through atomic_ref: lock-free readers race GrowFdTable
  // swapping it. The release-publish of the grown FdTable orders the block
  // store, so a reader that saw the bigger table also sees its block; the
  // reverse skew (old table, new block) only widens the checked object.
  uint64_t block = std::atomic_ref<uint64_t>(task.fd_block)
                       .load(std::memory_order_relaxed);
  if (block != 0) {
    return BoundsCheckObject(
        allocators_->PoolForKmallocClass(allocators_->KmallocSize(block)),
        block, block + fd * 4);
  }
  return BoundsCheckObject(task_pool_, task.addr,
                           task.addr + kTaskFdArrayOffset + fd * 4);
}

Status Kernel::GrowFdTable(Task& task) {
  FdTable* table = task.fds.load_plain();
  uint64_t capacity = table->capacity;
  if (capacity >= config_.max_fds_limit) {
    return Status(StatusCode::kInternal, "fd table at max_fds_limit");
  }
  uint64_t grown =
      std::min<uint64_t>(capacity * 2, config_.max_fds_limit);
  // SVA-PORT(alloc): the expanded fdtable is an ordinary allocation, so its
  // bounds live in the kmalloc class metapool. (The embedded array stays
  // inside the task object — the task cache's object size never changes.)
  SVA_ASSIGN_OR_RETURN(uint64_t block, allocators_->Kmalloc(grown * 4));
  uint64_t old_block = std::atomic_ref<uint64_t>(task.fd_block)
                           .load(std::memory_order_relaxed);
  auto* bigger = new FdTable(grown);
  for (uint64_t fd = 0; fd < capacity; ++fd) {
    bigger->slots[fd].store(table->slots[fd].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  }
  // Publish-then-retire, in the order lock-free FdSlotCheck depends on:
  // the modeled block store first, THEN the release-publish of the table
  // that orders it, THEN the deferred frees. A reader pinned mid-lookup
  // keeps a consistent (old table, old-or-new block) pair; the old block's
  // kfree — which drops its bounds registration — waits out the grace
  // period, so no reader ever bounds-checks against freed metadata.
  std::atomic_ref<uint64_t>(task.fd_block)
      .store(block, std::memory_order_relaxed);
  task.fds.publish(bigger);
  smp::RetireDelete(table);
  if (old_block != 0) {
    KernelAllocators* allocators = allocators_.get();
    smp::EpochDomain::Global().Retire(
        [allocators, old_block] { (void)allocators->Kfree(old_block); });
  }
  return OkStatus();
}

Status Kernel::EnsureFdCapacity(Task& task, uint64_t capacity) {
  while (task.fds.load_plain()->capacity < capacity) {
    SVA_RETURN_IF_ERROR(GrowFdTable(task));
  }
  return OkStatus();
}

Result<int> Kernel::AllocateFdLocked(Task& task, OpenFile* file) {
  FdTable* table = task.fds.load_plain();
  // Every slot below fd_next_hint is occupied (SysClose/SysExit lower the
  // hint on free), so scanning from it finds the lowest free slot without
  // the O(table) walk that would make 10k accepts quadratic.
  size_t fd = std::min<size_t>(
      static_cast<size_t>(std::max(task.fd_next_hint, 0)),
      static_cast<size_t>(table->capacity));
  while (fd < table->capacity &&
         table->slots[fd].load(std::memory_order_relaxed) != nullptr) {
    ++fd;
  }
  if (fd == table->capacity) {
    // Table genuinely full: grow it and take the first new slot.
    SVA_RETURN_IF_ERROR(GrowFdTable(task));
    table = task.fds.load_plain();
  }
  SVA_RETURN_IF_ERROR(FdSlotCheck(task, fd));
  // Release: a lock-free reader that observes the pointer also observes
  // the fully initialized OpenFile.
  table->slots[fd].store(file, std::memory_order_release);
  task.fd_next_hint = static_cast<int>(fd) + 1;
  return static_cast<int>(fd);
}

uint64_t Kernel::InstallFd(Task& task, OpenFile* file) {
  Result<int> fd = [&] {
    std::lock_guard<smp::OrderedSpinLock> guard(files_lock_);
    return AllocateFdLocked(task, file);
  }();
  if (!fd.ok()) {
    (void)ReleaseFile(file);
    return kEMFile;
  }
  return static_cast<uint64_t>(*fd);
}

void Kernel::CloseAllFds(Task& task) {
  std::vector<OpenFile*> open;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(files_lock_);
    FdTable* fdt = task.fds.load_plain();
    for (uint64_t fd = 0; fdt != nullptr && fd < fdt->capacity; ++fd) {
      if (OpenFile* file =
              fdt->slots[fd].exchange(nullptr, std::memory_order_acq_rel)) {
        open.push_back(file);
      }
    }
    task.fd_next_hint = 0;
  }
  for (OpenFile* file : open) {
    (void)ReleaseFile(file);
  }
}

Result<OpenFile*> Kernel::FileForFd(Task& task, uint64_t fd) {
  // Lock-free fd resolution (docs/CONCURRENCY.md §5): the caller holds an
  // EpochGuard (HandleSyscall pins one around the whole syscall body), so
  // the fd table and the OpenFile loaded here outlive this lookup even when
  // writers concurrently close the fd, grow the table, or retire the file.
  // The acquire loads pair with the writers' release publishes; the bounds
  // check below takes only metapool stripe locks (external classes, never
  // kernel ranks).
  FdTable* table = task.fds.load_acquire();
  if (table == nullptr || fd >= table->capacity) {
    return SafetyViolation(StrCat("fd ", fd, " out of range"));
  }
  SVA_RETURN_IF_ERROR(FdSlotCheck(task, fd));
  OpenFile* file = table->slots[fd].load(std::memory_order_acquire);
  if (file == nullptr) {
    // Free, or racing a close: either outcome of the race is a clean
    // kEBadF or the old file — never a torn slot.
    return NotFound(StrCat("bad fd ", fd));
  }
  return file;
}

Result<Inode*> Kernel::LookupInode(const std::string& name, bool create) {
  DirIndex* index = dir_index_.load(std::memory_order_relaxed);
  auto it = index->entries.find(name);
  if (it != index->entries.end()) {
    return it->second;
  }
  if (!create) {
    return NotFound(StrCat("no such file: ", name));
  }
  SVA_ASSIGN_OR_RETURN(uint64_t addr, allocators_->CacheAlloc(inode_cache_));
  auto* inode = new Inode;
  inode->addr = addr;
  inode->ino = next_ino_++;
  // Publish the new name to lock-free path resolution (SysStat, the SysOpen
  // fast path) before the creating syscall returns.
  auto* fresh = new DirIndex(*index);
  fresh->entries.emplace(name, inode);
  PublishDirIndex(fresh);
  return inode;
}

bool Kernel::TryRefInode(Inode* inode) {
  int refs = inode->refs.load(std::memory_order_relaxed);
  while (refs > 0) {
    if (inode->refs.compare_exchange_weak(refs, refs + 1,
                                          std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void Kernel::UnrefInode(Inode* inode) {
  if (inode->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Unreachable now: unlinked, and no OpenFile names it. A reader that
  // loaded the pointer before the last unpublish is still pinned, so the
  // blocks and the cache object wait out the grace period.
  KernelAllocators* allocators = allocators_.get();
  smp::EpochDomain::Global().Retire(
      [allocators, cache = inode_cache_, inode] {
        for (uint64_t block : inode->blocks) {
          (void)allocators->Kfree(block);
        }
        (void)allocators->CacheFree(cache, inode->addr);
        delete inode;
      });
}

void Kernel::ReleasePipeEnd(Pipe* pipe) {
  if (pipe->open_ends.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Both ends are gone, but a read or write that resolved its fd before
  // the close may still hold the pipe's lock: the ring, the cache object
  // and the Pipe wait out the grace period.
  KernelAllocators* allocators = allocators_.get();
  smp::EpochDomain::Global().Retire(
      [allocators, cache = pipe_cache_, pipe] {
        (void)allocators->Kfree(pipe->buffer);
        (void)allocators->CacheFree(cache, pipe->addr);
        delete pipe;
      });
}

Status Kernel::ReleaseFile(OpenFile* file) {
  if (file->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return OkStatus();
  }
  // The last slot holding the file is already unpublished (release pairs
  // with FileForFd's acquire); tear down what it names with no kernel lock
  // held — the net stack, the allocators and evq_lock_ take their own.
  Status status = OkStatus();
  if (file->net_socket_id >= 0) {
    // Close-while-registered: the socket silently leaves every event queue
    // watching it, epoll-style, before the net stack reclaims the id.
    DropSocketWatches(file->net_socket_id);
    if (net_ != nullptr) {
      status = net_->Close(file->net_socket_id);
    }
  }
  if (file->inode != nullptr) {
    UnrefInode(file->inode);
  }
  if (file->pipe != nullptr) {
    ReleasePipeEnd(file->pipe);
  }
  if (file->evq_id >= 0) {
    DestroyEvq(file->evq_id);
  }
  if (file->prof_id >= 0) {
    DestroyProfSession(file->prof_id);
  }
  // The OpenFile itself (and its cache slot) waits out the grace period: a
  // lock-free reader that loaded the pointer just before the unpublish
  // finishes its read against live memory.
  KernelAllocators* allocators = allocators_.get();
  smp::EpochDomain::Global().Retire(
      [allocators, cache = file_cache_, file] {
        (void)allocators->CacheFree(cache, file->addr);
        delete file;
      });
  return status;
}

// --- Syscalls ----------------------------------------------------------------------

Result<uint64_t> Kernel::SysGetPid() {
  return static_cast<uint64_t>(current_pid_);
}

Result<uint64_t> Kernel::SysGetTimeOfDay(uint64_t uaddr) {
  Task& task = *current_task();
  uint64_t micros;
  if (config_.mode == KernelMode::kNative) {
    micros = machine_.timer().microseconds();
  } else {
    // SVA-PORT(svaos): timer access through the SVA-OS I/O operation.
    SVA_ASSIGN_OR_RETURN(uint64_t ticks,
                         svaos_.IoRead(hw::Machine::kPortTimer));
    micros = ticks * 100;
  }
  uint64_t tv[2] = {micros / 1000000, micros % 1000000};
  SVA_ASSIGN_OR_RETURN(uint64_t scratch, allocators_->Kmalloc(16));
  SVA_RETURN_IF_ERROR(machine_.memory().Write(scratch, 8, tv[0]));
  SVA_RETURN_IF_ERROR(machine_.memory().Write(scratch + 8, 8, tv[1]));
  Status copy = CopyToUser(task, uaddr, scratch, 16);
  SVA_RETURN_IF_ERROR(allocators_->Kfree(scratch));
  SVA_RETURN_IF_ERROR(copy);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysGetRusage(uint64_t uaddr) {
  Task& task = *current_task();
  SVA_ASSIGN_OR_RETURN(uint64_t scratch, allocators_->Kmalloc(64));
  const KernelStats totals = stats();
  SVA_RETURN_IF_ERROR(machine_.memory().Write(scratch, 8, totals.syscalls));
  SVA_RETURN_IF_ERROR(
      machine_.memory().Write(scratch + 8, 8, totals.context_switches));
  Status copy = CopyToUser(task, uaddr, scratch, 64);
  SVA_RETURN_IF_ERROR(allocators_->Kfree(scratch));
  SVA_RETURN_IF_ERROR(copy);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysOpen(uint64_t path_uaddr, uint64_t flags) {
  Task& task = *current_task();
  std::string path;
  SVA_RETURN_IF_ERROR(ReadUserPath(task, path_uaddr, &path));

  // Fast path: resolve existing names against the epoch-published directory
  // index with no vfs_lock_ (docs/CONCURRENCY.md §5). The Inode pointer is
  // safe to dereference because this syscall's EpochGuard pins the epoch a
  // concurrent unlink would have to wait out before freeing it; the new
  // file's reference is taken only while the inode still has one.
  Inode* inode = nullptr;
  if (const DirIndex* index = dir_index_.load(std::memory_order_acquire)) {
    auto hit = index->entries.find(path);
    if (hit != index->entries.end() && TryRefInode(hit->second)) {
      inode = hit->second;
    }
  }
  if (inode == nullptr) {
    if ((flags & 1) == 0) {
      return kENoEnt;
    }
    // Creation is the slow path: vfs_lock_ serializes writers, and
    // LookupInode republishes the index before the lock drops. A linked
    // inode keeps its namespace reference while vfs_lock_ is held, so the
    // plain increment cannot revive a dying one.
    trace::TimedLockGuard<smp::OrderedSpinLock> guard(
        vfs_lock_, trace::HistId::kVfsWaitNs, trace::kLockVfs);
    auto found = LookupInode(path, true);
    if (!found.ok()) {
      return kENoEnt;
    }
    inode = *found;
    inode->refs.fetch_add(1, std::memory_order_relaxed);
  }
  auto addr = allocators_->CacheAlloc(file_cache_);
  if (!addr.ok()) {
    UnrefInode(inode);
    return addr.status();
  }
  auto* file = new OpenFile;
  file->addr = *addr;
  file->inode = inode;
  return InstallFd(task, file);
}

Result<uint64_t> Kernel::SysClose(uint64_t fd) {
  Task& task = *current_task();
  OpenFile* file;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(files_lock_);
    // Validate and clear under one hold: of two racing closes of the same
    // fd, the one that finds the slot already cleared reports kEBadF
    // rather than double-releasing the file.
    FdTable* fdt = task.fds.load_plain();
    if (fd >= fdt->capacity || !FdSlotCheck(task, fd).ok()) {
      return kEBadF;
    }
    file = fdt->slots[fd].load(std::memory_order_relaxed);
    if (file == nullptr) {
      return kEBadF;
    }
    // Unpublish the slot (release) BEFORE ReleaseFile retires the object:
    // a concurrent lock-free read sees either the old file (kept alive by
    // the grace period) or null — never a torn slot.
    fdt->slots[fd].store(nullptr, std::memory_order_release);
    task.fd_next_hint =
        std::min(task.fd_next_hint, static_cast<int>(fd));
  }
  SVA_RETURN_IF_ERROR(ReleaseFile(file));
  trace::Emit(trace::EventId::kConnClose, fd);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysRead(uint64_t fd, uint64_t uaddr, uint64_t len) {
  Task& task = *current_task();
  auto file_r = FileForFd(task, fd);
  if (!file_r.ok()) {
    return kEBadF;
  }
  OpenFile* file = *file_r;

  // One resolve serves every fd kind; no lock is held yet, so each backend
  // takes its own lock clean, not nested.
  if (file->pipe != nullptr) {
    return PipeRead(task, *file, uaddr, len);
  }
  if (file->net_socket_id >= 0) {
    return NetRecv(task, file->net_socket_id, uaddr, len);
  }
  if (file->inode == nullptr) {
    return kEBadF;
  }
  Inode& inode = *file->inode;
  if (inode.ino == 0) {
    return uint64_t{0};  // /dev/null reads EOF.
  }
  // Regular-file read: inode data, size, and the fd offset live under the
  // inode's own lock. The copy loops below take only external lock classes
  // (metapool stripes, allocator locks), which rank below every kernel
  // lock.
  trace::TimedLockGuard<smp::OrderedSpinLock> inode_guard(
      inode.lock, trace::HistId::kVfsWaitNs, trace::kLockVfs);
  // Offset and size go through atomic_ref: both are written under the
  // inode lock but read lock-free elsewhere (SEEK_CUR lseek, SysStat).
  std::atomic_ref<uint64_t> offset_ref(file->offset);
  uint64_t offset = offset_ref.load(std::memory_order_relaxed);
  uint64_t size =
      std::atomic_ref<uint64_t>(inode.size).load(std::memory_order_relaxed);
  uint64_t remaining = offset >= size ? 0 : size - offset;
  uint64_t to_read = std::min(len, remaining);
  // SVA-safe: the block-copy loop has monotonic indices, so the compiler
  // hoists the checks out of the loop (Section 7.1.3 optimization 2): one
  // bounds check on the first block and one user-range check for the whole
  // span; the per-iteration accesses are provably within their block.
  if (to_read > 0) {
    uint64_t first_block = inode.blocks[offset / kBlockSize];
    SVA_RETURN_IF_ERROR(BoundsCheckObject(
        allocators_->PoolForKmallocClass(kBlockSize), first_block,
        first_block + offset % kBlockSize));
    SVA_RETURN_IF_ERROR(CheckUserRange(task, uaddr, to_read));
  }
  uint64_t done = 0;
  while (done < to_read) {
    uint64_t block_index = (offset + done) / kBlockSize;
    uint64_t in_block = (offset + done) % kBlockSize;
    uint64_t chunk = std::min(to_read - done, kBlockSize - in_block);
    uint64_t block = inode.blocks[block_index];
    SVA_RETURN_IF_ERROR(CopyBlock(task, uaddr + done, block + in_block, chunk,
                                  /*to_user=*/true));
    done += chunk;
  }
  offset_ref.store(offset + to_read, std::memory_order_release);
  return to_read;
}

Result<uint64_t> Kernel::SysWrite(uint64_t fd, uint64_t uaddr, uint64_t len) {
  Task& task = *current_task();
  auto file_r = FileForFd(task, fd);
  if (!file_r.ok()) {
    return kEBadF;
  }
  OpenFile* file = *file_r;

  if (file->pipe != nullptr) {
    return PipeWrite(task, *file, uaddr, len);
  }
  if (file->net_socket_id >= 0) {
    return NetSend(task, file->net_socket_id, uaddr, len, /*dest=*/0);
  }
  if (file->inode == nullptr) {
    return kEBadF;
  }
  Inode& inode = *file->inode;
  if (inode.ino == 0) {
    // /dev/null: validate the user range, drop the data.
    SVA_RETURN_IF_ERROR(CheckUserRange(task, uaddr, len));
    return len;
  }
  trace::TimedLockGuard<smp::OrderedSpinLock> inode_guard(
      inode.lock, trace::HistId::kVfsWaitNs, trace::kLockVfs);
  // SVA-safe: like the read path, the write loop's indices are monotonic,
  // so the checks hoist: one user-range check for the span (the first block
  // may not exist yet, so its check happens on allocation registration).
  if (len > 0) {
    SVA_RETURN_IF_ERROR(CheckUserRange(task, uaddr, len));
  }
  std::atomic_ref<uint64_t> offset_ref(file->offset);
  uint64_t offset = offset_ref.load(std::memory_order_relaxed);
  uint64_t done = 0;
  while (done < len) {
    uint64_t block_index = (offset + done) / kBlockSize;
    uint64_t in_block = (offset + done) % kBlockSize;
    while (inode.blocks.size() <= block_index) {
      SVA_ASSIGN_OR_RETURN(uint64_t block, allocators_->Kmalloc(kBlockSize));
      inode.blocks.push_back(block);
    }
    uint64_t chunk = std::min(len - done, kBlockSize - in_block);
    uint64_t block = inode.blocks[block_index];
    SVA_RETURN_IF_ERROR(CopyBlock(task, uaddr + done, block + in_block, chunk,
                                  /*to_user=*/false));
    done += chunk;
  }
  offset_ref.store(offset + len, std::memory_order_release);
  std::atomic_ref<uint64_t> size_ref(inode.size);
  if (offset + len > size_ref.load(std::memory_order_relaxed)) {
    // Release pairs with SysStat's lock-free acquire load of the size.
    size_ref.store(offset + len, std::memory_order_release);
  }
  return len;
}

Result<uint64_t> Kernel::SysLseek(uint64_t fd, uint64_t offset,
                                  uint64_t whence) {
  Task& task = *current_task();
  auto file_r = FileForFd(task, fd);
  if (!file_r.ok()) {
    return kEBadF;
  }
  OpenFile* file = *file_r;
  if (file->inode == nullptr) {
    return kEInval;
  }
  std::atomic_ref<uint64_t> offset_ref(file->offset);
  if (whence == 1 && offset == 0) {
    // lseek(fd, 0, SEEK_CUR) is a pure read: one acquire load, no lock.
    // The read-mostly bench phase and the epoch torture test lean on this
    // path staying lock-free.
    return offset_ref.load(std::memory_order_acquire);
  }
  Inode& inode = *file->inode;
  trace::TimedLockGuard<smp::OrderedSpinLock> inode_guard(
      inode.lock, trace::HistId::kVfsWaitNs, trace::kLockVfs);
  uint64_t next;
  switch (whence) {
    case 0:
      next = offset;
      break;
    case 1:
      next = offset_ref.load(std::memory_order_relaxed) + offset;
      break;
    case 2:
      next = std::atomic_ref<uint64_t>(inode.size)
                 .load(std::memory_order_relaxed) +
             offset;
      break;
    default:
      return kEInval;
  }
  offset_ref.store(next, std::memory_order_release);
  return next;
}

Result<uint64_t> Kernel::SysStat(uint64_t path_uaddr) {
  // Entirely lock-free (docs/CONCURRENCY.md §5): path resolution walks the
  // epoch-published directory index and the result is one acquire load of
  // the inode size. This is the headline syscall of the read-mostly
  // bench/smp_scaling phase — it touches no kernel lock at any rank.
  Task& task = *current_task();
  std::string path;
  SVA_RETURN_IF_ERROR(ReadUserPath(task, path_uaddr, &path));
  const DirIndex* index = dir_index_.load(std::memory_order_acquire);
  if (index == nullptr) {
    return kENoEnt;
  }
  auto it = index->entries.find(path);
  if (it == index->entries.end()) {
    return kENoEnt;
  }
  // Acquire pairs with SysWrite's release size store; the Inode stays
  // valid under this syscall's EpochGuard even if an unlink races.
  return std::atomic_ref<uint64_t>(it->second->size)
      .load(std::memory_order_acquire);
}

Result<uint64_t> Kernel::SysUnlink(uint64_t path_uaddr) {
  Task& task = *current_task();
  std::string path;
  SVA_RETURN_IF_ERROR(ReadUserPath(task, path_uaddr, &path));
  Inode* inode;
  {
    trace::TimedLockGuard<smp::OrderedSpinLock> vfs_guard(
        vfs_lock_, trace::HistId::kVfsWaitNs, trace::kLockVfs);
    DirIndex* index = dir_index_.load(std::memory_order_relaxed);
    auto it = index->entries.find(path);
    if (it == index->entries.end() || it->second->ino == 0) {
      return kENoEnt;
    }
    inode = it->second;
    // Publish-then-retire (docs/CONCURRENCY.md §5): publish the directory
    // index WITHOUT the entry, then drop the entry's inode reference. A
    // SysStat pinned on the outgoing snapshot finishes its size load
    // against intact memory, and fds still open on the file keep it alive.
    auto* fresh = new DirIndex(*index);
    fresh->entries.erase(path);
    PublishDirIndex(fresh);
  }
  UnrefInode(inode);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysPipe(uint64_t uaddr_out) {
  Task& task = *current_task();
  SVA_ASSIGN_OR_RETURN(uint64_t pipe_addr,
                       allocators_->CacheAlloc(pipe_cache_));
  SVA_ASSIGN_OR_RETURN(uint64_t buffer, allocators_->Kmalloc(kPipeCapacity));
  // The pipe is reachable only through its two OpenFiles.
  auto* pipe = new Pipe;
  pipe->addr = pipe_addr;
  pipe->buffer = buffer;

  uint64_t fds[2] = {0, 0};
  for (int end = 0; end < 2; ++end) {
    auto addr = allocators_->CacheAlloc(file_cache_);
    if (!addr.ok()) {
      // Drop the ends no OpenFile owns yet.
      for (int unowned = end; unowned < 2; ++unowned) {
        ReleasePipeEnd(pipe);
      }
      return addr.status();
    }
    auto* file = new OpenFile;
    file->addr = *addr;
    file->pipe = pipe;
    file->pipe_read_end = end == 0;
    fds[end] = InstallFd(task, file);
    if (fds[end] == kEMFile) {
      if (end == 0) {
        ReleasePipeEnd(pipe);  // The write end never got an OpenFile.
      }
      return kEMFile;
    }
  }
  uint32_t out[2] = {static_cast<uint32_t>(fds[0]),
                     static_cast<uint32_t>(fds[1])};
  SVA_ASSIGN_OR_RETURN(uint64_t scratch, allocators_->Kmalloc(8));
  SVA_RETURN_IF_ERROR(machine_.memory().Write(scratch, 4, out[0]));
  SVA_RETURN_IF_ERROR(machine_.memory().Write(scratch + 4, 4, out[1]));
  Status copy = CopyToUser(task, uaddr_out, scratch, 8);
  SVA_RETURN_IF_ERROR(allocators_->Kfree(scratch));
  SVA_RETURN_IF_ERROR(copy);
  return uint64_t{0};
}

Result<uint64_t> Kernel::PipeRead(Task& task, const OpenFile& file,
                                  uint64_t uaddr, uint64_t len) {
  if (!file.pipe_read_end) {
    return kEInval;
  }
  Pipe& pipe = *file.pipe;
  trace::TimedLockGuard<smp::OrderedSpinLock> guard(
      pipe.lock, trace::HistId::kPipesWaitNs, trace::kLockPipes);
  uint64_t to_read = std::min(len, pipe.count);
  uint64_t done = 0;
  while (done < to_read) {
    uint64_t chunk = std::min(to_read - done, kPipeCapacity - pipe.rpos);
    // SVA-safe: ring indexing is array indexing into the pipe buffer.
    SVA_RETURN_IF_ERROR(BoundsCheckObject(
        allocators_->PoolForKmallocClass(kPipeCapacity), pipe.buffer,
        pipe.buffer + pipe.rpos + chunk - 1));
    SVA_RETURN_IF_ERROR(
        CopyToUser(task, uaddr + done, pipe.buffer + pipe.rpos, chunk));
    pipe.rpos = (pipe.rpos + chunk) % kPipeCapacity;
    pipe.count -= chunk;
    done += chunk;
  }
  return to_read;
}

Result<uint64_t> Kernel::PipeWrite(Task& task, const OpenFile& file,
                                   uint64_t uaddr, uint64_t len) {
  if (file.pipe_read_end) {
    return kEInval;
  }
  Pipe& pipe = *file.pipe;
  trace::TimedLockGuard<smp::OrderedSpinLock> guard(
      pipe.lock, trace::HistId::kPipesWaitNs, trace::kLockPipes);
  uint64_t space = kPipeCapacity - pipe.count;
  uint64_t to_write = std::min(len, space);
  uint64_t done = 0;
  while (done < to_write) {
    uint64_t chunk = std::min(to_write - done, kPipeCapacity - pipe.wpos);
    SVA_RETURN_IF_ERROR(BoundsCheckObject(
        allocators_->PoolForKmallocClass(kPipeCapacity), pipe.buffer,
        pipe.buffer + pipe.wpos + chunk - 1));
    SVA_RETURN_IF_ERROR(
        CopyFromUser(task, pipe.buffer + pipe.wpos, uaddr + done, chunk));
    pipe.wpos = (pipe.wpos + chunk) % kPipeCapacity;
    pipe.count += chunk;
    done += chunk;
  }
  return to_write;
}

Result<uint64_t> Kernel::SysBrk(uint64_t delta) {
  Task& task = *current_task();
  mm::AddressSpace& as = *task.aspace;
  // Lazy brk: raise the touchable-page frontier, commit nothing — pages
  // fault in on first touch. Atomic CAS loop: the break is per-task state a
  // multi-threaded "process" (net workers sharing pid 1) may move
  // concurrently, and a failed growth must not move it at all.
  std::atomic_ref<uint64_t> brk(task.brk);
  uint64_t old_brk = brk.load(std::memory_order_relaxed);
  if (delta == 0) {
    // The brk(0) query writes nothing: a CAS here would bounce the task's
    // cache line between every CPU running the process.
    return old_brk;
  }
  while (true) {
    uint64_t new_brk = old_brk + delta;
    if (new_brk < as.base()) {
      return kEInval;  // Shrunk below the image base.
    }
    uint64_t needed_pages =
        (new_brk - as.base() + hw::kPageSize - 1) / hw::kPageSize;
    // Growth past the address-space cap is kENoMem, never an abort: the
    // limit is monotonic, so a shrink needs no extension.
    if (!vm_.ExtendLimit(as, needed_pages).ok()) {
      return kENoMem;
    }
    if (brk.compare_exchange_weak(old_brk, new_brk,
                                  std::memory_order_relaxed)) {
      return new_brk;
    }
  }
}

Result<uint64_t> Kernel::SysSigaction(uint64_t sig, uint64_t handler) {
  if (sig >= kMaxSignals) {
    return kEInval;
  }
  Task& task = *current_task();
  SVA_RETURN_IF_ERROR(
      BoundsCheckObject(task_pool_, task.addr, task.addr + 96 + sig));
  std::atomic_ref<uint64_t>(task.sigactions[sig].handler)
      .store(handler, std::memory_order_release);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysKill(uint64_t pid, uint64_t sig,
                                 svaos::InterruptContext* icontext) {
  (void)icontext;
  if (sig >= kMaxSignals) {
    return kEInval;
  }
  Task* target = FindTask(static_cast<int>(pid));
  if (target == nullptr || !target->alive) {
    return kENoEnt;
  }
  std::atomic_ref<uint32_t>(target->pending_signals)
      .fetch_or(1u << sig, std::memory_order_acq_rel);
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysFork() {
  Task& parent = *current_task();
  trace::Span span(trace::EventId::kFork, trace::HistId::kForkNs,
                   static_cast<uint64_t>(parent.pid));
  Bump(StatsShard().forks);
  SVA_ASSIGN_OR_RETURN(int child_pid, CreateTask(parent.pid));
  Status built = BuildForkChild(parent, *FindTask(child_pid));
  if (!built.ok()) {
    // Never leave a half-built child in tasks_: unwind it as exit + waitpid
    // would.
    DiscardTask(child_pid);
    return built;
  }
  trace::Emit(trace::EventId::kConnForked, static_cast<uint64_t>(child_pid),
              static_cast<uint64_t>(parent.pid));
  return static_cast<uint64_t>(child_pid);
}

Status Kernel::BuildForkChild(Task& parent, Task& child) {
  // Copy the fd table (bumping refs) and signal dispositions. A parent that
  // grew its table hands the child an equally grown one first.
  {
    std::lock_guard<smp::OrderedSpinLock> guard(files_lock_);
    FdTable* parent_fdt = parent.fds.load_plain();
    SVA_RETURN_IF_ERROR(EnsureFdCapacity(child, parent_fdt->capacity));
    FdTable* child_fdt = child.fds.load_plain();
    for (uint64_t fd = 0; fd < parent_fdt->capacity; ++fd) {
      OpenFile* file = parent_fdt->slots[fd].load(std::memory_order_relaxed);
      if (file != nullptr) {
        // The parent's slot holds a reference and cannot be cleared while
        // files_lock_ is held, so the count is >= 1 here.
        file->refs.fetch_add(1, std::memory_order_relaxed);
      }
      child_fdt->slots[fd].store(file, std::memory_order_release);
    }
    child.fd_next_hint = parent.fd_next_hint;
  }
  // Field-wise atomic copy: a sibling thread of the parent may be changing
  // dispositions mid-fork; each handler value is copied torn-free even if
  // the set as a whole is a snapshot in motion (as in real kernels).
  for (int sig = 0; sig < kMaxSignals; ++sig) {
    child.sigactions[sig].handler =
        std::atomic_ref<uint64_t>(parent.sigactions[sig].handler)
            .load(std::memory_order_acquire);
  }
  // Clone the address space. COW (default): the parent's mappings are
  // downgraded to read-only + kPteCow, refcounts bumped, and the same
  // frames mapped into the child — the first write on either side breaks
  // the share in the fault handler. Eager mode copies every resident frame
  // up front (the bench/vm_ops comparison baseline).
  SVA_RETURN_IF_ERROR(config_.cow_fork
                          ? vm_.CloneCow(*parent.aspace, *child.aspace)
                          : vm_.CloneEager(*parent.aspace, *child.aspace));
  // The child's break mirrors the parent's offset into its own stride.
  std::atomic_ref<uint64_t>(child.brk).store(
      UserBaseForPid(child.pid) +
          (std::atomic_ref<uint64_t>(parent.brk)
               .load(std::memory_order_relaxed) -
           UserBaseForPid(parent.pid)),
      std::memory_order_relaxed);
  // Snapshot the parent's processor state into the child.
  if (config_.mode == KernelMode::kNative) {
    child.cpu_state.control = machine_.cpu().control();
    child.cpu_state.valid = true;
  } else {
    // SVA-PORT(svaos): child state captured via llva.save.integer.
    svaos_.SaveIntegerState(&child.cpu_state);
    svaos_.SaveFpState(&child.fp_state, /*always=*/false);
  }
  return OkStatus();
}

void Kernel::DiscardTask(int pid) {
  CloseAllFds(*FindTask(pid));
  std::map<int, Task>::node_type node;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
    node = DetachTaskLocked(tasks_.find(pid));
  }
  (void)ReapTask(std::move(node));
}

Result<uint64_t> Kernel::SysExecve(uint64_t path_uaddr) {
  (void)path_uaddr;
  Task& task = *current_task();
  trace::Span span(trace::EventId::kExec, trace::HistId::kExecNs,
                   static_cast<uint64_t>(task.pid));
  Bump(StatsShard().execs);
  // Reset the image: drop every mapping (frames go back to the pool),
  // rewind the brk frontier, close nothing (CLOEXEC is out of scope). The
  // fresh zero-fill faults model image loading.
  SVA_RETURN_IF_ERROR(vm_.Reset(*task.aspace, config_.user_pages_per_task));
  std::atomic_ref<uint64_t>(task.brk).store(
      UserBaseForPid(task.pid) +
          config_.user_pages_per_task * hw::kPageSize / 2,
      std::memory_order_relaxed);
  std::atomic_ref<uint32_t>(task.pending_signals)
      .store(0, std::memory_order_release);
  for (auto& action : task.sigactions) {
    std::atomic_ref<uint64_t>(action.handler)
        .store(0, std::memory_order_release);
  }
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysExit(uint64_t code) {
  (void)code;
  Task& task = *current_task();
  CloseAllFds(task);
  {
    // Lifecycle flip + parent lookup under one tasks_lock_ hold, so a
    // concurrent waitpid sees the zombie and the parent link consistently.
    std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
    task.zombie = true;
    // Switch to the parent if it exists, else stay (init never exits).
    auto parent_it = tasks_.find(task.parent);
    if (parent_it != tasks_.end() && parent_it->second.alive) {
      current_pid_ = task.parent;
    }
  }
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysWaitPid(uint64_t pid) {
  std::map<int, Task>::node_type child;
  {
    // Validate and detach under one tasks_lock_ hold: two concurrent
    // waiters must not both reap the same child.
    std::lock_guard<smp::OrderedSpinLock> guard(tasks_lock_);
    auto it = tasks_.find(static_cast<int>(pid));
    if (it == tasks_.end() || it->second.parent != current_pid_) {
      return kEChild;
    }
    if (!it->second.zombie) {
      return kEInval;  // Would block; the minikernel has no blocking waits.
    }
    child = DetachTaskLocked(it);
  }
  SVA_RETURN_IF_ERROR(ReapTask(std::move(child)));
  return pid;
}

std::map<int, Task>::node_type Kernel::DetachTaskLocked(
    std::map<int, Task>::iterator it) {
  // Unpublish before reclaim: republish the task index without the pid,
  // then EXTRACT the map node rather than erasing it — a current_task()
  // reader pinned on the outgoing index snapshot still holds a Task* into
  // this node, so the node (and its fd table) must survive the grace
  // period (ReapTask retires it).
  RepublishTaskIndex(it->first);
  return tasks_.extract(it);
}

Status Kernel::ReapTask(std::map<int, Task>::node_type node) {
  const int pid = node.key();
  Task& task = node.mapped();
  const uint64_t addr = task.addr;
  const uint64_t fd_block =
      std::atomic_ref<uint64_t>(task.fd_block).load(std::memory_order_relaxed);
  std::unique_ptr<mm::AddressSpace> aspace = std::move(task.aspace);
  FdTable* fdt = task.fds.exchange(nullptr);
  if (fdt != nullptr) {
    smp::RetireDelete(fdt);
  }
  // Empty-bodied retiree: the capture alone keeps the Task node alive until
  // every reader that could have resolved the pid has unpinned.
  smp::EpochDomain::Global().Retire(
      [holder = std::make_shared<std::map<int, Task>::node_type>(
           std::move(node))] {});
  // Tear the address space down outside tasks_lock_ (the AS lock ranks
  // above it anyway): unmap everything, release the frames for reuse —
  // COW-shared frames survive until the other side drops its reference —
  // and retire the asid.
  if (aspace != nullptr) {
    SVA_RETURN_IF_ERROR(vm_.Destroy(*aspace));
  }
  if (fd_block != 0) {
    // A grown fd table dies with the task, like free_fdtable at release —
    // deferred past a grace period because a lock-free FileForFd may still
    // be bounds-checking against the old block registration.
    KernelAllocators* allocators = allocators_.get();
    smp::EpochDomain::Global().Retire([allocators, fd_block] {
      (void)allocators->Kfree(fd_block);
    });
  }
  // Reap: free the task struct and its user pages' registration (external
  // lock classes; no kernel lock held).
  if (config_.mode == KernelMode::kSvaSafe && user_pool_ != nullptr) {
    (void)pools_.DropObject(*user_pool_, UserBaseForPid(pid));
  }
  return allocators_->CacheFree(task_cache_, addr);
}

Result<uint64_t> Kernel::SysDup(uint64_t fd) {
  Task& task = *current_task();
  std::lock_guard<smp::OrderedSpinLock> guard(files_lock_);
  // Resolve, bump and install under one hold: the slot cannot be cleared
  // meanwhile, so its reference keeps the count >= 1 and the bump never
  // resurrects a file that is already retiring (the close-during-dup
  // regression test pins exactly this interleaving).
  FdTable* fdt = task.fds.load_plain();
  if (fd >= fdt->capacity || !FdSlotCheck(task, fd).ok()) {
    return kEBadF;
  }
  OpenFile* file = fdt->slots[fd].load(std::memory_order_relaxed);
  if (file == nullptr) {
    return kEBadF;
  }
  file->refs.fetch_add(1, std::memory_order_relaxed);
  auto new_fd = AllocateFdLocked(task, file);
  if (!new_fd.ok()) {
    file->refs.fetch_sub(1, std::memory_order_relaxed);
    return kEMFile;
  }
  return static_cast<uint64_t>(*new_fd);
}

Result<uint64_t> Kernel::SysSocket(uint64_t domain) {
  Task& task = *current_task();
  SVA_ASSIGN_OR_RETURN(uint64_t addr, allocators_->CacheAlloc(file_cache_));
  auto file = std::make_unique<OpenFile>();
  file->addr = addr;

  switch (static_cast<SocketDomain>(domain)) {
    case SocketDomain::kDatagram:
    case SocketDomain::kListener: {
      auto sid = net_->CreateSocket(
          static_cast<SocketDomain>(domain) == SocketDomain::kDatagram
              ? net::SocketKind::kDatagram
              : net::SocketKind::kListener);
      if (!sid.ok()) {
        (void)allocators_->CacheFree(file_cache_, addr);
        return sid.status();
      }
      file->net_socket_id = *sid;
      break;
    }
    default:
      (void)allocators_->CacheFree(file_cache_, addr);
      return kEInval;
  }

  return InstallFd(task, file.release());
}

// --- Net-stack syscalls ---------------------------------------------------------

int Kernel::NetSocketIdForFd(uint64_t fd) {
  Task* task = current_task();
  if (task == nullptr) {
    return -1;
  }
  auto file = FileForFd(*task, fd);
  return file.ok() ? (*file)->net_socket_id : -1;
}

int Kernel::EvqIdForFd(uint64_t fd) {
  Task* task = current_task();
  if (task == nullptr) {
    return -1;
  }
  auto file = FileForFd(*task, fd);
  return file.ok() ? (*file)->evq_id : -1;
}

Result<uint64_t> Kernel::SysNetBind(uint64_t fd, uint64_t port,
                                    uint64_t flags) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  auto file_r = FileForFd(*task, fd);
  if (!file_r.ok() || (*file_r)->net_socket_id < 0) {
    return kEBadF;
  }
  // flags bit 0 = SO_REUSEPORT-style shard join: listeners binding the same
  // port with it set form an accept shard group (src/net demuxes SYNs
  // across the group by flow hash).
  Status bound = net_->Bind((*file_r)->net_socket_id,
                            static_cast<uint16_t>(port),
                            /*reuse=*/(flags & 1) != 0);
  if (!bound.ok()) {
    switch (bound.code()) {
      case StatusCode::kAlreadyExists:
        return kEAddrInUse;
      case StatusCode::kInvalidArgument:
      case StatusCode::kFailedPrecondition:
        return kEInval;
      default:
        return bound;
    }
  }
  return uint64_t{0};
}

Result<uint64_t> Kernel::SysNetAccept(uint64_t fd) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  auto file_r = FileForFd(*task, fd);
  if (!file_r.ok() || (*file_r)->net_socket_id < 0) {
    return kEBadF;
  }
  auto conn = net_->Accept((*file_r)->net_socket_id);
  if (!conn.ok()) {
    switch (conn.status().code()) {
      case StatusCode::kFailedPrecondition:
        return kEAgain;  // Empty backlog; the caller retries.
      case StatusCode::kInvalidArgument:
        return kEInval;
      default:
        return conn.status();
    }
  }
  auto addr = allocators_->CacheAlloc(file_cache_);
  if (!addr.ok()) {
    (void)net_->Close(*conn);
    return addr.status();
  }
  auto* file = new OpenFile;
  file->addr = *addr;
  file->net_socket_id = *conn;
  const uint64_t new_fd = InstallFd(*task, file);
  if (new_fd == kEMFile) {
    return kEMFile;
  }
  trace::Emit(trace::EventId::kConnAccept, new_fd, fd);
  return new_fd;
}

Result<uint64_t> Kernel::SysNetSend(uint64_t fd, uint64_t uaddr, uint64_t len,
                                    uint64_t dest) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  auto file_r = FileForFd(*task, fd);
  if (!file_r.ok() || (*file_r)->net_socket_id < 0) {
    return kEBadF;  // Not an fd, or a regular file or pipe.
  }
  return NetSend(*task, (*file_r)->net_socket_id, uaddr, len, dest);
}

Result<uint64_t> Kernel::NetSend(Task& task, int sid, uint64_t uaddr,
                                 uint64_t len, uint64_t dest) {
  auto kind = net_->Kind(sid);
  if (!kind.ok()) {
    return kEBadF;
  }
  if (*kind == net::SocketKind::kListener) {
    return kEInval;
  }
  // `dest` packs (ip << 16) | port; ignored on connected stream sockets.
  uint32_t dst_ip = static_cast<uint32_t>(dest >> 16);
  uint16_t dst_port = static_cast<uint16_t>(dest & 0xFFFF);
  const bool datagram = *kind == net::SocketKind::kDatagram;
  const uint32_t max_chunk =
      datagram ? net::kMaxUdpPayload : net::kMaxStreamPayload;
  if (datagram && len > max_chunk) {
    return kEMsgSize;  // Datagrams never fragment here.
  }
  uint64_t sent = 0;
  do {
    uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(len - sent, max_chunk));
    auto skb = net_->AllocTxSkb();
    if (!skb.ok()) {
      return sent > 0 ? Result<uint64_t>(sent) : Result<uint64_t>(kEAgain);
    }
    // SVA-PORT(analysis): the header-framing and payload stores derive
    // pointers up to payload_offset + chunk into the packet buffer; the
    // compiler emits one hoisted bounds check against the skbuff metapool.
    Status check = BoundsCheckObject(
        net_->skbs().metapool(), skb->addr,
        skb->addr + net::kTxPayloadOffset + chunk - (chunk == 0 ? 0 : 1));
    if (!check.ok()) {
      (void)net_->FreeSkb(skb->addr);
      return check;
    }
    Status copy = CopyFromUser(task, skb->addr + net::kTxPayloadOffset,
                               uaddr + sent, chunk);
    if (!copy.ok()) {
      (void)net_->FreeSkb(skb->addr);
      return copy;
    }
    auto pushed = net_->Send(sid, *skb, chunk, dst_ip, dst_port);
    if (!pushed.ok()) {
      return pushed.status();
    }
    sent += chunk;
  } while (sent < len);
  return sent;
}

Result<uint64_t> Kernel::SysNetRecv(uint64_t fd, uint64_t uaddr,
                                    uint64_t len) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  auto file_r = FileForFd(*task, fd);
  if (!file_r.ok() || (*file_r)->net_socket_id < 0) {
    return kEBadF;  // Not an fd, or a regular file or pipe.
  }
  return NetRecv(*task, (*file_r)->net_socket_id, uaddr, len);
}

Result<uint64_t> Kernel::NetRecv(Task& task, int sid, uint64_t uaddr,
                                 uint64_t len) {
  auto slice = net_->RecvBegin(
      sid,
      static_cast<uint32_t>(std::min<uint64_t>(len, net::kSkbBufferBytes)));
  if (!slice.ok()) {
    return slice.status().code() == StatusCode::kInvalidArgument
               ? Result<uint64_t>(kEInval)
               : Result<uint64_t>(kEBadF);
  }
  if (slice->len == 0) {
    // Non-blocking semantics: an empty queue is EOF (0) only after the peer
    // FINned; otherwise the caller must retry — blind polling loops are
    // what the event queue exists to replace.
    if ((net_->PollReady(sid) & net::kReadyHup) != 0) {
      return uint64_t{0};
    }
    return kEAgain;
  }
  // SVA-PORT(analysis): copying out of the packet buffer derives a pointer
  // slice->len past the payload start; one bounds check covers the copy.
  Status check = BoundsCheckObject(net_->skbs().metapool(), slice->skb_addr,
                                   slice->data_addr + slice->len - 1);
  if (!check.ok()) {
    (void)net_->RecvFinish(*slice);
    return check;
  }
  Status copy = CopyToUser(task, uaddr, slice->data_addr, slice->len);
  SVA_RETURN_IF_ERROR(net_->RecvFinish(*slice));
  SVA_RETURN_IF_ERROR(copy);
  return uint64_t{slice->len};
}

}  // namespace sva::kernel
