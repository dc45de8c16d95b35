// The minikernel: a commodity-kernel stand-in ported to SVA-OS, hosting the
// subsystems the paper's evaluation exercises — processes with fork/exec,
// a VFS with a ramfs, pipes, signals delivered via llva.ipush.function,
// sockets, and the slab/kmalloc allocators of alloc.h.
//
// The kernel builds in the four configurations of Section 7.1 (config.h).
// Porting markers: lines changed for the SVA port are tagged with
// SVA-PORT(category) comments, which bench/table4_porting_effort counts the
// way Table 4 counts Linux diff lines. Categories: svaos (SVA-OS calls
// replacing privileged code), alloc (allocator contract changes), analysis
// (changes aiding the safety analysis).
#ifndef SVA_SRC_KERNEL_KERNEL_H_
#define SVA_SRC_KERNEL_KERNEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/alloc.h"
#include "src/kernel/config.h"
#include "src/mm/vm.h"
#include "src/net/net_stack.h"
#include "src/runtime/metapool_runtime.h"
#include "src/smp/epoch.h"
#include "src/smp/lock_order.h"
#include "src/smp/percpu.h"
#include "src/smp/sync.h"
#include "src/support/status.h"
#include "src/svaos/svaos.h"

namespace sva::kernel {

// System call numbers (Linux 2.4-flavoured).
enum class Sys : uint64_t {
  kExit = 1,
  kFork = 2,
  kRead = 3,
  kWrite = 4,
  kOpen = 5,
  kClose = 6,
  kWaitPid = 7,
  kUnlink = 10,
  kExecve = 11,
  // stat(path): returns the file's size in bytes (kENoEnt if absent).
  // Resolves the path through the epoch-protected directory index — the
  // whole syscall is lock-free, the canonical read-mostly fast path.
  kStat = 18,
  kLseek = 19,
  kGetPid = 20,
  kKill = 37,
  kPipe = 42,
  kBrk = 45,  // sbrk-style: argument is a delta, returns the new break.
  kSigaction = 67,
  kGetRusage = 77,
  kGetTimeOfDay = 78,
  kDup = 41,
  kSocket = 97,
  kSend = 98,
  kRecv = 99,
  kBind = 100,
  kAccept = 101,
  // Event-driven I/O (the epoll analog): create an event queue fd, register
  // interest in net-socket fds, wait for readiness with a timeout.
  kEvqCreate = 104,
  kEvqCtl = 105,
  kEvqWait = 106,
  // perf_event analog: open a self-profiling session fd, read its samples,
  // close the session. A task may only profile itself (kEPerm otherwise).
  kProfStart = 110,
  kProfStop = 111,
  kProfRead = 112,
};

// Socket domains for Sys::kSocket's first argument (any other value,
// including 0, is kEInval).
enum class SocketDomain : uint64_t {
  kDatagram = 1,  // UDP over the net stack.
  kListener = 2,  // Stream listener over the net stack.
};
inline constexpr int kMaxSignals = 32;
inline constexpr uint64_t kUserVirtualBase = 0x400000;
inline constexpr uint64_t kBlockSize = 4096;
inline constexpr uint64_t kPipeCapacity = 16384;
inline constexpr uint64_t kMaxPathLength = 64;

// Readiness event bits for kEvqCtl/kEvqWait. Numerically identical to the
// net stack's kReadyIn/kReadyOut/kReadyErr/kReadyHup so PollReady() results
// pass through unmasked.
inline constexpr uint32_t kEvqIn = 1;
inline constexpr uint32_t kEvqOut = 2;
inline constexpr uint32_t kEvqErr = 4;
inline constexpr uint32_t kEvqHup = 8;

// kEvqCtl op codes (low byte of a1; bits 8.. carry the interest mask — 0
// means the default kEvqIn | kEvqErr | kEvqHup).
inline constexpr uint64_t kEvqCtlAdd = 1;
inline constexpr uint64_t kEvqCtlMod = 2;
inline constexpr uint64_t kEvqCtlDel = 3;

// One record written to user memory by kEvqWait (16 bytes on the wire:
// u64 user_data, u32 events, u32 fd).
struct EvqEvent {
  uint64_t user_data = 0;
  uint32_t events = 0;
  uint32_t fd = 0;
};
inline constexpr uint64_t kEvqEventBytes = 16;
// kEvqWait returns at most this many records per call regardless of the
// caller's max_events (bounds the kmalloc scratch buffer).
inline constexpr uint64_t kEvqMaxEventsPerWait = 256;

struct SigAction {
  // Handler ids are small integers the "user program" registers; 0 = default.
  uint64_t handler = 0;
};

struct OpenFile;

// The epoch-published fd table: a fixed-capacity array of atomic OpenFile
// pointers (null = free). Readers resolve fd -> file lock-free under an
// EpochGuard; writers (who hold files_lock_) mutate slots in place and
// grow by publishing a copy, retiring the old table through the epoch
// machinery. See docs/CONCURRENCY.md §5.
struct FdTable {
  explicit FdTable(uint64_t cap)
      : capacity(cap), slots(new std::atomic<OpenFile*>[cap]) {
    for (uint64_t i = 0; i < cap; ++i) {
      slots[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  const uint64_t capacity;
  std::unique_ptr<std::atomic<OpenFile*>[]> slots;
};

// Movable holder for a task's FdTable pointer. Task must stay movable (it
// is inserted into the pid map by value) and std::atomic<T*> is not, so
// this wraps one; moves only happen before the task is published, so they
// can be plain exchanges. Destruction deletes the table directly — by
// then the owning task is reaped and no reader can hold its fds (reaping
// a task still running syscalls is a caller bug, per FindTask).
class FdTablePtr {
 public:
  FdTablePtr() = default;
  explicit FdTablePtr(FdTable* table) : ptr_(table) {}
  FdTablePtr(FdTablePtr&& other) noexcept
      : ptr_(other.ptr_.exchange(nullptr, std::memory_order_relaxed)) {}
  FdTablePtr& operator=(FdTablePtr&& other) noexcept {
    if (this != &other) {
      delete ptr_.exchange(
          other.ptr_.exchange(nullptr, std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    return *this;
  }
  FdTablePtr(const FdTablePtr&) = delete;
  FdTablePtr& operator=(const FdTablePtr&) = delete;
  ~FdTablePtr() { delete ptr_.load(std::memory_order_relaxed); }

  // Reader side: acquire pairs with publish()'s release, so a reader that
  // sees a grown table also sees the fd_block store that preceded it.
  FdTable* load_acquire() const {
    return ptr_.load(std::memory_order_acquire);
  }
  // Writer side (files_lock_ held): no ordering needed to read own state.
  FdTable* load_plain() const {
    return ptr_.load(std::memory_order_relaxed);
  }
  void publish(FdTable* table) {
    ptr_.store(table, std::memory_order_release);
  }
  FdTable* exchange(FdTable* table) {
    return ptr_.exchange(table, std::memory_order_acq_rel);
  }

 private:
  std::atomic<FdTable*> ptr_{nullptr};
};

struct Task {
  uint64_t addr = 0;  // Address of the task struct in the task cache.
  int pid = 0;
  int parent = 0;
  bool zombie = false;
  bool alive = false;
  uint64_t brk = 0;
  // Open files by fd; null = free. The first max_fds slots live inside
  // the task-cache object (the object size scales with max_fds); growth past
  // that moves the modeled array to a kmalloc'd block (fd_block), the Linux
  // files_struct/fdtable expansion scheme. Epoch-published: readers resolve
  // slots under an EpochGuard, writers mutate under files_lock_.
  FdTablePtr fds;
  // SVA-PORT(alloc): external fd-array block once the table outgrew the
  // embedded array; 0 while embedded. Bounds checks for fd slots go against
  // the kmalloc class pool instead of the task cache pool then.
  uint64_t fd_block = 0;
  // Lowest slot that could be free (every slot below it is occupied);
  // AllocateFd scans from here so 10k sequential accepts stay O(1) each.
  int fd_next_hint = 0;
  // SVA-PORT(svaos): processor state is opaque SVA-OS buffers, not a
  // hand-written struct pt_regs.
  svaos::SavedIntegerState cpu_state;
  svaos::SavedFpState fp_state;
  // SVA-PORT(svaos): user memory is a per-task address space whose page
  // tables are mutated only through the SVA-OS MMU operations (src/mm).
  std::unique_ptr<mm::AddressSpace> aspace;
  std::array<SigAction, kMaxSignals> sigactions{};
  uint32_t pending_signals = 0;
  uint64_t signals_delivered = 0;
};

// A ramfs file. It is owned by references: one for its directory entry
// and one per OpenFile naming it. Whoever drops the last one retires the
// inode (its blocks and cache object are freed past a grace period), so an
// unlinked file stays readable and writable through the fds opened before
// the unlink, and a reader pinned by its syscall's EpochGuard finishes
// against intact memory.
//
// Inode and Pipe are cache-line aligned, like the kernel caches they model
// (SLAB_HWCACHE_ALIGN): their locks are written on every data-path call,
// and two CPUs working on neighbouring objects must not bounce one line
// between them. OpenFile is not: open allocates one per call, and an
// over-aligned allocation costs more than the line it would save.
struct alignas(smp::kCacheLineBytes) Inode {
  uint64_t addr = 0;  // Inode cache object address.
  int ino = 0;        // 0 is /dev/null.
  // Guards blocks, size stores and the offsets of the OpenFiles on this
  // inode: regular-file read, write and lseek take this lock and no other
  // kernel lock, so two CPUs on different files share none.
  mutable smp::OrderedSpinLock lock{smp::LockRank::kInode};
  std::vector<uint64_t> blocks;  // kmalloc'd data blocks.
  // Accessed via std::atomic_ref: stored under `lock`, read lock-free by
  // stat.
  uint64_t size = 0;
  std::atomic<int> refs{1};
};

struct alignas(smp::kCacheLineBytes) Pipe {
  uint64_t addr = 0;      // Pipe cache object address.
  uint64_t buffer = 0;    // kmalloc'd ring buffer.
  // Guards the ring state below; pipe read and write take this lock and
  // no other kernel lock.
  mutable smp::OrderedSpinLock lock{smp::LockRank::kPipes};
  uint64_t rpos = 0;
  uint64_t wpos = 0;
  uint64_t count = 0;
  // OpenFiles naming an end (2 at creation). The last one released
  // retires the pipe past a grace period, so a read or write that resolved
  // its fd before the close finishes against live memory.
  std::atomic<int> open_ends{2};
};

struct OpenFile {
  uint64_t addr = 0;  // File cache object address.
  // fd slots holding this file, in any task. dup and fork bump it under
  // files_lock_, finding the file in a slot that still holds a reference,
  // so it never rises from 0; ReleaseFile drops it without a lock, and the
  // drop to 0 tears the file down. Lock-free readers never read it:
  // liveness comes from the epoch grace period instead.
  std::atomic<int> refs{1};
  Inode* inode = nullptr;  // A ramfs file (holding one Inode::refs), or
  Pipe* pipe = nullptr;    // one end of a pipe, or
  bool pipe_read_end = false;
  int net_socket_id = -1;  // a socket in the net stack (src/net), or
  int evq_id = -1;         // an event queue (kEvqCreate), or
  int prof_id = -1;        // a profiling session (kProfStart).
  // Accessed via std::atomic_ref: mutated under the inode's lock, read
  // lock-free by the lseek(fd, 0, SEEK_CUR) fast path.
  uint64_t offset = 0;
};

// One perf_event-style self-profiling session (kProfStart). The fd is the
// handle; reads return ProfRecord-shaped samples filtered to the owner.
struct ProfSession {
  uint64_t addr = 0;   // Prof cache object address.
  int owner_pid = 0;   // Only this task may read or stop the session.
  uint64_t cursor = 0;  // Absolute sample index of the next unread sample.
  bool active = false;  // True between kProfStart and kProfStop/close.
};

// Liveness guard shared between a kernel and the profiler's tick hook. The
// profiler is process-global and refcounted, so a sampler started by this
// kernel can outlive it when another kernel's session holds the count up —
// but the tick hook targets this kernel's timer device. The hook fires
// under mu and checks alive; ~Kernel flips alive under mu before the
// machine can die, making a late tick a locked no-op instead of a
// use-after-free.
struct ProfTickGuard {
  std::mutex mu;
  bool alive = true;
};

// One record written to user memory by kProfRead (16 bytes on the wire:
// u64 ts_ns, u32 pid, u8 cpu, u8 context, u8 mode, u8 depth).
struct ProfRecord {
  uint64_t ts_ns = 0;
  uint32_t pid = 0;
  uint8_t cpu = 0;
  uint8_t context = 0;
  uint8_t mode = 0;
  uint8_t depth = 0;
};
inline constexpr uint64_t kProfRecordBytes = 16;
// kProfRead returns at most this many records per call (bounds the kmalloc
// scratch buffer, like kEvqMaxEventsPerWait).
inline constexpr uint64_t kProfMaxRecordsPerRead = 256;

// One registered interest in an event queue: fd -> net socket id plus the
// caller's interest mask and opaque cookie.
struct EvqWatch {
  int sid = -1;
  uint32_t interest = 0;
  uint64_t user_data = 0;
};

// The epoll analog: a level-triggered readiness queue over net-stack
// sockets. The net stack's ready callback inserts socket ids into
// ready_hints and bumps the generation counter; kEvqWait verifies each hint
// against NetStack::PollReady at wait time (level-triggered: a socket that
// stays ready stays hinted, a stale hint is culled). The per-queue lock is
// an unranked leaf: it is taken with the ranked evq_lock_ already released,
// and PollReady's net-stack locks (also unranked) are only acquired on the
// wait path, never while the ready callback holds this lock.
struct EventQueue {
  uint64_t addr = 0;  // Evq cache object address.
  mutable smp::SpinLock lock;
  bool open = true;
  std::map<int, EvqWatch> watches;  // fd -> watch
  std::map<int, int> sid_to_fd;     // net socket id -> registered fd
  std::vector<int> ready_hints;     // Socket ids with unverified readiness.
  // Bumped (release) on every hint insert and on close; kEvqWait blocks by
  // spinning/yielding on it with a deadline, so waiters never sleep through
  // a wakeup that raced their empty scan.
  std::atomic<uint64_t> generation{0};
};

struct KernelStats {
  uint64_t syscalls = 0;
  uint64_t context_switches = 0;
  uint64_t forks = 0;
  uint64_t execs = 0;
  uint64_t signals_delivered = 0;
  uint64_t bytes_copied_user = 0;
};

class Kernel {
 public:
  Kernel(hw::Machine& machine, KernelConfig config);
  ~Kernel();

  // Boots: creates allocators and caches, registers syscall handlers with
  // SVA-OS (SVA modes) or the direct dispatch table (native), registers
  // the userspace metapool object (safe mode), and starts pid 1.
  Status Boot();

  // The user-program entry point: traps into the kernel through the path
  // selected by the configuration and takes no lock itself. Safe to call
  // from multiple worker threads: each handler takes the lock of the
  // object or subsystem it touches (an inode's or a pipe's own lock,
  // vfs_lock_ for namespace changes, tasks_lock_, evq_lock_, or the net
  // stack's own locks); fd -> file resolution and ramfs path lookup are
  // LOCK-FREE under an epoch guard (files_lock_ and vfs_lock_ are
  // writer-only). Unknown numbers touch no state and return NotFound. See
  // docs/CONCURRENCY.md for the hierarchy and §5 for the epoch contract.
  Result<uint64_t> Syscall(Sys number, uint64_t a0 = 0, uint64_t a1 = 0,
                           uint64_t a2 = 0, uint64_t a3 = 0);

  // Cooperative scheduler: switch to the next runnable task (exercises the
  // SVA-OS state save/restore path). Runs under tasks_lock_.
  Status Yield();

  // --- Host-side helpers for benchmarks and tests ----------------------------
  // Read/write the current task's user memory directly (as the "user
  // program" would, without entering the kernel). Lock-free: the task is
  // pinned by an EpochGuard, as in a syscall, and a page that is not
  // resident faults in under its address-space lock.
  Status PokeUser(uint64_t uaddr, const void* data, uint64_t len);
  Status PeekUser(uint64_t uaddr, void* data, uint64_t len);
  // Writes a NUL-terminated path into user memory at `uaddr`.
  Status PokeUserString(uint64_t uaddr, const std::string& text);

  // Resolves the current task through the epoch-published pid index —
  // lock-free on the hot path (every syscall prologue), falling back to
  // the locked map walk for pids created since the last publish. The
  // returned pointer stays valid after the internal guard drops: task map
  // nodes are stable until SysWaitPid reaps them, and reaping a task that
  // is still running syscalls is a caller bug (see FindTask).
  Task* current_task();
  Task* FindTask(int pid);
  int current_pid() const {
    return current_pid_.load(std::memory_order_relaxed);
  }
  // The network stack; null until Boot().
  net::NetStack* net() { return net_.get(); }
  // The virtual-memory subsystem (demand paging, COW fork, TLB shootdown).
  mm::VmManager& vm() { return vm_; }
  mm::FrameAllocator& frames() { return frames_; }
  // Sums the per-CPU counter shards (exact once the workers have quiesced).
  KernelStats stats() const;
  svaos::SvaOS& svaos() { return svaos_; }
  runtime::MetaPoolRuntime& pools() { return pools_; }
  KernelAllocators& allocators() { return *allocators_; }
  const KernelConfig& config() const { return config_; }
  hw::Machine& machine() { return machine_; }

 private:
  // Kernel entry through the configured path.
  Result<uint64_t> Dispatch(Sys number, const std::array<uint64_t, 6>& args);
  Result<uint64_t> HandleSyscall(Sys number,
                                 const std::array<uint64_t, 6>& args,
                                 svaos::InterruptContext* icontext);
  // Simulated translator code-quality delta (kSvaLlvm and kSvaSafe).
  void TranslatorTax();

  // --- User memory ------------------------------------------------------------
  // Translates a user virtual address through the task's address space,
  // faulting the backing page in on first touch (per-CPU TLB fast path;
  // VmManager::Resolve slow path). `write` selects the access kind so COW
  // pages break on the first store, not on reads.
  Result<uint64_t> UserToPhysical(Task& task, uint64_t uaddr, bool write);
  // The one user-memory walker behind every accessor below: translates each
  // page of [uaddr, uaddr + len) once and calls
  // `fn(uint8_t* host, uint64_t done, uint64_t chunk)` with the host bytes
  // backing range bytes [done, done + chunk). `fn` returns false to stop.
  // Fails at the first page that does not translate (no later page is
  // touched) or that lies outside physical memory.
  template <typename Fn>
  Status ForEachUserPage(Task& task, uint64_t uaddr, uint64_t len, bool write,
                         Fn&& fn);
  Status CopyFromUser(Task& task, uint64_t kaddr, uint64_t uaddr,
                      uint64_t len);
  Status CopyToUser(Task& task, uint64_t uaddr, uint64_t kaddr, uint64_t len);
  // Copies `len` bytes between user `uaddr` and kernel `kaddr` (to the user
  // if `to_user`) with the safety checks hoisted by the caller (monotonic
  // file block loops, Section 7.1.3 optimization 2).
  Status CopyBlock(Task& task, uint64_t uaddr, uint64_t kaddr, uint64_t len,
                   bool to_user);
  // Safe mode: bounds-check a user range against the userspace object.
  Status CheckUserRange(Task& task, uint64_t uaddr, uint64_t len);
  // Copies a NUL-terminated path (at most kMaxPathLength bytes; longer ones
  // truncate) out of user memory: memchr per page, then one bounds check
  // against the userspace object over the bytes consumed (safe mode). Takes
  // no lock and no kernel allocation; every path-taking syscall (kStat,
  // kOpen, kUnlink) reads its path through it, so a path whose NUL is the
  // userspace object's last byte is legal and one that runs off the object
  // fails the §4.6 check.
  Status ReadUserPath(Task& task, uint64_t path_uaddr, std::string* out);

  // --- Syscall implementations ---------------------------------------------------
  Result<uint64_t> SysGetPid();
  Result<uint64_t> SysGetTimeOfDay(uint64_t uaddr);
  Result<uint64_t> SysGetRusage(uint64_t uaddr);
  Result<uint64_t> SysOpen(uint64_t path_uaddr, uint64_t flags);
  Result<uint64_t> SysClose(uint64_t fd);
  Result<uint64_t> SysRead(uint64_t fd, uint64_t uaddr, uint64_t len);
  Result<uint64_t> SysWrite(uint64_t fd, uint64_t uaddr, uint64_t len);
  Result<uint64_t> SysLseek(uint64_t fd, uint64_t offset, uint64_t whence);
  Result<uint64_t> SysStat(uint64_t path_uaddr);
  Result<uint64_t> SysUnlink(uint64_t path_uaddr);
  Result<uint64_t> SysPipe(uint64_t uaddr_out);
  // Pipe read/write backends for SysRead/SysWrite on an already resolved
  // pipe fd (under the pipe's own lock).
  Result<uint64_t> PipeRead(Task& task, const OpenFile& file, uint64_t uaddr,
                            uint64_t len);
  Result<uint64_t> PipeWrite(Task& task, const OpenFile& file, uint64_t uaddr,
                             uint64_t len);
  Result<uint64_t> SysBrk(uint64_t delta);
  Result<uint64_t> SysSigaction(uint64_t sig, uint64_t handler);
  Result<uint64_t> SysKill(uint64_t pid, uint64_t sig,
                           svaos::InterruptContext* icontext);
  Result<uint64_t> SysFork();
  Result<uint64_t> SysExecve(uint64_t path_uaddr);
  Result<uint64_t> SysExit(uint64_t code);
  Result<uint64_t> SysWaitPid(uint64_t pid);
  Result<uint64_t> SysDup(uint64_t fd);
  Result<uint64_t> SysSocket(uint64_t domain);
  // Net-stack syscall backends (the net stack's own locks).
  Result<uint64_t> SysNetBind(uint64_t fd, uint64_t port, uint64_t flags);
  Result<uint64_t> SysNetAccept(uint64_t fd);
  Result<uint64_t> SysNetSend(uint64_t fd, uint64_t uaddr, uint64_t len,
                              uint64_t dest);
  Result<uint64_t> SysNetRecv(uint64_t fd, uint64_t uaddr, uint64_t len);
  // Send/recv on net socket `sid`, already resolved from an fd (shared by
  // SysNetSend/SysNetRecv and the socket cases of SysWrite/SysRead).
  Result<uint64_t> NetSend(Task& task, int sid, uint64_t uaddr, uint64_t len,
                           uint64_t dest);
  Result<uint64_t> NetRecv(Task& task, int sid, uint64_t uaddr, uint64_t len);
  // Event-queue syscall backends (src/kernel/evq.cc; run under evq_lock_ +
  // per-queue locks).
  Result<uint64_t> SysEvqCreate();
  Result<uint64_t> SysEvqCtl(uint64_t evq_fd, uint64_t op_and_interest,
                             uint64_t target_fd, uint64_t user_data);
  Result<uint64_t> SysEvqWait(uint64_t evq_fd, uint64_t uaddr,
                              uint64_t max_events, uint64_t timeout_us);
  // Profiling syscall backends (src/kernel/prof.cc; run under prof_lock_, an
  // unranked leaf).
  Result<uint64_t> SysProfStart(uint64_t hz);
  Result<uint64_t> SysProfStop(uint64_t fd);
  Result<uint64_t> SysProfRead(uint64_t fd, uint64_t uaddr,
                               uint64_t max_records);
  // ReleaseFile's teardown half for profiling fds (called OUTSIDE
  // files_lock_): stops the session if still active.
  void DestroyProfSession(int prof_id);
  // The prof session behind fd `fd` of the current task, or -1 (called by
  // handlers, under HandleSyscall's epoch guard).
  int ProfIdForFd(uint64_t fd);

  // The net stack's ready callback: fans a socket-id readiness edge out to
  // every queue watching it (called with NO net-stack locks held).
  void OnSocketReady(int sid);
  // Evq teardown halves of ReleaseFile, both called OUTSIDE files_lock_:
  // destroy a queue when its fd goes away; drop a socket's watches when the
  // socket's last fd is closed while still registered.
  void DestroyEvq(int evq_id);
  void DropSocketWatches(int sid);

  // --- Internals ---------------------------------------------------------------
  // The net socket / event queue id behind fd `fd` of the current task, or
  // -1 (called by handlers, under HandleSyscall's epoch guard).
  int NetSocketIdForFd(uint64_t fd);
  int EvqIdForFd(uint64_t fd);
  // Gives `file` (one reference, not yet in any slot) the task's lowest
  // free fd under one files_lock_ hold and returns the fd. On failure the
  // file is released and the result is kEMFile.
  uint64_t InstallFd(Task& task, OpenFile* file);
  // Stores `file` in the lowest free slot, growing the table if it is
  // full. Caller holds files_lock_.
  Result<int> AllocateFdLocked(Task& task, OpenFile* file);
  // Unpublishes every slot of `task` under one files_lock_ hold and
  // releases the files they held.
  void CloseAllFds(Task& task);
  // Doubles the task's fd table toward KernelConfig::max_fds_limit, moving
  // the modeled array to a (new) kmalloc block. Caller holds files_lock_.
  Status GrowFdTable(Task& task);
  // Grows until the table holds at least `capacity` slots (fork copying a
  // grown parent). Caller holds files_lock_.
  Status EnsureFdCapacity(Task& task, uint64_t capacity);
  // Safe-mode bounds check for fd slot `fd` of `task`, against the embedded
  // array or the external block, whichever currently backs the table.
  Status FdSlotCheck(Task& task, uint64_t fd);
  // Lock-free fd -> OpenFile resolution. The caller must hold an
  // EpochGuard (HandleSyscall pins one for the whole syscall body) and may
  // use the returned pointer only while it is held; never takes
  // files_lock_.
  Result<OpenFile*> FileForFd(Task& task, uint64_t fd);
  // The inode linked at `name`, created (and published) if absent and
  // `create`. Caller holds vfs_lock_.
  Result<Inode*> LookupInode(const std::string& name, bool create);
  // Takes an OpenFile's reference on an inode found lock-free in the
  // directory index; false if the inode already lost its last reference.
  static bool TryRefInode(Inode* inode);
  // Drop one reference; the last one retires the inode (or pipe).
  void UnrefInode(Inode* inode);
  void ReleasePipeEnd(Pipe* pipe);
  // Drops one reference of a file already unpublished from the slot that
  // held it; the last one retires the file and tears down what it names
  // (net socket, event queue, profiling session, inode reference, or its
  // end of a pipe).
  Status ReleaseFile(OpenFile* file);
  Result<int> CreateTask(int parent_pid);
  // SysFork's body past CreateTask: fd table, dispositions, address space
  // and CPU state of the parent copied into `child`.
  Status BuildForkChild(Task& parent, Task& child);
  // Unwinds a task that never ran (a fork that failed past CreateTask):
  // releases its fd references, then detaches and reaps it.
  void DiscardTask(int pid);
  // Unpublishes the task at `it` from the pid index and extracts its map
  // node. Caller holds tasks_lock_.
  std::map<int, Task>::node_type DetachTaskLocked(
      std::map<int, Task>::iterator it);
  // Frees everything a detached task owns: fd table, address space, grown
  // fd block, userspace registration and task struct. The node itself is
  // retired past a grace period. Called with no kernel lock held.
  Status ReapTask(std::map<int, Task>::node_type node);
  void DeliverPendingSignals(Task& task, svaos::InterruptContext* icontext);
  // Safe-mode check helpers (no-ops otherwise).
  Status LsCheckObject(runtime::MetaPool* pool, uint64_t addr);
  Status BoundsCheckObject(runtime::MetaPool* pool, uint64_t base,
                           uint64_t derived);

  hw::Machine& machine_;
  KernelConfig config_;
  // Kernel lock hierarchy (docs/CONCURRENCY.md; machine-enforced in debug
  // builds by smp::LockOrderChecker). Rank order — a thread may only
  // acquire downward in this list, never upward:
  //
  //   vfs_lock_ -> Inode::lock -> tasks_lock_ -> Pipe::lock -> evq_lock_
  //             -> files_lock_ -> address-space locks (src/mm)
  //
  // Inode::lock and Pipe::lock are per object: a thread holds at most one
  // of each rank, and two CPUs on different files or pipes share no lock.
  // Address-space locks (one per task, rank kAddrSpace) sit at the BOTTOM:
  // user-copy page faults fire while inode/pipe/files locks are held, so
  // the fault path must still be able to take them. Same-rank nesting is
  // forbidden, so COW fork clones in two sequential critical sections
  // (parent lock, then child lock), never nested.
  //
  // External lock classes (metapool stripe locks, allocator locks, the net
  // stack's locks) sit BELOW all kernel ranks: they are taken under any of
  // these — e.g. BoundsCheckObject under files_lock_ on the fd fast path,
  // copy loops under an inode's or a pipe's lock — and never call back
  // into kernel locks, so they are deliberately unranked.
  //
  // There is no big kernel lock: no syscall takes one, the scheduler
  // (Yield) runs under tasks_lock_, and the PokeUser/PeekUser host helpers
  // pin their task under an EpochGuard.
  // Guards the ramfs NAMESPACE: next_ino_ and dir_index_ republication
  // (create and unlink). Writer-only: path lookup (kStat, non-creating
  // kOpen) walks the epoch-published dir_index_ without it, and file data
  // and offsets live under each inode's own lock.
  mutable smp::OrderedSpinLock vfs_lock_{smp::LockRank::kVfs};
  // Guards the pid->task map structure, next_pid_, and task lifecycle
  // fields (alive/zombie/parent links). Per-field task state that other
  // syscalls touch concurrently (brk, pending_signals, sigaction handlers,
  // stats counters) uses std::atomic_ref instead, so hot paths touching
  // only their own task never take it.
  mutable smp::OrderedSpinLock tasks_lock_{smp::LockRank::kTasks};
  // Guards the event-queue table (evqs_) and the sid -> watching-queues
  // reverse map (evq_watchers_). Sits above files_lock_ so the wait path
  // could resolve fds under it; the ready callback takes it with nothing
  // ranked held. Per-queue EventQueue::lock is a separate unranked leaf
  // taken after this is released.
  mutable smp::OrderedSpinLock evq_lock_{smp::LockRank::kEvq};
  // The fd-table WRITER lock: fd-slot allocation and teardown, fd-table
  // growth, and the reference bumps of dup and fork. Writer-only — fd ->
  // file READS (SysRead/SysWrite/SysNetSend/SysNetRecv and the evq fd
  // probes) resolve through the epoch-published fd table under an
  // EpochGuard and never take it. Nothing ranked is acquired while holding
  // it; retired OpenFile objects outlive pinned readers via the epoch
  // grace period.
  mutable smp::OrderedSpinLock files_lock_{smp::LockRank::kFiles};
  svaos::SvaOS svaos_;
  // The VM subsystem: physical-frame refcounts + per-task address spaces.
  // Declared after svaos_ (construction order) — all its MMU mutations flow
  // through svaos_'s mediated operations.
  mm::FrameAllocator frames_{machine_, svaos_};
  mm::VmManager vm_{svaos_, frames_};
  runtime::MetaPoolRuntime pools_;
  std::unique_ptr<KernelAllocators> allocators_;

  runtime::PoolAllocator* task_cache_ = nullptr;
  runtime::PoolAllocator* inode_cache_ = nullptr;
  runtime::PoolAllocator* file_cache_ = nullptr;
  runtime::PoolAllocator* pipe_cache_ = nullptr;
  runtime::PoolAllocator* evq_cache_ = nullptr;
  runtime::PoolAllocator* prof_cache_ = nullptr;
  // The task cache's metapool, resolved once at boot (null unless safe
  // mode): the syscall prologue and every fd-slot check use it.
  runtime::MetaPool* task_pool_ = nullptr;
  runtime::MetaPool* user_pool_ = nullptr;
  std::unique_ptr<net::NetStack> net_;

  // Epoch-published read-mostly indexes (docs/CONCURRENCY.md §5). Each is
  // an immutable snapshot: writers rebuild a copy under the owning lock,
  // publish it with a release store, and retire the old snapshot through
  // smp::EpochDomain. Readers load (acquire) under an EpochGuard.
  //
  // The ramfs namespace: path -> inode. It is its own master copy: a
  // writer under vfs_lock_ copies the current snapshot, edits the copy and
  // publishes it. Each entry holds one reference on its inode; unlink
  // publishes a snapshot without the entry before dropping that reference.
  struct DirIndex {
    std::map<std::string, Inode*> entries;
  };
  // Snapshot of the pid map for lock-free current_task(). Task pointers
  // are map-node-stable until SysWaitPid reaps them (which republishes
  // without the pid before erasing the node).
  struct TaskIndex {
    std::vector<std::pair<int, Task*>> by_pid;  // Sorted by pid.
  };
  // Publish + retire-old; callers hold vfs_lock_ / tasks_lock_.
  void PublishDirIndex(DirIndex* fresh);
  void RepublishTaskIndex(int skip_pid = -1);

  std::map<int, Task> tasks_;               // pid -> task
  // Event queues (index = evq id; entries stay allocated after close —
  // pointer stability for waiters racing a close — with open = false).
  std::vector<std::unique_ptr<EventQueue>> evqs_;
  std::map<int, std::vector<int>> evq_watchers_;  // net sid -> evq ids
  // Profiling sessions (index = prof id; entries stay allocated after close
  // with active = false, same pointer-stability scheme as evqs_). Guarded
  // by prof_lock_, an unranked leaf like the per-queue evq locks: taken
  // with no ranked lock held and nothing is acquired under it.
  std::vector<std::unique_ptr<ProfSession>> prof_sessions_;
  mutable smp::SpinLock prof_lock_;
  // Shared with the profiler's tick hook (see ProfTickGuard).
  std::shared_ptr<ProfTickGuard> prof_tick_guard_ =
      std::make_shared<ProfTickGuard>();
  std::atomic<DirIndex*> dir_index_{nullptr};
  std::atomic<TaskIndex*> task_index_{nullptr};

  std::atomic<int> current_pid_{0};  // Read off-lock by the net fast path.
  int next_pid_ = 1;
  int next_ino_ = 1;
  // Kernel counters, one shard per CPU: every syscall bumps one, so a
  // single shared copy would put a cross-CPU cache-line transfer on every
  // syscall (and evict booted_ and current_pid_ beside it, which every
  // syscall reads). Bumped through atomic_ref so oversubscribed threads
  // sharing a CPU id stay race-free.
  smp::PerCpu<KernelStats> stats_shards_;
  KernelStats& StatsShard() { return stats_shards_.Current(); }
  static void Bump(uint64_t& counter, uint64_t delta = 1) {
    std::atomic_ref<uint64_t>(counter).fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  bool booted_ = false;
};

}  // namespace sva::kernel

#endif  // SVA_SRC_KERNEL_KERNEL_H_
