// The event-queue subsystem (the epoll analog): level-triggered readiness
// over net-stack sockets, served by the kEvqCreate/kEvqCtl/kEvqWait
// syscalls.
//
// Data flow: the net stack calls Kernel::OnSocketReady(sid) after a socket
// gains data, backlog, or a FIN (with no net-stack locks held). The callback
// fans the socket id out to every queue watching it as an unverified "ready
// hint" and bumps the queue's generation counter. kEvqWait verifies hints
// against NetStack::PollReady at wait time — level-triggered semantics fall
// out naturally: a socket that stays ready stays hinted and is re-reported
// on the next wait; a hint that no longer polls ready is culled.
//
// Locking: evq_lock_ (ranked, smp::LockRank::kEvq) guards the queue table
// and the sid -> watching-queues reverse map. EventQueue::lock (unranked
// leaf) guards one queue's watch set and hints. The two are NEVER nested —
// every path acquires them sequentially — so the callback's
// evq_lock_ -> q->lock order and the wait path's q->lock -> net-stack-lock
// order cannot form a cycle (the net stack never holds its locks while
// calling back in).
#include <algorithm>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/support/strings.h"
#include "src/trace/trace.h"

namespace sva::kernel {

namespace {
constexpr uint64_t kEInval = static_cast<uint64_t>(-22);
constexpr uint64_t kEBadF = static_cast<uint64_t>(-9);
constexpr uint64_t kENoEnt = static_cast<uint64_t>(-2);
constexpr uint64_t kEExist = static_cast<uint64_t>(-17);

void EraseValue(std::vector<int>& values, int value) {
  values.erase(std::remove(values.begin(), values.end(), value),
               values.end());
}
}  // namespace

Result<uint64_t> Kernel::SysEvqCreate() {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  SVA_ASSIGN_OR_RETURN(uint64_t evq_addr,
                       allocators_->CacheAlloc(evq_cache_));
  auto queue = std::make_unique<EventQueue>();
  queue->addr = evq_addr;
  int evq_id;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    evqs_.push_back(std::move(queue));
    evq_id = static_cast<int>(evqs_.size() - 1);
  }
  auto file_addr = allocators_->CacheAlloc(file_cache_);
  if (!file_addr.ok()) {
    DestroyEvq(evq_id);
    return file_addr.status();
  }
  auto* file = new OpenFile;
  file->addr = *file_addr;
  file->evq_id = evq_id;
  return InstallFd(*task, file);
}

Result<uint64_t> Kernel::SysEvqCtl(uint64_t evq_fd, uint64_t op_and_interest,
                                   uint64_t target_fd, uint64_t user_data) {
  int evq_id = EvqIdForFd(evq_fd);
  if (evq_id < 0) {
    return kEBadF;
  }
  EventQueue* q;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    q = evqs_[static_cast<size_t>(evq_id)].get();
  }
  uint64_t op = op_and_interest & 0xFF;
  uint32_t interest = static_cast<uint32_t>(op_and_interest >> 8);
  if (interest == 0) {
    interest = kEvqIn | kEvqErr | kEvqHup;
  }
  int fd = static_cast<int>(target_fd);

  switch (op) {
    case kEvqCtlAdd: {
      int sid = NetSocketIdForFd(target_fd);
      if (sid < 0) {
        return kEInval;  // Only net-stack sockets are watchable.
      }
      // Reverse-map entry first: a readiness edge that lands between these
      // two steps produces a hint without a watch, which the wait path
      // culls; the opposite order would lose the edge entirely.
      {
        std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
        evq_watchers_[sid].push_back(evq_id);
      }
      bool inserted = false;
      bool was_open = true;
      {
        std::lock_guard<smp::SpinLock> guard(q->lock);
        was_open = q->open;
        if (q->open && q->watches.find(fd) == q->watches.end() &&
            q->sid_to_fd.find(sid) == q->sid_to_fd.end()) {
          q->watches[fd] = EvqWatch{sid, interest, user_data};
          q->sid_to_fd[sid] = fd;
          // The socket may be ready ALREADY (data queued before the watch
          // existed); seed a hint so the first wait checks it.
          q->ready_hints.push_back(sid);
          inserted = true;
        }
      }
      if (!inserted) {
        std::lock_guard<smp::OrderedSpinLock> undo(evq_lock_);
        auto it = evq_watchers_.find(sid);
        if (it != evq_watchers_.end()) {
          EraseValue(it->second, evq_id);
          if (it->second.empty()) {
            evq_watchers_.erase(it);
          }
        }
        return was_open ? kEExist : kEBadF;
      }
      q->generation.fetch_add(1, std::memory_order_release);
      return uint64_t{0};
    }
    case kEvqCtlMod: {
      {
        std::lock_guard<smp::SpinLock> guard(q->lock);
        if (!q->open) {
          return kEBadF;
        }
        auto it = q->watches.find(fd);
        if (it == q->watches.end()) {
          return kENoEnt;
        }
        it->second.interest = interest;
        it->second.user_data = user_data;
        // Re-check on the next wait under the new mask.
        if (std::find(q->ready_hints.begin(), q->ready_hints.end(),
                      it->second.sid) == q->ready_hints.end()) {
          q->ready_hints.push_back(it->second.sid);
        }
      }
      q->generation.fetch_add(1, std::memory_order_release);
      return uint64_t{0};
    }
    case kEvqCtlDel: {
      int sid;
      {
        std::lock_guard<smp::SpinLock> guard(q->lock);
        if (!q->open) {
          return kEBadF;
        }
        auto it = q->watches.find(fd);
        if (it == q->watches.end()) {
          return kENoEnt;
        }
        sid = it->second.sid;
        q->watches.erase(it);
        q->sid_to_fd.erase(sid);
        EraseValue(q->ready_hints, sid);
      }
      std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
      auto it = evq_watchers_.find(sid);
      if (it != evq_watchers_.end()) {
        EraseValue(it->second, evq_id);
        if (it->second.empty()) {
          evq_watchers_.erase(it);
        }
      }
      return uint64_t{0};
    }
    default:
      return kEInval;
  }
}

Result<uint64_t> Kernel::SysEvqWait(uint64_t evq_fd, uint64_t uaddr,
                                    uint64_t max_events,
                                    uint64_t timeout_us) {
  Task* task = current_task();
  if (task == nullptr) {
    return Internal("no current task");
  }
  int evq_id = EvqIdForFd(evq_fd);
  if (evq_id < 0) {
    return kEBadF;
  }
  if (max_events == 0) {
    return kEInval;
  }
  EventQueue* q;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    q = evqs_[static_cast<size_t>(evq_id)].get();
  }
  uint64_t max = std::min(max_events, kEvqMaxEventsPerWait);
  trace::Span span(trace::EventId::kEvqWait, trace::HistId::kEvqWaitNs,
                   evq_fd);
  uint64_t deadline = trace::NowNs() + timeout_us * 1000;

  std::vector<EvqEvent> out;
  while (true) {
    // Generation snapshot BEFORE the scan: an edge that races the empty
    // scan changes the counter, so the block loop below falls straight
    // through instead of sleeping past the wakeup.
    uint64_t gen = q->generation.load(std::memory_order_acquire);
    {
      std::lock_guard<smp::SpinLock> guard(q->lock);
      if (!q->open) {
        return kEBadF;
      }
      // Verify each hinted socket against live readiness (PollReady takes
      // net-stack locks only — unranked external classes, safe under this
      // unranked leaf). Level-triggered: a still-ready socket keeps its
      // hint and will be re-reported next wait; an unready one is culled
      // (it re-arms via the next OnSocketReady edge).
      for (size_t i = 0; i < q->ready_hints.size() && out.size() < max;) {
        int sid = q->ready_hints[i];
        auto fit = q->sid_to_fd.find(sid);
        if (fit == q->sid_to_fd.end()) {
          // Stale: the watch went away between hint and wait.
          q->ready_hints[i] = q->ready_hints.back();
          q->ready_hints.pop_back();
          continue;
        }
        const EvqWatch& watch = q->watches[fit->second];
        uint32_t ready = net_->PollReady(sid) &
                         (watch.interest | kEvqErr | kEvqHup);
        if (ready == 0) {
          q->ready_hints[i] = q->ready_hints.back();
          q->ready_hints.pop_back();
          continue;
        }
        EvqEvent event;
        event.user_data = watch.user_data;
        event.events = ready;
        event.fd = static_cast<uint32_t>(fit->second);
        out.push_back(event);
        ++i;
      }
    }
    if (!out.empty() || trace::NowNs() >= deadline) {
      break;
    }
    // Block until a readiness edge or the deadline. The minikernel has no
    // sleeping waitqueues; yielding the host thread models one.
    while (q->generation.load(std::memory_order_acquire) == gen &&
           trace::NowNs() < deadline) {
      std::this_thread::yield();
    }
  }

  span.set_args(evq_fd, out.size());
  if (out.empty()) {
    return uint64_t{0};  // Timeout.
  }
  // Marshal 16-byte records through a kernel scratch block, one CopyToUser.
  uint64_t bytes = out.size() * kEvqEventBytes;
  SVA_ASSIGN_OR_RETURN(uint64_t scratch, allocators_->Kmalloc(bytes));
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t base = scratch + i * kEvqEventBytes;
    Status w = machine_.memory().Write(base, 8, out[i].user_data);
    if (w.ok()) {
      w = machine_.memory().Write(
          base + 8, 8,
          static_cast<uint64_t>(out[i].events) |
              (static_cast<uint64_t>(out[i].fd) << 32));
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

void Kernel::OnSocketReady(int sid) {
  std::vector<EventQueue*> queues;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    auto it = evq_watchers_.find(sid);
    if (it == evq_watchers_.end()) {
      return;
    }
    queues.reserve(it->second.size());
    for (int evq_id : it->second) {
      queues.push_back(evqs_[static_cast<size_t>(evq_id)].get());
    }
  }
  for (EventQueue* q : queues) {
    {
      std::lock_guard<smp::SpinLock> guard(q->lock);
      if (!q->open) {
        continue;
      }
      if (std::find(q->ready_hints.begin(), q->ready_hints.end(), sid) ==
          q->ready_hints.end()) {
        q->ready_hints.push_back(sid);
      }
    }
    q->generation.fetch_add(1, std::memory_order_release);
    trace::Emit(trace::EventId::kEvqWakeup, static_cast<uint64_t>(sid));
  }
}

void Kernel::DestroyEvq(int evq_id) {
  EventQueue* q;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    if (evq_id < 0 || static_cast<size_t>(evq_id) >= evqs_.size()) {
      return;
    }
    q = evqs_[static_cast<size_t>(evq_id)].get();
  }
  uint64_t evq_addr;
  std::vector<int> sids;
  {
    std::lock_guard<smp::SpinLock> guard(q->lock);
    if (!q->open) {
      return;
    }
    q->open = false;
    evq_addr = q->addr;
    sids.reserve(q->sid_to_fd.size());
    for (const auto& [sid, fd] : q->sid_to_fd) {
      sids.push_back(sid);
    }
    q->watches.clear();
    q->sid_to_fd.clear();
    q->ready_hints.clear();
  }
  // Wake blocked waiters; they observe open == false and return kEBadF.
  q->generation.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    for (int sid : sids) {
      auto it = evq_watchers_.find(sid);
      if (it == evq_watchers_.end()) {
        continue;
      }
      EraseValue(it->second, evq_id);
      if (it->second.empty()) {
        evq_watchers_.erase(it);
      }
    }
  }
  (void)allocators_->CacheFree(evq_cache_, evq_addr);
}

void Kernel::DropSocketWatches(int sid) {
  std::vector<EventQueue*> queues;
  {
    std::lock_guard<smp::OrderedSpinLock> guard(evq_lock_);
    auto it = evq_watchers_.find(sid);
    if (it == evq_watchers_.end()) {
      return;
    }
    queues.reserve(it->second.size());
    for (int evq_id : it->second) {
      queues.push_back(evqs_[static_cast<size_t>(evq_id)].get());
    }
    evq_watchers_.erase(it);
  }
  for (EventQueue* q : queues) {
    std::lock_guard<smp::SpinLock> guard(q->lock);
    if (!q->open) {
      continue;
    }
    auto fit = q->sid_to_fd.find(sid);
    if (fit != q->sid_to_fd.end()) {
      q->watches.erase(fit->second);
      q->sid_to_fd.erase(fit);
    }
    EraseValue(q->ready_hints, sid);
  }
}

}  // namespace sva::kernel
