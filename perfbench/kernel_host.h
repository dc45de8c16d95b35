// A booted Linux-SVA-Safe minikernel plus the "user program" helpers the
// kernel workloads drive it with. Every syscall goes through the public
// kernel::Kernel::Syscall entry; a transport error or an unexpected return
// value marks the op failed instead of aborting the run.
#ifndef SVA_PERFBENCH_KERNEL_HOST_H_
#define SVA_PERFBENCH_KERNEL_HOST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/hw/machine.h"
#include "src/kernel/kernel.h"
#include "src/smp/epoch.h"

namespace perfbench {

class KernelHost {
 public:
  // 128 MB of guest memory: the serving loops touch a few MB, and a
  // smaller machine keeps boot (load_ms) and rss_mb from being dominated
  // by zero-filling unused frames.
  static constexpr uint64_t kGuestBytes = 128ull << 20;

  KernelHost()
      : machine_(std::make_unique<sva::hw::Machine>(kGuestBytes, 16384)) {
    sva::kernel::KernelConfig config;
    config.mode = sva::kernel::KernelMode::kSvaSafe;
    kernel_ = std::make_unique<sva::kernel::Kernel>(*machine_, config);
    booted_ = kernel_->Boot().ok();
  }

  bool booted() const { return booted_; }
  sva::kernel::Kernel& k() { return *kernel_; }

  // User virtual address of `offset` in the current task's window.
  uint64_t user(uint64_t offset) const {
    return sva::kernel::kUserVirtualBase +
           static_cast<uint64_t>(kernel_->current_pid()) * 0x100000 + offset;
  }

  // One syscall; `ok` is cleared on a transport error (the result is then
  // an impossible value, so any expectation on it fails too).
  uint64_t Call(bool& ok, sva::kernel::Sys n, uint64_t a0 = 0,
                uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0) {
    auto r = kernel_->Syscall(n, a0, a1, a2, a3);
    if (!r.ok()) {
      ok = false;
      return UINT64_MAX;
    }
    return *r;
  }

  // Creates `path` holding exactly `content`, staged through user memory
  // at `stage` (which must have room for 4 KiB). Returns the fd, or
  // UINT64_MAX on failure.
  uint64_t CreateFile(const std::string& path, const std::string& content,
                      uint64_t stage) {
    bool ok = kernel_->PokeUserString(user(stage), path).ok();
    uint64_t fd = Call(ok, sva::kernel::Sys::kOpen, user(stage), 1);
    for (uint64_t done = 0; ok && done < content.size();) {
      uint64_t n = std::min<uint64_t>(4096, content.size() - done);
      ok = kernel_->PokeUser(user(stage), content.data() + done, n).ok() &&
           Call(ok, sva::kernel::Sys::kWrite, fd, user(stage), n) == n;
      done += n;
    }
    ok = ok && Call(ok, sva::kernel::Sys::kLseek, fd, 0, 0) == 0;
    return ok ? fd : UINT64_MAX;
  }

 private:
  std::unique_ptr<sva::hw::Machine> machine_;
  std::unique_ptr<sva::kernel::Kernel> kernel_;
  bool booted_ = false;
};

// One load_ms sample of the kernel workloads: the milliseconds one kernel
// boot takes.
double BootMs(Report& report);

// The kernel layers' public counters at one instant; per-layer metrics are
// deltas of two snapshots divided by the ops between them.
struct KernelCounters {
  sva::runtime::CheckStats checks;
  sva::smp::SvaOsStats os;
  sva::mm::VmStats vm;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t bytes_copied = 0;
  uint64_t tx_frames = 0;
  uint64_t rx_delivered = 0;
  uint64_t rx_irqs = 0;
  uint64_t rx_polls = 0;
  uint64_t rx_frames_polled = 0;
  uint64_t epoch_advances = 0;

  static KernelCounters Take(sva::kernel::Kernel& k) {
    KernelCounters c;
    c.checks = k.pools().stats();
    c.os = k.svaos().stats();
    c.vm = k.vm().stats();
    for (unsigned i = 0; i < k.svaos().num_cpus(); ++i) {
      sva::hw::Tlb::Stats t = k.svaos().cpu(i).tlb().stats();
      c.tlb_hits += t.hits;
      c.tlb_misses += t.misses;
    }
    c.bytes_copied = k.stats().bytes_copied_user;
    const sva::net::NetStats& n = k.net()->stats();
    c.tx_frames = n.tx_frames.load();
    c.rx_delivered = n.rx_delivered.load();
    c.rx_irqs = n.rx_irqs.load();
    c.rx_polls = n.rx_polls.load();
    c.rx_frames_polled = n.rx_frames_polled.load();
    c.epoch_advances = sva::smp::EpochDomain::Global().advances();
    return c;
  }
};

// Per-layer metrics from the kernel's counters over `ops` ops, of which
// `cgi` forked. `b` and `a` are snapshots before and after.
void ReportKernelCounters(const KernelCounters& b, const KernelCounters& a,
                          double ops, double cgi, Report& report);

// Deterministic file content: `n` bytes drawn from `seed`.
inline std::string SeededBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.Next() & 0xff);
  return s;
}

}  // namespace perfbench

#endif  // SVA_PERFBENCH_KERNEL_HOST_H_
