// Table 5 reproduction: "Application latency increase as a percentage of
// Linux native performance". The paper ran bzip2, lame, gcc, ldd, scp, and
// thttpd; here each is a synthetic workload with the same kernel-time
// profile (the column that determines the overhead shape):
//
//   bzip2-like  : compute-heavy with periodic file reads  (~16% sys time)
//   lame-like   : FP-compute-heavy, almost no kernel time  (~1%)
//   gcc-like    : mixed compute + open/read/close of many small files (~4%)
//   ldd-like    : open/close dominated                      (~56%)
//   scp-like    : bulk datagram traffic over lo + file writes
//   thttpd-like : request loop serving a small file over a lo socket
//
// Expected shape: compute-bound apps see little overhead; syscall-heavy
// ones (ldd, small-file serving) see the most, and most of it comes from
// the safety checks, not the SVA-OS port.
#include <cstdio>
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/kernel_harness.h"

namespace sva::bench {
namespace {

using kernel::Sys;

// Userspace compute kernels (run outside the kernel; identical across
// configurations — they dilute kernel overhead exactly as app time does).
uint64_t ComputeInt(uint64_t iters) {
  volatile uint64_t acc = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iters; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    acc = acc ^ (acc >> 29);
  }
  return acc;
}

double ComputeFp(uint64_t iters) {
  volatile double acc = 1.0;
  for (uint64_t i = 0; i < iters; ++i) {
    acc = acc * 1.0000001 + 0.5;
    acc = acc / 1.0000002;
  }
  return acc;
}

// Every syscall's return value is checked against what the app expects: a
// transport error, an errno or a short count is reported and fails the run,
// so a broken kernel path cannot pass as a fast one.
int g_mismatches = 0;

void Checked(BootedKernel& k, uint64_t want, Sys n, uint64_t a0 = 0,
             uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0) {
  auto r = k.k().Syscall(n, a0, a1, a2, a3);
  if (!r.ok() || *r != want) {
    if (++g_mismatches <= 10) {
      std::fprintf(stderr,
                   "table5: syscall %llu returned %s, expected %llu\n",
                   static_cast<unsigned long long>(n),
                   r.ok() ? std::to_string(static_cast<int64_t>(*r)).c_str()
                          : r.status().ToString().c_str(),
                   static_cast<unsigned long long>(want));
    }
  }
}

// A call that returns a new fd: any value below kMaxFd is accepted.
uint64_t CheckedFd(BootedKernel& k, Sys n, uint64_t a0 = 0, uint64_t a1 = 0) {
  constexpr uint64_t kMaxFd = 1u << 20;
  auto r = k.k().Syscall(n, a0, a1);
  if (!r.ok() || *r >= kMaxFd) {
    ++g_mismatches;
    std::fprintf(stderr, "table5: syscall %llu returned no fd\n",
                 static_cast<unsigned long long>(n));
    return kMaxFd;
  }
  return *r;
}

uint64_t Open(BootedKernel& k, const std::string& path) {
  (void)k.k().PokeUserString(k.user(0), path);
  return CheckedFd(k, Sys::kOpen, k.user(0), /*create=*/1);
}

// A datagram socket bound to `port` on lo; sends go to itself.
uint64_t LoopbackSocket(BootedKernel& k, uint16_t port) {
  uint64_t sock = CheckedFd(
      k, Sys::kSocket, static_cast<uint64_t>(kernel::SocketDomain::kDatagram));
  Checked(k, 0, Sys::kBind, sock, port);
  return sock;
}

uint64_t LoopbackDest(uint16_t port) {
  return (static_cast<uint64_t>(net::kLoopbackIp) << 16) | port;
}

struct App {
  std::string name;
  std::string sys_profile;
  std::function<void(BootedKernel&)> run;
};

std::vector<App> BuildApps() {
  constexpr uint64_t kEAgain = static_cast<uint64_t>(-11);
  std::vector<App> apps;
  apps.push_back(
      {"bzip2-like (compress)", "~16% sys", [](BootedKernel& k) {
         uint64_t fd = Open(k, "/bench/input");
         for (int block = 0; block < 24; ++block) {
           Checked(k, 0, Sys::kLseek, fd, 0, 0);
           Checked(k, 4096, Sys::kRead, fd, k.user(4096), 4096);
           ComputeInt(60000);
         }
         Checked(k, 0, Sys::kClose, fd);
       }});
  apps.push_back({"lame-like (mp3 encode)", "~1% sys", [](BootedKernel& k) {
                    for (int frame = 0; frame < 8; ++frame) {
                      ComputeFp(250000);
                      Checked(k, 128, Sys::kWrite, 0, k.user(1024), 128);
                    }
                  }});
  apps.push_back(
      {"gcc-like (compile)", "~4% sys", [](BootedKernel& k) {
         for (int unit = 0; unit < 12; ++unit) {
           uint64_t fd = Open(k, "/bench/hdr" + std::to_string(unit % 4));
           Checked(k, 2048, Sys::kWrite, fd, k.user(4096), 2048);
           Checked(k, 0, Sys::kLseek, fd, 0, 0);
           Checked(k, 2048, Sys::kRead, fd, k.user(4096), 2048);
           Checked(k, 0, Sys::kClose, fd);
           ComputeInt(60000);
         }
       }});
  apps.push_back(
      {"ldd-like (library scan)", "~56% sys", [](BootedKernel& k) {
         for (int lib = 0; lib < 1200; ++lib) {
           uint64_t fd = Open(k, "/lib/lib" + std::to_string(lib % 8));
           // The scanned libraries are empty files: the read is EOF.
           Checked(k, 0, Sys::kRead, fd, k.user(4096), 512);
           Checked(k, 0, Sys::kClose, fd);
         }
         ComputeInt(240000);
       }});
  apps.push_back(
      {"scp-like (bulk transfer)", "bulk I/O", [](BootedKernel& k) {
         constexpr uint64_t kChunk = 4096;
         uint64_t sock = LoopbackSocket(k, 22);
         uint64_t fd = Open(k, "/bench/out");
         for (int chunk = 0; chunk < 640; ++chunk) {
           // Each 4 KiB chunk crosses lo as datagrams of at most one
           // frame's payload.
           for (uint64_t off = 0; off < kChunk; off += net::kMaxUdpPayload) {
             uint64_t n = std::min<uint64_t>(net::kMaxUdpPayload, kChunk - off);
             Checked(k, n, Sys::kSend, sock, k.user(4096) + off, n,
                     LoopbackDest(22));
           }
           for (uint64_t off = 0; off < kChunk; off += net::kMaxUdpPayload) {
             uint64_t n = std::min<uint64_t>(net::kMaxUdpPayload, kChunk - off);
             Checked(k, n, Sys::kRecv, sock, k.user(8192) + off, n);
           }
           Checked(k, kChunk, Sys::kWrite, fd, k.user(8192), kChunk);
           ComputeInt(4000);  // Cipher cost.
         }
         Checked(k, 0, Sys::kClose, fd);
         Checked(k, 0, Sys::kClose, sock);
       }});
  apps.push_back(
      {"thttpd-like (311B x 2000 req)", "request loop",
       [kEAgain](BootedKernel& k) {
         uint64_t fd = Open(k, "/www/index.html");
         k.FillFile(fd, 311);
         uint64_t sock = LoopbackSocket(k, 80);
         for (int request = 0; request < 2000; ++request) {
           // The request poll finds nothing queued.
           Checked(k, kEAgain, Sys::kRecv, sock, k.user(8192), 128);
           Checked(k, 0, Sys::kLseek, fd, 0, 0);
           Checked(k, 311, Sys::kRead, fd, k.user(4096), 311);
           Checked(k, 311, Sys::kSend, sock, k.user(4096), 311,
                   LoopbackDest(80));
           Checked(k, 311, Sys::kRecv, sock, k.user(8192), 311);  // Drain lo.
         }
         Checked(k, 0, Sys::kClose, fd);
         Checked(k, 0, Sys::kClose, sock);
       }});
  return apps;
}

void Run() {
  std::printf(
      "Table 5: application latency increase vs Linux-native (median of "
      "runs)\n\n");
  Table table({"Application", "Sys profile", "Native (ms)", "SVA gcc (%)",
               "SVA llvm (%)", "SVA Safe (%)"});
  for (const App& app : BuildApps()) {
    // Boot all four kernels and interleave runs (see table7).
    std::vector<std::unique_ptr<BootedKernel>> kernels;
    for (int m = 0; m < 4; ++m) {
      kernels.push_back(std::make_unique<BootedKernel>(kAllModes[m]));
      BootedKernel& k = *kernels.back();
      (void)k.k().PokeUserString(k.user(0), "/dev/null");
      Checked(k, 0, Sys::kOpen, k.user(0), 0);  // fd 0: /dev/null sink.
      // Prepare a 4k input file for readers.
      uint64_t fd = Open(k, "/bench/input");
      k.FillFile(fd, 4096);
      Checked(k, 0, Sys::kClose, fd);
      app.run(k);  // Warm up.
    }
    std::vector<double> samples[4];
    const int repetitions = JsonReport::Get().quick() ? 1 : 9;
    for (int rep = 0; rep < repetitions; ++rep) {
      for (int m = 0; m < 4; ++m) {
        samples[m].push_back(TimeOnceUs([&] { app.run(*kernels[m]); }));
      }
    }
    double ms[4];
    for (int m = 0; m < 4; ++m) {
      std::sort(samples[m].begin(), samples[m].end());
      ms[m] = samples[m][samples[m].size() / 2] / 1000.0;
    }
    table.AddRow({app.name, app.sys_profile, Fmt("%.2f", ms[0]),
                  Fmt("%.1f", OverheadPct(ms[0], ms[1])),
                  Fmt("%.1f", OverheadPct(ms[0], ms[2])),
                  Fmt("%.1f", OverheadPct(ms[0], ms[3]))});
    for (int m = 0; m < 4; ++m) {
      JsonReport::Get().Add(app.name, ms[m], "ms",
                            kernel::KernelModeName(kAllModes[m]));
    }
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: compute-bound apps (bzip2/lame/gcc) show "
      "small overheads;\nsyscall-heavy apps (ldd, small-file thttpd) show "
      "the largest, dominated by the\nsafety checks rather than the SVA-OS "
      "port.\n");
}

}  // namespace
}  // namespace sva::bench

int main(int argc, char** argv) {
  sva::bench::JsonReport::Get().Init(&argc, argv, "table5_app_latency");
  sva::bench::Run();
  int status = sva::bench::JsonReport::Get().Finish();
  if (sva::bench::g_mismatches > 0) {
    std::fprintf(stderr, "table5: %d syscall results did not match\n",
                 sva::bench::g_mismatches);
    return 1;
  }
  return status;
}
