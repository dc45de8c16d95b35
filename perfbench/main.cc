// perfbench: the repository benchmark. Runs one named workload
// against the Linux-SVA-Safe configuration and prints, as its last line,
// one JSON object with the run's correctness, op counts and metrics.
//
//   perfbench --workload http|syscall|bytecode --seed N --seconds S
//             --trace 0|1 [--span-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate traced
// run that prints the per-layer metrics and writes its spans to DIR.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload http|syscall|bytecode --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR]\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      opt.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      opt.trace = n == 1;
    } else if (flag == "--span-dir") {
      opt.span_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();

  perfbench::Report report;
  if (opt.workload == "http") {
    perfbench::RunHttp(opt, report);
  } else if (opt.workload == "syscall") {
    perfbench::RunSyscall(opt, report);
  } else if (opt.workload == "bytecode") {
    perfbench::RunBytecode(opt, report);
  } else {
    return Usage();
  }
  report.Print(opt.trace ? perfbench::PerLayerMetrics()
                         : perfbench::EndToEndMetrics());
  return 0;
}
