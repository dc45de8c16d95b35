// The `http` workload: a thttpd-style server on the Linux-SVA-Safe kernel,
// driven over the virtual NIC by the loopback client, as in
// bench/table6_thttpd_bandwidth but with a seeded request mix, /metrics
// left on, and every reply byte-checked.
//
// One thread, 4 accepted stream connections, a closed loop with one request
// in flight (the loopback wire is synchronous). The server finds the
// readable connection through kEvqWait, reads and parses the request,
// forks/execs/reaps a child for CGI requests, then streams the file back
// in 16 KiB read/send chunks. Every kScrapeEvery requests a monitoring
// client scrapes /metrics through kernel::MetricsServer.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kernel_host.h"
#include "src/kernel/metrics_server.h"
#include "src/net/client.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using sva::kernel::Sys;

constexpr int kConns = 4;
constexpr uint16_t kHttpPort = 80;
constexpr uint64_t kChunk = 16 * 1024;
constexpr uint64_t kScrapeEvery = 1000;
// Traced runs record spans for every kSpanEvery-th request (and every
// scrape), which keeps the span store and its file small, and compare
// their sides in blocks of kBlockRequests requests (a multiple of
// kScrapeEvery, so every side scrapes alike). Untraced runs time blocks of
// the same size, with set-ups and boots between them.
constexpr uint64_t kSpanEvery = 4;
constexpr uint64_t kBlockRequests = 2000;
// Requests per --seconds second. Fixed, so op counts depend only on the
// arguments; sized so the timed phase lasts about --seconds on a calm
// 4-thread x86-64 host.
constexpr uint64_t kRequestsPerSecond = 60000;

// User-memory layout of pid 1 (offsets into its window; all inside the
// initially mapped 64 KiB).
constexpr uint64_t kStageOff = 0x0;
constexpr uint64_t kEvqOff = 0x1000;
constexpr uint64_t kReqOff = 0x2000;
constexpr uint64_t kIoOff = 0x4000;

// Request classes: light = 311 B static page, heavy = 85 KB static file,
// cgi = the 311 B page behind fork/execve/exit/waitpid.
const char* const kRequestText[kNumClasses] = {
    "GET /www/index.html HTTP/1.0\r\n\r\n",
    "GET /www/big.bin HTTP/1.0\r\n\r\n",
    "GET /cgi-bin/page HTTP/1.0\r\n\r\n",
};
constexpr const char* kScrapeRequest = "GET /metrics HTTP/1.0\r\n\r\n";

struct Request {
  uint8_t cls = kLight;
  uint8_t conn = 0;
};

// Most requests are light; heavy ones carry most of the bytes (5% x 85 KB
// against 85% x 311 B).
std::vector<Request> MakeRequests(uint64_t seed, uint64_t n) {
  Rng rng(seed);
  std::vector<Request> out(n);
  for (Request& r : out) {
    uint64_t x = rng.Below(100);
    r.cls = x < 85 ? kLight : x < 90 ? kHeavy : kCgi;
    r.conn = static_cast<uint8_t>(rng.Below(kConns));
  }
  return out;
}

// Span names of this workload, interned once per phase.
struct HttpSpans {
  explicit HttpSpans(SpanNames& n) {
    for (int c = 0; c < kNumClasses; ++c) {
      op[c] = n.Intern(std::string("op.") + kClassNames[c]);
    }
    op_scrape = n.Intern("op.scrape");
    const std::pair<Sys, const char*> calls[] = {
        {Sys::kEvqWait, "evq_wait"}, {Sys::kRecv, "recv"},
        {Sys::kSend, "send"},        {Sys::kRead, "read"},
        {Sys::kLseek, "lseek"},      {Sys::kFork, "fork"},
        {Sys::kExecve, "execve"},    {Sys::kExit, "exit"},
        {Sys::kWaitPid, "waitpid"},
    };
    for (const auto& [sys, name] : calls) {
      sys_ids[static_cast<size_t>(sys)] =
          n.Intern(std::string("kernel.") + name);
    }
    yield = n.Intern("kernel.yield");
    wire_send = n.Intern("net.wire_send");
    wire_take = n.Intern("net.wire_take");
    scrape_connect = n.Intern("net.scrape_connect");
    scrape = n.Intern("trace.scrape");
    user = n.Intern("bench.user_memory");
    check = n.Intern("bench.check");
  }
  uint32_t op[kNumClasses] = {};
  uint32_t op_scrape = 0;
  std::array<uint32_t, 128> sys_ids{};
  uint32_t yield = 0, wire_send = 0, wire_take = 0, scrape_connect = 0,
           scrape = 0, user = 0, check = 0;
};

class Server {
 public:
  explicit Server(uint64_t seed)
      : client_(*host_.k().net()), metrics_(host_.k()) {
    ok_ = host_.booted();
    content_[kLight] = SeededBytes(seed * 3 + 1, 311);
    content_[kHeavy] = SeededBytes(seed * 3 + 2, 85 * 1024);
    content_[kCgi] = content_[kLight];
    if (!ok_) return;
    file_fd_[kLight] = host_.CreateFile("/www/index.html", content_[kLight],
                                        kStageOff);
    file_fd_[kHeavy] =
        host_.CreateFile("/www/big.bin", content_[kHeavy], kStageOff);
    file_fd_[kCgi] = file_fd_[kLight];
    bool ok = file_fd_[kLight] != UINT64_MAX && file_fd_[kHeavy] != UINT64_MAX;
    uint64_t listener = host_.Call(
        ok, Sys::kSocket,
        static_cast<uint64_t>(sva::kernel::SocketDomain::kListener));
    ok = ok && host_.Call(ok, Sys::kBind, listener, kHttpPort) == 0;
    evq_ = host_.Call(ok, Sys::kEvqCreate);
    for (int c = 0; ok && c < kConns; ++c) {
      auto conn = client_.OpenStream(kHttpPort);
      ok = conn.ok();
      if (!ok) break;
      conns_[c] = *conn;
      conn_fds_[c] = host_.Call(ok, Sys::kAccept, listener);
      ok = ok && host_.Call(ok, Sys::kEvqCtl, evq_, sva::kernel::kEvqCtlAdd,
                            conn_fds_[c], static_cast<uint64_t>(c)) == 0;
    }
    ok_ = ok && metrics_.Start().ok();
  }

  bool ok() const { return ok_; }
  sva::kernel::Kernel& kernel() { return host_.k(); }
  uint64_t bytes_verified() const { return bytes_verified_; }
  uint64_t checks() const { return checks_; }

  // Serves one request end to end; false if any step or check failed.
  bool Serve(const Request& r, uint64_t op, SpanRecorder* rec,
             const HttpSpans* ids) {
    ScopedSpan op_span(rec, ids ? ids->op[r.cls] : 0, op);
    bool ok = true;
    const std::string request = kRequestText[r.cls];
    {
      ScopedSpan s(rec, ids ? ids->wire_send : 0, op);
      ok = client_.SendStream(conns_[r.conn], request).ok();
    }
    // The server learns which connection is readable from the event queue.
    ok = ok && Call(rec, ids, op, Sys::kEvqWait, evq_, host_.user(kEvqOff),
                    1, 1000000) == 1;
    // The server program reads its own memory: the event record, then the
    // request line, whose path picks the file (and CGI or not).
    {
      ScopedSpan s(rec, ids ? ids->user : 0, op);
      uint64_t ready = UINT64_MAX;
      ok = ok && host_.k().PeekUser(host_.user(kEvqOff), &ready, 8).ok() &&
           ready == r.conn;
    }
    uint64_t fd = conn_fds_[r.conn];
    ok = ok && Call(rec, ids, op, Sys::kRecv, fd, host_.user(kReqOff), 128) ==
                   request.size();
    int cls = -1;
    {
      ScopedSpan s(rec, ids ? ids->user : 0, op);
      char line[128] = {};
      ok = ok &&
           host_.k().PeekUser(host_.user(kReqOff), line, request.size()).ok();
      for (int c = 0; c < kNumClasses; ++c) {
        if (request.size() == std::strlen(kRequestText[c]) &&
            std::memcmp(line, kRequestText[c], request.size()) == 0) {
          cls = c;
        }
      }
      ok = ok && cls == r.cls;
    }
    checks_ += 3;
    if (ok && cls == kCgi) {
      // CGI: fork a handler, let it exec and exit, reap it.
      uint64_t child = Call(rec, ids, op, Sys::kFork);
      ok = child >= 2 && child < UINT32_MAX;
      {
        ScopedSpan s(rec, ids ? ids->yield : 0, op);
        ok = ok && host_.k().Yield().ok();
      }
      ok = ok && Call(rec, ids, op, Sys::kExecve, host_.user(kStageOff)) == 0;
      ok = ok && Call(rec, ids, op, Sys::kExit, 0) == 0;
      ok = ok && host_.k().current_pid() == 1;
      ok = ok && Call(rec, ids, op, Sys::kWaitPid, child) == child;
      checks_ += 4;
    }
    if (ok) {
      const OpClass file = static_cast<OpClass>(cls);
      const uint64_t size = content_[file].size();
      ok = Call(rec, ids, op, Sys::kLseek, file_fd_[file], 0, 0) == 0;
      for (uint64_t done = 0; ok && done < size;) {
        uint64_t n = std::min(kChunk, size - done);
        ok = Call(rec, ids, op, Sys::kRead, file_fd_[file],
                  host_.user(kIoOff), n) == n &&
             Call(rec, ids, op, Sys::kSend, fd, host_.user(kIoOff), n) == n;
        done += n;
      }
      std::string reply;
      {
        ScopedSpan s(rec, ids ? ids->wire_take : 0, op);
        reply = client_.TakeStream(conns_[r.conn]);
      }
      // The client byte-checks the reply against the served file.
      ScopedSpan s(rec, ids ? ids->check : 0, op);
      ok = ok && reply == content_[file];
      ++checks_;
      if (ok) bytes_verified_ += reply.size();
    }
    return ok;
  }

  // One /metrics scrape by a fresh monitoring connection; the bytes the
  // client drains must equal what ServeOne put on the wire.
  bool Scrape(uint64_t op, SpanRecorder* rec, const HttpSpans* ids) {
    ScopedSpan op_span(rec, ids ? ids->op_scrape : 0, op);
    sva::Result<int> conn = sva::Internal("unopened");
    {
      ScopedSpan s(rec, ids ? ids->scrape_connect : 0, op);
      conn = client_.OpenStream(metrics_.port());
      if (!conn.ok() || !client_.SendStream(*conn, kScrapeRequest).ok()) {
        return false;
      }
    }
    ScopedSpan s(rec, ids ? ids->scrape : 0, op);
    sva::Result<std::string> served = metrics_.ServeOne();
    std::string got = client_.TakeStream(*conn);
    ++checks_;
    return served.ok() && !served->empty() && got == *served;
  }

 private:
  uint64_t Call(SpanRecorder* rec, const HttpSpans* ids, uint64_t op, Sys n,
                uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                uint64_t a3 = 0) {
    ScopedSpan s(rec, ids ? ids->sys_ids[static_cast<size_t>(n)] : 0, op);
    bool ok = true;
    uint64_t v = host_.Call(ok, n, a0, a1, a2, a3);
    return ok ? v : UINT64_MAX - 1;
  }

  KernelHost host_;
  sva::net::LoopbackClient client_;
  sva::kernel::MetricsServer metrics_;
  bool ok_ = false;
  std::string content_[kNumClasses];
  uint64_t file_fd_[kNumClasses] = {};
  uint64_t evq_ = 0;
  int conns_[kConns] = {};
  uint64_t conn_fds_[kConns] = {};
  uint64_t bytes_verified_ = 0;
  uint64_t checks_ = 0;
};

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t requests[kNumClasses] = {};
  uint64_t bytes = 0;
};

// Runs requests [begin, end) of `reqs` on `server`, plus a scrape after
// every kScrapeEvery-th request, adding to `out`. Each op's latency goes to
// `log`, when given. Returns the wall seconds.
double RunPhase(Server& server, const std::vector<Request>& reqs,
                size_t begin, size_t end, PhaseResult& out,
                PhaseLog* log = nullptr, SpanRecorder* rec = nullptr,
                const HttpSpans* ids = nullptr) {
  const uint64_t bytes0 = server.bytes_verified() - out.bytes;
  const uint64_t start = NowNs();
  uint64_t t0 = start;
  for (size_t i = begin; i < end; ++i) {
    bool ok = server.Serve(reqs[i], out.ops,
                           i % kSpanEvery == 0 ? rec : nullptr, ids);
    uint64_t t1 = NowNs();
    if (log) {
      log->Add(static_cast<OpClass>(reqs[i].cls), ok ? t1 - t0 : kFailedNs);
    }
    t0 = t1;
    ++out.ops;
    ++out.requests[reqs[i].cls];
    out.failed += ok ? 0 : 1;
    if ((i + 1) % kScrapeEvery == 0) {
      ok = server.Scrape(out.ops, rec, ids);
      t1 = NowNs();
      if (log) log->Add(kScrape, ok ? t1 - t0 : kFailedNs);
      t0 = t1;
      ++out.ops;
      out.failed += ok ? 0 : 1;
    }
    out.bytes = server.bytes_verified() - bytes0;
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

uint64_t OpCapacity(uint64_t requests) {
  return requests + requests / kScrapeEvery + 1;
}

}  // namespace

void RunHttp(const Options& opt, Report& report) {
  sva::trace::Tracer::Get().Enable(sva::trace::kModeMetrics);
  const uint64_t n = OpsFor(opt, kRequestsPerSecond) / (opt.trace ? 2 : 1);
  const std::vector<Request> warm = MakeRequests(opt.seed ^ 0x5eed, n / 20);
  const std::vector<Request> reqs = MakeRequests(opt.seed, n);
  const size_t blocks = (n + kBlockRequests - 1) / kBlockRequests;

  // Set-up: boot plus fixtures. The first server is the one measured.
  Spread spread;
  spread.blocks = blocks;
  spread.setup_s = [&] {
    uint64_t t0 = NowNs();
    auto extra = std::make_unique<Server>(opt.seed);
    if (!extra->ok()) report.Fail("http server set-up");
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  // load_ms: bringing the kernel image up.
  spread.load_ms = [&] { return BootMs(report); };
  uint64_t t0 = NowNs();
  auto server = std::make_unique<Server>(opt.seed);
  spread.setups.push_back(HostScaled(static_cast<double>(NowNs() - t0) / 1e9));
  if (!server->ok()) {
    report.Fail("http server set-up");
    return;
  }

  PhaseResult warm_up;
  RunPhase(*server, warm, 0, warm.size(), warm_up);
  if (!opt.trace) {
    PhaseLog log(OpCapacity(n), blocks);
    PhaseResult p;
    for (size_t b = 0; b < blocks; ++b) {
      const uint64_t ops0 = p.ops, bytes0 = p.bytes;
      log.BeginBlock();
      RunPhase(*server, reqs, b * kBlockRequests,
               std::min<size_t>(n, (b + 1) * kBlockRequests), p, &log);
      log.EndBlock(p.ops - ops0, p.bytes - bytes0);
      spread.After(b);
    }
    report.attempted = p.ops;
    report.failed = p.failed;
    report.Set("setup_s", Median(spread.setups));
    report.Set("load_ms", Median(spread.loads));
    report.Set("ops_per_s", log.OpsPerS());
    report.Set("mb_per_s", log.MbPerS());
    ReportLatency({&log}, report);
    std::printf("perfbench: workload=http ops=%llu checks=%llu threads=1 "
                "conns=%d light=%llu heavy=%llu cgi=%llu bytes=%llu\n",
                (unsigned long long)p.ops,
                (unsigned long long)server->checks(), kConns,
                (unsigned long long)p.requests[kLight],
                (unsigned long long)p.requests[kHeavy],
                (unsigned long long)p.requests[kCgi],
                (unsigned long long)p.bytes);
    if (p.failed != 0) report.Fail("http ops failed");
    report.Set("rss_mb", PeakRssMb());
    return;
  }

  // Traced run: three sides of the same request blocks on the same server,
  // interleaved (see Interleave): 0 = untraced, 1 = traced, both with
  // /metrics mode on, and 2 = untraced with it off, for
  // trace.metrics_share.
  SpanNames names;
  HttpSpans ids(names);
  SpanRecorder rec(OpCapacity(n) / kSpanEvery * 20);
  PhaseResult side[3];
  KernelCounters before = KernelCounters::Take(server->kernel());
  auto times = Interleave(3, (n + kBlockRequests - 1) / kBlockRequests,
                          [&](int s, size_t b) {
    if (s == 2) sva::trace::Tracer::Get().Disable();
    double wall = RunPhase(*server, reqs, b * kBlockRequests,
                           std::min<size_t>(n, (b + 1) * kBlockRequests),
                           side[s], nullptr, s == 1 ? &rec : nullptr, &ids);
    if (s == 2) sva::trace::Tracer::Get().Enable(sva::trace::kModeMetrics);
    return wall;
  });
  KernelCounters after = KernelCounters::Take(server->kernel());

  report.attempted = side[0].ops + side[1].ops + side[2].ops;
  report.failed = side[0].failed + side[1].failed + side[2].failed;
  if (report.failed != 0) report.Fail("http ops failed");

  TraceSummary sum = Summarize({&rec}, names);
  // Counter deltas cover the requests of all three sides: the same ones.
  double reqs_done = 0, cgi_done = 0;
  for (const PhaseResult& p : side) {
    reqs_done += static_cast<double>(p.requests[kLight] + p.requests[kHeavy] +
                                     p.requests[kCgi]);
    cgi_done += static_cast<double>(p.requests[kCgi]);
  }
  ReportKernelCounters(before, after, reqs_done, cgi_done, report);
  for (const char* s : {"evq_wait", "recv", "send", "read", "lseek", "fork",
                        "execve", "exit", "waitpid", "yield"}) {
    report.Set(std::string("kernel.syscall_us.") + s,
               sum.MeanUs(std::string("kernel.") + s));
  }
  report.Set("net.wire_send_us", sum.MeanUs("net.wire_send"));
  report.Set("net.wire_take_us", sum.MeanUs("net.wire_take"));
  report.Set("trace.scrape_ms", sum.MeanUs("trace.scrape") / 1000.0);
  report.Set("trace.metrics_share", 1.0 - MedianRatio(times[2], times[0]));
  ReportTraceSummary(sum, times[0], times[1], side[1].ops, opt, names, {&rec},
                     report);
  std::printf("perfbench: workload=http ops=%llu checks=%llu threads=1 "
              "conns=%d\n",
              (unsigned long long)report.attempted,
              (unsigned long long)server->checks(), kConns);
}

}  // namespace perfbench
