// The `bytecode` workload: the kernel corpus (src/corpus, the module
// bench/fig1_pipeline and bench/table9 use) goes through the full load
// pipeline — parse, safety compile, serialize, SecureVirtualMachine::
// LoadBytecode — and a seeded sequence of its entry points then runs on the
// threaded tier with checks enforced. Every result is compared with the
// tree-walking interpreter's (ExecTier::kInterp, the repo's differential
// oracle) on the same sequence. No kernel is booted.
//
// light = short calls (net_validate, file_dispatch through the indirect op
// table, drv_ioctl, task_tick); heavy = byte loops over a buffer (file_read,
// which runs lib_copy then lib_checksum, and net_rx of a packet, which
// allocates, copies, clones and checksums it); cgi = the guest task
// lifecycle (task_create, task_tick, task_destroy).
//
// Pointers the benchmark passes in must belong to the metapool the callee's
// parameter was assigned, or the checks trap (correctly). The corpus has no
// caller for file_dispatch and none that pairs task_create with
// task_destroy, so their parameters would sit in empty metapools; the
// benchmark appends kHarness, two small callers that connect them the way
// a real kernel caller would. Packets and read buffers live in guest
// userspace, which entry points may be handed. net_rx frees its clone but,
// by the corpus's design, not the skb it allocates; its 1% share keeps a
// run far inside the guest heap.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/corpus/corpus.h"
#include "src/safety/compiler.h"
#include "src/svm/svm.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/verifier/typechecker.h"
#include "src/vir/bytecode.h"
#include "src/vir/parser.h"
#include "src/vir/structural_verifier.h"

namespace perfbench {
namespace {

// Ops per --seconds second (fixed; see OpsFor). The timed phase takes
// about half of --seconds on a calm 4-thread x86-64 host: the interpreter
// oracle replays every op at ~5x the threaded tier's cost, and a run has
// to end well inside 60 s.
constexpr uint64_t kOpsPerSecond = 60000;
// The timed phase runs in blocks of this many ops, each followed by its
// oracle replay (untraced runs) or by the other sides of a comparison
// (traced runs).
constexpr size_t kBlockOps = 10000;
constexpr uint64_t kBufBytes = 256;
// Traps reported on stderr per rig; later ones are only counted.
constexpr int kMaxTrapReports = 12;

// Benchmark-side bytecode appended to the corpus: bench_file_setup opens
// the file bench_dispatch dispatches on; bench_task_cycle creates, ticks
// and destroys a task.
constexpr const char* kHarness = R"(
global @bench_file : %file*

define void @bench_file_setup() {
entry:
  %ino = call %inode* @inode_alloc(i64 256)
  %f = call %file* @file_open(%inode* %ino)
  store %file* %f, %file** @bench_file
  ret void
}

define i64 @bench_dispatch(i64 %which, i64 %arg) {
entry:
  %f = load %file*, %file** @bench_file
  %r = call i64 @file_dispatch(%file* %f, i64 %which, i64 %arg)
  ret i64 %r
}

define i64 @bench_task_cycle(i64 %pid) {
entry:
  %t = call %task_struct* @task_create(i64 %pid)
  %r = call i64 @task_tick(%task_struct* %t)
  call void @task_destroy(%task_struct* %t)
  ret i64 %r
}
)";

enum Entry : uint8_t {
  kNetValidate, kFileDispatch, kDrvIoctl, kTaskTick,  // light
  kFileRead, kNetRx,                                  // heavy
  kTaskCycle,                                         // cgi
  kNumEntries,
};
// Metric and span names, and the functions each op calls.
const char* const kEntryNames[kNumEntries] = {
    "net_validate", "file_dispatch", "drv_ioctl", "task_tick",
    "file_read",    "net_rx",        "task_cycle"};
const char* const kEntryFunctions[kNumEntries] = {
    "net_validate", "bench_dispatch", "drv_ioctl", "task_tick",
    "file_read",    "net_rx",         "bench_task_cycle"};

// Guest userspace layout (offsets from AddressSpace::user_base()).
constexpr uint64_t kUserPacket = 0x100;   // net_rx input.
constexpr uint64_t kUserReadBuf = 0x200;  // file_read output.

OpClass ClassOf(uint8_t e) {
  return e <= kTaskTick ? kLight : e <= kNetRx ? kHeavy : kCgi;
}

// Bytes file_read moves for an op: 64 to 256.
uint64_t HeavyLen(uint16_t arg) { return 64 + arg % (kBufBytes - 63); }

struct Op {
  uint8_t entry = 0;
  uint16_t arg = 0;
};

std::vector<Op> MakeOps(uint64_t seed, uint64_t n) {
  Rng rng(seed);
  std::vector<Op> out(n);
  for (Op& op : out) {
    uint64_t x = rng.Below(1000);
    Entry e = x < 760   ? static_cast<Entry>(x / 190)
              : x < 950 ? kFileRead
              : x < 960 ? kNetRx
                        : kTaskCycle;
    op.entry = e;
    op.arg = static_cast<uint16_t>(rng.Below(1 << 16));
  }
  return out;
}

// The corpus through the load pipeline, each stage timed.
struct Loaded {
  std::unique_ptr<sva::svm::LoadedModule> module;
  sva::safety::SafetyReport safety;
  double parse_ms = 0, compile_ms = 0, serialize_ms = 0, load_ms = 0;
  std::vector<uint8_t> bytecode;
};

double MsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

std::unique_ptr<Loaded> LoadCorpus(const std::string& source,
                                   sva::svm::ExecTier tier, bool enforce) {
  auto out = std::make_unique<Loaded>();
  uint64_t t0 = NowNs();
  auto parsed = sva::vir::ParseModule(source);
  out->parse_ms = MsSince(t0);
  if (!parsed.ok()) return nullptr;
  t0 = NowNs();
  sva::safety::SafetyCompilerOptions options;
  options.analysis = sva::corpus::CorpusConfig(true);
  auto report = sva::safety::RunSafetyCompiler(**parsed, options);
  out->compile_ms = MsSince(t0);
  if (!report.ok()) return nullptr;
  out->safety = *report;
  t0 = NowNs();
  out->bytecode = sva::vir::WriteBytecode(**parsed);
  out->serialize_ms = MsSince(t0);
  sva::svm::SvmOptions svm_options;
  svm_options.interp.tier = tier;
  svm_options.interp.enforce_checks = enforce;
  sva::svm::SecureVirtualMachine vm(svm_options);
  t0 = NowNs();
  auto loaded = vm.LoadBytecode(out->bytecode);
  out->load_ms = MsSince(t0);
  if (!loaded.ok()) return nullptr;
  out->module = std::move(loaded).value();
  return out;
}

struct BytecodeSpans {
  explicit BytecodeSpans(SpanNames& n) {
    for (int c = 0; c < kNumClasses; ++c) {
      op[c] = n.Intern(std::string("op.") + kClassNames[c]);
    }
    for (int e = 0; e < kNumEntries; ++e) {
      entry[e] = n.Intern(std::string("svm.") + kEntryNames[e]);
    }
  }
  uint32_t op[kNumClasses] = {};
  uint32_t entry[kNumEntries] = {};
};

// A loaded corpus with its boot-time fixtures: one long-lived task for
// task_tick, the file bench_dispatch works on (bench_file_setup), a file
// whose 256 B of seeded data file_read reads, and a seeded packet in guest
// userspace.
class CorpusRig {
 public:
  CorpusRig(const std::string& source, sva::svm::ExecTier tier, bool enforce,
            uint64_t seed) {
    loaded_ = LoadCorpus(source, tier, enforce);
    if (!loaded_) return;
    for (int e = 0; e < kNumEntries; ++e) names_[e] = kEntryFunctions[e];
    bool ok = Call("boot", {}).status.ok() &&
              Call("fs_setup_ops", {}).status.ok() &&
              Call("bench_file_setup", {}).status.ok();
    task_ = Value("task_create", {1 << 20}, &ok);
    uint64_t inode = Value("inode_alloc", {kBufBytes}, &ok);
    file_ = Value("file_open", {inode}, &ok);
    sva::svm::AddressSpace& mem = loaded_->module->interpreter().memory();
    user_ = mem.user_base();
    // %inode = { i64 size, i64, i8* data }: the data pointer is field 2.
    auto data = mem.Read(inode + 16, 8);
    ok = ok && data.ok();
    Rng rng(seed);
    for (uint64_t i = 0; ok && i < kBufBytes; ++i) {
      ok = mem.Write(*data + i, 1, rng.Next() & 0xff).ok() &&
           mem.Write(user_ + kUserPacket + i % 64, 1, rng.Next() & 0xff).ok();
    }
    ok_ = ok;
  }

  bool ok() const { return ok_; }
  Loaded& loaded() { return *loaded_; }

  // Runs one op; returns its result value or sets *ok to false on a trap.
  uint64_t RunOp(const Op& op, uint64_t id, SpanRecorder* rec,
                 const BytecodeSpans* ids, bool* ok) {
    ScopedSpan op_span(rec, ids ? ids->op[ClassOf(op.entry)] : 0, id);
    switch (op.entry) {
      case kNetValidate:
        return Run(kNetValidate, {op.arg % 12u}, id, rec, ids, ok);
      case kFileDispatch:
        return Run(kFileDispatch, {op.arg & 1u, op.arg}, id, rec, ids, ok);
      case kDrvIoctl:
        return Run(kDrvIoctl, {1, op.arg}, id, rec, ids, ok);
      case kTaskTick:
        return Run(kTaskTick, {task_}, id, rec, ids, ok);
      case kFileRead:
        return Run(kFileRead, {file_, user_ + kUserReadBuf, HeavyLen(op.arg)},
                   id, rec, ids, ok);
      case kNetRx:
        return Run(kNetRx, {user_ + kUserPacket, 64}, id, rec, ids, ok);
      default:
        return Run(kTaskCycle, {op.arg}, id, rec, ids, ok);
    }
  }

  uint64_t calls() const { return calls_; }

 private:
  // The span covers building the argument vector LoadedModule::Run takes.
  uint64_t Run(Entry e, std::initializer_list<uint64_t> args, uint64_t id,
               SpanRecorder* rec, const BytecodeSpans* ids, bool* ok) {
    ScopedSpan s(rec, ids ? ids->entry[e] : 0, id);
    sva::svm::ExecResult r = loaded_->module->Run(names_[e], args);
    ++calls_;
    if (!r.status.ok()) {
      *ok = false;
      if (reported_trap_ < kMaxTrapReports) {
        std::fprintf(stderr, "perfbench: %s trapped: %s\n", kEntryNames[e],
                     r.status.ToString().c_str());
        ++reported_trap_;
      }
    }
    return r.value;
  }
  sva::svm::ExecResult Call(const std::string& name,
                            std::vector<uint64_t> args) {
    return loaded_->module->Run(name, args);
  }
  uint64_t Value(const std::string& name, std::vector<uint64_t> args,
                 bool* ok) {
    sva::svm::ExecResult r = Call(name, std::move(args));
    *ok = *ok && r.status.ok();
    return r.value;
  }

  std::unique_ptr<Loaded> loaded_;
  std::string names_[kNumEntries];
  uint64_t task_ = 0, file_ = 0, user_ = 0;
  uint64_t calls_ = 0;
  bool ok_ = false;
  int reported_trap_ = 0;
};

// Counts over the ops one rig ran in a phase.
struct Tally {
  uint64_t ops = 0;
  uint64_t failed = 0;  // Ops that trapped.
  uint64_t bytes = 0;   // Guest bytes read or received by heavy ops.
  uint64_t checks = 0;  // Trap checks and oracle comparisons made.
};

// Runs ops [begin, end) on `m` and returns the wall seconds they took. The
// result of op i goes to results[i - begin] (UINT64_MAX for a trap) and its
// latency to `log`, when given.
double RunBlock(CorpusRig& m, const std::vector<Op>& ops, size_t begin,
                size_t end, Tally& tally, uint64_t* results = nullptr,
                PhaseLog* log = nullptr, SpanRecorder* rec = nullptr,
                const BytecodeSpans* ids = nullptr) {
  const uint64_t start = NowNs();
  uint64_t t0 = start;
  for (size_t i = begin; i < end; ++i) {
    bool ok = true;
    uint64_t v = m.RunOp(ops[i], i, rec, ids, &ok);
    uint64_t t1 = NowNs();
    if (log) log->Add(ClassOf(ops[i].entry), ok ? t1 - t0 : kFailedNs);
    t0 = t1;
    if (results) results[i - begin] = ok ? v : UINT64_MAX;
    ++tally.ops;
    ++tally.checks;
    tally.failed += ok ? 0 : 1;
    if (ClassOf(ops[i].entry) == kHeavy) {
      tally.bytes += ops[i].entry == kNetRx ? 64 : HeavyLen(ops[i].arg);
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

double RunAll(CorpusRig& m, const std::vector<Op>& ops) {
  Tally discard;
  return RunBlock(m, ops, 0, ops.size(), discard);
}

}  // namespace

void RunBytecode(const Options& opt, Report& report) {
  sva::trace::Tracer::Get().Disable();
  const std::string source = sva::corpus::KernelCorpusText(true) + kHarness;
  const uint64_t n = OpsFor(opt, kOpsPerSecond) / (opt.trace ? 2 : 1);
  const std::vector<Op> warm = MakeOps(opt.seed ^ 0x5eed, n / 20);
  const std::vector<Op> ops = MakeOps(opt.seed, n);
  const size_t blocks = (n + kBlockOps - 1) / kBlockOps;
  auto block_end = [&](size_t b) {
    return std::min<size_t>(n, (b + 1) * kBlockOps);
  };

  // Set-up: the first module load plus its fixtures. The first machine is
  // the one measured. svm.fallback_fns counts the functions its threaded
  // engine refused, up to the end of its warm-up (which reaches every entry
  // point), before any other rig exists.
  sva::trace::TierCounters& tiers = sva::trace::TierCounters::Get();
  Spread spread;
  spread.blocks = blocks;
  spread.setup_s = [&] {
    uint64_t t0 = NowNs();
    CorpusRig extra(source, sva::svm::ExecTier::kThreaded, true, opt.seed);
    if (!extra.ok()) report.Fail("bytecode set-up");
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  spread.load_ms = [&] {
    uint64_t t0 = NowNs();
    std::unique_ptr<Loaded> l =
        LoadCorpus(source, sva::svm::ExecTier::kThreaded, true);
    if (!l) report.Fail("corpus load");
    return MsSince(t0);
  };
  const uint64_t fallback0 = tiers.fallback_fns.load();
  uint64_t t0 = NowNs();
  auto m = std::make_unique<CorpusRig>(source, sva::svm::ExecTier::kThreaded,
                                       true, opt.seed);
  spread.setups.push_back(HostScaled(static_cast<double>(NowNs() - t0) / 1e9));
  if (!m->ok()) {
    report.Fail("bytecode set-up");
    return;
  }
  RunAll(*m, warm);
  const uint64_t fallback_fns = tiers.fallback_fns.load() - fallback0;

  if (!opt.trace) {
    CorpusRig oracle(source, sva::svm::ExecTier::kInterp, true, opt.seed);
    if (!oracle.ok()) {
      report.Fail("oracle set-up");
      return;
    }
    RunAll(oracle, warm);
    // The timed phase, block by block. After each block, outside the timed
    // phase, the oracle replays it and every result is compared, and the
    // set-ups and loads due run (see Spread).
    PhaseLog log(n, blocks);
    Tally timed, replay;
    std::vector<uint64_t> got(kBlockOps), want(kBlockOps);
    uint64_t mismatches = 0;
    const uint64_t calls0 = m->calls();
    for (size_t b = 0; b < blocks; ++b) {
      const size_t begin = b * kBlockOps, end = block_end(b);
      const uint64_t ops0 = timed.ops, bytes0 = timed.bytes;
      log.BeginBlock();
      RunBlock(*m, ops, begin, end, timed, got.data(), &log);
      log.EndBlock(timed.ops - ops0, timed.bytes - bytes0);
      RunBlock(oracle, ops, begin, end, replay, want.data());
      for (size_t i = 0; i < end - begin; ++i) {
        mismatches += (got[i] != want[i] || want[i] == UINT64_MAX) ? 1 : 0;
      }
      replay.checks += end - begin;
      spread.After(b);
    }
    // Every op that trapped or differed from the oracle counts as failed.
    report.attempted = timed.ops;
    report.failed = mismatches;
    if (timed.failed != 0) report.Fail("bytecode ops trapped");
    if (mismatches != 0) report.Fail("results differ from the interpreter");
    report.Set("setup_s", Median(spread.setups));
    report.Set("load_ms", Median(spread.loads));
    report.Set("ops_per_s", log.OpsPerS());
    report.Set("mb_per_s", log.MbPerS());
    ReportLatency({&log}, report);
    std::printf("perfbench: workload=bytecode ops=%llu checks=%llu "
                "threads=1 conns=0 calls=%llu light=%zu heavy=%zu cgi=%zu\n",
                (unsigned long long)timed.ops,
                (unsigned long long)(timed.checks + replay.checks),
                (unsigned long long)(m->calls() - calls0), log.Count(kLight),
                log.Count(kHeavy), log.Count(kCgi));
    report.Set("rss_mb", PeakRssMb());
    return;
  }

  // Traced run: load stages timed on their own, then three sides of the
  // same op blocks, interleaved (see Interleave): 0 = untraced, 1 = traced,
  // both on the measured machine, and 2 = a machine with checks off, for
  // runtime.check_share.
  std::vector<double> parse, compile, serialize, verify, load;
  for (size_t i = 0; i < kLoads; ++i) {
    std::unique_ptr<Loaded> l =
        LoadCorpus(source, sva::svm::ExecTier::kThreaded, true);
    if (!l) {
      report.Fail("corpus load");
      return;
    }
    parse.push_back(l->parse_ms);
    compile.push_back(l->compile_ms);
    serialize.push_back(l->serialize_ms);
    load.push_back(l->load_ms);
    uint64_t t0 = NowNs();
    auto module = sva::vir::ReadBytecode(l->bytecode);
    bool ok = module.ok() && sva::vir::VerifyModule(**module).ok() &&
              sva::verifier::TypeCheckModule(**module).ok;
    verify.push_back(MsSince(t0));
    if (!ok) report.Fail("bytecode verification");
  }
  const sva::safety::SafetyReport& s = m->loaded().safety;
  report.Set("vir.parse_ms", Median(parse));
  report.Set("vir.serialize_ms", Median(serialize));
  report.Set("safety.compile_ms", Median(compile));
  report.Set("safety.checks_inserted",
             static_cast<double>(s.bounds_checks + s.direct_bounds_checks +
                                 s.ls_checks + s.indirect_checks));
  report.Set("verifier.check_ms", Median(verify));
  report.Set("svm.load_ms", Median(load));

  CorpusRig unchecked(source, sva::svm::ExecTier::kThreaded, false, opt.seed);
  if (!unchecked.ok()) {
    report.Fail("unchecked set-up");
    return;
  }
  RunAll(unchecked, warm);

  SpanNames names;
  BytecodeSpans ids(names);
  SpanRecorder rec(n * 4);
  Tally tally[3];
  uint64_t tier_ops = 0, tier_calls = 0;
  const sva::runtime::CheckStats cb = m->loaded().module->pools().stats();
  auto times = Interleave(3, blocks, [&](int side, size_t b) {
    const size_t begin = b * kBlockOps, end = block_end(b);
    if (side == 2) return RunBlock(unchecked, ops, begin, end, tally[2]);
    const uint64_t tier0 =
        tiers.threaded_ops.load() + tiers.interp_ops.load();
    const uint64_t calls0 = m->calls();
    double wall = RunBlock(*m, ops, begin, end, tally[side], nullptr, nullptr,
                           side == 1 ? &rec : nullptr, &ids);
    tier_ops += tiers.threaded_ops.load() + tiers.interp_ops.load() - tier0;
    tier_calls += m->calls() - calls0;
    return wall;
  });
  const sva::runtime::CheckStats ca = m->loaded().module->pools().stats();

  report.attempted = tally[0].ops + tally[1].ops + tally[2].ops;
  report.failed = tally[0].failed + tally[1].failed + tally[2].failed;
  if (report.failed != 0) report.Fail("bytecode ops trapped");

  TraceSummary sum = Summarize({&rec}, names);
  for (int e = 0; e < kNumEntries; ++e) {
    report.Set(std::string("svm.call_us.") + kEntryNames[e],
               sum.MeanUs(std::string("svm.") + kEntryNames[e]));
  }
  report.Set("svm.ops_per_call", static_cast<double>(tier_ops) /
                                     static_cast<double>(tier_calls));
  report.Set("svm.fallback_fns", static_cast<double>(fallback_fns));
  // The untraced and traced sides both ran every op on the measured
  // machine's runtime.
  ReportCheckStats(cb, ca, static_cast<double>(tally[0].ops + tally[1].ops),
                   report);
  report.Set("runtime.check_share", 1.0 - MedianRatio(times[2], times[0]));
  ReportTraceSummary(sum, times[0], times[1], tally[1].ops, opt, names,
                     {&rec}, report);
  std::printf("perfbench: workload=bytecode ops=%llu checks=%llu threads=1 "
              "conns=0\n",
              (unsigned long long)report.attempted,
              (unsigned long long)(tally[0].checks + tally[1].checks +
                                   tally[2].checks));
}

}  // namespace perfbench
