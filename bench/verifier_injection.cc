// Section 5 reproduction: the trusted-computing-base experiment. The paper
// injected 20 bugs — 5 instances each of 4 kinds — into the pointer
// analysis results and showed the bytecode verifier (the small type
// checker that IS in the TCB) catches all 20, demonstrating that the
// complex safety-checking compiler can stay outside the TCB. A fifth row
// deletes one run-time check per instance (a check insertion or check
// elimination bug), which rule R8 must catch.
#include <cstdio>

#include "bench/common.h"
#include "src/corpus/corpus.h"
#include "src/safety/compiler.h"
#include "src/verifier/injector.h"
#include "src/verifier/typechecker.h"
#include "src/vir/parser.h"

namespace sva::bench {
namespace {

std::unique_ptr<vir::Module> FreshCompiledModule() {
  auto m = vir::ParseModule(corpus::KernelCorpusText(true));
  if (!m.ok()) {
    std::fprintf(stderr, "corpus parse failed: %s\n",
                 m.status().ToString().c_str());
    std::exit(1);
  }
  safety::SafetyCompilerOptions options;
  options.analysis = corpus::CorpusConfig(true);
  auto report = safety::RunSafetyCompiler(**m, options);
  if (!report.ok()) {
    std::fprintf(stderr, "safety compiler failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(m).value();
}

void Run() {
  std::printf(
      "Bytecode verifier vs injected pointer-analysis bugs (Section 5)\n\n");
  // Sanity: the untampered module type-checks.
  {
    auto clean = FreshCompiledModule();
    auto result = verifier::TypeCheckModule(*clean);
    std::printf("clean compiler output type-checks: %s\n\n",
                result.ok ? "yes" : "NO (broken setup)");
  }

  Table table({"Bug kind", "Seed 1", "Seed 2", "Seed 3", "Seed 4", "Seed 5",
               "Caught"});
  int total_caught = 0;
  int total_injected = 0;
  int dropped_caught = 0;
  int dropped_injected = 0;
  for (int kind_index = 0; kind_index < 5; ++kind_index) {
    auto kind = static_cast<verifier::BugKind>(kind_index);
    std::vector<std::string> cells = {verifier::BugKindName(kind)};
    int caught = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      auto m = FreshCompiledModule();
      Status injected = verifier::InjectBug(*m, kind, seed);
      if (!injected.ok()) {
        cells.push_back("no-site");
        continue;
      }
      const bool dropped = kind == verifier::BugKind::kDroppedCheck;
      ++(dropped ? dropped_injected : total_injected);
      auto result = verifier::TypeCheckModule(*m);
      bool detected = !result.ok;
      cells.push_back(detected ? "caught" : "MISSED");
      if (detected) {
        ++caught;
        ++(dropped ? dropped_caught : total_caught);
      }
    }
    cells.push_back(Fmt("%.0f/5", static_cast<double>(caught)));
    table.AddRow(cells);
  }
  table.Print();
  std::printf("\n=> verifier caught %d / %d injected bugs (paper: 20 / 20)\n",
              total_caught, total_injected);
  std::printf("=> rule R8 caught %d / %d dropped run-time checks\n",
              dropped_caught, dropped_injected);
  JsonReport::Get().Add("bugs_injected", total_injected, "count");
  JsonReport::Get().Add("bugs_caught", total_caught, "count");
  JsonReport::Get().Add("dropped_checks_injected", dropped_injected, "count");
  JsonReport::Get().Add("dropped_checks_caught", dropped_caught, "count");
}

}  // namespace
}  // namespace sva::bench

int main(int argc, char** argv) {
  sva::bench::JsonReport::Get().Init(&argc, argv, "verifier_injection");
  sva::bench::Run();
  return sva::bench::JsonReport::Get().Finish();
}
