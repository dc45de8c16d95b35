// sva-cc: the SVA safety-checking compiler driver.
//
// Reads a textual SVA module (.sva), runs the safety-checking compiler
// (points-to analysis, metapool inference, check insertion), verifies the
// result, and writes binary bytecode (.svb) ready for the SVM.
//
// Usage:
//   sva-cc input.sva -o output.svb [options]
//
// Options:
//   -o FILE            output bytecode file (default: input with .svb)
//   --emit-text        print the instrumented module instead of bytecode
//   --no-cloning       disable precision cloning (Section 4.8)
//   --no-devirt        disable devirtualization
//   --no-static-elide  keep checks on provably-safe GEPs
//   --whole-program    entire-kernel analysis (no incompleteness)
//   --entry NAME       add a syscall-style entry point (repeatable)
//   --report           print the instrumentation report
//   --verify-only      the input is already instrumented (as --emit-text
//                      prints it): skip the safety compiler and only
//                      verify it, the type checker's rules R1-R8 included
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/safety/compiler.h"
#include "src/verifier/typechecker.h"
#include "src/vir/bytecode.h"
#include "src/vir/parser.h"
#include "src/vir/printer.h"
#include "src/vir/structural_verifier.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "sva-cc: %s\n", message.c_str());
  return 1;
}

void PrintReport(const sva::safety::SafetyReport& r) {
  std::printf("metapools:            %llu (%llu TH, %llu complete)\n",
              static_cast<unsigned long long>(r.metapools),
              static_cast<unsigned long long>(r.th_metapools),
              static_cast<unsigned long long>(r.complete_metapools));
  std::printf("registrations:        %llu (+%llu drops)\n",
              static_cast<unsigned long long>(r.reg_obj),
              static_cast<unsigned long long>(r.drop_obj));
  std::printf("bounds checks:        %llu splay + %llu direct (%llu elided "
              "statically)\n",
              static_cast<unsigned long long>(r.bounds_checks),
              static_cast<unsigned long long>(r.direct_bounds_checks),
              static_cast<unsigned long long>(r.elided_bounds_checks));
  std::printf("load-store checks:    %llu (%llu elided on TH pools, %llu "
              "reduced on incomplete)\n",
              static_cast<unsigned long long>(r.ls_checks),
              static_cast<unsigned long long>(r.elided_th_ls_checks),
              static_cast<unsigned long long>(r.reduced_ls_checks));
  std::printf("indirect call checks: %llu\n",
              static_cast<unsigned long long>(r.indirect_checks));
  std::printf("eliminated checks:    %llu in loops (+%llu range checks), "
              "%llu hoisted, %llu duplicates\n",
              static_cast<unsigned long long>(r.eliminated.range_covered),
              static_cast<unsigned long long>(r.eliminated.range_checks),
              static_cast<unsigned long long>(r.eliminated.hoisted),
              static_cast<unsigned long long>(r.eliminated.duplicates));
  std::printf("stack promotions:     %llu\n",
              static_cast<unsigned long long>(r.stack_promotions));
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  bool emit_text = false;
  bool report = false;
  bool verify_only = false;
  sva::safety::SafetyCompilerOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--emit-text") {
      emit_text = true;
    } else if (arg == "--no-cloning") {
      options.run_cloning = false;
    } else if (arg == "--no-devirt") {
      options.run_devirt = false;
    } else if (arg == "--no-static-elide") {
      options.elide_static_safe_bounds = false;
    } else if (arg == "--whole-program") {
      options.analysis.whole_program = true;
    } else if (arg == "--entry" && i + 1 < argc) {
      options.analysis.entry_points.push_back(argv[++i]);
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--verify-only") {
      verify_only = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: sva-cc input.sva -o output.svb "
                  "[--emit-text] [--report]\n"
                  "       [--no-cloning] [--no-devirt] [--no-static-elide]\n"
                  "       [--whole-program] [--entry NAME]... "
                  "[--verify-only]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown option " + arg);
    } else {
      input = arg;
    }
  }
  if (input.empty()) {
    return Fail("no input file (try --help)");
  }
  if (output.empty()) {
    output = input;
    size_t dot = output.rfind('.');
    if (dot != std::string::npos) {
      output.resize(dot);
    }
    output += ".svb";
  }

  std::ifstream in(input);
  if (!in) {
    return Fail("cannot open " + input);
  }
  std::ostringstream source;
  source << in.rdbuf();

  auto module = sva::vir::ParseModule(source.str());
  if (!module.ok()) {
    return Fail(module.status().ToString());
  }
  sva::safety::SafetyReport compiled;
  if (!verify_only) {
    auto compile = sva::safety::RunSafetyCompiler(**module, options);
    if (!compile.ok()) {
      return Fail(compile.status().ToString());
    }
    compiled = *compile;
  }
  if (sva::Status s = sva::vir::VerifyModule(**module); !s.ok()) {
    return Fail("post-compile verification failed: " + s.ToString());
  }
  if (sva::Status s = sva::verifier::TypeCheckOrError(**module); !s.ok()) {
    return Fail("metapool type check failed: " + s.ToString());
  }
  if (report && !verify_only) {
    PrintReport(compiled);
  }
  if (emit_text) {
    std::printf("%s", sva::vir::PrintModule(**module).c_str());
    return 0;
  }
  std::vector<uint8_t> bytes = sva::vir::WriteBytecode(**module);
  std::ofstream out(output, std::ios::binary);
  if (!out) {
    return Fail("cannot write " + output);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("sva-cc: wrote %zu bytes to %s (digest %llu)\n", bytes.size(),
              output.c_str(),
              static_cast<unsigned long long>(sva::vir::DigestBytes(bytes)));
  return 0;
}
