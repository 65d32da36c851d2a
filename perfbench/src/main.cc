// perfbench: runs one workload of the repository benchmark and prints its
// raw result as one JSON document (see report.h). perfbench/run.py builds
// this binary, runs it, and turns the raw result into metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--tmp_dir <dir>]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "metric/simd_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<window-update|window-query|fleet-mixed|replicate-recover> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--tmp_dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.tmp_dir = ".bench_tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--tmp_dir" && has_value) {
      config.tmp_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  // Keep freed memory in the heap instead of returning it to the kernel
  // (large blocks are otherwise mmap'ed and unmapped on every allocation):
  // on a virtual machine each fresh page costs a fault that the hypervisor
  // serves, whose price swings with the host's load and would swamp the
  // allocation-heavy timings (restores, coreset assembly).
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::error_code error;
  std::filesystem::create_directories(config.tmp_dir, error);
  if (error) return Usage(("cannot create " + config.tmp_dir).c_str());

  perfbench::Report report;
  report.Info("workload", config.workload);
  report.Info("seed", static_cast<double>(config.seed));
  report.Info("trace", config.trace ? 1.0 : 0.0);
  report.Info("tiny", config.tiny ? 1.0 : 0.0);
  report.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("simd_kernel", fkc::simd::ActiveKernels().name);
  report.Info("compiler", PERFBENCH_COMPILER);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  report.Info("ndebug", 1.0);
#else
  report.Info("ndebug", 0.0);
#endif
  report.Info("tmp_fs", perfbench::FilesystemType(config.tmp_dir));

  if (config.workload == "window-update" ||
      config.workload == "window-query") {
    perfbench::RunWindowWorkload(config, &report);
  } else if (config.workload == "fleet-mixed") {
    perfbench::RunFleetMixed(config, &report);
  } else if (config.workload == "replicate-recover") {
    perfbench::RunReplicateRecover(config, &report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
