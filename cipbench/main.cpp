// cipbench: the CIP benchmark's one binary.
//
//   cipbench --workload cip_round|fleet_churn|serve_wire --seed N
//            --seconds S --trace 0|1 [--inject-delay-ms D]
//            [--trace-out FILE] [--scratch DIR]
//
// Prints a provenance line, human-readable notes, and as its last line
// {"correct", "attempted", "failed", "values"}: every end-to-end metric's
// value with --trace 0, the per-layer values it measured with --trace 1.
// run.py turns that line into the result object, with BENCHMARK.json's
// units.
// Exits 1 when an output was wrong, 2 on bad usage or a refused build.
// Speed never decides the exit code.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "harness.h"
#include "tensor/ops.h"

namespace {

/// Seeds the workload definitions were tuned on; any other seed is held
/// out, so a later claim can be re-checked on inputs nobody tuned against.
constexpr std::uint64_t kTuningSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

int Usage(const char* why) {
  std::cerr << "cipbench: " << why
            << "\nusage: cipbench --workload cip_round|fleet_churn|serve_wire"
               " --seed N --seconds S --trace 0|1 [--inject-delay-ms D]"
               " [--trace-out FILE] [--scratch DIR]\n";
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cipbench;
#if !defined(NDEBUG) || !defined(CIPBENCH_RELEASE)
  (void)argc;
  (void)argv;
  std::cerr << "cipbench: refusing to measure a non-Release build\n";
  return 2;
#else
  RunOptions opts;
  std::string trace_out;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (a == "--inject-delay-ms") {
      opts.inject_delay_ms = std::strtod(v.c_str(), &end);
      if (*end != '\0' || opts.inject_delay_ms < 0) {
        return Usage("--inject-delay-ms takes a non-negative number");
      }
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--scratch") {
      opts.scratch_dir = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds are required");
  if (opts.scratch_dir.empty()) {
    opts.scratch_dir = "cipbench-scratch-" + std::to_string(opts.seed);
  }

  // CIP_THREADS is pinned by the caller; a budget above the core count
  // would measure oversubscription, not the program.
  const std::size_t cores = std::thread::hardware_concurrency();
  opts.threads = cip::ParallelThreads();
  if (cores > 0 && opts.threads > cores) {
    std::cerr << "cipbench: CIP_THREADS=" << opts.threads << " exceeds the "
              << cores << " cores of this host\n";
    return 2;
  }

  Report report;
  std::string definition;
  try {
    std::filesystem::create_directories(opts.scratch_dir);
    if (opts.workload == "cip_round") {
      definition = RunCipRound(opts, report);
    } else if (opts.workload == "fleet_churn") {
      definition = RunFleetChurn(opts, report);
    } else if (opts.workload == "serve_wire") {
      definition = RunServeWire(opts, report);
    } else {
      return Usage("unknown workload");
    }
    std::filesystem::remove_all(opts.scratch_dir);
  } catch (const std::exception& e) {
    std::filesystem::remove_all(opts.scratch_dir);
    std::cerr << "cipbench: " << opts.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  bool tuning = false;
  for (std::uint64_t s : kTuningSeeds) tuning = tuning || s == opts.seed;
  const char* env_threads = std::getenv("CIP_THREADS");
  std::ostringstream prov;
  prov << "{\"build\":\"Release\",\"cpus\":" << cores << ",\"cpu_model\":\""
       << CpuModel() << "\",\"isa\":\""
       << cip::IsaName(cip::ops::ActiveGemmIsa())
       << "\",\"cip_threads\":" << opts.threads << ",\"cip_threads_env\":\""
       << (env_threads != nullptr ? env_threads : "") << "\",\"seed\":"
       << opts.seed << ",\"seed_role\":\""
       << (tuning ? "tuning" : "held-out") << "\",\"traced\":"
       << (opts.trace ? "true" : "false")
       << ",\"inject_delay_ms\":" << JsonNum(opts.inject_delay_ms)
       << ",\"seconds\":" << JsonNum(opts.seconds)
       << ",\"workload\":" << definition << "}";
  std::cout << "provenance " << prov.str() << "\n";
  for (const std::string& p : report.problems) {
    std::cout << "WRONG OUTPUT: " << p << "\n";
  }
  if (opts.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    GlobalTrace().WriteChrome(out, prov.str());
    std::cout << "trace written to " << trace_out << " ("
              << GlobalTrace().size() << " spans)\n";
  }
  std::cout << report.ToJson() << std::endl;
  return report.correct ? 0 : 1;
#endif
}
