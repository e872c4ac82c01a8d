// zibench — runs one benchmark workload and prints its result.
//
//   zibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check failed, 2 on bad arguments, 3
// when the run was too short to report a percentile (nothing is printed).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "zibench: " << why
            << "\nusage: zibench --workload <train_gpu|train_nvme|"
               "serve_nvme_batch|serve_gpu_poisson> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = perfbench::parse_workload(value);
        if (!w) return usage(("unknown workload " + value).c_str());
        opt.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  const perfbench::RunResult r = perfbench::run_workload(opt);
  for (const std::string& e : r.errors) std::cerr << "zibench: " << e << "\n";
  if (!r.refusals.empty()) {
    // A figure the contract requires could not be computed: no result.
    for (const std::string& e : r.refusals) {
      std::cerr << "zibench: " << e << "\n";
    }
    return 3;
  }

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::cout << "workload=" << perfbench::workload_name(opt.workload)
            << " seed=" << opt.seed << " setups=" << r.setups
            << (perfbench::is_train(opt.workload) ? " loss_digest="
                                                  : " token_digest=")
            << digest << "\n";
  if (!r.trace_file.empty()) {
    std::cout << "trace=" << r.trace_file.string() << "\n";
  }

  std::cout.precision(17);
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return r.correct ? 0 : 1;
}
