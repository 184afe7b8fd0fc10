// fastz_perfbench: the repository benchmark (see perfbench/README.md).
//
//   fastz_perfbench --workload nematode_pair|service_zipf
//                   --seed N --seconds S --trace 0|1 [--latency-limit-ms L]
//   fastz_perfbench --selftest
//
// The last stdout line of a workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when any
// output fails verification.
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

const std::map<std::string, std::function<Report(const Options&)>>& workloads() {
  static const std::map<std::string, std::function<Report(const Options&)>> table = {
      {"nematode_pair", perfbench::run_nematode_pair},
      {"service_zipf", perfbench::run_service_zipf},
  };
  return table;
}

// Tiny-scale smoke of every workload, traced and untraced, plus the
// verifiers' negative checks.
int selftest(Options options) {
  options.tiny = true;
  options.seconds = 1.0;
  int failures = 0;
  for (const auto& [name, run] : workloads()) {
    for (const bool trace : {false, true}) {
      options.workload = name;
      options.trace = trace;
      const Report report = run(options);
      const bool ok = report.correct() && report.failed() == 0 && report.attempted() > 0;
      std::cout << "selftest " << name << (trace ? " traced" : "") << ": "
                << (ok ? "ok" : "FAILED") << " (" << report.attempted() << " attempted, "
                << report.failed() << " failed)\n";
      if (!ok) report.print(std::cout);
      failures += ok ? 0 : 1;
    }
  }
  failures += perfbench::verifier_negative_checks();
  std::cout << (failures == 0 ? "selftest: ok" : "selftest: FAILED") << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool run_selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--latency-limit-ms") {
        options.latency_limit_ms = std::stod(value());
      } else if (arg == "--trace-dir") {
        options.trace_dir = value();
      } else if (arg == "--selftest") {
        run_selftest = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (run_selftest) return selftest(options);
    const auto it = workloads().find(options.workload);
    if (it == workloads().end()) {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    const Report report = it->second(options);
    report.print(std::cout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fastz_perfbench: " << e.what() << std::endl;
    return 2;
  }
}
