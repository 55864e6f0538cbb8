// dmbench: the repository's end-to-end benchmark.
//
//   dmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--workdir <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// alternates plain ops with replays through the layers' public calls and
// reports the per-layer split. Exits 0 only when every output checked out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.h"

int main(int argc, char** argv) {
  dmbench::RunOptions options;
  options.workdir = ".bench_build/dmbench/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      std::fprintf(stderr, "dmbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || options.workload.empty()) {
    std::fprintf(stderr,
                 "usage: dmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  dmml::Result<dmbench::RunReport> report = dmbench::RunBenchmark(options);
  if (!report.ok()) {
    std::fprintf(stderr, "dmbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToJson().c_str());
  return report->correct ? 0 : 1;
}
