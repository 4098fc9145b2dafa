// vmsv_perfbench — runs one benchmark workload and prints its metrics.
//
//   vmsv_perfbench --workload drift_adapt --seed 1 --seconds 30 --trace 0
//                  [--work-dir DIR] [--spans FILE]
//
// Every metric is printed as a "# metric <name> <value> <unit>" line; the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exit status: 0 when every answer was correct, 1
// on a wrong answer or failed call, 2 on a usage or set-up error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: vmsv_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans FILE]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

void PrintMetricLines(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("# metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  auto result = perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "[perfbench] %s seed %llu: %s\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 result.status().ToString().c_str());
    return 2;
  }
  PrintMetricLines(result->end_to_end);
  PrintMetricLines(result->extra);
  PrintMetricLines(result->per_layer);

  const auto& reported = options.trace ? result->per_layer : result->end_to_end;
  std::string json = "{\"correct\": ";
  json += result->correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result->attempted);
  json += ", \"failed\": " + std::to_string(result->failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    const double v = std::isfinite(reported[i].value) ? reported[i].value : 0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + reported[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result->correct ? 0 : 1;
}
