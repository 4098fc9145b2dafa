#include "proc_sampler.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "rewiring/maps_parser.h"

namespace perfbench {

namespace {

/// Value of the first line of `path` that starts with `key` (e.g. "Pss:"),
/// parsed as the integer after it. False when the file or key is missing.
bool ReadKeyedValue(const char* path, const char* key, uint64_t* out) {
  std::ifstream in(path);
  if (!in) return false;
  const size_t key_len = std::strlen(key);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      *out = std::strtoull(line.c_str() + key_len, nullptr, 10);
      return true;
    }
  }
  return false;
}

}  // namespace

bool SampleProc(ProcSample* out) {
  *out = ProcSample{};
  bool ok = ReadKeyedValue("/proc/self/smaps_rollup", "Pss:", &out->pss_kb);
  ok &= ReadKeyedValue("/proc/self/status", "VmPTE:", &out->pte_kb);
  ok &= ReadKeyedValue("/proc/self/io", "wchar:", &out->wchar);
  ok &= ReadKeyedValue("/proc/self/io", "syscw:", &out->syscw);
  out->vmas = vmsv::CountProcessVmas();
  ok &= out->vmas > 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    out->minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  } else {
    ok = false;
  }
  return ok;
}

}  // namespace perfbench
