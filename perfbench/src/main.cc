// perfbench: the streamhull benchmark binary. perfbench/run.py builds it
// and passes:
//
//   perfbench --workload fleet_tick|window_churn|server_mixed|
//                        server_mixed_diameter --seed N
//             --seconds S --trace 0|1 [--daemon PATH] [--commit SHA]
//             [--inject diameter_ulp|extent_ulp|lost_events|ack_generation|nak]
//
// It prints a stamp line, one line per metric, and as its last line the
// JSON result. Exit code 0 only when every check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.h"
#include "geom/kernels.h"

namespace {

using namespace perfbench;

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();  // Drop the NUL padding.
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_tick|window_churn|"
               "server_mixed|server_mixed_diameter --seed N --seconds S --trace 0|1 "
               "[--daemon PATH] [--commit SHA] [--inject KIND]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--daemon") {
      args.daemon = v;
    } else if (flag == "--commit") {
      args.commit = v;
    } else if (flag == "--inject") {
      args.inject = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0 || args.seconds > 60) return Usage();

  const std::string stamp =
      "{\"workload\": \"" + JsonEscape(args.workload) +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") + ", \"cpu\": \"" +
      JsonEscape(CpuModel()) + "\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd\": \"" +
      streamhull::SimdIsaName(streamhull::ActiveSimdIsa()) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
      JsonEscape(__VERSION__) + "\", \"commit\": \"" +
      JsonEscape(args.commit) + "\"}";
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  Result result;
  if (args.workload == "fleet_tick") {
    RunFleetTick(args, &result);
  } else if (args.workload == "window_churn") {
    RunWindowChurn(args, &result);
  } else if (args.workload == "server_mixed" ||
             args.workload == "server_mixed_diameter") {
    RunServerMixed(args, &result);
  } else {
    return Usage();
  }
  if (args.trace) {
    WriteTraceFile(args.workload + "-seed" + std::to_string(args.seed) +
                       ".stamp.json",
                   stamp + "\n");
  }
  return result.Print(args);
}
