// The AIM benchmark: runs one workload for a fixed time and prints one JSON
// result line (see README.md).
//
//   aim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: aim_perfbench --workload "
               "<tpch_bootstrap|tpcc_online_tick|fleet_interval|tpch_extend> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aim::perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  std::vector<Metric> (*run)(const Args&, Tally*) = nullptr;
  if (args.workload == "tpch_bootstrap") run = RunTpchBootstrap;
  if (args.workload == "tpcc_online_tick") run = RunTpccOnlineTick;
  if (args.workload == "fleet_interval") run = RunFleetInterval;
  if (args.workload == "tpch_extend") run = RunTpchExtend;
  if (run == nullptr) return Usage();

  Tally tally;
  const std::vector<Metric> metrics = run(args, &tally);
  if (metrics.empty()) {
    std::fprintf(stderr, "workload %s did not run to its end\n",
                 args.workload.c_str());
    return 1;
  }
  PrintResult(tally, metrics);
  return 0;
}
