// perfbench — the benchmark's load and measurement driver. perfbench/run.py
// builds it and runs one mode per workload:
//   perfbench live ...   closed-loop RSM clients against bgla_node replicas
//   perfbench sim ...    the simulated GWTS cluster over DeltaTransport
#include <cstring>
#include <iostream>

namespace perfbench {
int run_live(int argc, char** argv);
int run_sim(int argc, char** argv);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "live") == 0) {
    return perfbench::run_live(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "sim") == 0) {
    return perfbench::run_sim(argc - 1, argv + 1);
  }
  std::cerr << "usage: perfbench live|sim [flags]\n";
  return 2;
}
