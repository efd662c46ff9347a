/**
 * @file
 * Paper Table 7: MTL-TLP on GPUs. Target = Tesla T4 with a scarce
 * labeled subset; donor = Tesla K80 with all data. Paper: 0.7971 ->
 * 0.8876 top-1.
 */
#include <cstdio>

#include "bench/bench_common.h"

int
main()
{
    using namespace tlp::bench;
    std::printf("=== Table 7: MTL-TLP on GPU (target tesla-t4) ===\n");
    printMtlTable("Table 7 (target tesla-t4, scarce target labels)", "tasks",
                  {"tesla-t4", "tesla-k80"}, true,
                  {{"t4 scarce only", {}, 0.7971, 0.8984},
                   {"+ k80 (all)", {1}, 0.8876, 0.9373}});
    return 0;
}
