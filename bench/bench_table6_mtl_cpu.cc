/**
 * @file
 * Paper Table 6: MTL-TLP on CPUs. Target = Intel E5-2673 with a scarce
 * labeled subset ("500K"); donors are added one by one. Paper shape:
 * one-task scarce training is poor (0.6647); adding a donor helps a lot
 * (0.8741); a second donor helps a little more (0.8901); a third donor
 * starts to interfere (0.8753).
 */
#include <cstdio>

#include "bench/bench_common.h"

int
main()
{
    using namespace tlp::bench;
    std::printf("=== Table 6: MTL-TLP on CPU (target e5-2673) ===\n");
    printMtlTable("Table 6 (target e5-2673, scarce target labels)", "tasks",
                  {"e5-2673", "platinum-8272", "epyc-7452", "graviton2"},
                  false,
                  {{"e5 scarce only", {}, 0.6647, 0.8848},
                   {"+ platinum", {1}, 0.8741, 0.9385},
                   {"+ platinum + epyc", {1, 2}, 0.8901, 0.9520},
                   {"+ platinum + epyc + graviton", {1, 2, 3}, 0.8753,
                    0.9302}});
    return 0;
}
