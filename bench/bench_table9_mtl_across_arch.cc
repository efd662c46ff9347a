/**
 * @file
 * Paper Table 9: which donor architecture helps the target most?
 * Target = Intel i7-10510U (x86). Paper shape: x86 donors (Platinum,
 * E5) help more than AMD (EPYC), which helps more than ARM (Graviton2).
 */
#include <cstdio>

#include "bench/bench_common.h"

int
main()
{
    using namespace tlp::bench;
    std::printf("=== Table 9: MTL donors across architectures "
                "(target i7-10510u) ===\n");
    printMtlTable("Table 9 (target i7-10510u + one donor, scarce target "
                  "labels)", "donor",
                  {"i7-10510u", "platinum-8272", "e5-2673", "epyc-7452",
                   "graviton2"}, false,
                  {{"platinum-8272 (x86)", {1}, 0.8413, 0.9202},
                   {"e5-2673 (x86)", {2}, 0.8331, 0.9672},
                   {"epyc-7452 (amd)", {3}, 0.8082, 0.9122},
                   {"graviton2 (arm)", {4}, 0.7711, 0.8909}});
    return 0;
}
