/**
 * @file
 * Paper Fig. 13: search time for each cost model to reach the quality
 * that Ansor's online model attains with its full budget. Paper: TLP
 * averages 16.7x (CPU) / 16.0x (GPU); MTL-TLP 10.0x / 15.8x.
 */
#include "bench/bench_common.h"

int
main()
{
    using namespace tlp::bench;
    printSearchTimeFigure("Fig. 13", SearchBaseline::Ansor, {16.7, 10.0},
                          {16.0, 15.8});
    return 0;
}
