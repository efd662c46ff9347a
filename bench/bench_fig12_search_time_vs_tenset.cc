/**
 * @file
 * Paper Fig. 12: search time for each cost model to reach the quality
 * that the TenSet MLP attains with its full budget. Paper: TLP averages
 * 9.1x (CPU) / 3.0x (GPU) speedup over the TenSet MLP; MTL-TLP averages
 * 4.7x / 2.9x using only ~7% target data.
 */
#include "bench/bench_common.h"

int
main()
{
    using namespace tlp::bench;
    printSearchTimeFigure("Fig. 12", SearchBaseline::TensetMlp, {9.1, 4.7},
                          {3.0, 2.9});
    return 0;
}
