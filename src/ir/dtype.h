/**
 * @file
 * Scalar data types and tensor shapes for the compute-graph IR.
 */
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "support/logging.h"

namespace tlp::ir {

/** Element type of a tensor. */
enum class DataType : uint8_t { Float32 = 0, Float16 = 1, Int32 = 2, Int8 = 3 };

/** Bytes per element of @p dtype. */
int dtypeBytes(DataType dtype);

/** A tensor shape: a list of positive extents. */
using Shape = std::vector<int64_t>;

/** Total element count of @p shape (1 for rank-0). */
int64_t numElements(const Shape &shape);

/** Render e.g. "[1, 64, 56, 56]". */
std::string shapeToString(const Shape &shape);

/** Descriptor of a tensor value flowing through the graph. */
struct TensorDesc
{
    Shape shape;
    DataType dtype = DataType::Float32;

    /** Total bytes of the tensor. */
    int64_t bytes() const { return numElements(shape) * dtypeBytes(dtype); }

    bool operator==(const TensorDesc &other) const = default;
};

} // namespace tlp::ir
