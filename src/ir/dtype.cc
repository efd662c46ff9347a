#include "ir/dtype.h"

namespace tlp::ir {

int
dtypeBytes(DataType dtype)
{
    switch (dtype) {
      case DataType::Float32: return 4;
      case DataType::Float16: return 2;
      case DataType::Int32:   return 4;
      case DataType::Int8:    return 1;
    }
    TLP_PANIC("unknown dtype");
}

int64_t
numElements(const Shape &shape)
{
    int64_t count = 1;
    for (int64_t extent : shape) {
        TLP_CHECK(extent > 0, "non-positive extent in shape");
        count *= extent;
    }
    return count;
}

std::string
shapeToString(const Shape &shape)
{
    std::string text = "[";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i > 0)
            text += ", ";
        text += std::to_string(shape[i]);
    }
    text += ']';
    return text;
}

} // namespace tlp::ir
