#include "tofu/memory/bytes.h"

namespace tofu {

double ShardBytesForCut(const Shape& shape, int elem_size, int cut, int ways) {
  std::int64_t elems = 1;
  for (size_t d = 0; d < shape.size(); ++d) {
    std::int64_t extent = shape[d];
    if (static_cast<int>(d) == cut) {
      extent = (extent + ways - 1) / ways;
    }
    elems *= extent;
  }
  return static_cast<double>(elems) * static_cast<double>(elem_size);
}

}  // namespace tofu
