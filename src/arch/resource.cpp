#include "arch/resource.hpp"

namespace rdse {

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kProcessor: return "processor";
    case ResourceKind::kAsic: return "asic";
    case ResourceKind::kReconfigurable: return "reconfigurable";
  }
  return "?";
}

}  // namespace rdse
