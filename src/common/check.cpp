#include "common/check.hpp"

namespace msim::detail {

void check_failed(const char* expr, const char* file, int line) {
  throw CheckError(std::string("MSIM_CHECK failed: ") + expr + " at " + file + ":" +
                   std::to_string(line));
}

}  // namespace msim::detail
