#include "support/error.hpp"

#include <sstream>

namespace cellstream::detail {

void throw_error(const char* file, int line, const char* expr,
                 const std::string& message) {
  std::ostringstream os;
  os << expr << " failed at " << file << ":" << line;
  throw Error(message, os.str());
}

}  // namespace cellstream::detail
