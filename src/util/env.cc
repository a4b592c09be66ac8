#include "util/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "util/log.h"

namespace ftms {

int64_t EnvInt(const char* name, int64_t fallback, int64_t min,
               int64_t max) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  const char* end = text + std::strlen(text);
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec == std::errc() && ptr == end && value >= min && value <= max) {
    return value;
  }
  FTMS_LOG(Warning) << name << "=\"" << text << "\" is not an integer in ["
                    << min << ", " << max << "]; using " << fallback;
  return fallback;
}

}  // namespace ftms
