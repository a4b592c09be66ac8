#ifndef FTMS_UTIL_ENV_H_
#define FTMS_UTIL_ENV_H_

#include <cstdint>

namespace ftms {

// Reads the integer environment knob `name` (FTMS_THREADS, ...). Unset or
// empty gives `fallback`. So does anything but a whole-string decimal in
// [min, max] — "abc", "12ms", " 5", "70000" for a port — after a logged
// warning, so a typo never becomes a surprising setting.
int64_t EnvInt(const char* name, int64_t fallback, int64_t min, int64_t max);

}  // namespace ftms

#endif  // FTMS_UTIL_ENV_H_
