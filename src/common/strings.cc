#include "common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace spardl {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f %s", bytes, kUnits[unit]);
}

std::string HumanSeconds(double seconds) {
  if (seconds >= 1.0) return StrFormat("%.3f s", seconds);
  if (seconds >= 1e-3) return StrFormat("%.3f ms", seconds * 1e3);
  if (seconds >= 1e-6) return StrFormat("%.3f us", seconds * 1e6);
  return StrFormat("%.1f ns", seconds * 1e9);
}

}  // namespace spardl
