#ifndef SPARDL_COMMON_STRINGS_H_
#define SPARDL_COMMON_STRINGS_H_

#include <string>

namespace spardl {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a byte count with binary units ("1.5 MiB").
std::string HumanBytes(double bytes);

/// Formats a duration in seconds with an adaptive unit ("12.3 ms").
std::string HumanSeconds(double seconds);

}  // namespace spardl

#endif  // SPARDL_COMMON_STRINGS_H_
