//===- ParseNumber.h - Strict numeric flag parsing --------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-text unsigned parsing for command-line flags. Unlike strtoul,
/// which accepts "-1" (wrapping it to the type's maximum), stops silently
/// at the first bad character and reads "abc" as 0, a value here is either
/// all digits within range or rejected, so the tool can exit with usage.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_SUPPORT_PARSENUMBER_H
#define LPA_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <string_view>
#include <system_error>

namespace lpa {

/// Parses all of \p Text as an unsigned decimal no larger than \p Max into
/// \p Out. Signs, empty text, trailing characters and overflow all fail;
/// \p Out is written only on success.
template <typename T>
bool parseUnsigned(std::string_view Text, T Max, T &Out) {
  T V{};
  auto [End, Err] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Err != std::errc() || End != Text.data() + Text.size() || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace lpa

#endif // LPA_SUPPORT_PARSENUMBER_H
