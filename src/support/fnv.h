// FNV-1a (64-bit), the checksum of every framed or persisted byte stream
// in the project: SPTW/SPTS frames (support/wire.h), journal lines
// (harness/journal.h), trace files (trace/trace_io.h) and plan
// fingerprints (spt/plan.h). Defined once so those checksums stay
// bit-identical to each other and to files already on disk.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spt::support {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds `n` bytes into the running hash `h` (start from kFnvOffset).
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

}  // namespace spt::support
