#include "interp/memory.h"

#include <cstring>

#include "support/check.h"

namespace spt::interp {

Memory::Memory(std::size_t size_bytes)
    : bytes_(static_cast<std::uint8_t*>(std::calloc(size_bytes, 1))),
      size_(size_bytes) {
  SPT_CHECK_MSG(bytes_ != nullptr, "interpreter memory allocation failed");
}

void Memory::checkAccess(std::uint64_t addr) const {
  SPT_CHECK_MSG(addr != 0, "null pointer dereference");
  SPT_CHECK_MSG(addr % 8 == 0, "unaligned 64-bit access");
  // Written so that an address near 2^64 cannot wrap past the bound.
  SPT_CHECK_MSG(size_ >= 8 && addr <= size_ - 8,
                "memory access out of bounds");
}

std::int64_t Memory::load64(std::uint64_t addr) const {
  checkAccess(addr);
  std::int64_t v;
  std::memcpy(&v, bytes_.get() + addr, 8);
  return v;
}

void Memory::store64(std::uint64_t addr, std::int64_t value) {
  checkAccess(addr);
  std::memcpy(bytes_.get() + addr, &value, 8);
}

std::uint64_t Memory::alloc(std::uint64_t bytes) {
  // Bounding `bytes` first rules out wrap-around in the rounding.
  const std::uint64_t room = brk_ <= size_ ? size_ - brk_ : 0;
  const std::uint64_t rounded = (bytes + 7) & ~7ull;
  SPT_CHECK_MSG(bytes <= room && rounded <= room, "interpreter heap overflow");
  const std::uint64_t base = brk_;
  brk_ += rounded;
  return base;
}

std::uint64_t Memory::hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (std::uint64_t i = 0; i < brk_ && i < size_; ++i) {
    h ^= bytes_[i];
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace spt::interp
