// FNV-1a, 64-bit: the digest every deterministic-replay check folds its
// observable state into. Integers are folded as their 8 little-endian
// bytes, so a digest is the same on every platform.
#pragma once

#include <cstddef>
#include <cstdint>

namespace heus::common {

class Fnv {
 public:
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) fold_byte((v >> (8 * i)) & 0xff);
  }
  void fold_bytes(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      fold_byte(static_cast<unsigned char>(s[i]));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void fold_byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace heus::common
