#include "common/bytes.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

namespace nvmeshare {

namespace {
// Cheap counter-mode mixer: word w (bytes 8w..8w+7) of stream `seed` is
// mix(seed, w), stored little-endian.
std::uint64_t pattern_word(std::uint64_t seed, std::size_t w) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (w + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `x` as it reads when stored little-endian and loaded natively.
std::uint64_t as_le(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    return x;
  } else {
    std::uint64_t out = 0;
    for (int b = 0; b < 8; ++b) out = (out << 8) | ((x >> (8 * b)) & 0xff);
    return out;
  }
}
}  // namespace

void fill_pattern(ByteSpan dst, std::uint64_t seed) {
  const std::size_t words = dst.size() / 8;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t x = as_le(pattern_word(seed, w));
    std::memcpy(dst.data() + 8 * w, &x, 8);
  }
  const std::uint64_t tail = pattern_word(seed, words);
  for (std::size_t i = 8 * words; i < dst.size(); ++i) {
    dst[i] = std::byte{static_cast<std::uint8_t>(tail >> (8 * (i % 8)))};
  }
}

bool check_pattern(ConstByteSpan buf, std::uint64_t seed) {
  const std::size_t words = buf.size() / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x;
    std::memcpy(&x, buf.data() + 8 * w, 8);
    if (x != as_le(pattern_word(seed, w))) return false;
  }
  const std::uint64_t tail = pattern_word(seed, words);
  for (std::size_t i = 8 * words; i < buf.size(); ++i) {
    if (buf[i] != std::byte{static_cast<std::uint8_t>(tail >> (8 * (i % 8)))}) return false;
  }
  return true;
}

Bytes make_pattern(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  fill_pattern(out, seed);
  return out;
}

std::string hexdump(ConstByteSpan buf, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = buf.size() < max_bytes ? buf.size() : max_bytes;
  for (std::size_t base = 0; base < n; base += 16) {
    char line[80];
    int pos = std::snprintf(line, sizeof(line), "%08zx: ", base);
    for (std::size_t i = base; i < base + 16 && i < n; ++i) {
      pos += std::snprintf(line + pos, sizeof(line) - static_cast<std::size_t>(pos), "%02x ",
                           static_cast<unsigned>(buf[i]));
    }
    out += line;
    out += '\n';
  }
  if (n < buf.size()) out += "...\n";
  return out;
}

}  // namespace nvmeshare
