#include "common/bytes.hpp"

#include <algorithm>
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

/// Byte `pos` of stream `seed`: byte pos % 8 of word pos / 8.
std::byte pattern_byte(std::uint64_t seed, std::size_t pos) {
  return std::byte{static_cast<std::uint8_t>(pattern_word(seed, pos / 8) >> (8 * (pos % 8)))};
}

/// Walk stream bytes [offset, offset + n): `on_byte(i, b)` for the bytes
/// before the first and after the last whole stream word, `on_word(i, x)`
/// for each whole word (as stored), where `i` indexes the caller's buffer.
/// Stops at the first callback that returns false.
template <typename OnWord, typename OnByte>
bool walk_stream(std::size_t n, std::uint64_t seed, std::size_t offset, OnWord on_word,
                 OnByte on_byte) {
  std::size_t i = 0;
  for (; i < n && (offset + i) % 8 != 0; ++i) {
    if (!on_byte(i, pattern_byte(seed, offset + i))) return false;
  }
  for (std::size_t w = (offset + i) / 8; n - i >= 8; i += 8, ++w) {
    if (!on_word(i, as_le(pattern_word(seed, w)))) return false;
  }
  for (; i < n; ++i) {
    if (!on_byte(i, pattern_byte(seed, offset + i))) return false;
  }
  return true;
}
}  // namespace

void fill_pattern(ByteSpan dst, std::uint64_t seed, std::size_t offset) {
  walk_stream(
      dst.size(), seed, offset,
      [&](std::size_t i, std::uint64_t x) {
        std::memcpy(dst.data() + i, &x, 8);
        return true;
      },
      [&](std::size_t i, std::byte b) {
        dst[i] = b;
        return true;
      });
}

bool check_pattern(ConstByteSpan buf, std::uint64_t seed, std::size_t offset) {
  return walk_stream(
      buf.size(), seed, offset,
      [&](std::size_t i, std::uint64_t x) {
        std::uint64_t have;
        std::memcpy(&have, buf.data() + i, 8);
        return have == x;
      },
      [&](std::size_t i, std::byte b) { return buf[i] == b; });
}

bool is_zero(ConstByteSpan buf) {
  return std::all_of(buf.begin(), buf.end(), [](std::byte b) { return b == std::byte{0}; });
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
