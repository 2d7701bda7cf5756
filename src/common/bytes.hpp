// Byte-buffer helpers used by the data-integrity test suite and examples:
// deterministic pattern generation/verification and struct<->byte plumbing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace nvmeshare {

using Byte = std::byte;
using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<std::byte>;
using ConstByteSpan = std::span<const std::byte>;

/// Fill `dst` with bytes [offset, offset + dst.size()) of a deterministic
/// pattern stream derived from `seed`. Two buffers filled with the same seed
/// compare equal; different seeds differ with overwhelming probability.
/// Filling the pieces of a buffer at their offsets gives the same bytes as
/// filling it whole.
void fill_pattern(ByteSpan dst, std::uint64_t seed, std::size_t offset = 0);

/// True iff `buf` holds exactly what fill_pattern(buf, seed, offset) writes.
[[nodiscard]] bool check_pattern(ConstByteSpan buf, std::uint64_t seed,
                                 std::size_t offset = 0);

/// True iff every byte of `buf` is zero.
[[nodiscard]] bool is_zero(ConstByteSpan buf);

/// Allocate a buffer of `n` bytes pre-filled with pattern `seed`.
[[nodiscard]] Bytes make_pattern(std::size_t n, std::uint64_t seed);

/// Hexdump (offset + 16 bytes per line) of at most `max_bytes`.
[[nodiscard]] std::string hexdump(ConstByteSpan buf, std::size_t max_bytes = 256);

/// Copy a trivially-copyable value out of / into a byte range.
template <typename T>
[[nodiscard]] T load_pod(ConstByteSpan src, std::size_t offset = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  T out{};
  std::memcpy(&out, src.data() + offset, sizeof(T));
  return out;
}

template <typename T>
void store_pod(ByteSpan dst, const T& value, std::size_t offset = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(dst.data() + offset, &value, sizeof(T));
}

/// View a trivially-copyable object as const bytes.
template <typename T>
[[nodiscard]] ConstByteSpan as_bytes_of(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::byte*>(&value), sizeof(T)};
}

template <typename T>
[[nodiscard]] ByteSpan as_writable_bytes_of(T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<std::byte*>(&value), sizeof(T)};
}

}  // namespace nvmeshare
