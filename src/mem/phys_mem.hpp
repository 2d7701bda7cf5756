// Sparse simulated physical memory (DRAM) for one host.
//
// Pages materialize on first write; reads of untouched memory return zeroes,
// like freshly-allocated RAM. All DMA in the simulator ultimately lands
// here, so data-integrity tests observe exactly what a device would have
// written over the fabric.
//
// Pages are found through a two-level table: a directory of leaves, each
// mapping 512 pages (2 MiB). Leaves are allocated on the first write into
// their range and the directory grows to the highest leaf written. Callers
// that only pass bytes through reach the pages in place with visit() /
// visit_mut() instead of staging them in a temporary buffer.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace nvmeshare::mem {

class PhysMem {
 public:
  static constexpr std::uint64_t kPageSize = 4096;
  static constexpr std::uint64_t kLeafPages = 512;  ///< pages per leaf (2 MiB)

  /// A memory of `size` bytes starting at physical address 0.
  explicit PhysMem(std::uint64_t size) : size_(size) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Call `f(offset, span)` for each page-bounded piece of [addr, addr+len)
  /// in address order; `offset` is the piece's distance from `addr`. Holes
  /// are presented as zeroes and stay holes. Fails with out_of_range past
  /// the end, before calling `f` at all.
  template <typename F>
  Status visit(std::uint64_t addr, std::uint64_t len, F&& f) const {
    NVS_RETURN_IF_ERROR(check_range(addr, len, "phys read past end of DRAM"));
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t cur = addr + done;
      const std::uint64_t off = cur % kPageSize;
      const std::uint64_t n = std::min(len - done, kPageSize - off);
      f(done, ConstByteSpan(page_or_zero(cur / kPageSize) + off, n));
      done += n;
    }
    return Status::ok();
  }

  /// As visit(), but every page of the range is materialized and `f` gets
  /// a writable span, which it must overwrite whole (a fresh page that one
  /// span covers entirely is not zero-filled first).
  template <typename F>
  Status visit_mut(std::uint64_t addr, std::uint64_t len, F&& f) {
    NVS_RETURN_IF_ERROR(check_range(addr, len, "phys write past end of DRAM"));
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t cur = addr + done;
      const std::uint64_t off = cur % kPageSize;
      const std::uint64_t n = std::min(len - done, kPageSize - off);
      f(done, ByteSpan(materialize(cur / kPageSize, n == kPageSize) + off, n));
      done += n;
    }
    return Status::ok();
  }

  /// Copy bytes out of memory. Fails with out_of_range past the end.
  Status read(std::uint64_t addr, ByteSpan out) const;

  /// Copy bytes into memory.
  Status write(std::uint64_t addr, ConstByteSpan in);

  /// Append `len` bytes starting at `addr` to `out`.
  Status append_to(Bytes& out, std::uint64_t addr, std::uint64_t len) const;

  /// Copy `len` bytes from `src` at `src_addr` to `addr`, page to page.
  /// Both ranges are checked before anything is written; source holes
  /// arrive as zeroes and stay holes in `src`.
  Status copy_from(std::uint64_t addr, const PhysMem& src, std::uint64_t src_addr,
                   std::uint64_t len);

  /// Read a trivially-copyable value.
  template <typename T>
  [[nodiscard]] Result<T> read_pod(std::uint64_t addr) const {
    T v{};
    if (Status st = read(addr, as_writable_bytes_of(v)); !st) return st;
    return v;
  }

  /// Write a trivially-copyable value.
  template <typename T>
  Status write_pod(std::uint64_t addr, const T& v) {
    return write(addr, as_bytes_of(v));
  }

  /// Number of pages that have been materialized (for tests / footprint).
  [[nodiscard]] std::size_t resident_pages() const noexcept { return resident_; }

 private:
  using Page = std::array<std::byte, kPageSize>;
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  [[nodiscard]] Status check_range(std::uint64_t addr, std::uint64_t len,
                                   const char* what) const;
  /// The page's bytes, or a shared zero page for a hole.
  [[nodiscard]] const std::byte* page_or_zero(std::uint64_t page_index) const;
  /// The page's bytes, allocating it if it is a hole. A fresh page is
  /// zero-filled unless the caller is about to overwrite all of it.
  std::byte* materialize(std::uint64_t page_index, bool overwritten_whole);

  std::uint64_t size_;
  std::vector<std::unique_ptr<Leaf>> leaves_;  ///< directory, by page / kLeafPages
  std::size_t resident_ = 0;
};

}  // namespace nvmeshare::mem
