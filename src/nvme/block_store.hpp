// Sparse backing store for one NVMe namespace. The bytes live in a
// mem::PhysMem (block 0 at address 0), so a mostly empty multi-hundred-GB
// namespace costs memory proportional to the 4 KiB pages actually written;
// unwritten blocks read as zeroes (matching a freshly formatted SSD with
// deallocated blocks).
//
// Formatted with protection information, the store additionally keeps one
// 8-byte DIF tuple per written block ("extended metadata", held out-of-band
// here). Deallocated blocks have no tuple: per spec, checks are skipped for
// them.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "integrity/integrity.hpp"
#include "mem/phys_mem.hpp"

namespace nvmeshare::nvme {

class BlockStore {
 public:
  BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size);

  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept { return capacity_blocks_; }
  [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }

  /// Read `nblocks` starting at `slba` into a new buffer, built page by
  /// page (nothing is zero-filled first).
  [[nodiscard]] Result<Bytes> read(std::uint64_t slba, std::uint32_t nblocks) const;
  /// Write `nblocks` starting at `slba`.
  Status write(std::uint64_t slba, std::uint32_t nblocks, ConstByteSpan in);
  /// Deallocate / zero a range (Write Zeroes). Drops stored PI: checks are
  /// disabled for deallocated blocks until they are written again.
  Status write_zeroes(std::uint64_t slba, std::uint32_t nblocks);

  // --- protection information ------------------------------------------------

  /// "Format with metadata": enable (or disable) per-block PI storage.
  /// Clears any stored tuples, like a real NVMe Format command would.
  void format_with_pi(bool enabled);
  [[nodiscard]] bool pi_enabled() const noexcept { return pi_enabled_; }

  /// Stored tuple for one block; nullopt if PI is off or the block was
  /// never written (deallocated).
  [[nodiscard]] std::optional<integrity::ProtectionInfo> read_pi(std::uint64_t lba) const;
  /// Store the tuple for one block (no-op unless formatted with PI).
  void write_pi(std::uint64_t lba, const integrity::ProtectionInfo& pi);

  /// Scrub back end: verify each written block's stored tuple against its
  /// stored data and return the number of mismatching blocks. Deallocated
  /// blocks are skipped.
  Result<std::uint64_t> verify_stored_pi(std::uint64_t slba, std::uint32_t nblocks) const;

  /// Resident 4 KiB pages of backing memory (for tests / footprint).
  [[nodiscard]] std::size_t resident_chunks() const noexcept { return data_.resident_pages(); }

 private:
  [[nodiscard]] Status check_range(std::uint64_t slba, std::uint32_t nblocks) const;
  [[nodiscard]] std::uint64_t byte_of(std::uint64_t lba) const noexcept {
    return lba * block_size_;
  }

  std::uint64_t capacity_blocks_;
  std::uint32_t block_size_;
  bool pi_enabled_ = false;
  mem::PhysMem data_;
  std::unordered_map<std::uint64_t, integrity::ProtectionInfo> pi_;  // lba -> tuple
};

}  // namespace nvmeshare::nvme
