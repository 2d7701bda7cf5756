#include "nvme/block_store.hpp"

namespace nvmeshare::nvme {

BlockStore::BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size)
    : capacity_blocks_(capacity_blocks),
      block_size_(block_size),
      data_(capacity_blocks * block_size) {}

Status BlockStore::check_range(std::uint64_t slba, std::uint32_t nblocks) const {
  if (nblocks == 0) return Status(Errc::invalid_argument, "zero-length block access");
  if (slba + nblocks > capacity_blocks_ || slba + nblocks < slba) {
    return Status(Errc::out_of_range, "LBA range beyond namespace capacity");
  }
  return Status::ok();
}

Result<Bytes> BlockStore::read(std::uint64_t slba, std::uint32_t nblocks) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  const std::uint64_t len = static_cast<std::uint64_t>(nblocks) * block_size_;
  Bytes out;
  out.reserve(len);
  NVS_RETURN_IF_ERROR(data_.append_to(out, byte_of(slba), len));
  return out;
}

Status BlockStore::write(std::uint64_t slba, std::uint32_t nblocks, ConstByteSpan in) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (in.size() != static_cast<std::uint64_t>(nblocks) * block_size_) {
    return Status(Errc::invalid_argument, "buffer size mismatch");
  }
  if (pi_enabled_) {
    // Overwriting invalidates stored tuples; a PRACT write re-generates
    // them afterwards. Without this, a non-PRACT overwrite would leave a
    // stale tuple that a later check or scrub flags as a false mismatch.
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }
  return data_.write(byte_of(slba), in);
}

Status BlockStore::write_zeroes(std::uint64_t slba, std::uint32_t nblocks) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (pi_enabled_) {
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }
  return data_.discard(byte_of(slba), static_cast<std::uint64_t>(nblocks) * block_size_);
}

void BlockStore::format_with_pi(bool enabled) {
  pi_enabled_ = enabled;
  pi_.clear();
}

std::optional<integrity::ProtectionInfo> BlockStore::read_pi(std::uint64_t lba) const {
  if (!pi_enabled_) return std::nullopt;
  auto it = pi_.find(lba);
  if (it == pi_.end()) return std::nullopt;
  return it->second;
}

void BlockStore::write_pi(std::uint64_t lba, const integrity::ProtectionInfo& pi) {
  if (!pi_enabled_) return;
  pi_[lba] = pi;
}

Result<std::uint64_t> BlockStore::verify_stored_pi(std::uint64_t slba,
                                                   std::uint32_t nblocks) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (!pi_enabled_) return std::uint64_t{0};
  std::uint64_t mismatches = 0;
  for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) {
    auto it = pi_.find(lba);
    if (it == pi_.end()) continue;  // deallocated: checks disabled
    auto block = read(lba, 1);
    if (!block) return block.status();
    if (integrity::verify_pi(it->second, *block, lba, {}, it->second.app_tag) !=
        integrity::PiCheck::ok) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace nvmeshare::nvme
