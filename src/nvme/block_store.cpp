#include "nvme/block_store.hpp"

#include <algorithm>
#include <cstring>

namespace nvmeshare::nvme {

BlockStore::BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size)
    : capacity_blocks_(capacity_blocks), block_size_(block_size) {}

Status BlockStore::check_range(std::uint64_t slba, std::uint32_t nblocks) const {
  if (nblocks == 0) return Status(Errc::invalid_argument, "zero-length block access");
  if (slba + nblocks > capacity_blocks_ || slba + nblocks < slba) {
    return Status(Errc::out_of_range, "LBA range beyond namespace capacity");
  }
  return Status::ok();
}

template <typename F>
void BlockStore::for_each_piece(std::uint64_t slba, std::uint32_t nblocks, F&& f) const {
  const std::uint64_t bytes = static_cast<std::uint64_t>(nblocks) * block_size_;
  const std::uint64_t pos = slba * block_size_;
  for (std::uint64_t done = 0; done < bytes;) {
    const std::uint64_t off = (pos + done) % kChunkBytes;
    const std::uint64_t n = std::min(bytes - done, kChunkBytes - off);
    f(done, (pos + done) / kChunkBytes, off, n);
    done += n;
  }
}

Result<Bytes> BlockStore::read(std::uint64_t slba, std::uint32_t nblocks) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  Bytes out;
  out.reserve(static_cast<std::size_t>(nblocks) * block_size_);
  for_each_piece(slba, nblocks, [&](std::uint64_t, std::uint64_t chunk_idx,
                                    std::uint64_t off, std::uint64_t n) {
    auto it = chunks_.find(chunk_idx);
    if (it != chunks_.end()) {
      const auto* src = it->second.data() + off;
      out.insert(out.end(), src, src + n);
    } else {
      out.resize(out.size() + n);  // deallocated: reads as zeroes
    }
  });
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
  for_each_piece(slba, nblocks, [&](std::uint64_t done, std::uint64_t chunk_idx,
                                    std::uint64_t off, std::uint64_t n) {
    auto& chunk = chunks_[chunk_idx];
    if (chunk.empty() && n == kChunkBytes) {
      chunk.assign(in.begin() + done, in.begin() + done + n);  // no zero-fill first
      return;
    }
    if (chunk.empty()) chunk.assign(kChunkBytes, std::byte{0});
    std::memcpy(chunk.data() + off, in.data() + done, n);
  });
  return Status::ok();
}

Status BlockStore::write_zeroes(std::uint64_t slba, std::uint32_t nblocks) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (pi_enabled_) {
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }
  for_each_piece(slba, nblocks, [&](std::uint64_t, std::uint64_t chunk_idx, std::uint64_t off,
                                    std::uint64_t n) {
    auto it = chunks_.find(chunk_idx);
    if (it == chunks_.end()) return;
    if (n == kChunkBytes) {
      chunks_.erase(it);  // whole chunk zeroed -> drop it
    } else {
      std::memset(it->second.data() + off, 0, n);
    }
  });
  return Status::ok();
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
