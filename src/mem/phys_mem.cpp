#include "mem/phys_mem.hpp"

#include <cstring>

namespace nvmeshare::mem {

namespace {
constexpr std::array<std::byte, PhysMem::kPageSize> kZeroPage{};
}  // namespace

Status PhysMem::check_range(std::uint64_t addr, std::uint64_t len, const char* what) const {
  if (len != 0 && (addr + len > size_ || addr + len < addr)) {
    return Status(Errc::out_of_range, what);
  }
  return Status::ok();
}

const std::byte* PhysMem::page_or_zero(std::uint64_t page_index) const {
  const std::uint64_t leaf = page_index / kLeafPages;
  if (leaf < leaves_.size() && leaves_[leaf]) {
    if (const Page* p = (*leaves_[leaf])[page_index % kLeafPages].get()) return p->data();
  }
  return kZeroPage.data();
}

std::byte* PhysMem::materialize(std::uint64_t page_index, bool overwritten_whole) {
  const std::uint64_t leaf = page_index / kLeafPages;
  if (leaf >= leaves_.size()) leaves_.resize(leaf + 1);
  if (!leaves_[leaf]) leaves_[leaf] = std::make_unique<Leaf>();
  auto& slot = (*leaves_[leaf])[page_index % kLeafPages];
  if (!slot) {
    slot = overwritten_whole ? std::make_unique_for_overwrite<Page>()
                             : std::make_unique<Page>();  // value-initialized: zeroes
    ++resident_;
  }
  return slot->data();
}

Status PhysMem::read(std::uint64_t addr, ByteSpan out) const {
  return visit(addr, out.size(), [&](std::uint64_t off, ConstByteSpan page) {
    std::memcpy(out.data() + off, page.data(), page.size());
  });
}

Status PhysMem::write(std::uint64_t addr, ConstByteSpan in) {
  return visit_mut(addr, in.size(), [&](std::uint64_t off, ByteSpan page) {
    std::memcpy(page.data(), in.data() + off, page.size());
  });
}

Status PhysMem::append_to(Bytes& out, std::uint64_t addr, std::uint64_t len) const {
  return visit(addr, len, [&](std::uint64_t, ConstByteSpan page) {
    out.insert(out.end(), page.begin(), page.end());
  });
}

Status PhysMem::discard(std::uint64_t addr, std::uint64_t len) {
  NVS_RETURN_IF_ERROR(check_range(addr, len, "phys discard past end of DRAM"));
  for_each_page(addr, len, [&](std::uint64_t, std::uint64_t page_index, std::uint64_t off,
                               std::uint64_t n) {
    const std::uint64_t leaf = page_index / kLeafPages;
    if (leaf >= leaves_.size() || !leaves_[leaf]) return;
    auto& slot = (*leaves_[leaf])[page_index % kLeafPages];
    if (!slot) return;
    if (n == kPageSize) {
      slot.reset();
      --resident_;
    } else {
      std::memset(slot->data() + off, 0, n);
    }
  });
  return Status::ok();
}

Status PhysMem::copy_from(std::uint64_t addr, const PhysMem& src, std::uint64_t src_addr,
                          std::uint64_t len) {
  NVS_RETURN_IF_ERROR(src.check_range(src_addr, len, "phys read past end of DRAM"));
  return visit_mut(addr, len, [&](std::uint64_t off, ByteSpan dst) {
    // A destination piece spans at most two source pages. memmove: within
    // one memory the two ranges may share a page.
    (void)src.visit(src_addr + off, dst.size(), [&](std::uint64_t o, ConstByteSpan s) {
      std::memmove(dst.data() + o, s.data(), s.size());
    });
  });
}

}  // namespace nvmeshare::mem
