// Unit tests for the memory substrate: sparse DRAM, range allocator, IOMMU.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.hpp"
#include "mem/allocator.hpp"
#include "mem/iommu.hpp"
#include "mem/phys_mem.hpp"

namespace nvmeshare::mem {
namespace {

TEST(PhysMem, ReadsZeroBeforeWrite) {
  PhysMem m(1 * MiB);
  Bytes buf(64, std::byte{0xFF});
  ASSERT_TRUE(m.read(1234, buf).is_ok());
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(PhysMem, WriteReadRoundTrip) {
  PhysMem m(1 * MiB);
  Bytes data = make_pattern(300, 42);
  ASSERT_TRUE(m.write(5000, data).is_ok());
  Bytes out(300);
  ASSERT_TRUE(m.read(5000, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem m(1 * MiB);
  Bytes data = make_pattern(3 * 4096, 7);
  const std::uint64_t addr = 4096 - 17;  // straddles three pages
  ASSERT_TRUE(m.write(addr, data).is_ok());
  Bytes out(data.size());
  ASSERT_TRUE(m.read(addr, out).is_ok());
  EXPECT_EQ(data, out);
  EXPECT_EQ(m.resident_pages(), 4u);
}

TEST(PhysMem, OutOfRangeRejected) {
  PhysMem m(8192);
  Bytes buf(64);
  EXPECT_EQ(m.read(8192 - 32, buf).code(), Errc::out_of_range);
  EXPECT_EQ(m.write(8192 - 32, buf).code(), Errc::out_of_range);
  EXPECT_TRUE(m.read(8192 - 64, buf).is_ok());
}

TEST(PhysMem, PodHelpers) {
  PhysMem m(1 * MiB);
  ASSERT_TRUE(m.write_pod(100, std::uint32_t{0xabcd1234}).is_ok());
  auto v = m.read_pod<std::uint32_t>(100);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xabcd1234u);
}

// --- page table edges --------------------------------------------------------------

constexpr std::uint64_t kLeafBytes = PhysMem::kLeafPages * PhysMem::kPageSize;  // 2 MiB

TEST(PhysMemPageTable, AccessStraddlesLeafBoundary) {
  PhysMem m(8 * MiB);
  Bytes data = make_pattern(64, 11);
  const std::uint64_t addr = kLeafBytes - 17;  // last page of leaf 0, first of leaf 1
  ASSERT_TRUE(m.write(addr, data).is_ok());
  EXPECT_EQ(m.resident_pages(), 2u);
  Bytes out(data.size());
  ASSERT_TRUE(m.read(addr, out).is_ok());
  EXPECT_EQ(out, data);
  Bytes appended{std::byte{0xAA}};
  ASSERT_TRUE(m.append_to(appended, addr, data.size()).is_ok());
  ASSERT_EQ(appended.size(), 1 + data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), appended.begin() + 1));
}

TEST(PhysMemPageTable, LastPageOfOddSizedMemory) {
  // 3 MiB + 5 pages + 100 bytes: the last leaf is partial, the last page short.
  const std::uint64_t size = 3 * MiB + 5 * PhysMem::kPageSize + 100;
  PhysMem m(size);
  Bytes tail = make_pattern(100, 5);
  ASSERT_TRUE(m.write(size - 100, tail).is_ok());
  EXPECT_EQ(m.resident_pages(), 1u);
  Bytes out(100);
  ASSERT_TRUE(m.read(size - 100, out).is_ok());
  EXPECT_EQ(out, tail);
  Bytes one(1);
  EXPECT_EQ(m.read(size, one).code(), Errc::out_of_range);
  EXPECT_EQ(m.write(size - 99, out).code(), Errc::out_of_range);
  EXPECT_EQ(m.resident_pages(), 1u);
}

TEST(PhysMemPageTable, HolesReadAsZeroWithoutMaterializing) {
  PhysMem m(16 * MiB);
  ASSERT_TRUE(m.write(5 * kLeafBytes + 8, make_pattern(8, 1)).is_ok());
  ASSERT_EQ(m.resident_pages(), 1u);
  // A hole in an allocated leaf, a hole in a never-touched leaf, and a
  // hole beyond the highest leaf ever written.
  for (const std::uint64_t addr : {5 * kLeafBytes + 3 * PhysMem::kPageSize, kLeafBytes,
                                   7 * kLeafBytes + 40}) {
    Bytes buf(3 * PhysMem::kPageSize, std::byte{0xFF});
    ASSERT_TRUE(m.read(addr, buf).is_ok());
    EXPECT_TRUE(is_zero(buf)) << addr;
    Bytes appended;
    ASSERT_TRUE(m.append_to(appended, addr, 5000).is_ok());
    EXPECT_EQ(appended.size(), 5000u);
    EXPECT_TRUE(is_zero(appended)) << addr;
    std::uint64_t visited = 0;
    ASSERT_TRUE(m.visit(addr, 9000, [&](std::uint64_t off, ConstByteSpan page) {
                   EXPECT_EQ(off, visited);
                   EXPECT_TRUE(is_zero(page));
                   visited += page.size();
                 }).is_ok());
    EXPECT_EQ(visited, 9000u);
  }
  EXPECT_EQ(m.resident_pages(), 1u);
}

TEST(PhysMemPageTable, ResidentPagesAfterCrossPageWrites) {
  PhysMem m(8 * MiB);
  ASSERT_TRUE(m.write(PhysMem::kPageSize - 1, Bytes(2)).is_ok());  // pages 0 and 1
  EXPECT_EQ(m.resident_pages(), 2u);
  ASSERT_TRUE(m.write(10, Bytes(PhysMem::kPageSize)).is_ok());  // pages 0 and 1 again
  EXPECT_EQ(m.resident_pages(), 2u);
  ASSERT_TRUE(m.write(kLeafBytes - PhysMem::kPageSize, Bytes(2 * PhysMem::kPageSize + 1))
                  .is_ok());  // pages 511, 512 and 513: two leaves
  EXPECT_EQ(m.resident_pages(), 5u);
  // Writing zeroes still materializes, exactly like any other write.
  ASSERT_TRUE(m.write(6 * MiB, Bytes(1)).is_ok());
  EXPECT_EQ(m.resident_pages(), 6u);
}

TEST(PhysMemPageTable, CopyOverSourceHoleMaterializesOnlyDestination) {
  PhysMem src(8 * MiB);
  PhysMem dst(8 * MiB);
  const std::uint64_t src_addr = kLeafBytes - PhysMem::kPageSize - 300;
  Bytes head = make_pattern(300, 21);
  ASSERT_TRUE(src.write(src_addr, head).is_ok());  // page 510 only; 511.. are holes
  ASSERT_EQ(src.resident_pages(), 1u);
  ASSERT_TRUE(dst.write(100, make_pattern(4 * PhysMem::kPageSize, 22)).is_ok());
  const std::uint64_t dst_before = dst.resident_pages();

  const std::uint64_t len = 300 + 2 * PhysMem::kPageSize + 50;
  ASSERT_TRUE(dst.copy_from(100, src, src_addr, len).is_ok());
  EXPECT_EQ(src.resident_pages(), 1u);
  EXPECT_EQ(dst.resident_pages(), dst_before);  // already resident, overwritten
  Bytes got(len);
  ASSERT_TRUE(dst.read(100, got).is_ok());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), got.begin()));
  EXPECT_TRUE(is_zero(ConstByteSpan(got).subspan(head.size())));

  // Into fresh memory: the destination range's pages materialize, as a
  // write would; the source hole stays a hole.
  PhysMem fresh(8 * MiB);
  ASSERT_TRUE(fresh.copy_from(3 * MiB + 7, src, src_addr, len).is_ok());
  EXPECT_EQ(fresh.resident_pages(), 3u);
  EXPECT_EQ(src.resident_pages(), 1u);
}

TEST(PhysMemPageTable, CopyOutOfRangeLeavesDestinationUntouched) {
  PhysMem src(1 * MiB);
  PhysMem dst(1 * MiB);
  ASSERT_TRUE(src.write(0, make_pattern(8192, 3)).is_ok());
  Bytes before = make_pattern(8192, 4);
  ASSERT_TRUE(dst.write(0, before).is_ok());
  EXPECT_EQ(dst.copy_from(0, src, 1 * MiB - 4096, 8192).code(), Errc::out_of_range);
  EXPECT_EQ(dst.copy_from(1 * MiB - 4096, src, 0, 8192).code(), Errc::out_of_range);
  EXPECT_EQ(dst.copy_from(0, src, ~0ULL - 10, 100).code(), Errc::out_of_range);
  Bytes after(8192);
  ASSERT_TRUE(dst.read(0, after).is_ok());
  EXPECT_EQ(after, before);
  EXPECT_EQ(dst.resident_pages(), 2u);
}

TEST(PhysMemDiscard, WholePageBecomesAHoleAgain) {
  PhysMem m(8 * MiB);
  ASSERT_TRUE(m.write(0, make_pattern(3 * PhysMem::kPageSize, 30)).is_ok());
  ASSERT_EQ(m.resident_pages(), 3u);
  ASSERT_TRUE(m.discard(PhysMem::kPageSize, PhysMem::kPageSize).is_ok());
  EXPECT_EQ(m.resident_pages(), 2u);
  Bytes middle(PhysMem::kPageSize, std::byte{0xFF});
  ASSERT_TRUE(m.read(PhysMem::kPageSize, middle).is_ok());
  EXPECT_TRUE(is_zero(middle));
  // Discarding holes, inside and beyond the directory, changes nothing.
  ASSERT_TRUE(m.discard(PhysMem::kPageSize, PhysMem::kPageSize).is_ok());
  ASSERT_TRUE(m.discard(3 * kLeafBytes, kLeafBytes).is_ok());
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(PhysMemDiscard, PartialPageZeroesOnlyItsRange) {
  PhysMem m(8 * MiB);
  const Bytes data = make_pattern(2 * PhysMem::kPageSize, 31);
  ASSERT_TRUE(m.write(0, data).is_ok());
  // The tail of page 0 and the head of page 1: neither page is covered whole.
  ASSERT_TRUE(m.discard(PhysMem::kPageSize - 100, 300).is_ok());
  EXPECT_EQ(m.resident_pages(), 2u);
  Bytes got(data.size());
  ASSERT_TRUE(m.read(0, got).is_ok());
  Bytes want = data;
  std::fill_n(want.begin() + PhysMem::kPageSize - 100, 300, std::byte{0});
  EXPECT_EQ(got, want);
}

TEST(PhysMemDiscard, OutOfRangeDiscardsNothing) {
  PhysMem m(1 * MiB);
  ASSERT_TRUE(m.write(1 * MiB - PhysMem::kPageSize, Bytes(PhysMem::kPageSize)).is_ok());
  EXPECT_EQ(m.discard(1 * MiB - PhysMem::kPageSize, 2 * PhysMem::kPageSize).code(),
            Errc::out_of_range);
  EXPECT_EQ(m.resident_pages(), 1u);
}

TEST(RangeAllocator, AllocatesAligned) {
  RangeAllocator a(0x1000, 1 * MiB);
  auto p = a.alloc(100, 256);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p % 256, 0u);
  EXPECT_GE(*p, 0x1000u);
}

TEST(RangeAllocator, ExhaustsAndRecovers) {
  RangeAllocator a(0, 4096);
  auto p1 = a.alloc(4096, 1);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(a.alloc(1, 1).error_code(), Errc::resource_exhausted);
  ASSERT_TRUE(a.free(*p1).is_ok());
  EXPECT_TRUE(a.alloc(4096, 1).has_value());
}

TEST(RangeAllocator, CoalescesFreedNeighbors) {
  RangeAllocator a(0, 3 * 4096);
  auto p1 = a.alloc(4096, 4096);
  auto p2 = a.alloc(4096, 4096);
  auto p3 = a.alloc(4096, 4096);
  ASSERT_TRUE(p1 && p2 && p3);
  ASSERT_TRUE(a.free(*p1).is_ok());
  ASSERT_TRUE(a.free(*p3).is_ok());
  ASSERT_TRUE(a.free(*p2).is_ok());  // middle free must merge all three
  EXPECT_TRUE(a.alloc(3 * 4096, 1).has_value());
}

TEST(RangeAllocator, DoubleFreeRejected) {
  RangeAllocator a(0, 4096);
  auto p = a.alloc(64, 64);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(a.free(*p).is_ok());
  EXPECT_EQ(a.free(*p).code(), Errc::not_found);
}

TEST(RangeAllocator, BadArgsRejected) {
  RangeAllocator a(0, 4096);
  EXPECT_EQ(a.alloc(0, 64).error_code(), Errc::invalid_argument);
  EXPECT_EQ(a.alloc(64, 3).error_code(), Errc::invalid_argument);  // non-pow2
}

TEST(RangeAllocator, AccountsBytes) {
  RangeAllocator a(0, 8192);
  EXPECT_EQ(a.bytes_free(), 8192u);
  auto p = a.alloc(100, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.bytes_used(), 100u);
  ASSERT_TRUE(a.free(*p).is_ok());
  EXPECT_EQ(a.bytes_free(), 8192u);
}

TEST(Iommu, MapTranslateUnmap) {
  Iommu iommu;
  auto cost = iommu.map(0x10000, 0x8000, 8192);
  ASSERT_TRUE(cost.has_value());
  EXPECT_GT(*cost, 0);
  auto t = iommu.translate(0x10000 + 5000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x8000u + 5000u);
  auto uncost = iommu.unmap(0x10000);
  ASSERT_TRUE(uncost.has_value());
  EXPECT_EQ(iommu.translate(0x10000).error_code(), Errc::unmapped_address);
}

TEST(Iommu, RejectsOverlap) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(0x10000, 0x8000, 8192).has_value());
  EXPECT_EQ(iommu.map(0x11000, 0x20000, 4096).error_code(), Errc::already_exists);
  EXPECT_EQ(iommu.map(0xF000, 0x20000, 8192).error_code(), Errc::already_exists);
  EXPECT_TRUE(iommu.map(0x12000, 0x20000, 4096).has_value());
}

TEST(Iommu, RejectsMisaligned) {
  Iommu iommu;
  EXPECT_EQ(iommu.map(0x10001, 0x8000, 4096).error_code(), Errc::invalid_argument);
  EXPECT_EQ(iommu.map(0x10000, 0x8001, 4096).error_code(), Errc::invalid_argument);
  EXPECT_EQ(iommu.map(0x10000, 0x8000, 0).error_code(), Errc::invalid_argument);
}

TEST(Iommu, CostIsAffineInPages) {
  Iommu::Config cfg;
  Iommu iommu(cfg);
  auto one = iommu.map(0x100000, 0, 4096);
  auto four = iommu.map(0x200000, 0x10000, 4 * 4096);
  ASSERT_TRUE(one && four);
  // Fixed setup cost plus a per-page term: four pages cost three extra
  // PTE stores over one page, not 4x the total.
  EXPECT_EQ(*four - *one, 3 * cfg.map_per_page_ns);
  EXPECT_EQ(*one, cfg.map_fixed_ns + cfg.map_per_page_ns);

  auto unmap_one = iommu.unmap(0x100000);
  auto unmap_four = iommu.unmap(0x200000);
  ASSERT_TRUE(unmap_one && unmap_four);
  // Teardown is dominated by the single range invalidation.
  EXPECT_EQ(*unmap_four - *unmap_one, 3 * cfg.unmap_per_page_ns);
}

TEST(Iommu, TranslationAtBoundaries) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(0x10000, 0x8000, 4096).has_value());
  EXPECT_TRUE(iommu.translate(0x10000).has_value());
  EXPECT_TRUE(iommu.translate(0x10FFF).has_value());
  EXPECT_FALSE(iommu.translate(0x11000).has_value());
  EXPECT_FALSE(iommu.translate(0xFFFF).has_value());
}

}  // namespace
}  // namespace nvmeshare::mem
