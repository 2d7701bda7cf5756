// Unit tests for common utilities: status/result, RNG, stats, byte helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "mem/phys_mem.hpp"

namespace nvmeshare {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::ok);
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st(Errc::not_found, "missing thing");
  EXPECT_FALSE(st.is_ok());
  EXPECT_FALSE(static_cast<bool>(st));
  EXPECT_EQ(st.to_string(), "not_found: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().is_ok());
  EXPECT_EQ(r.value_or(9), 5);
}

TEST(Result, HoldsError) {
  Result<int> r(Errc::timed_out, "too slow");
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.error_code(), Errc::timed_out);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(3);
  ASSERT_TRUE(r.has_value());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 3);
}

TEST(Units, LiteralsAndHelpers) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(2_ms, 2'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_EQ(div_ceil(9, 4), 3u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(Rng, UniformBoundIsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) samples.push_back(rng.lognormal(1000.0, 0.1));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 1000.0, 30.0);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(5);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(LatencyRecorder, PercentilesOnKnownData) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i * 1000);
  EXPECT_EQ(rec.min(), 1000);
  EXPECT_EQ(rec.max(), 100'000);
  EXPECT_NEAR(rec.percentile(50), 50'500, 1000);
  EXPECT_NEAR(rec.percentile(99), 99'010, 1000);
  EXPECT_NEAR(rec.mean(), 50'500, 1);
}

TEST(LatencyRecorder, SingleSample) {
  LatencyRecorder rec;
  rec.add(777);
  EXPECT_EQ(rec.min(), 777);
  EXPECT_EQ(rec.max(), 777);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 777.0);
  EXPECT_DOUBLE_EQ(rec.stddev(), 0.0);
}

TEST(LatencyRecorder, PercentileIsMonotonic) {
  LatencyRecorder rec;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) rec.add(static_cast<sim::Duration>(rng.uniform(1'000'000)));
  double prev = 0;
  for (double p = 0; p <= 100; p += 0.5) {
    const double v = rec.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(BoxSummary, FromRecorder) {
  LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.add(i * 10);
  auto box = BoxSummary::from("test", rec);
  EXPECT_EQ(box.count, 1000u);
  EXPECT_DOUBLE_EQ(box.min_us, 0.01);
  EXPECT_DOUBLE_EQ(box.max_us, 10.0);
  EXPECT_GT(box.p75_us, box.p25_us);
  EXPECT_GE(box.p99_us, box.p75_us);
  const std::string row = format_box_row(box);
  EXPECT_NE(row.find("test"), std::string::npos);
}

TEST(AsciiBoxplot, RendersOneLinePerBox) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i * 100);
  std::vector<BoxSummary> boxes{BoxSummary::from("a", rec), BoxSummary::from("b", rec)};
  const std::string out = render_ascii_boxplot(boxes);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);  // 2 boxes + axis
  EXPECT_NE(out.find('#'), std::string::npos);             // median marker
}

TEST(Bytes, PatternRoundTrip) {
  Bytes buf = make_pattern(4096, 0x1234);
  EXPECT_TRUE(check_pattern(buf, 0x1234));
  EXPECT_FALSE(check_pattern(buf, 0x1235));
  buf[100] ^= std::byte{1};
  EXPECT_FALSE(check_pattern(buf, 0x1234));
}

// The word-at-a-time kernel must produce the bytes of the original
// per-byte definition: byte i is byte i % 8 of mix(seed, i / 8).
TEST(Bytes, PatternMatchesPerByteReference) {
  auto reference = [](std::uint64_t seed, std::size_t i) {
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (i / 8 + 1));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return std::byte{static_cast<std::uint8_t>(x >> ((i % 8) * 8))};
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {4095, 4096, 65536});
  for (const std::uint64_t seed : {0ULL, 0x1234ULL, ~0ULL}) {
    for (const std::size_t n : lengths) {
      Bytes want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = reference(seed, i);
      EXPECT_EQ(make_pattern(n, seed), want) << "seed " << seed << " length " << n;
      EXPECT_TRUE(check_pattern(want, seed)) << "seed " << seed << " length " << n;
      if (n > 0) {
        want[n - 1] ^= std::byte{0x80};  // the last byte is checked too
        EXPECT_FALSE(check_pattern(want, seed)) << "seed " << seed << " length " << n;
      }
    }
  }
}

// Filling a buffer piece by piece at each piece's stream offset must give
// the bytes of one whole fill, whatever the split: pieces that start and end
// off the 8-byte word grid, one-byte pieces, and a short tail.
TEST(Bytes, PatternPiecewiseFillMatchesWholeFill) {
  constexpr std::size_t kLen = 3 * 4096 + 29;
  std::vector<std::vector<std::size_t>> splits = {
      {4096 - 13, 4096, 4096, 42},           // page pieces of a buffer at page offset 13
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},  // ragged head, then the rest
      {8, 8, 7, 9, 1},                       // on and off the word grid
      {kLen},                                // one piece
  };
  Rng rng(99);
  std::vector<std::size_t> random_split;
  for (std::size_t left = kLen; left > 0;) {
    const std::size_t n = std::min<std::size_t>(left, 1 + rng.uniform(700));
    random_split.push_back(n);
    left -= n;
  }
  splits.push_back(random_split);
  for (const std::uint64_t seed : {0ULL, 0x5eedULL, ~0ULL}) {
    const Bytes whole = make_pattern(kLen, seed);
    for (const auto& split : splits) {
      Bytes pieces(kLen, std::byte{0xEE});
      std::size_t off = 0;
      for (std::size_t i = 0; off < kLen; ++i) {
        const std::size_t n = i < split.size() ? std::min(split[i], kLen - off) : kLen - off;
        fill_pattern(ByteSpan(pieces).subspan(off, n), seed, off);
        EXPECT_TRUE(check_pattern(ConstByteSpan(whole).subspan(off, n), seed, off))
            << "seed " << seed << " offset " << off << " length " << n;
        off += n;
      }
      EXPECT_EQ(pieces, whole) << "seed " << seed << " split of " << split.size();
    }
  }
}

TEST(Bytes, PagewiseCheckCatchesOneFlippedByteInMiddlePage) {
  constexpr std::uint64_t kPage = mem::PhysMem::kPageSize;
  constexpr std::uint64_t kAddr = 3 * kPage + 100;  // pieces off the page grid
  constexpr std::uint64_t kLen = 5 * kPage;
  mem::PhysMem dram(1 * MiB);
  ASSERT_TRUE(dram.visit_mut(kAddr, kLen, [](std::uint64_t off, ByteSpan page) {
                    fill_pattern(page, 77, off);
                  }).is_ok());
  auto failing_pieces = [&] {
    std::vector<std::uint64_t> bad;
    EXPECT_TRUE(dram.visit(kAddr, kLen, [&](std::uint64_t off, ConstByteSpan page) {
                      if (!check_pattern(page, 77, off)) bad.push_back(off);
                    }).is_ok());
    return bad;
  };
  EXPECT_TRUE(failing_pieces().empty());
  Bytes whole(kLen);
  ASSERT_TRUE(dram.read(kAddr, whole).is_ok());
  EXPECT_TRUE(check_pattern(whole, 77));

  // Flip one bit in the third page-bounded piece.
  const std::uint64_t third = 2 * kPage - 100;  // offset of that piece
  Bytes b(1);
  ASSERT_TRUE(dram.read(kAddr + third + 1234, b).is_ok());
  b[0] ^= std::byte{0x10};
  ASSERT_TRUE(dram.write(kAddr + third + 1234, b).is_ok());
  EXPECT_EQ(failing_pieces(), std::vector<std::uint64_t>{third});
}

TEST(Bytes, TrimExpectationPassesOverHoles) {
  constexpr std::uint64_t kPage = mem::PhysMem::kPageSize;
  mem::PhysMem dram(1 * MiB);
  // Pages 1 and 3 hold zeroes that were written; 0, 2 and 4 are holes.
  ASSERT_TRUE(dram.write(kPage, Bytes(kPage)).is_ok());
  ASSERT_TRUE(dram.write(3 * kPage, Bytes(kPage)).is_ok());
  bool zero = true;
  bool pattern = false;
  ASSERT_TRUE(dram.visit(0, 5 * kPage, [&](std::uint64_t off, ConstByteSpan page) {
                    zero = zero && is_zero(page);
                    pattern = pattern || check_pattern(page, 5, off);
                  }).is_ok());
  EXPECT_TRUE(zero);
  EXPECT_FALSE(pattern);  // a pattern expectation does not pass over a hole
  EXPECT_EQ(dram.resident_pages(), 2u);

  ASSERT_TRUE(dram.write(2 * kPage + 9, Bytes{std::byte{1}}).is_ok());
  zero = true;
  ASSERT_TRUE(dram.visit(0, 5 * kPage, [&](std::uint64_t, ConstByteSpan page) {
                    zero = zero && is_zero(page);
                  }).is_ok());
  EXPECT_FALSE(zero);
}

TEST(Bytes, PatternsDifferAcrossSeeds) {
  Bytes a = make_pattern(64, 1);
  Bytes b = make_pattern(64, 2);
  EXPECT_NE(a, b);
}

TEST(Bytes, PodRoundTrip) {
  Bytes buf(16);
  store_pod(buf, std::uint64_t{0xdeadbeefcafef00d}, 4);
  EXPECT_EQ(load_pod<std::uint64_t>(buf, 4), 0xdeadbeefcafef00dULL);
}

TEST(Bytes, HexdumpTruncates) {
  Bytes buf(1024, std::byte{0xAB});
  const std::string dump = hexdump(buf, 32);
  EXPECT_NE(dump.find("ab ab"), std::string::npos);
  EXPECT_NE(dump.find("..."), std::string::npos);
}

}  // namespace
}  // namespace nvmeshare
