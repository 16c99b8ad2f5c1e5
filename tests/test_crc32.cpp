// util::crc32 (slice-by-8) against the byte-at-a-time reference loop.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"

namespace rftc::util {
namespace {

/// The classic one-table CRC-32 (IEEE 802.3, reflected 0xEDB88320).
std::uint32_t reference_crc32(std::uint32_t crc, const unsigned char* p,
                              std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox.data(), fox.size()), 0x414FA339u);
}

struct CrcCase {
  std::vector<unsigned char> bytes;  // the buffer, with slack on both sides
  std::size_t offset = 0;            // misaligned start inside it
  std::size_t len = 0;
  std::size_t split = 0;             // crc32_update chaining point
  std::uint32_t seed_crc = 0;        // running value to start from
};

TEST(Crc32, SliceBy8MatchesByteLoop) {
  const pbt::Config cfg = pbt::Config::from_env(0xC4C32, 400);
  const bool ok = pbt::check<CrcCase>(
      "crc32_slice_by_8",
      [](pbt::Rng& rng) {
        CrcCase c;
        c.len = pbt::gen::size_in(rng, 0, 4096);
        c.offset = pbt::gen::size_in(rng, 0, 15);
        c.bytes.resize(c.offset + c.len + 16);
        for (unsigned char& b : c.bytes)
          b = static_cast<unsigned char>(rng.uniform(256));
        c.split = pbt::gen::size_in(rng, 0, c.len);
        c.seed_crc = rng.uniform(4) == 0 ? 0u
                                         : static_cast<std::uint32_t>(rng.next());
        return c;
      },
      [](const CrcCase& c) -> std::optional<std::string> {
        const unsigned char* p = c.bytes.data() + c.offset;
        const std::uint32_t want = reference_crc32(c.seed_crc, p, c.len);
        if (crc32_update(c.seed_crc, p, c.len) != want) return "one pass";
        const std::uint32_t head = crc32_update(c.seed_crc, p, c.split);
        if (crc32_update(head, p + c.split, c.len - c.split) != want)
          return "split at " + std::to_string(c.split);
        return std::nullopt;
      },
      cfg, {}, [](const CrcCase& c) {
        return "len=" + std::to_string(c.len) +
               " offset=" + std::to_string(c.offset) +
               " split=" + std::to_string(c.split);
      });
  EXPECT_TRUE(ok);
}

TEST(Crc32, SealedMessageHashesToTheResidue) {
  // A message followed by its own little-endian CRC-32 always hashes to the
  // CRC-32 residue — why a manifest must record the seal, not this.
  std::vector<unsigned char> blob{'r', 'f', 't', 'c'};
  const std::uint32_t seal = crc32(blob.data(), blob.size());
  for (int i = 0; i < 4; ++i)
    blob.push_back(static_cast<unsigned char>(seal >> (8 * i)));
  EXPECT_EQ(crc32(blob.data(), blob.size()), 0x2144DF1Cu);
}

}  // namespace
}  // namespace rftc::util
