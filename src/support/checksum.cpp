#include "support/checksum.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "support/parallel.hpp"

namespace dfg::support {

namespace {

constexpr std::uint64_t fold(std::uint64_t hash, std::uint64_t word) {
  return (hash ^ word) * kFnvPrime;
}

std::uint32_t word_at(const float* words, std::size_t i) {
  std::uint32_t word;
  std::memcpy(&word, &words[i], sizeof(word));
  return word;
}

/// Digest of one block: eight FNV-1a lanes (word i feeds lane i % 8), each
/// started from `seed` offset by its lane index, folded in lane order. The
/// lanes are named scalars rather than an array so the optimizer keeps all
/// eight in registers.
std::uint64_t hash_block(const float* words, std::size_t n,
                         std::uint64_t seed) {
  static_assert(kChecksumLanes == 8, "hash_block unrolls eight lanes");
  std::uint64_t h0 = seed, h1 = seed ^ 1, h2 = seed ^ 2, h3 = seed ^ 3;
  std::uint64_t h4 = seed ^ 4, h5 = seed ^ 5, h6 = seed ^ 6, h7 = seed ^ 7;
  std::size_t i = 0;
  for (; i + kChecksumLanes <= n; i += kChecksumLanes) {
    h0 = fold(h0, word_at(words, i + 0));
    h1 = fold(h1, word_at(words, i + 1));
    h2 = fold(h2, word_at(words, i + 2));
    h3 = fold(h3, word_at(words, i + 3));
    h4 = fold(h4, word_at(words, i + 4));
    h5 = fold(h5, word_at(words, i + 5));
    h6 = fold(h6, word_at(words, i + 6));
    h7 = fold(h7, word_at(words, i + 7));
  }
  std::uint64_t lanes[kChecksumLanes] = {h0, h1, h2, h3, h4, h5, h6, h7};
  for (std::size_t lane = 0; i < n; ++i, ++lane) {
    lanes[lane] = fold(lanes[lane], word_at(words, i));
  }
  std::uint64_t digest = seed;
  for (const std::uint64_t lane : lanes) digest = fold(digest, lane);
  return digest;
}

}  // namespace

std::uint64_t checksum_floats(std::span<const float> values,
                              std::uint64_t seed) {
  const std::uint64_t count = values.size();
  std::uint64_t hash = fnv1a(&count, sizeof(count), seed);
  const std::size_t n = values.size();
  if (n == 0) return hash;
  const std::size_t blocks =
      (n + kChecksumBlockWords - 1) / kChecksumBlockWords;
  if (blocks == 1) return fold(hash, hash_block(values.data(), n, seed));
  std::vector<std::uint64_t> digests(blocks);
  parallel_for(
      blocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t first = b * kChecksumBlockWords;
          digests[b] = hash_block(values.data() + first,
                                  std::min(kChecksumBlockWords, n - first),
                                  seed);
        }
      },
      /*grain=*/1);
  for (const std::uint64_t digest : digests) hash = fold(hash, digest);
  return hash;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) hash = fold(hash, p[i]);
  return hash;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) {
  return fnv1a(text.data(), text.size(), seed);
}

}  // namespace dfg::support
