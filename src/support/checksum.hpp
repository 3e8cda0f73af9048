// Seeded FNV-1a checksums.
//
// The command queue does not use these: it verifies each transfer by
// comparing the copy with its source bit for bit (vcl::copy_verified),
// which needs no digest. checksum_floats stays for the benches and
// perfbench, which time it as a block-parallel pass over a field, and
// fnv1a hashes labels and keys. FNV-1a costs one xor and one multiply per
// word, like the cheap non-cryptographic checksums production transports
// use.
//
// `checksum_floats` covers every word and is laid out for throughput:
//   * the words are split into fixed blocks of kChecksumBlockWords; the
//     block size is a constant, so the digest never depends on how many
//     workers hash the blocks (support::parallel_for, one block per
//     grain; an array of one block or less is hashed inline);
//   * inside a block, word i feeds lane i % kChecksumLanes: eight
//     independent FNV-1a accumulators, so the multiplies overlap instead
//     of forming one serial dependency chain;
//   * the lanes fold, in lane order, into a block digest, and the block
//     digests fold, in block order, after the word count.
// Every step and every fold is `(h ^ x) * kFnvPrime`. For a fixed state
// that map is injective in x, and for a fixed x it is a bijection of the
// state (the prime is odd), so a change confined to one word changes its
// lane, hence its block digest, hence the digest — with certainty, at any
// extent. Two buffers collide only if they differ in 2+ compensating
// words (odds ~2^-64 for random corruption); mixing the count first keeps
// a truncated buffer from colliding with its prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace dfg::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Words per independently hashed block of checksum_floats (64 Ki words,
/// 256 KiB). A multiple of kChecksumLanes, so a word's lane is its global
/// index modulo the lane count.
inline constexpr std::size_t kChecksumBlockWords = std::size_t{1} << 16;
/// Interleaved FNV-1a accumulators per block.
inline constexpr std::size_t kChecksumLanes = 8;

/// FNV-1a over raw bytes, starting from `seed` (chain calls to checksum a
/// logical record spread over several buffers).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = kFnvOffsetBasis);

/// FNV-1a over a string (run keys, labels).
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t seed = kFnvOffsetBasis);

/// A string literal must hash as text, not fall into the (pointer, byte
/// count) overload with the seed misread as a length.
inline std::uint64_t fnv1a(const char* text,
                           std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a(std::string_view(text), seed);
}

/// Block-parallel, 8-lane FNV-1a over every word of a float array (layout
/// above). The digest depends only on the words, their count and `seed`.
std::uint64_t checksum_floats(std::span<const float> values,
                              std::uint64_t seed = kFnvOffsetBasis);

}  // namespace dfg::support
