// Seeded FNV-1a checksums for end-to-end transfer integrity.
//
// Real many-core deployments treat silent data corruption — a flipped bit
// on a DMA transfer, a marginal memory module — as a first-class fault. The
// command queue checksums every transfer's source as it copies it
// (copy_checksum) and verifies the destination afterwards, so one
// corrupted word is detected before it can propagate into a derived
// field. FNV-1a is chosen for the same reason production transports use
// cheap non-cryptographic checksums: one xor and one multiply per word.
//
// `checksum_floats` covers every word and is laid out for throughput:
//   * the words are split into fixed blocks of kChecksumBlockWords; the
//     block size is a constant, so the digest never depends on how many
//     workers hash the blocks (support::parallel_for, one block per
//     grain; a transfer of one block or less is hashed inline);
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

/// Copies `from` into the first from.size() words of `to` and returns
/// checksum_floats(from, seed). One pass: each block is copied and then
/// hashed while its source is still in cache, the blocks spread over
/// support::parallel_for like checksum_floats'. `to` must hold at least
/// from.size() words (else std::length_error) and must not overlap `from`.
std::uint64_t copy_checksum(std::span<const float> from, std::span<float> to,
                            std::uint64_t seed = kFnvOffsetBasis);

}  // namespace dfg::support
