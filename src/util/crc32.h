// CRC32C (Castagnoli) checksum.
//
// Used to frame WAL records and RPC messages: the paper (§2.1) excludes
// message corruption "by simple techniques such as checksums" — this is that
// technique. Every frame is checksummed once when it is sent and once when it
// is received, and every WAL record once when it is appended and once when it
// is read, so the kernel's speed is paid per byte of every value moved.
//
// The SSE4.2 kernel runs three interleaved crc32 chains over inputs of at
// least three short blocks and joins them with precomputed shift tables
// (crc32_sse42.cpp); it returns exactly what a single chain returns for every
// input, seed and split.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace rspaxos {

/// Block sizes of the SSE4.2 kernel's three-chain loops: 3 long blocks at a
/// time while they fit, then 3 short blocks, then one chain for the tail.
/// Exposed so tests can walk every boundary.
inline constexpr size_t kCrc32cLongBlock = 8192;
inline constexpr size_t kCrc32cShortBlock = 256;

/// Computes CRC32C over [data, data+n), continuing from `seed` (pass 0 to
/// start a fresh checksum; pass a previous result to chain over several
/// buffers as if they were one). Dispatches to the SSE4.2 kernel when the
/// host supports it, else the portable slice-by-4 tables.
uint32_t crc32c(const uint8_t* data, size_t n, uint32_t seed = 0);

/// The portable slice-by-4 implementation, exposed so tests can pin the
/// hardware and reference paths against each other.
uint32_t crc32c_reference(const uint8_t* data, size_t n, uint32_t seed = 0);

inline uint32_t crc32c(BytesView b, uint32_t seed = 0) {
  return crc32c(b.data(), b.size(), seed);
}

}  // namespace rspaxos
