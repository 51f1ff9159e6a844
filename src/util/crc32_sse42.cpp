// Hardware CRC32C: the SSE4.2 crc32 instruction, 8 bytes per issue. This TU
// is compiled with -msse4.2 (see util/CMakeLists.txt) and must only be
// entered after the dispatcher in crc32.cpp has probed cpuid — the same
// per-file-ISA pattern as the GF(2^8) kernels in src/ec.
//
// crc32 has a latency of three cycles but a throughput of one per cycle, so
// a single dependency chain runs at a third of the unit's rate. Long inputs
// are cut into three adjacent blocks whose CRCs run as three interleaved
// chains; the block CRCs are then joined by advancing the running CRC over
// one block's worth of zero bytes (a fixed linear map, applied with four
// table lookups) and folding in the next block's CRC. This is the
// construction of Mark Adler's public-domain crc32c.c: 8 KiB blocks while
// 24 KiB remain, then 256-byte blocks, then one chain for the tail.
#include <nmmintrin.h>

#include <cstdint>
#include <cstring>

#include "util/crc32.h"

namespace rspaxos::detail {
namespace {

inline uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Advances a raw (un-inverted) CRC register over `len` zero bytes. The map
/// is linear over GF(2), so it is the XOR of one table entry per byte of the
/// register; entry [k][b] is the image of byte value b at byte position k.
struct ZerosShift {
  uint32_t t[4][256];

  explicit ZerosShift(size_t len) {
    // Image of each single-bit register: run it over the zeros (len is a
    // multiple of 8).
    uint32_t bit_image[32];
    for (int k = 0; k < 32; ++k) {
      uint64_t c = uint32_t{1} << k;
      for (size_t i = 0; i < len; i += 8) c = _mm_crc32_u64(c, 0);
      bit_image[k] = static_cast<uint32_t>(c);
    }
    for (int pos = 0; pos < 4; ++pos) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t v = 0;
        for (int k = 0; k < 8; ++k) {
          if (b & (1u << k)) v ^= bit_image[8 * pos + k];
        }
        t[pos][b] = v;
      }
    }
  }

  uint32_t operator()(uint32_t c) const {
    return t[0][c & 0xff] ^ t[1][(c >> 8) & 0xff] ^ t[2][(c >> 16) & 0xff] ^ t[3][c >> 24];
  }
};

/// CRCs three adjacent `block`-byte blocks as three chains while at least
/// three blocks remain, joining them into `c`.
inline void three_streams(const uint8_t*& p, size_t& n, uint64_t& c, size_t block,
                          const ZerosShift& shift) {
  while (n >= 3 * block) {
    uint64_t c1 = 0, c2 = 0;
    const uint8_t* end = p + block;
    do {
      c = _mm_crc32_u64(c, load64(p));
      c1 = _mm_crc32_u64(c1, load64(p + block));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * block));
      p += 8;
    } while (p < end);
    c = shift(static_cast<uint32_t>(c)) ^ c1;
    c = shift(static_cast<uint32_t>(c)) ^ c2;
    p += 2 * block;
    n -= 3 * block;
  }
}

/// One chain over the rest of the input; returns the finished CRC.
inline uint32_t crc_tail(const uint8_t* p, size_t n, uint64_t c) {
  while (n >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  if (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    c32 = _mm_crc32_u32(c32, v);
    p += 4;
    n -= 4;
  }
  while (n--) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

/// An input that still holds three short blocks once aligned. Kept out of
/// line so short inputs do not pay for its registers.
__attribute__((noinline)) uint32_t crc_long(const uint8_t* p, size_t n, uint64_t c) {
  static const ZerosShift long_shift(kCrc32cLongBlock);
  static const ZerosShift short_shift(kCrc32cShortBlock);
  // Bring the pointer to an 8-byte boundary so the block loads are aligned.
  while ((reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  three_streams(p, n, c, kCrc32cLongBlock, long_shift);
  three_streams(p, n, c, kCrc32cShortBlock, short_shift);
  return crc_tail(p, n, c);
}

}  // namespace

uint32_t crc32c_sse42(const uint8_t* data, size_t n, uint32_t seed) {
  uint64_t c = static_cast<uint32_t>(~seed);
  if (n >= 3 * kCrc32cShortBlock + 8) return crc_long(data, n, c);
  return crc_tail(data, n, c);
}

}  // namespace rspaxos::detail
