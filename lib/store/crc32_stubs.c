/* CRC-32 (IEEE 802.3), reflected, init/xorout 0xFFFFFFFF: the value of
 * zlib's crc32(), computed here with no external library.
 *
 * Two paths give the same remainder.  On x86-64 with PCLMULQDQ and
 * SSE4.1 (checked once, when the OCaml module initializes), a buffer
 * of at least 64 bytes has its prefix of whole 16-byte lanes folded by
 * carry-less multiplies, 64 bytes per step, then reduced to 32 bits
 * (Intel, "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction"; the reflected constants for 0xEDB88320, as
 * in zlib/Chromium's crc32_sse42_simd_).  The tail of under 16 bytes,
 * short buffers, and every buffer on any other host go through the
 * table path.
 *
 * Slicing-by-8: table[k][n] is the remainder of byte n followed by k
 * zero bytes, so eight tables fold eight bytes per step and the
 * one-byte table takes the tail.  Each step reads its eight bytes one
 * at a time and assembles them little-endian, which is one load on a
 * little-endian host and correct on any other.  The tables are filled
 * once, when the OCaml module initializes, before any domain can call
 * [orion_crc32_update]. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ORION_CRC_CLMUL 1
#include <immintrin.h>
#endif

static uint32_t table[8][256];

#ifdef ORION_CRC_CLMUL
static int use_clmul;
#endif

CAMLprim value orion_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (uint32_t n = 0; n < 256; n++) {
      uint32_t prev = table[k - 1][n];
      table[k][n] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
#ifdef ORION_CRC_CLMUL
  __builtin_cpu_init();
  use_clmul =
    __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

static uint32_t crc_tables(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t one = le32(p) ^ c, two = le32(p + 4);
    c = table[7][one & 0xFF] ^ table[6][(one >> 8) & 0xFF]
        ^ table[5][(one >> 16) & 0xFF] ^ table[4][one >> 24]
        ^ table[3][two & 0xFF] ^ table[2][(two >> 8) & 0xFF]
        ^ table[1][(two >> 16) & 0xFF] ^ table[0][two >> 24];
  }
  for (; n > 0; p++, n--)
    c = table[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef ORION_CRC_CLMUL
/* The remainder [c] folded over [n] bytes of [p]; [n] is a multiple of
 * 16 and at least 64.  Four 128-bit lanes each fold 64 bytes ahead
 * (x^(512+-32) mod P: k1, k2), then fold into one lane (x^(128+-32):
 * k3, k4), which takes the remaining 16-byte blocks; the 128 bits
 * reduce to 64 (k5) and a Barrett step (P and mu) gives 32. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  __m128i x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  __m128i t;
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    __m128i t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    __m128i t4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1),
                       _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2),
                       _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3),
                       _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4),
                       _mm_loadu_si128((const __m128i *)(p + 0x30)));
  }
#define FOLD16(x, next)                                                \
  do {                                                                 \
    t = _mm_clmulepi64_si128(x, k3k4, 0x00);                           \
    x = _mm_clmulepi64_si128(x, k3k4, 0x11);                           \
    x = _mm_xor_si128(_mm_xor_si128(x, next), t);                      \
  } while (0)
  FOLD16(x1, x2);
  FOLD16(x1, x3);
  FOLD16(x1, x4);
  for (; n >= 16; p += 16, n -= 16)
    FOLD16(x1, _mm_loadu_si128((const __m128i *)p));
#undef FOLD16
  /* 128 bits to 64 */
  t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);
  /* Barrett reduction to 32 bits */
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* The running remainder [crc] (the low 32 bits of an OCaml int) folded
 * over [len] bytes of [buf] from [pos]; the caller checks the range.
 * Allocates nothing and cannot raise. */
CAMLprim value orion_crc32_update(value crc, value buf, value pos, value len)
{
  uint32_t c = (uint32_t)Long_val(crc);
  const unsigned char *p = Bytes_val(buf) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
#ifdef ORION_CRC_CLMUL
  if (use_clmul && n >= 64) {
    size_t lanes = n & ~(size_t)15;
    c = crc_clmul(c, p, lanes);
    p += lanes;
    n -= lanes;
  }
#endif
  return Val_long(crc_tables(c, p, n));
}
