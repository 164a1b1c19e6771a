/* CRC-32 (IEEE 802.3), reflected, init/xorout 0xFFFFFFFF: the value of
 * zlib's crc32(), computed here with no external library.
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

static uint32_t table[8][256];

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
  return Val_unit;
}

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

/* The running remainder [crc] (the low 32 bits of an OCaml int) folded
 * over [len] bytes of [buf] from [pos]; the caller checks the range.
 * Allocates nothing and cannot raise. */
CAMLprim value orion_crc32_update(value crc, value buf, value pos, value len)
{
  uint32_t c = (uint32_t)Long_val(crc);
  const unsigned char *p = Bytes_val(buf) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t one = le32(p) ^ c, two = le32(p + 4);
    c = table[7][one & 0xFF] ^ table[6][(one >> 8) & 0xFF]
        ^ table[5][(one >> 16) & 0xFF] ^ table[4][one >> 24]
        ^ table[3][two & 0xFF] ^ table[2][(two >> 8) & 0xFF]
        ^ table[1][(two >> 16) & 0xFF] ^ table[0][two >> 24];
  }
  for (; n > 0; p++, n--)
    c = table[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return Val_long(c);
}
