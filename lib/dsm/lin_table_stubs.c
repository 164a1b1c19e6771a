/* The hot loops of Dist_array.Lin_table: the bulk store of (key, float)
 * pairs into a float table, and the rehash every table does when it
 * grows.  The table layout is the OCaml record
 *
 *   { keys : int array; values : 'a array; size : int; fill : 'a }
 *
 * (fields 0 to 3): open addressing, linear probing, a power-of-two
 * capacity, and the key -1 marking a free slot.  A key lands in exactly
 * the slot Lin_table's OCaml probe would give it, because [lin_hash] is
 * bit-identical to Lin_table.hash on OCaml's 63-bit ints: every
 * product is masked to 63 bits, which is the arithmetic OCaml does. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>

#define FREE Val_long(-1)
#define LOW63 UINT64_C(0x7FFFFFFFFFFFFFFF)

/* Lin_table.hash of a non-negative key */
static inline uint64_t lin_hash(uint64_t k)
{
  k = ((k ^ (k >> 31)) * UINT64_C(0x3F58476D1CE4E5B9)) & LOW63;
  k = ((k ^ (k >> 29)) * UINT64_C(0x14D049BB133111EB)) & LOW63;
  return k ^ (k >> 32);
}

/* how many pairs ahead the home slot is prefetched */
#define AHEAD 8

/* Store pairs [pos, n) of [keys] (linearized keys) and [vals] (a float
 * array) into the float table [t], in order, last write winning, as
 * Lin_table.insert and a value write would one pair at a time.  Stops
 * before the first pair whose key lies outside [0, limit), and before
 * a new key that would fill more than half the table; returns the index
 * of that pair, or [n] when every pair is stored.  Allocates nothing
 * and cannot raise. */
CAMLprim value orion_lin_store_floats(value t, value keys, value vals,
                                      value vpos, value vn, value vlimit)
{
  value *tkeys = Op_val(Field(t, 0));
  uint64_t *tvals = (uint64_t *)Op_val(Field(t, 1));
  const value *bkeys = Op_val(keys);
  const uint64_t *bvals = (const uint64_t *)Op_val(vals);
  uintnat cap = Wosize_val(Field(t, 0)), mask = cap - 1;
  uintnat size = Long_val(Field(t, 2));
  uintnat limit = Long_val(vlimit);
  intnat n = Long_val(vn), i = Long_val(vpos);
  for (; i < n; i++) {
    if (i + AHEAD < n) {
      uintnat ahead = Long_val(bkeys[i + AHEAD]);
      if (ahead < limit) {
        uintnat h = lin_hash(ahead) & mask;
        __builtin_prefetch(tkeys + h, 1);
        __builtin_prefetch(tvals + h, 1);
      }
    }
    value k = bkeys[i];
    if ((uintnat)Long_val(k) >= limit) break;
    uintnat s = lin_hash(Long_val(k)) & mask;
    value x;
    while ((x = tkeys[s]) != k && x != FREE) s = (s + 1) & mask;
    if (x == FREE) {
      if (2 * (size + 1) > cap) break;
      tkeys[s] = k;
      size++;
    }
    /* the value's bits, as they are: no float register in between */
    tvals[s] = bvals[i];
  }
  Field(t, 2) = Val_long(size);
  return Val_long(i);
}

CAMLprim value orion_lin_store_floats_byte(value *argv, int argc)
{
  (void)argc;
  return orion_lin_store_floats(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5]);
}

/* Move every entry of the table [okeys]/[ovals] into the empty table
 * [nkeys]/[nvals] (every key free, every value the fill), visiting old
 * slots in order.  Keys are distinct, so each probe stops at the first
 * free slot.  A float table's values move as raw doubles; any other
 * value moves through caml_modify, since the new array may live in the
 * major heap and the value in the minor one.  Cannot raise. */
CAMLprim value orion_lin_rehash(value okeys, value ovals, value nkeys,
                                value nvals)
{
  const value *ok = Op_val(okeys);
  value *nk = Op_val(nkeys);
  uintnat ocap = Wosize_val(okeys), mask = Wosize_val(nkeys) - 1;
  int flat = Tag_val(ovals) == Double_array_tag;
  for (uintnat j = 0; j < ocap; j++) {
    value k = ok[j];
    if (k == FREE) continue;
    uintnat s = lin_hash(Long_val(k)) & mask;
    while (nk[s] != FREE) s = (s + 1) & mask;
    nk[s] = k;
    if (flat)
      ((uint64_t *)Op_val(nvals))[s] = ((const uint64_t *)Op_val(ovals))[j];
    else
      caml_modify(&Field(nvals, s), Field(ovals, j));
  }
  return Val_unit;
}
