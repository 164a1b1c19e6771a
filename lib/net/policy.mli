(** The one wire encoding of DistArray state in the distributed runtime.

    Rotation tokens, pass syncs, final and pass-boundary reports, the
    regions in a schedule row and prefetch responses all travel in the
    packed codecs below:

    - owner-exclusive arrays travel as regions: the slab one worker
      owns (its local partition, or a rotated array's slice for one
      time partition) in the part layout, ascending linearized keys and
      exact IEEE bits;
    - journal payloads, only for arrays with no single owner, are
      deduplicated to the newest write per (array, element) before
      encoding (receivers apply last-writer-wins, so intermediate
      values are dead weight) — the receiver's post-payload state is
      identical to shipping every write;
    - every group of keys (a journal group, a region, a partition)
      travels as varint deltas (sparse) or run-length ranges (dense),
      and every group of values as raw or run-length encoded IEEE
      bits, each whichever is smaller.  Decoding is exact (float bits
      are preserved).

    Senders also count what the same traffic would have cost unpacked:
    one [Marshal]ed record per journaled write (the v3 framing), or the
    [Marshal]ed partition of a region — the before side of the
    bytes-saved accounting. *)

module Dist_array = Orion_dsm.Dist_array

(** {1 Worker side: encoding journal traffic and regions} *)

(** Per-worker sender state: the key mode each array's latest payload
    used. *)
type sender

(** [linearize name key] maps a structured key of array [name] to its
    row-major index (both ends of the wire rebuild identical arrays,
    so indices agree); [pos blk] is the natural-order position of
    block [blk], the version component last-writer-wins ordering uses. *)
val sender :
  linearize:(string -> int array -> int) -> pos:(int -> int) -> sender

(** The key mode (["sparse"] or ["dense"]) of each array's latest
    payload (for reporting), sorted by array name. *)
val decisions : sender -> (string * string) list

(** Deduplicate + encode one payload.  Returns the wire payload plus
    per-array (actual bytes as encoded, per-write [Marshal] bytes of
    the same writes). *)
val prepare :
  sender ->
  Wire.block_writes list ->
  Wire.entries_payload * (string * float * float) list

(** {1 Receiver side} *)

(** Decode a payload back to block write logs (groups in ascending
    (pass, natural-order) order; exact float bits).  [delinearize name
    lin] maps a row-major index of array [name] back to a structured
    key. *)
val decode_entries :
  delinearize:(string -> int -> int array) ->
  Wire.entries_payload ->
  Wire.block_writes list

(** {1 Regions}

    The owner-exclusive arrays' traffic, and the master's start-up
    shipment of every placed array (a rank's local region, whole
    rotated, replicated and prefetched arrays). *)

(** Pack the entries [keys] (ascending, linearized) / [values] of
    [arr] in the part layout, noting the key mode used. *)
val encode_region :
  sender -> float Dist_array.t -> int array -> float array -> Wire.part_payload

(** The [Marshal]ed partition size of the same entries. *)
val region_full_bytes : float Dist_array.t -> int array -> float array -> float

(** Unpack the region or partition of [len] bytes (default: to the
    end) at [pos] (default 0) of a payload, in place: array name, dims,
    ascending linearized keys, values (exact float bits).
    @raise Failure when it does not end exactly [len] bytes on *)
val decode_region :
  ?pos:int ->
  ?len:int ->
  Wire.part_payload ->
  string * int array * int array * float array

(** Exact packed-partition round trip building blocks (exposed for the
    QCheck codec properties): [mode] forces a key mode, and the one
    written is returned ([None] for an empty partition). *)
val encode_part :
  ?mode:[ `Sparse | `Dense ] -> Wire.part -> bytes * [ `Sparse | `Dense ] option

val decode_part : bytes -> Wire.part
