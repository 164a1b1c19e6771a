(** The one wire encoding of DistArray state in the distributed runtime.

    Rotation tokens, pass syncs, partition ships and prefetch responses
    all travel in the packed codec below:

    - journal payloads are deduplicated to the newest write per
      (array, element) before encoding (receivers apply
      last-writer-wins, so intermediate values are dead weight) — the
      receiver's post-payload state is identical to shipping every
      write;
    - each array's key encoding is chosen from observed
      {!Orion_dsm.Dist_array.stats} density (sparse index/value for
      low-density arrays, run-length keys for dense ones), refreshed
      once per pass; partitions choose per partition.

    The codec is sparse index/value: per (array, pass, block) group,
    ascending linearized keys as varint deltas (or run-length ranges
    for dense arrays), IEEE float bits raw or run-length encoded,
    whichever is smaller.  Decoding is exact (float bits are
    preserved).

    Senders also count what the same traffic would have cost as one
    [Marshal]ed record per write (the v3 framing): the before side of
    the bytes-saved accounting. *)

module Dist_array = Orion_dsm.Dist_array

(** {1 Worker side: encoding journal traffic} *)

(** Per-worker sender state: the per-array key-mode decisions. *)
type sender

(** [linearize name key] maps a structured key of array [name] to its
    row-major index (both ends of the wire rebuild identical arrays,
    so indices agree); [pos blk] is the natural-order position of
    block [blk], the version component last-writer-wins ordering uses. *)
val sender :
  linearize:(string -> int array -> int) -> pos:(int -> int) -> sender

(** Refresh the per-array key modes from stats sampled at a pass
    boundary (once per pass, not per token). *)
val note_pass : sender -> (string * Dist_array.stats) list -> unit

(** The per-array key modes (["sparse"] or ["dense"]) settled on so
    far (for reporting), sorted by array name. *)
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

(** {1 Partition ships and prefetches (master side)} *)

(** Encode partitions, the key mode chosen per partition from its
    density.  Returns the payloads plus per-array (actual bytes,
    [Marshal]ed partition bytes). *)
val prepare_parts :
  Wire.part list -> Wire.part_payload list * (string * float * float) list

val decode_parts : Wire.part_payload list -> Wire.part list

(** Exact packed-partition round trip building blocks (exposed for the
    QCheck codec properties). *)
val encode_part : mode:[ `Sparse | `Dense ] -> Wire.part -> bytes

val decode_part : bytes -> Wire.part
