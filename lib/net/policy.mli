(** The one wire encoding of DistArray state in the distributed runtime.

    Rotation tokens, pass syncs, final and pass-boundary reports and the
    regions in a schedule row all travel in the packed layout of
    {!Orion_dsm.Codec}:

    - owner-exclusive arrays travel as regions: the slab one worker
      owns (its local partition, or a rotated array's slice for one
      time partition) as one packed part, ascending linearized keys
      and exact IEEE bits;
    - journal payloads, only for arrays with no single owner, are
      deduplicated to the newest write per (array, element) before
      encoding (receivers apply last-writer-wins, so intermediate
      values are dead weight) — the receiver's post-payload state is
      identical to shipping every write — and travel as groups of the
      same key and value sections.

    Senders also count what the same traffic costs in the raw layout
    of a row frame's float blocks, 16 bytes per entry ({!raw_bytes}) —
    the before side of the bytes-saved accounting. *)

module Dist_array = Orion_dsm.Dist_array

(** The raw layout's size of [n] entries (or journaled writes): an
    8-byte key and 8 bytes of IEEE bits each. *)
val raw_bytes : int -> float

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
    the bytes each array's groups take in it, sorted by array name. *)
val prepare :
  sender -> Wire.block_writes list -> Wire.entries_payload * (string * float) list

(** {1 Receiver side} *)

(** Decode a payload back to block write logs (groups in ascending
    (pass, natural-order) order; exact float bits).  [delinearize name
    lin] maps a row-major index of array [name] back to a structured
    key.
    @raise Orion_dsm.Codec.Decode_error on a malformed payload *)
val decode_entries :
  delinearize:(string -> int -> int array) ->
  Wire.entries_payload ->
  Wire.block_writes list

(** {1 Regions}

    The owner-exclusive arrays' traffic, and the master's start-up
    shipment of every managed array in a schedule row (a rank's local
    region, whole rotated, replicated and server-placed arrays).  A
    receiver unpacks one with {!Orion_dsm.Codec.decode_part}. *)

(** Pack the entries [keys] (ascending, linearized) / [values] of
    [arr] as one part, noting the key mode used. *)
val encode_region :
  sender -> float Dist_array.t -> int array -> float array -> Wire.part_payload
