(** Checkpoint / restore of training state at pass boundaries.

    A checkpoint captures everything needed to resume a run and reach a
    final state bitwise-identical to the uninterrupted one: the app name
    and scale (to rebuild the instance deterministically), how many
    passes were completed out of how many, the interpreter RNG state at
    the pass boundary, and every model [Dist_array] as one packed part
    in {!Orion_dsm.Codec}'s layout — the byte form the distributed
    runtime ships, which keeps float bits exactly.

    On disk (version 2):

    {v
    file    := "ORCK" version:u32 crc:u32 payload     (u32s little-endian)
    payload := app:string scale:f64 pass:varint total_passes:varint
               rng:i64 narrays:varint part*
    v}

    [crc] is the CRC-32 of [payload]; strings and parts are as in
    {!Orion_dsm.Codec}.  A file is written to a temp file and renamed
    into place, so a crash mid-save never leaves a valid-looking
    checkpoint.  Files are named [pass-<n>.orck]; {!latest} picks the
    highest pass. *)

val version : int

val extension : string
(** [".orck"] *)

exception Corrupt of { path : string; reason : string }

type snapshot = {
  ck_app : string;  (** app name, for {!Orion_apps} materialization *)
  ck_scale : float;
  ck_pass : int;  (** passes completed when this snapshot was taken *)
  ck_total_passes : int;
  ck_rng : int64;  (** interpreter RNG state at the boundary *)
  ck_arrays : Orion_dsm.Dist_array.partition list;
      (** every model array's stored entries, matched by name *)
}

(** A snapshot of [arrays] (the instance's model arrays). *)
val snapshot :
  app:string ->
  scale:float ->
  pass:int ->
  total_passes:int ->
  rng:int64 ->
  (string * float Orion_dsm.Dist_array.t) list ->
  snapshot

(** [save ~dir s] writes [dir/pass-<n>.orck] atomically (creating
    [dir] if missing) and returns the path. *)
val save : dir:string -> snapshot -> string

(** Load and verify one checkpoint file.
    @raise Corrupt on bad magic, version or CRC, or on a payload that
    does not decode *)
val load : string -> snapshot

(** The highest-pass checkpoint in [dir], if any. *)
val latest : string -> (string * snapshot) option

(** Write the snapshot's array contents back into a freshly built
    instance's arrays (matched by name; arrays absent from the snapshot
    are left untouched).
    @raise Corrupt when a snapshot array has no target *)
val restore :
  snapshot -> (string * float Orion_dsm.Dist_array.t) list -> unit
