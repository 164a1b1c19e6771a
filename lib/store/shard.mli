(** The versioned binary shard container — the unit of Orion's
    out-of-core data path.

    A dataset is a directory of shards ([shard-0000.orshard], ...).
    Each shard is self-describing:

    {v
    "ORSH"  magic                                   4 bytes
    u32     container version (= 1)
    u32     header length
            header: schema string, shard index, shard count, seed,
            (key, value) metadata pairs
    ...     records, each u32 length-prefixed
    "OREN"  footer magic                            4 bytes
    u64     record count
    u32     CRC-32 of every byte before the footer
    v}

    All integers are little-endian.  Writers stream records through a
    running CRC and only rename the file into place on [close_writer],
    so a crashed generation never leaves a valid-looking shard; readers
    stream records back without buffering the shard and verify count
    and CRC at the end.  Every decode failure raises {!Corrupt} with
    the byte offset where the file stopped making sense. *)

(** The container version this library writes and reads. *)
val version : int

val extension : string
(** [".orshard"] *)

(** A positioned corruption report: [path] stopped being a valid shard
    at byte [offset]. *)
exception Corrupt of { path : string; offset : int; reason : string }

type header = {
  h_schema : string;  (** record schema, e.g. ["ratings-v1"] *)
  h_shard : int;  (** this shard's index in the dataset *)
  h_num_shards : int;
  h_seed : int;  (** dataset seed (generation is per (seed, shard)) *)
  h_count : int;  (** records in this shard (from the footer) *)
  h_meta : (string * string) list;  (** schema-specific, e.g. dims *)
}

(** [shard-<index padded to 4>.orshard] under [dir]. *)
val shard_path : dir:string -> int -> string

(** The shard files of a dataset directory, in index order. *)
val list_shards : string -> string list

(** {1 Writing} *)

type writer

(** Open [path ^ ".tmp"] for streaming writes.  [close_writer] seals
    the footer and renames over [path]. *)
val create_writer :
  path:string ->
  schema:string ->
  shard:int ->
  num_shards:int ->
  seed:int ->
  ?meta:(string * string) list ->
  unit ->
  writer

val write_record : writer -> bytes -> unit

(** Seal and atomically publish the shard; returns its header
    (including the final record count). *)
val close_writer : writer -> header

(** Abandon the writer, deleting the temporary file. *)
val discard_writer : writer -> unit

(** {1 Reading} *)

(** Header and footer only (O(1) in the shard size); verifies magics
    and the footer's presence, not the CRC. *)
val read_header : string -> header

(** Stream every record through [f] in write order, then verify record
    count and CRC.  [f offset buf ~pos ~len] sees the record as
    [buf.\[pos, pos + len)], a view into the reader's buffer that is
    valid only during the call.  [offset] is the record's byte offset in
    the file (the offset of its length prefix), for positioned errors.
    @raise Corrupt on truncation, bad framing, count or CRC mismatch *)
val iter : string -> f:(int -> bytes -> pos:int -> len:int -> unit) -> unit

(** Headers of every shard in a dataset directory, in shard order.
    @raise Corrupt when the directory holds no shards, an index is
    missing, or shards disagree on schema / seed / shard count *)
val dataset_headers : string -> header list
