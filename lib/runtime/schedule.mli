(** Iteration-space partitioning into schedulable blocks (paper §4.3,
    Fig. 7): histogram-balanced range partitions along the plan's
    dimensions; unimodular plans partition the transformed coordinates
    with exact per-wavefront time partitions. *)

(** A block of entries, flat: linearized keys and their values in two
    aligned arrays, in scheduled order.  A block over a float iteration
    space ({!Orion_dsm.Dist_array.float_view}) keeps its values as one
    unboxed [float array]: the generic visitors {!iter_block} and
    {!iter_lin} box each as they reach it, {!run_block} hands it to an
    unboxed body as it is. *)
type 'v block

type 'v t = {
  space_parts : int;
  time_parts : int;  (** 1 for 1D *)
  blocks : 'v block array array;  (** indexed [space][time] *)
  space_boundaries : Orion_dsm.Partitioner.boundaries;
  time_boundaries : Orion_dsm.Partitioner.boundaries option;
}

val block : 'v t -> space:int -> time:int -> 'v block

(** A block of the entries [keys.(i)] (linearized against [dims],
    row-major) → [values.(i)], in this order; the block keeps both
    arrays.
    @raise Invalid_argument when their lengths differ *)
val make_block : dims:int array -> int array -> 'v array -> 'v block

(** {!make_block} of float values, kept unboxed.
    @raise Invalid_argument when the lengths differ *)
val make_float_block :
  dims:int array -> int array -> float array -> Orion_lang.Value.t block

(** Entries in the block. *)
val length : 'v block -> int

(** The block's linearized keys, in scheduled order (do not mutate). *)
val keys : 'v block -> int array

(** A float block's values, aligned with {!keys} (do not mutate);
    [None] for a block of boxed values. *)
val float_values : 'v block -> float array option

(** [f key value] for every entry in scheduled order, each with a
    fresh key array (delinearized as it is reached); a float block's
    values are boxed as they are visited. *)
val iter_block : (int array -> 'v -> unit) -> 'v block -> unit

(** [f lin value] for every entry in scheduled order, with its
    linearized key; a float block's values are boxed as they are
    visited. *)
val iter_lin : (int -> 'v -> unit) -> 'v block -> unit

(** A loop body as a block reaches it.  [boxed] takes one entry, its
    value as the block holds it.  [unboxed], when given, takes a whole
    float block: its linearized keys (row-major against [dims], whose
    strides are [strides]) and its values, unboxed, both in scheduled
    order (do not mutate either); without it a float block's values
    are boxed for [boxed]. *)
type 'v body = {
  boxed : key:int array -> value:'v -> unit;
  unboxed :
    (dims:int array -> strides:int array -> int array -> float array -> unit)
    option;
}

(** A body with no unboxed entry. *)
val boxed_body : (key:int array -> value:'v -> unit) -> 'v body

(** Run [body] on every entry of the block in scheduled order: the
    block loop of the domain pool and the distributed worker.  A float
    block under an [unboxed] body is handed to it in one call, with
    nothing allocated; any other goes to [boxed] entry by entry, each
    with a fresh key array. *)
val run_block : 'v body -> 'v block -> unit

(** Deterministic Fisher–Yates (SGD sample-order shuffling). *)
val shuffle_in_place : seed:int -> 'a array -> unit

(** Reshuffle every block's entries (per-epoch local shuffling). *)
val reshuffle : 'v t -> seed:int -> unit

val total_entries : 'v t -> int

(** Structural fingerprint (partition counts + every block's entry keys
    in scheduled order).  The distributed runtime compares the master's
    and each worker's independently compiled schedules before
    executing. *)
val fingerprint : 'v t -> int

val partition_1d :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  space_parts:int ->
  'v t

val partition_2d :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  space_dim:int ->
  time_dim:int ->
  space_parts:int ->
  time_parts:int ->
  'v t

(** Partition the transformed iteration space: time = transformed dim
    0 with one partition per distinct value (dependences may connect
    consecutive values across space partitions), space = transformed
    dim 1.  [time_parts] is ignored. *)
val partition_unimodular :
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  matrix:Orion_analysis.Unimodular.matrix ->
  space_parts:int ->
  time_parts:int ->
  'v t

(** The shuffle seed [Orion.compile] uses by default, so
    independently built schedules fingerprint identically. *)
val default_shuffle_seed : int
