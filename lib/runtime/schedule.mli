(** Iteration-space partitioning into schedulable blocks (paper §4.3,
    Fig. 7): histogram-balanced range partitions along the plan's
    dimensions; unimodular plans partition the transformed coordinates
    with exact per-wavefront time partitions. *)

(** A block of entries, flat: linearized keys and their values in two
    aligned arrays, in scheduled order.  The arrays are read only
    through {!iter_block} (and {!iter_lin}, the wire codec's view). *)
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

(** Entries in the block. *)
val length : 'v block -> int

(** [f key value] for every entry in scheduled order, each with a
    fresh key array (delinearized as it is reached). *)
val iter_block : (int array -> 'v -> unit) -> 'v block -> unit

(** [f lin value] for every entry in scheduled order, with its
    linearized key. *)
val iter_lin : (int -> 'v -> unit) -> 'v block -> unit

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
