(** Distributed Arrays — Orion's DSM abstraction (paper §3.1):
    N-dimensional dense or sparse matrices with point/set queries,
    deterministic iteration, map/group-by, text-file loading and
    checkpointing.

    Storage lives in one process; placement across simulated workers is
    tracked by the runtime for communication accounting (serializable
    schedules make the numerics placement-independent). *)

exception Out_of_bounds of string
exception Dimension_mismatch of string

type 'a storage =
  | Dense of 'a array  (** row-major *)
  | Sparse of {
      table : (int, 'a) Hashtbl.t;
      mutable sorted_keys : int array option;
    }

type 'a t = {
  name : string;
  dims : int array;
  strides : int array;
  storage : 'a storage;
  default : 'a;
}

(** {1 Keys} *)

(** Row-major linearization of a structured key.
    @raise Out_of_bounds / Dimension_mismatch on bad keys. *)
val linearize : 'a t -> int array -> int

val delinearize : 'a t -> int -> int array

(** {1 Creation} *)

(** Dense array initialized from the structured key. *)
val init_dense : name:string -> dims:int array -> f:(int array -> 'a) -> 'a t

val fill_dense : name:string -> dims:int array -> 'a -> 'a t
val create_sparse : name:string -> dims:int array -> default:'a -> 'a t
val of_entries :
  name:string -> dims:int array -> default:'a -> (int array * 'a) list -> 'a t

(** {1 Access} *)

val name : 'a t -> string
val dims : 'a t -> int array
val ndims : 'a t -> int

(** Stored entries (dense: every cell). *)
val count : 'a t -> int

val is_sparse : 'a t -> bool

val bytes_per_element : float
val size_bytes : 'a t -> float

(** {1 Parallel sections}

    Disjoint-cell writes to dense storage (and to {e existing} sparse
    keys) are race-free across OCaml 5 domains; inserting a new sparse
    key may resize the hash table and is not.  [enter_parallel] arms a
    process-wide guard: while armed, a new-key sparse insert raises
    {!Parallel_sparse_insert} instead of corrupting the table.  Apps
    must pre-populate every sparse key they write in parallel. *)

exception Parallel_sparse_insert of string

val enter_parallel : unit -> unit
val exit_parallel : unit -> unit

val get : 'a t -> int array -> 'a
val get_opt : 'a t -> int array -> 'a option
val set : 'a t -> int array -> 'a -> unit
val update : 'a t -> int array -> ('a -> 'a) -> unit

(** {1 Iteration — ascending key order, deterministic across runs} *)

val sorted_keys : 'a t -> int array
val iter : (int array -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> int array -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val entries : 'a t -> (int array * 'a) array

(** {1 Element-wise comparison} *)

type diff_result = {
  d_array : string;
  d_cells : int;  (** keys compared *)
  d_max_abs : float;
  d_max_rel : float;
  d_worst_key : int array option;  (** where [d_max_abs] was found *)
}

(** Compare two same-shape float arrays over the union of their stored
    keys (a key stored in only one is compared against the other's
    default).  The string names the array in the result. *)
val diff_arrays : string -> float t -> float t -> diff_result

(** [None]: bitwise equal ([d_max_abs = 0]); [Some rel]: [d_max_rel]
    within [rel]. *)
val diff_ok : tolerance:float option -> diff_result -> bool

(** {1 Transformations} *)

val map : name:string -> f:('a -> 'b) -> 'a t -> 'b t
val map_entries :
  name:string -> default:'b -> f:(int array -> 'a -> 'b) -> 'a t -> 'b t

(** Group stored entries by their index along [dim] (the paper's
    eagerly-evaluated groupBy). *)
val group_by : dim:int -> 'a t -> (int * (int array * 'a) list) list

(** {1 Set queries on float arrays} *)

(** Extract a 1-D slice where at most one subscript is a range. *)
val slice_vec : float t -> Orion_lang.Value.concrete_sub array -> float array

val set_slice_vec :
  float t -> Orion_lang.Value.concrete_sub array -> float array -> unit

(** {1 Interpreter bridge} *)

(** Expose a float DistArray to interpreted code; the hooks let the
    runtime charge or record accesses. *)
val to_extern :
  ?on_get:(Orion_lang.Value.concrete_sub array -> unit) ->
  ?on_set:(Orion_lang.Value.concrete_sub array -> unit) ->
  float t ->
  Orion_lang.Value.extern

(** Iteration-only extern for arbitrary element types. *)
val to_iter_extern :
  to_value:('a -> Orion_lang.Value.t) -> 'a t -> Orion_lang.Value.extern

(** {1 Regions}

    The slab of an array whose index along one dimension lies in a
    range: the unit the distributed runtime ships for placements owned
    by one worker at a time. *)

(** [region t ~dim ~lo ~hi]: ascending linearized keys, and their
    values, of the stored entries whose index along [dim] lies in
    [\[lo, hi)] (clamped to the dimension). *)
val region : 'a t -> dim:int -> lo:int -> hi:int -> int array * 'a array

(** Write [values.(i)] at linearized key [keys.(i)] (sparse arrays may
    gain keys outside parallel sections). *)
val set_region : 'a t -> int array -> 'a array -> unit

(** {1 Partition serialization}

    The single serialized form of (a slice of) a DistArray, shared by
    checkpointing and the distributed runtime ([lib/net]): entries are
    (linearized key, value) pairs in ascending key order; [Marshal]
    preserves float bits exactly, so round trips are bitwise. *)

type 'a partition = {
  pt_array : string;  (** source DistArray name *)
  pt_dims : int array;
  pt_default : 'a;
  pt_sparse : bool;  (** storage kind of the source array *)
  pt_entries : (int * 'a) array;
      (** (linearized key, value), ascending key order *)
}

(** Entries of [t] selected by [select] (structured key, value; default
    all stored entries) as a partition. *)
val to_partition : ?select:(int array -> 'a -> bool) -> 'a t -> 'a partition

(** Write a partition's entries into an existing array.
    @raise Dimension_mismatch when names or dims disagree. *)
val apply_partition : 'a t -> 'a partition -> unit

(** A fresh DistArray holding exactly the partition's entries, with the
    source's storage kind. *)
val of_partition : ?name:string -> 'a partition -> 'a t

val partition_to_bytes : 'a partition -> bytes
val partition_of_bytes : bytes -> 'a partition

(** Serialized size — the unit of per-array communication accounting. *)
val partition_size_bytes : 'a partition -> int

(** {1 Text files and checkpointing} *)

(** Load a sparse DistArray with a user-defined per-line parser
    ([None] skips the line). *)
val text_file :
  name:string ->
  dims:int array ->
  default:'a ->
  parse_line:(string -> (int array * 'a) option) ->
  string ->
  'a t

(** Eagerly write to disk (paper §4.3 fault tolerance). *)
val checkpoint : 'a t -> string -> unit

val restore : name:string -> string -> 'a t
