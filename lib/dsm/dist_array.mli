(** Distributed Arrays — Orion's DSM abstraction (paper §3.1):
    N-dimensional dense or sparse matrices with point/set queries,
    deterministic iteration, map/group-by, text-file loading and
    partitions ([lib/store]'s [Checkpoint] persists them).

    Storage lives in one process; placement across simulated workers is
    tracked by the runtime for communication accounting (serializable
    schedules make the numerics placement-independent). *)

exception Out_of_bounds of string
exception Dimension_mismatch of string

(** Open-addressing hash table from linearized keys to values. *)
module Lin_table : sig
  type 'a t

  val length : 'a t -> int
end

type 'a storage =
  | Dense : 'a array -> 'a storage  (** row-major *)
  | Sparse : {
      table : 'a Lin_table.t;
      mutable order : (int array * int array) option;
          (** ascending keys [k] and slots [s]: key [k.(i)] is in table
              slot [s.(i)]; cached until a new key is inserted *)
    }
      -> 'a storage
  | Floats : float t -> Orion_lang.Value.t storage
      (** a read-only view of a float array ({!float_view}) *)

and 'a t = {
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

(** Row-major strides of [dims], as an array of those dims holds them. *)
val strides_of_dims : int array -> int array

(** {!delinearize} against bare [dims] and their row-major [strides]
    ({!strides_of_dims}): a fresh key per call. *)
val delinearize_in : dims:int array -> strides:int array -> int -> int array

(** {1 Creation} *)

(** Dense array initialized from the structured key. *)
val init_dense : name:string -> dims:int array -> f:(int array -> 'a) -> 'a t

val fill_dense : name:string -> dims:int array -> 'a -> 'a t
val create_sparse : name:string -> dims:int array -> default:'a -> 'a t
val of_entries :
  name:string -> dims:int array -> default:'a -> (int array * 'a) list -> 'a t

(** {1 Float views}

    An iteration space of floats, as the interpreter sees it, without a
    copy: [float_view ~name src] reads like [map ~name ~f:(fun x ->
    Vfloat x) src] — same keys, order, count and default — but shares
    [src]'s storage and boxes a value only when it is read through this
    interface.  A write through the view raises {!Read_only}; a write to
    [src] shows through it. *)

exception Read_only of string

val float_view : name:string -> float t -> Orion_lang.Value.t t

(** The float array a {!float_view} reads, or [None] for any other
    array. *)
val floats_of_view : Orion_lang.Value.t t -> float t option

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

(** [set] at a linearized key (one table operation outside parallel
    sections; last write wins).
    @raise Out_of_bounds when [lin] is outside the array. *)
val set_lin : 'a t -> int -> 'a -> unit

(** [set_lin] in two steps, for a caller that writes the value itself:
    [slot_lin t lin] is the index of [slot_values t] that stores [lin]
    (the key itself for dense storage; a sparse table inserts a new key
    holding the default), under [set_lin]'s rules.  A sparse table's
    array is replaced when it grows, so take [slot_values] after the
    [slot_lin] it indexes.  On a [float t], a value written there by
    code that knows the type is stored unboxed, which is how
    [lib/store]'s loaders insert records without allocating.
    @raise Out_of_bounds when [lin] is outside the array.
    @raise Read_only on a {!float_view}. *)
val slot_lin : 'a t -> int -> int

val slot_values : 'a t -> 'a array

(** The stored value at a linearized key.
    @raise Not_found when no entry is stored there. *)
val find_lin : 'a t -> int -> 'a

(** Whether every stored value satisfies the predicate; visits values
    in storage order and stops at the first that does not. *)
val for_all : ('a -> bool) -> 'a t -> bool

(** {1 Iteration — ascending key order, deterministic across runs} *)

(** Stored linearized keys, ascending (sparse: radix-sorted once and
    cached until a new key is inserted; do not mutate). *)
val sorted_keys : 'a t -> int array

(** [sorted_values t ranks]: a fresh array holding, at [i], the value
    stored at [(sorted_keys t).(ranks.(i))]; no per-key lookup.
    @raise Invalid_argument when a rank is not below {!count} *)
val sorted_values : 'a t -> int array -> 'a array

(** {!sorted_values} of a float array, with no value boxed on the way. *)
val sorted_floats : float t -> int array -> float array

(** [iter_index_along f t ~dim] calls [f i j] for the stored key of
    rank [i] in {!sorted_keys}, where [j] is its index along dimension
    [dim]: stride arithmetic on the linearized keys, with no key array
    built. *)
val iter_index_along : (int -> int -> unit) -> 'a t -> dim:int -> unit

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

(** {1 Partitions}

    A slice of a float DistArray as parallel arrays: the form that
    {!Codec} packs into the one byte layout of a slice (wire regions,
    buffered shadows, checkpoints). *)

type partition = {
  pt_array : string;  (** source DistArray name *)
  pt_dims : int array;
  pt_default : float;
  pt_sparse : bool;  (** storage kind of the source array *)
  pt_keys : int array;  (** linearized, ascending *)
  pt_values : float array;  (** [pt_values.(i)] is stored at [pt_keys.(i)] *)
}

(** The stored entries of [t] that [select] keeps (linearized key,
    value; default all). *)
val to_partition : ?select:(int -> float -> bool) -> float t -> partition

(** Write a partition's entries into an existing array.
    @raise Dimension_mismatch when names or dims disagree. *)
val apply_partition : float t -> partition -> unit

(** A fresh DistArray holding exactly the partition's entries, with the
    source's storage kind. *)
val of_partition : ?name:string -> partition -> float t

(** {1 Text files} *)

(** Load a sparse DistArray with a user-defined per-line parser
    ([None] skips the line). *)
val text_file :
  name:string ->
  dims:int array ->
  default:'a ->
  parse_line:(string -> (int array * 'a) option) ->
  string ->
  'a t
