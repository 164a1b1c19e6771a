(** Range partitioning for iteration spaces and DistArrays (§4.3):
    histogram-balanced boundaries for skewed data and the [randomize]
    operation. *)

(** Boundaries [b] of length [parts + 1]; partition [p] covers
    [b.(p) .. b.(p+1) - 1]. *)
type boundaries = int array

val equal_ranges : dim_size:int -> parts:int -> boundaries

(** Entry count at each index of dimension [dim]. *)
val histogram : 'a Dist_array.t -> dim:int -> int array

(** One histogram per listed dimension, counted in a single pass over
    the stored linearized keys. *)
val histograms : 'a Dist_array.t -> dims:int array -> int array array

(** Boundaries giving near-equal entry counts per partition. *)
val balanced_ranges : counts:int array -> parts:int -> boundaries

(** Boundaries giving near-equal total weight per partition — the
    float analogue of {!balanced_ranges} for measured per-index costs.
    Falls back to {!equal_ranges} when the total weight is zero or not
    finite. *)
val weighted_ranges : weights:float array -> parts:int -> boundaries

(** Which partition an index belongs to (binary search). *)
val part_of : boundaries:boundaries -> int -> int

val num_parts : boundaries -> int
val part_sizes : boundaries:boundaries -> counts:int array -> int array

(** Deterministic permutation of [0, n). *)
val permutation : seed:int -> int -> int array

(** Randomize a DistArray along [dims_to_shuffle]; returns the permuted
    array and the per-dimension permutations (so aligned parameter
    arrays can be co-permuted). *)
val randomize :
  ?seed:int ->
  'a Dist_array.t ->
  dims_to_shuffle:int list ->
  'a Dist_array.t * int array array
