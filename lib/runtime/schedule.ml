(** Iteration-space partitioning into schedulable blocks (paper §4.3,
    Fig. 7).

    A 2D-parallelized loop's iteration space is cut into
    [space_parts × time_parts] blocks using histogram-balanced range
    partitions along the chosen dimensions; a 1D loop into
    [space_parts] blocks.  Unimodular plans partition the *transformed*
    coordinates. *)

open Orion_dsm

module Value = Orion_lang.Value

(* A block is flat: its entries' linearized keys and their values in
   two aligned arrays, in scheduled order.  Keys are delinearized
   against the iteration space's [dims] only as an entry is visited
   ([iter_block]), so building, shuffling and encoding a schedule
   allocate nothing per entry.  The values of a float iteration space
   ({!Dist_array.float_view}) stay one unboxed [float array]; a generic
   visitor boxes each as it reaches it. *)
type _ values =
  | Boxed : 'v array -> 'v values
  | Floats : float array -> Value.t values

type 'v block = {
  b_keys : int array;  (** linearized, scheduled order *)
  b_values : 'v values;  (** the [i]-th value is stored at [b_keys.(i)] *)
  b_dims : int array;  (** the iteration space's *)
  b_strides : int array;  (** row-major strides of [b_dims] *)
}

type 'v t = {
  space_parts : int;
  time_parts : int;  (** 1 for 1D *)
  blocks : 'v block array array;  (** indexed [space][time] *)
  space_boundaries : Partitioner.boundaries;
  time_boundaries : Partitioner.boundaries option;
}

let block t ~space ~time = t.blocks.(space).(time)

let with_values ~dims keys n values =
  if Array.length keys <> n then
    invalid_arg "Schedule.make_block: keys and values differ in length";
  {
    b_keys = keys;
    b_values = values;
    b_dims = dims;
    b_strides = Dist_array.strides_of_dims dims;
  }

let make_block ~dims keys values =
  with_values ~dims keys (Array.length values) (Boxed values)

let make_float_block ~dims keys floats =
  with_values ~dims keys (Array.length floats) (Floats floats)

let length b = Array.length b.b_keys
let keys b = b.b_keys

let float_values (type v) (b : v block) =
  match b.b_values with Floats a -> Some a | Boxed _ -> None

(* [f i value] for every entry, a float block's values boxed *)
let iteri_values : type v. (int -> v -> unit) -> v block -> unit =
 fun f b ->
  match b.b_values with
  | Boxed values ->
      for i = 0 to Array.length values - 1 do
        f i (Array.unsafe_get values i)
      done
  | Floats values ->
      for i = 0 to Array.length values - 1 do
        f i (Value.Vfloat (Array.unsafe_get values i))
      done

let iter_block f b =
  let dims = b.b_dims and strides = b.b_strides and keys = b.b_keys in
  iteri_values
    (fun i v ->
      f (Dist_array.delinearize_in ~dims ~strides (Array.unsafe_get keys i)) v)
    b

let iter_lin f b =
  let keys = b.b_keys in
  iteri_values (fun i v -> f (Array.unsafe_get keys i) v) b

type 'v body = {
  boxed : key:int array -> value:'v -> unit;
  unboxed :
    (dims:int array -> strides:int array -> int array -> float array -> unit)
    option;
}

let boxed_body f = { boxed = f; unboxed = None }

(* The block loop of every backend that runs blocks (the domain pool
   and the distributed worker): a float block goes to an [unboxed] body
   whole, anything else entry by entry with a fresh key. *)
let run_block : type v. v body -> v block -> unit =
 fun body b ->
  match (b.b_values, body.unboxed) with
  | Floats values, Some run ->
      run ~dims:b.b_dims ~strides:b.b_strides b.b_keys values
  | _ -> iter_block (fun key value -> body.boxed ~key ~value) b

(* Deterministic Fisher–Yates over an int array, in place.  SGD
   convergence depends on sample order: stratified SGD (Gemulla et al.)
   shuffles entries within blocks, and serial SGD shuffles the dataset;
   a [shuffle_seed] reproduces that here while keeping runs
   replayable.  The LCG state is a local [Int64] the compiler keeps
   unboxed, and the swaps move ints, so the shuffle allocates nothing
   and needs no write barrier. *)
let shuffle_ints ~seed (a : int array) =
  let state = ref (Int64.of_int (seed lxor 0x5DEECE66)) in
  for i = Array.length a - 1 downto 1 do
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let j = Int64.to_int (Int64.shift_right_logical !state 33) mod (i + 1) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done

(* the shuffle of [0, n): where each shuffled position's element came
   from *)
let permutation ~seed n =
  let p = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set p i i
  done;
  shuffle_ints ~seed p;
  p

(* [a.(perm.(i))] at [i], one write per element *)
let gather perm (a : 'a array) = Array.map (fun j -> a.(j)) perm

(* [gather] on unboxed floats *)
let gather_floats perm (a : float array) =
  let out = Array.create_float (Array.length perm) in
  Array.iteri (fun i j -> Array.unsafe_set out i a.(j)) perm;
  out

let shuffle_in_place ~seed (a : 'a array) =
  let g = gather (permutation ~seed (Array.length a)) a in
  Array.blit g 0 a 0 (Array.length a)

let block_seed seed ~space ~time = seed + (space * 7919) + time

(* [b]'s entries permuted by [perm] *)
let permute : type v. int array -> v block -> v block =
 fun perm b ->
  let values : v values =
    match b.b_values with
    | Boxed a -> Boxed (gather perm a)
    | Floats a -> Floats (gather_floats perm a)
  in
  { b with b_keys = gather perm b.b_keys; b_values = values }

(** Reshuffle every block's entries (SGD implementations shuffle their
    local data each pass; vary [seed] per epoch). *)
let reshuffle t ~seed =
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun time b ->
          row.(time) <-
            permute
              (permutation ~seed:(block_seed seed ~space:s ~time) (length b))
              b)
        row)
    t.blocks

let total_entries t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc b -> acc + length b) acc row)
    0 t.blocks

(** A structural fingerprint of the schedule: FNV-1a over the partition
    counts and every block's entry keys in scheduled order.  Master and
    workers compile their schedules independently from the same plan and
    data; comparing fingerprints catches any nondeterminism before a
    distributed pass executes divergent slices. *)
let fingerprint t =
  (* FNV-1a-style; offset basis truncated to OCaml's 63-bit int *)
  let h = ref 0x4BF29CE484222325 in
  let mix x =
    (* fold the int in byte-wise so key order matters *)
    for shift = 0 to 7 do
      let byte = (x lsr (shift * 8)) land 0xFF in
      h := (!h lxor byte) * 0x100000001B3
    done
  in
  mix t.space_parts;
  mix t.time_parts;
  Array.iter
    (fun row ->
      Array.iter
        (fun b ->
          mix (length b);
          iter_block (fun key _ -> Array.iter mix key) b)
        row)
    t.blocks;
  !h land max_int

(* the values stored at [ranks] of [iter]'s sorted keys: a float view's
   as one unboxed array *)
let sorted_values : type v. v Dist_array.t -> int array -> v values =
 fun iter ranks ->
  match iter.Dist_array.storage with
  | Dist_array.Floats src -> Floats (Dist_array.sorted_floats src ranks)
  | Dist_array.Dense _ | Dist_array.Sparse _ ->
      Boxed (Dist_array.sorted_values iter ranks)

(* Blocks over [iter]'s stored entries.  [owner.(i)] names the block
   ([space * time_parts + time]) of the [i]-th key in ascending order.
   A counting sort by block lists each block's entries as ranks in the
   sorted keys, ascending; the optional shuffle permutes those ranks in
   place, and each block then reads its values once and turns its ranks
   into keys in place. *)
let build ?shuffle_seed ~space_parts ~time_parts ~space_boundaries
    ~time_boundaries ~owner iter =
  let keys = Dist_array.sorted_keys iter in
  let n = Array.length keys in
  let nb = space_parts * time_parts in
  let sizes = Array.make nb 0 in
  Array.iter (fun b -> sizes.(b) <- sizes.(b) + 1) owner;
  let ranks = Array.map (fun size -> Array.make size 0) sizes in
  let fill = Array.make nb 0 in
  for i = 0 to n - 1 do
    let b = Array.unsafe_get owner i in
    ranks.(b).(fill.(b)) <- i;
    fill.(b) <- fill.(b) + 1
  done;
  let dims = iter.Dist_array.dims and strides = iter.Dist_array.strides in
  let blocks =
    Array.init space_parts (fun s ->
        Array.init time_parts (fun t ->
            let r = ranks.((s * time_parts) + t) in
            Option.iter
              (fun seed ->
                shuffle_ints ~seed:(block_seed seed ~space:s ~time:t) r)
              shuffle_seed;
            let values = sorted_values iter r in
            for j = 0 to Array.length r - 1 do
              Array.unsafe_set r j
                (Array.unsafe_get keys (Array.unsafe_get r j))
            done;
            {
              b_keys = r;
              b_values = values;
              b_dims = dims;
              b_strides = strides;
            }))
  in
  { space_parts; time_parts; blocks; space_boundaries; time_boundaries }

(* Blocks of a range cut along [space_dim] ([sb]) and, for 2D, along
   [time_dim] ([tb]).  A key's partition along a dimension is one table
   lookup on its index there. *)
let cut ?shuffle_seed iter ~space_dim ~space_boundaries:sb ~time =
  let owner = Array.make (Dist_array.count iter) 0 in
  (* add [scale] times each key's partition along [dim] to its owner *)
  let add ~scale dim b =
    let parts =
      Array.init iter.Dist_array.dims.(dim) (fun i ->
          scale * Partitioner.part_of ~boundaries:b i)
    in
    Dist_array.iter_index_along
      (fun i j ->
        Array.unsafe_set owner i
          (Array.unsafe_get owner i + Array.unsafe_get parts j))
      iter ~dim
  in
  let space_parts = Partitioner.num_parts sb in
  let time_parts, time_boundaries =
    match time with
    | None -> (1, None)
    | Some (time_dim, tb) ->
        add ~scale:1 time_dim tb;
        (Partitioner.num_parts tb, Some tb)
  in
  add ~scale:time_parts space_dim sb;
  build ?shuffle_seed ~space_parts ~time_parts ~space_boundaries:sb
    ~time_boundaries ~owner iter

(** Histogram-balanced 1D partitioning along [space_dim]. *)
let partition_1d ?shuffle_seed iter ~space_dim ~space_parts =
  let counts = Partitioner.histogram iter ~dim:space_dim in
  let sb = Partitioner.balanced_ranges ~counts ~parts:space_parts in
  cut ?shuffle_seed iter ~space_dim ~space_boundaries:sb ~time:None

(** Histogram-balanced 2D partitioning along [space_dim] / [time_dim];
    both histograms come from one pass over the keys. *)
let partition_2d ?shuffle_seed iter ~space_dim ~time_dim ~space_parts
    ~time_parts =
  let h = Partitioner.histograms iter ~dims:[| space_dim; time_dim |] in
  let sb = Partitioner.balanced_ranges ~counts:h.(0) ~parts:space_parts in
  let tb = Partitioner.balanced_ranges ~counts:h.(1) ~parts:time_parts in
  cut ?shuffle_seed iter ~space_dim ~space_boundaries:sb
    ~time:(Some (time_dim, tb))

(** Partition the image of the iteration space under a unimodular
    transformation [matrix]: transformed dim 0 is time, dim 1 is
    space.  Transformed coordinates may be negative; boundaries are
    computed over the shifted coordinate range.

    All dependences are carried by the outer (time) dimension, which
    means they may connect *consecutive* time values across arbitrary
    space partitions: time partitions must therefore be exact
    wavefronts (one partition per distinct transformed-time value) —
    grouping several values into one partition would let a block on one
    worker race with its same-range dependents on another.
    [time_parts] is accordingly ignored beyond sanity-capping. *)
let partition_unimodular ?shuffle_seed iter ~matrix ~space_parts
    ~time_parts =
  ignore time_parts;
  let tcoords =
    Array.map
      (fun lin ->
        Orion_analysis.Unimodular.mat_vec matrix
          (Dist_array.delinearize iter lin))
      (Dist_array.sorted_keys iter)
  in
  let extent dim =
    Array.fold_left
      (fun (lo, hi) c -> (min lo c.(dim), max hi c.(dim)))
      (max_int, min_int) tcoords
  in
  let t_lo, t_hi = extent 0 in
  let s_lo, s_hi = extent 1 in
  let count_along dim lo hi =
    let counts = Array.make (hi - lo + 1) 0 in
    Array.iter (fun c -> counts.(c.(dim) - lo) <- counts.(c.(dim) - lo) + 1) tcoords;
    counts
  in
  let sb =
    Partitioner.balanced_ranges
      ~counts:(count_along 1 s_lo s_hi)
      ~parts:space_parts
  in
  (* one time partition per distinct transformed-time value *)
  let tb = Array.init (t_hi - t_lo + 2) Fun.id in
  let space_parts = Partitioner.num_parts sb in
  let time_parts = Partitioner.num_parts tb in
  build ?shuffle_seed ~space_parts ~time_parts ~space_boundaries:sb
    ~time_boundaries:(Some tb)
    ~owner:
      (Array.map
         (fun c ->
           (Partitioner.part_of ~boundaries:sb (c.(1) - s_lo) * time_parts)
           + Partitioner.part_of ~boundaries:tb (c.(0) - t_lo))
         tcoords)
    iter

let default_shuffle_seed = 17
