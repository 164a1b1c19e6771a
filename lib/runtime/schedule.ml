(** Iteration-space partitioning into schedulable blocks (paper §4.3,
    Fig. 7).

    A 2D-parallelized loop's iteration space is cut into
    [space_parts × time_parts] blocks using histogram-balanced range
    partitions along the chosen dimensions; a 1D loop into
    [space_parts] blocks.  Unimodular plans partition the *transformed*
    coordinates. *)

open Orion_dsm

type 'v block = {
  space_idx : int;
  time_idx : int;  (** -1 for 1D blocks *)
  entries : (int array * 'v) array;  (** ascending key order *)
}

type 'v t = {
  space_parts : int;
  time_parts : int;  (** 1 for 1D *)
  blocks : 'v block array array;  (** indexed [space][time] *)
  space_boundaries : Partitioner.boundaries;
  time_boundaries : Partitioner.boundaries option;
}

let block t ~space ~time = t.blocks.(space).(time)

(* Deterministic Fisher–Yates over a block's entries.  SGD convergence
   depends on sample order: stratified SGD (Gemulla et al.) shuffles
   entries within blocks, and serial SGD shuffles the dataset; a
   [shuffle_seed] reproduces that here while keeping runs replayable. *)
let shuffle_in_place ~seed (a : 'a array) =
  let state = ref (Int64.of_int (seed lxor 0x5DEECE66)) in
  let next bound =
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical !state 33) mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** Reshuffle every block's entries in place (SGD implementations
    shuffle their local data each pass; vary [seed] per epoch). *)
let reshuffle t ~seed =
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun ti b -> shuffle_in_place ~seed:(seed + (s * 7919) + ti) b.entries)
        row)
    t.blocks

let total_entries t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc b -> acc + Array.length b.entries) acc row)
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
          mix (Array.length b.entries);
          Array.iter (fun (key, _) -> Array.iter mix key) b.entries)
        row)
    t.blocks;
  !h land max_int

(* Blocks over [iter]'s stored entries.  [part i lin] names the block
   ([space * time_parts + time]) of the [i]-th key in ascending order,
   [lin].  One pass over the sorted keys sizes every block exactly, a
   second fills them, so each block's entries arrive in ascending key
   order before the optional shuffle. *)
let build ?shuffle_seed ~space_parts ~time_parts ~space_boundaries
    ~time_boundaries ~part iter =
  let keys = Dist_array.sorted_keys iter in
  let sizes = Array.make (space_parts * time_parts) 0 in
  Array.iteri
    (fun i lin ->
      let b = part i lin in
      sizes.(b) <- sizes.(b) + 1)
    keys;
  let dummy = ([||], iter.Dist_array.default) in
  let cells = Array.map (fun n -> Array.make n dummy) sizes in
  let fill = Array.make (Array.length sizes) 0 in
  Array.iteri
    (fun i lin ->
      let b = part i lin in
      cells.(b).(fill.(b)) <-
        (Dist_array.delinearize iter lin, Dist_array.find_lin iter lin);
      fill.(b) <- fill.(b) + 1)
    keys;
  let blocks =
    Array.init space_parts (fun s ->
        Array.init time_parts (fun t ->
            let entries = cells.((s * time_parts) + t) in
            (match shuffle_seed with
            | Some seed ->
                shuffle_in_place ~seed:(seed + (s * 7919) + t) entries
            | None -> ());
            {
              space_idx = s;
              time_idx = (if time_parts = 1 then -1 else t);
              entries;
            }))
  in
  { space_parts; time_parts; blocks; space_boundaries; time_boundaries }

(* Blocks of a range cut along [space_dim] ([sb]) and, for 2D, along
   [time_dim] ([tb]).  A key's partition along a dimension is one table
   lookup on its index there, which is stride arithmetic on [lin]. *)
let cut ?shuffle_seed iter ~space_dim ~space_boundaries:sb ~time =
  let index_part dim b =
    let size = iter.Dist_array.dims.(dim)
    and stride = iter.Dist_array.strides.(dim) in
    let parts = Array.init size (Partitioner.part_of ~boundaries:b) in
    fun lin -> parts.(lin / stride mod size)
  in
  let space_parts = Partitioner.num_parts sb in
  let s_part = index_part space_dim sb in
  match time with
  | None ->
      build ?shuffle_seed ~space_parts ~time_parts:1 ~space_boundaries:sb
        ~time_boundaries:None
        ~part:(fun _ lin -> s_part lin)
        iter
  | Some (time_dim, tb) ->
      let time_parts = Partitioner.num_parts tb in
      let t_part = index_part time_dim tb in
      build ?shuffle_seed ~space_parts ~time_parts ~space_boundaries:sb
        ~time_boundaries:(Some tb)
        ~part:(fun _ lin -> (s_part lin * time_parts) + t_part lin)
        iter

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
    ~part:(fun i _ ->
      let c = tcoords.(i) in
      (Partitioner.part_of ~boundaries:sb (c.(1) - s_lo) * time_parts)
      + Partitioner.part_of ~boundaries:tb (c.(0) - t_lo))
    iter

let default_shuffle_seed = 17
