(** Iteration-space and DistArray partitioning (paper §4.3).

    Range partitions along a dimension are described by a boundary
    array [b] of length [parts + 1]: partition [p] covers indices
    [b.(p) .. b.(p+1) - 1].  For skewed sparse data, boundaries are
    chosen from a histogram so partitions carry near-equal entry
    counts; DistArrays also support a [randomize] operation that
    shuffles indices along chosen dimensions. *)

type boundaries = int array

let equal_ranges ~dim_size ~parts : boundaries =
  (* never more partitions than indices, but at least one so an empty
     dimension still yields the valid (degenerate) cover [|0; 0|] *)
  let parts = max 1 (min parts dim_size) in
  Array.init (parts + 1) (fun p -> p * dim_size / parts)

(** Entry counts at each index of every dimension in [dims], each from
    one pass over the stored keys' indices there
    ({!Dist_array.iter_index_along}), so no key array is built and no
    value is read. *)
let histograms (t : 'a Dist_array.t) ~dims =
  Array.map
    (fun dim ->
      let counts = Array.make t.Dist_array.dims.(dim) 0 in
      Dist_array.iter_index_along
        (fun _ j -> Array.unsafe_set counts j (Array.unsafe_get counts j + 1))
        t ~dim;
      counts)
    dims

(** Entry count at each index of dimension [dim]. *)
let histogram t ~dim = (histograms t ~dims:[| dim |]).(0)

(** Boundaries such that each partition holds a near-equal share of the
    total count (greedy prefix cut). *)
let balanced_ranges ~counts ~parts : boundaries =
  let dim_size = Array.length counts in
  let parts = min parts dim_size in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then equal_ranges ~dim_size ~parts
  else begin
    let b = Array.make (parts + 1) dim_size in
    b.(0) <- 0;
    let acc = ref 0 in
    let next_part = ref 1 in
    for i = 0 to dim_size - 1 do
      acc := !acc + counts.(i);
      (* cut after index i once the running share reaches p/parts, but
         leave enough indices for the remaining partitions *)
      while
        !next_part < parts
        && !acc * parts >= total * !next_part
        && i + 1 <= dim_size - (parts - !next_part)
        && i + 1 > b.(!next_part - 1)
      do
        b.(!next_part) <- i + 1;
        incr next_part
      done
    done;
    (* any uncut boundaries collapse at the end *)
    for p = !next_part to parts - 1 do
      b.(p) <- max b.(p - 1) (dim_size - (parts - p))
    done;
    b
  end

(** Which partition an index belongs to (binary search). *)
let part_of ~(boundaries : boundaries) idx =
  let lo = ref 0 and hi = ref (Array.length boundaries - 1) in
  (* invariant: boundaries.(!lo) <= idx < boundaries.(!hi) *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if idx >= boundaries.(mid) then lo := mid else hi := mid
  done;
  !lo

let num_parts (boundaries : boundaries) = Array.length boundaries - 1

let part_sizes ~(boundaries : boundaries) ~counts =
  Array.init (num_parts boundaries) (fun p ->
      let acc = ref 0 in
      for i = boundaries.(p) to boundaries.(p + 1) - 1 do
        acc := !acc + counts.(i)
      done;
      !acc)

(* ------------------------------------------------------------------ *)
(* Randomize                                                           *)
(* ------------------------------------------------------------------ *)

(* deterministic shuffle (Fisher–Yates with splitmix-style LCG) *)
let permutation ~seed n =
  let state = ref (Int64.of_int (seed lxor 0x2545F491)) in
  let next_int bound =
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let v = Int64.to_int (Int64.shift_right_logical !state 17) in
    v mod bound
  in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = next_int (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(** Randomize a DistArray along [dims_to_shuffle]: returns the permuted
    array plus the permutation used per dimension, so the driver can
    co-permute aligned parameter arrays (paper §4.3 "Dealing with
    Skewed Data Distribution"). *)
let randomize ?(seed = 7) t ~dims_to_shuffle =
  let dims = Dist_array.dims t in
  let perms =
    Array.mapi
      (fun d size ->
        if List.mem d dims_to_shuffle then permutation ~seed:(seed + d) size
        else Array.init size Fun.id)
      dims
  in
  let remapped =
    Dist_array.fold
      (fun acc key v ->
        let key' = Array.mapi (fun d k -> perms.(d).(k)) key in
        (key', v) :: acc)
      [] t
  in
  let t' =
    Dist_array.of_entries
      ~name:(Dist_array.name t ^ "_rand")
      ~dims ~default:t.Dist_array.default remapped
  in
  (t', perms)
