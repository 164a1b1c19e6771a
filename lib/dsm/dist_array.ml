(** Distributed Arrays — Orion's DSM abstraction (paper §3.1).

    A DistArray is an N-dimensional matrix, dense or sparse, holding
    elements of any type.  It supports random access via point and set
    queries, iteration, map, and creation from text files with a
    user-defined parser.

    In this reproduction the storage lives in one process; *placement*
    (which partition lives on which simulated worker) is tracked by the
    runtime for communication accounting, exactly because the numerics
    of a serializable schedule do not depend on placement. *)

exception Out_of_bounds of string
exception Dimension_mismatch of string

(* The sparse store: an open-addressing hash table from linearized
   keys to values, as two parallel arrays probed linearly.  Keys hash
   with an inline integer mix (the splitmix64 finalizer, truncated to
   OCaml's 63-bit ints), so a lookup never calls into the runtime's
   generic hash or compare and allocates nothing.  The capacity is a
   power of two at least twice the entry count, and no entry is ever
   removed, so every probe sequence ends at a free slot.  The two hot
   loops are C (lin_table_stubs.c, with the same hash): the rehash of
   every table, and the bulk store of (key, float) pairs. *)
module Lin_table = struct
  type 'a t = {
    mutable keys : int array;  (** [free] marks an empty slot *)
    mutable values : 'a array;
    mutable size : int;
    fill : 'a;  (** the value every empty slot holds *)
  }

  let free = -1

  let create fill =
    { keys = Array.make 64 free; values = Array.make 64 fill; size = 0; fill }

  let length t = t.size

  let[@inline] hash k =
    let k = (k lxor (k lsr 31)) * 0x3F58476D1CE4E5B9 in
    let k = (k lxor (k lsr 29)) * 0x14D049BB133111EB in
    k lxor (k lsr 32)

  (* the slot holding [k], or the free slot that ends its probe *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let i = ref (hash k land mask) in
    while
      let x = Array.unsafe_get keys !i in
      x <> k && x <> free
    do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    let i = slot t.keys k in
    if k <> free && Array.unsafe_get t.keys i = k then
      Array.unsafe_get t.values i
    else raise_notrace Not_found

  let mem t k = k <> free && Array.unsafe_get t.keys (slot t.keys k) = k

  external rehash : int array -> 'a array -> int array -> 'a array -> unit
    = "orion_lin_rehash"

  let grow t =
    let n = 2 * Array.length t.keys in
    let keys = Array.make n free and values = Array.make n t.fill in
    rehash t.keys t.values keys values;
    t.keys <- keys;
    t.values <- values

  (* The slot that stores [k], claimed (holding [fill]) when [k] is
     new; a new key that would fill the table past half grows it
     first.  [store_floats] follows the same rule in C. *)
  let rec insert t k =
    if k < 0 then invalid_arg "Dist_array: negative linearized key";
    let i = slot t.keys k in
    if Array.unsafe_get t.keys i = k then i
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      grow t;
      insert t k
    end
    else begin
      Array.unsafe_set t.keys i k;
      t.size <- t.size + 1;
      i
    end

  (* store [v] at [k]; true when [k] was not stored before *)
  let replace t k v =
    let size = t.size in
    let i = insert t k in
    Array.unsafe_set t.values i v;
    t.size <> size

  (* [insert] and a value write for pairs [pos, n) of [keys] and
     [values], in order, stopping before the first key outside
     [0, limit) or the first new key that needs the table to grow; the
     index of that pair, or [n] *)
  external store_floats :
    float t -> int array -> float array -> int -> int -> int -> int
    = "orion_lin_store_floats_byte" "orion_lin_store_floats"
  [@@noalloc]

  (* storage order, not key order *)
  let iter f t =
    Array.iteri
      (fun i k -> if k <> free then f k (Array.unsafe_get t.values i))
      t.keys

  let map f t =
    let fill = f t.fill in
    {
      keys = Array.copy t.keys;
      values =
        Array.mapi
          (fun i v -> if Array.unsafe_get t.keys i = free then fill else f v)
          t.values;
      size = t.size;
      fill;
    }
end

type 'a storage =
  | Dense : 'a array -> 'a storage  (** row-major *)
  | Sparse : {
      table : 'a Lin_table.t;  (** linearized key -> value *)
      mutable order : (int array * int array) option;
          (** cache of the keys in ascending order, for deterministic
              iteration, and each key's table slot ([table_order]);
              invalidated when a new key is inserted *)
    }
      -> 'a storage
  | Floats : float t -> Orion_lang.Value.t storage
      (** a read-only view of a float array: each value is boxed as a
          [Vfloat] only when it is read ({!float_view}) *)

and 'a t = {
  name : string;
  dims : int array;
  strides : int array;
  storage : 'a storage;
  default : 'a;
}

exception Read_only of string

let read_only : type a b. a t -> b =
 fun t ->
  raise
    (Read_only
       (Printf.sprintf "DistArray %s is a read-only view of float array %s"
          t.name
          (match t.storage with Floats src -> src.name | _ -> t.name)))

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let strides_of_dims dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  strides

let total_size dims = Array.fold_left ( * ) 1 dims

let check_dims name dims =
  if Array.length dims = 0 then
    raise (Dimension_mismatch (name ^ ": zero-dimensional array"));
  Array.iter
    (fun d ->
      if d <= 0 then
        raise (Dimension_mismatch (name ^ ": nonpositive dimension")))
    dims;
  (* linearized keys must fit in an int *)
  let rec check acc = function
    | [] -> ()
    | d :: rest ->
        if acc > max_int / d then
          raise (Dimension_mismatch (name ^ ": dimensions overflow int keys"))
        else check (acc * d) rest
  in
  check 1 (Array.to_list dims)

let linearize t key =
  let n = Array.length t.dims in
  if Array.length key <> n then
    raise
      (Dimension_mismatch
         (Printf.sprintf "%s: key has %d dims, array has %d" t.name
            (Array.length key) n));
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let k = key.(i) in
    if k < 0 || k >= t.dims.(i) then
      raise
        (Out_of_bounds
           (Printf.sprintf "%s: index %d out of bounds for dim %d (size %d)"
              t.name k i t.dims.(i)));
    acc := !acc + (k * t.strides.(i))
  done;
  !acc

let delinearize_in = Orion_lang.Value.delinearize_in

let delinearize t lin = delinearize_in ~dims:t.dims ~strides:t.strides lin

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

(** Dense array initialized from the structured key. *)
let init_dense ~name ~dims ~f =
  check_dims name dims;
  let strides = strides_of_dims dims in
  let size = total_size dims in
  let data =
    Array.init size (fun lin -> f (delinearize_in ~dims ~strides lin))
  in
  { name; dims; strides; storage = Dense data; default = data.(0) }

let fill_dense ~name ~dims value =
  check_dims name dims;
  let strides = strides_of_dims dims in
  {
    name;
    dims;
    strides;
    storage = Dense (Array.make (total_size dims) value);
    default = value;
  }

let create_sparse ~name ~dims ~default =
  check_dims name dims;
  {
    name;
    dims;
    strides = strides_of_dims dims;
    storage = Sparse { table = Lin_table.create default; order = None };
    default;
  }

let of_entries ~name ~dims ~default entries =
  let t = create_sparse ~name ~dims ~default in
  (match t.storage with
  | Sparse s ->
      List.iter
        (fun (key, v) -> ignore (Lin_table.replace s.table (linearize t key) v))
        entries
  | _ -> assert false);
  t

(* A view shares its source's dims, strides and storage: it allocates
   nothing per entry, and a write to the source shows through it. *)
let float_view ~name (src : float t) : Orion_lang.Value.t t =
  {
    name;
    dims = src.dims;
    strides = src.strides;
    storage = Floats src;
    default = Orion_lang.Value.Vfloat src.default;
  }

let floats_of_view (t : Orion_lang.Value.t t) =
  match t.storage with Floats src -> Some src | Dense _ | Sparse _ -> None

(* ------------------------------------------------------------------ *)
(* Basic access                                                        *)
(* ------------------------------------------------------------------ *)

let name t = t.name
let dims t = t.dims
let ndims t = Array.length t.dims

let rec count : type a. a t -> int =
 fun t ->
  match t.storage with
  | Dense d -> Array.length d
  | Sparse s -> Lin_table.length s.table
  | Floats src -> count src

let rec is_sparse : type a. a t -> bool =
 fun t ->
  match t.storage with
  | Dense _ -> false
  | Sparse _ -> true
  | Floats src -> is_sparse src

(** Element count × 8 bytes: the communication size of a partition is
    derived from this (values are floats or similarly-sized scalars). *)
let bytes_per_element = 8.0

let size_bytes t = float_of_int (count t) *. bytes_per_element

(* the value at an in-range linearized key, or the default *)
let rec get_lin : type a. a t -> int -> a =
 fun t lin ->
  match t.storage with
  | Dense d -> d.(lin)
  | Sparse s -> ( try Lin_table.find s.table lin with Not_found -> t.default)
  | Floats src -> Orion_lang.Value.Vfloat (get_lin src lin)

let get t key = get_lin t (linearize t key)

let rec get_opt_lin : type a. a t -> int -> a option =
 fun t lin ->
  match t.storage with
  | Dense d -> Some d.(lin)
  | Sparse s -> (
      match Lin_table.find s.table lin with
      | v -> Some v
      | exception Not_found -> None)
  | Floats src ->
      Option.map (fun f -> Orion_lang.Value.Vfloat f) (get_opt_lin src lin)

let get_opt t key = get_opt_lin t (linearize t key)

(* Concurrency contract (OCaml 5 domains, see [Orion.Engine]):
   disjoint-cell writes to [Dense] storage are plain disjoint field
   writes and race-free; replacing an EXISTING sparse key writes its
   value slot in place and is likewise safe across
   distinct keys — but inserting a NEW key may resize the table, which
   is not.  [enter_parallel]/[exit_parallel] bracket parallel sections;
   inside one, a new-key sparse insert raises instead of corrupting the
   table (apps must pre-populate every sparse key they will write). *)
let parallel_mode = Atomic.make false
let enter_parallel () = Atomic.set parallel_mode true
let exit_parallel () = Atomic.set parallel_mode false

exception Parallel_sparse_insert of string

let check_sparse_insert t lin =
  if Atomic.get parallel_mode then
    raise
      (Parallel_sparse_insert
         (Printf.sprintf
            "DistArray %s: insert of new sparse key %d during a parallel \
             section (pre-populate sparse keys before running in parallel)"
            t.name lin))

(* Store at an in-range linearized key.  Outside a parallel section a
   sparse store is one table operation, and a new key invalidates the
   sorted-key cache.  Inside one, a new key is refused before the table
   is touched. *)
let replace_lin : type a. a t -> int -> a -> unit =
 fun t lin v ->
  match t.storage with
  | Dense d -> d.(lin) <- v
  | Sparse s ->
      if Atomic.get parallel_mode && not (Lin_table.mem s.table lin) then
        check_sparse_insert t lin;
      if Lin_table.replace s.table lin v then s.order <- None
  | Floats _ -> read_only t

(* refuse a write to a view before any entry is looked at, so that even
   an empty write raises *)
let writable : type a. a t -> unit =
 fun t ->
  match t.storage with Floats _ -> read_only t | Dense _ | Sparse _ -> ()

let set t key v = replace_lin t (linearize t key) v

let[@inline] check_lin t lin =
  if lin < 0 || lin >= t.strides.(0) * t.dims.(0) then
    raise
      (Out_of_bounds
         (Printf.sprintf "%s: linearized key %d out of bounds" t.name lin))

let set_lin t lin v =
  check_lin t lin;
  replace_lin t lin v

(* [set_lin] of the first [n] pairs, in order.  A sparse table outside
   a parallel section takes them in C runs ([Lin_table.store_floats]),
   each ending at the end, at a key out of range, or at a growth step. *)
let store_floats (t : float t) keys values n =
  if n < 0 || n > Array.length keys || n > Array.length values then
    invalid_arg "Dist_array.store_floats: count outside the arrays";
  match t.storage with
  | Sparse s when not (Atomic.get parallel_mode) ->
      let limit = t.strides.(0) * t.dims.(0) in
      let i = ref 0 in
      while !i < n do
        let size = Lin_table.length s.table in
        i := Lin_table.store_floats s.table keys values !i n limit;
        if Lin_table.length s.table <> size then s.order <- None;
        if !i < n then begin
          check_lin t (Array.unsafe_get keys !i);
          Lin_table.grow s.table
        end
      done
  | Dense _ | Sparse _ ->
      for i = 0 to n - 1 do
        set_lin t (Array.unsafe_get keys i) (Array.unsafe_get values i)
      done

let rec find_lin : type a. a t -> int -> a =
 fun t lin ->
  match t.storage with
  | Dense d ->
      if lin < 0 || lin >= Array.length d then raise Not_found else d.(lin)
  | Sparse s -> Lin_table.find s.table lin
  | Floats src -> Orion_lang.Value.Vfloat (find_lin src lin)

let rec for_all : type a. (a -> bool) -> a t -> bool =
 fun p t ->
  match t.storage with
  | Dense d -> Array.for_all p d
  | Sparse s -> (
      match
        Lin_table.iter
          (fun _ v -> if not (p v) then raise_notrace Exit)
          s.table
      with
      | () -> true
      | exception Exit -> false)
  | Floats src -> for_all (fun f -> p (Orion_lang.Value.Vfloat f)) src

let update : type a. a t -> int array -> (a -> a) -> unit =
 fun t key f ->
  let lin = linearize t key in
  match t.storage with
  | Dense d -> d.(lin) <- f d.(lin)
  | Sparse s ->
      let cur =
        match Lin_table.find s.table lin with
        | v -> v
        | exception Not_found ->
            check_sparse_insert t lin;
            t.default
      in
      if Lin_table.replace s.table lin (f cur) then s.order <- None
  | Floats _ -> read_only t

(* ------------------------------------------------------------------ *)
(* Iteration (deterministic order)                                     *)
(* ------------------------------------------------------------------ *)

(* LSD radix sort of [keys] (all non-negative, none above [top]),
   moving [slots] along with them: [digit_bits]-bit digits, stable, and
   only as many passes as [top] has digits.  One pass counts every
   digit; a digit that is the same for every key moves nothing and is
   skipped.  Returns both arrays sorted, which may be the inputs
   themselves. *)
let digit_bits = 11

let radix_sort ~top (keys : int array) (slots : int array) =
  let n = Array.length keys in
  let radix = 1 lsl digit_bits in
  let mask = radix - 1 in
  let digits = ref 0 in
  while
    !digits * digit_bits < Sys.int_size && top lsr (!digits * digit_bits) > 0
  do
    incr digits
  done;
  let digits = !digits in
  let counts = Array.make (digits * radix) 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    for d = 0 to digits - 1 do
      let c = (d * radix) + ((k lsr (d * digit_bits)) land mask) in
      Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
    done
  done;
  let src = ref (keys, slots) and dst = ref None in
  for d = 0 to digits - 1 do
    let ((sk, ss) as s) = !src in
    let sh = d * digit_bits and base = d * radix in
    if counts.(base + ((sk.(0) lsr sh) land mask)) < n then begin
      let ((dk, ds) as t) =
        match !dst with
        | Some t -> t
        | None -> (Array.make n 0, Array.make n 0)
      in
      (* counts become each digit value's first output position *)
      let pos = ref 0 in
      for c = base to base + mask do
        let m = Array.unsafe_get counts c in
        Array.unsafe_set counts c !pos;
        pos := !pos + m
      done;
      for i = 0 to n - 1 do
        let k = Array.unsafe_get sk i in
        let c = base + ((k lsr sh) land mask) in
        let p = Array.unsafe_get counts c in
        Array.unsafe_set dk p k;
        Array.unsafe_set ds p (Array.unsafe_get ss i);
        Array.unsafe_set counts c (p + 1)
      done;
      src := t;
      dst := Some s
    end
  done;
  !src

(* [table]'s stored keys, ascending, and the table slot of each *)
let table_order (table : 'a Lin_table.t) =
  let n = Lin_table.length table in
  let tkeys = table.Lin_table.keys in
  let keys = Array.make n 0 and slots = Array.make n 0 in
  let top = ref 0 in
  if n > 0 then begin
    (* Every slot before the last stored one is copied to the next
       free position, which advances only past a stored key: no branch
       on a slot's occupancy (about half of them are free), and the
       last key lands at [n - 1]. *)
    let last = ref (Array.length tkeys - 1) in
    while Array.unsafe_get tkeys !last = Lin_table.free do
      decr last
    done;
    let i = ref 0 in
    for slot = 0 to !last - 1 do
      let k = Array.unsafe_get tkeys slot in
      Array.unsafe_set keys !i k;
      Array.unsafe_set slots !i slot;
      i := !i + Bool.to_int (k <> Lin_table.free);
      if k > !top then top := k
    done;
    keys.(n - 1) <- tkeys.(!last);
    slots.(n - 1) <- !last;
    top := max !top tkeys.(!last)
  end;
  radix_sort ~top:!top keys slots

(* a sparse array's [table_order], cached until a new key is inserted
   (the only way slots move) *)
let rec order : type a. a t -> int array * int array =
 fun t ->
  match t.storage with
  | Dense _ -> invalid_arg "Dist_array.order: dense storage"
  | Sparse s -> (
      match s.order with
      | Some o -> o
      | None ->
          let o = table_order s.table in
          s.order <- Some o;
          o)
  | Floats src -> order src

let rec sorted_keys : type a. a t -> int array =
 fun t ->
  match t.storage with
  | Dense d -> Array.init (Array.length d) Fun.id
  | Sparse _ -> fst (order t)
  | Floats src -> sorted_keys src

(* monomorphic in the element type, so no value is boxed on its way
   from the table to the result *)
let sorted_floats (t : float t) ranks =
  let n = Array.length ranks in
  let out = Array.create_float n in
  (match t.storage with
  | Dense d ->
      for i = 0 to n - 1 do
        Array.unsafe_set out i d.(Array.unsafe_get ranks i)
      done
  | Sparse s ->
      let slots = snd (order t) and values = s.table.Lin_table.values in
      for i = 0 to n - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get values slots.(Array.unsafe_get ranks i))
      done);
  out

let sorted_values : type a. a t -> int array -> a array =
 fun t ranks ->
  match t.storage with
  | Dense d -> Array.map (fun r -> d.(r)) ranks
  | Sparse s ->
      let slots = snd (order t) and values = s.table.Lin_table.values in
      Array.map (fun r -> Array.unsafe_get values slots.(r)) ranks
  | Floats src ->
      Array.map (fun f -> Orion_lang.Value.Vfloat f) (sorted_floats src ranks)

(* A key's index along [dim] is [lin / stride mod size]: the outermost
   dimension needs no [mod], the innermost no division. *)
let iter_index_along f t ~dim =
  let keys = sorted_keys t in
  let size = t.dims.(dim) and stride = t.strides.(dim) in
  for i = 0 to Array.length keys - 1 do
    let lin = Array.unsafe_get keys i in
    f i
      (if dim = 0 then lin / stride
       else if stride = 1 then lin mod size
       else lin / stride mod size)
  done

(** Iterate over stored entries in ascending key order (deterministic
    across runs, so serial executions are reproducible). *)
let iter f t =
  Array.iter (fun lin -> f (delinearize t lin) (find_lin t lin)) (sorted_keys t)

let fold f acc t =
  Array.fold_left
    (fun acc lin -> f acc (delinearize t lin) (find_lin t lin))
    acc (sorted_keys t)

(** Stored entries, ascending key order. *)
let entries t =
  Array.map (fun lin -> (delinearize t lin, find_lin t lin)) (sorted_keys t)

(* ------------------------------------------------------------------ *)
(* Element-wise comparison                                             *)
(* ------------------------------------------------------------------ *)

type diff_result = {
  d_array : string;
  d_cells : int;
  d_max_abs : float;
  d_max_rel : float;
  d_worst_key : int array option;
}

(* over the union of both arrays' stored keys, so a key written in
   only one of them is still compared (against the other's default) *)
let diff_arrays name (a : float t) (b : float t) : diff_result =
  let seen = Hashtbl.create 997 in
  let cells = ref 0 and max_abs = ref 0.0 and max_rel = ref 0.0 in
  let worst = ref None in
  let visit key _ =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let va = get a key and vb = get b key in
      let abs = Float.abs (va -. vb) in
      let rel =
        abs /. Float.max (Float.max (Float.abs va) (Float.abs vb)) 1e-12
      in
      incr cells;
      if abs > !max_abs then begin
        max_abs := abs;
        worst := Some key
      end;
      max_rel := Float.max !max_rel rel
    end
  in
  iter visit a;
  iter visit b;
  {
    d_array = name;
    d_cells = !cells;
    d_max_abs = !max_abs;
    d_max_rel = !max_rel;
    d_worst_key = !worst;
  }

let diff_ok ~tolerance d =
  match tolerance with
  | None -> d.d_max_abs = 0.0
  | Some tol -> d.d_max_rel <= tol

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let rec map : type a b. name:string -> f:(a -> b) -> a t -> b t =
 fun ~name ~f t ->
  match t.storage with
  | Dense d ->
      {
        t with
        name;
        storage = Dense (Array.map f d);
        default = f t.default;
      }
  | Sparse s ->
      {
        t with
        name;
        storage =
          Sparse
            { table = Lin_table.map f s.table; order = s.order };
        default = f t.default;
      }
  | Floats src -> map ~name ~f:(fun x -> f (Orion_lang.Value.Vfloat x)) src

(** Group stored entries by their index along [dim]; returns an
    association from the index value to that slice's entries (the
    paper's groupBy, evaluated eagerly). *)
let group_by ~dim t =
  let groups = Hashtbl.create 64 in
  iter
    (fun key v ->
      let g = key.(dim) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups g) in
      Hashtbl.replace groups g ((key, v) :: cur))
    t;
  Hashtbl.fold (fun g l acc -> (g, List.rev l) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Set queries on float arrays (for the interpreter and apps)          *)
(* ------------------------------------------------------------------ *)

(** Extract the 1-D slice of a float DistArray where exactly one
    subscript is a range/All and the rest are points, e.g. [W\[:, j\]]. *)
let slice_vec (t : float t) (subs : Orion_lang.Value.concrete_sub array) :
    float array =
  let n = Array.length t.dims in
  if Array.length subs <> n then
    raise (Dimension_mismatch (t.name ^ ": bad subscript arity"));
  let var_dim = ref (-1) in
  let lo = Array.make n 0 in
  let hi = Array.make n 0 in
  Array.iteri
    (fun i s ->
      match s with
      | Orion_lang.Value.Cpoint p ->
          lo.(i) <- p;
          hi.(i) <- p
      | Orion_lang.Value.Crange (a, b) ->
          if !var_dim >= 0 then
            raise (Dimension_mismatch (t.name ^ ": multiple range subscripts"));
          var_dim := i;
          lo.(i) <- a;
          hi.(i) <- b
      | Orion_lang.Value.Call_dim ->
          if !var_dim >= 0 then
            raise (Dimension_mismatch (t.name ^ ": multiple range subscripts"));
          var_dim := i;
          lo.(i) <- 0;
          hi.(i) <- t.dims.(i) - 1)
    subs;
  if !var_dim < 0 then [| get t lo |]
  else
    let d = !var_dim in
    Array.init
      (hi.(d) - lo.(d) + 1)
      (fun k ->
        let key = Array.copy lo in
        key.(d) <- lo.(d) + k;
        get t key)

let set_slice_vec (t : float t) (subs : Orion_lang.Value.concrete_sub array)
    (v : float array) =
  let n = Array.length t.dims in
  let var_dim = ref (-1) in
  let lo = Array.make n 0 in
  let hi = Array.make n 0 in
  Array.iteri
    (fun i s ->
      match s with
      | Orion_lang.Value.Cpoint p ->
          lo.(i) <- p;
          hi.(i) <- p
      | Orion_lang.Value.Crange (a, b) ->
          var_dim := i;
          lo.(i) <- a;
          hi.(i) <- b
      | Orion_lang.Value.Call_dim ->
          var_dim := i;
          lo.(i) <- 0;
          hi.(i) <- t.dims.(i) - 1)
    subs;
  if !var_dim < 0 then set t lo v.(0)
  else begin
    let d = !var_dim in
    let len = hi.(d) - lo.(d) + 1 in
    if Array.length v <> len then
      raise (Dimension_mismatch (t.name ^ ": slice length mismatch"));
    for k = 0 to len - 1 do
      let key = Array.copy lo in
      key.(d) <- lo.(d) + k;
      set t key v.(k)
    done
  end

(* ------------------------------------------------------------------ *)
(* Interpreter bridge                                                  *)
(* ------------------------------------------------------------------ *)

(** Expose a float DistArray to interpreted OrionScript code.  Optional
    [on_get]/[on_set] hooks let the runtime charge communication or
    record accesses.  When neither hook is supplied, the extern also
    carries {!Orion_lang.Value.fast_access}: point accessors and, for
    dense storage, the flat array itself, so compiled loop bodies
    bypass the boxed path entirely (a hooked extern must not, because
    the fast path would skip the hooks). *)
let to_extern ?on_get ?on_set (t : float t) : Orion_lang.Value.extern =
  let module V = Orion_lang.Value in
  let fast =
    match (on_get, on_set) with
    | None, None ->
        (* the accessors linearize (and bounds-check) immediately and do
           not retain the key array, so callers may reuse a key buffer;
           they are specialized to floats, so an element is boxed only
           by the call's return *)
        let lin key = linearize t key in
        let fa_get, fa_dense =
          match t.storage with
          | Dense d ->
              ( (fun key -> d.(lin key)),
                Some { V.dn_data = d; dn_strides = t.strides } )
          | Sparse _ -> ((fun key -> get_lin t (lin key)), None)
        in
        Some { V.fa_get; fa_set = set t; fa_dense }
    | _ -> None
  in
  let on_get = Option.value on_get ~default:(fun _ -> ()) in
  let on_set = Option.value on_set ~default:(fun _ -> ()) in
  let all_points subs =
    Array.for_all (function V.Cpoint _ -> true | _ -> false) subs
  in
  {
    V.ex_name = t.name;
    ex_dims = t.dims;
    ex_get =
      (fun subs ->
        on_get subs;
        if all_points subs then
          V.Vfloat
            (get t (Array.map (function V.Cpoint p -> p | _ -> 0) subs))
        else V.Vvec (slice_vec t subs));
    ex_set =
      (fun subs v ->
        on_set subs;
        match v with
        | V.Vfloat f when all_points subs ->
            set t (Array.map (function V.Cpoint p -> p | _ -> 0) subs) f
        | V.Vint i when all_points subs ->
            set t
              (Array.map (function V.Cpoint p -> p | _ -> 0) subs)
              (float_of_int i)
        | _ -> set_slice_vec t subs (V.to_vec v));
    ex_iter = (fun f -> iter (fun key v -> f key (V.Vfloat v)) t);
    ex_count = (fun () -> count t);
    ex_fast = fast;
  }

(** Expose a sparse DistArray with arbitrary element type by converting
    values with [to_value] (iteration only — e.g. SLR samples). *)
let to_iter_extern ~to_value (t : 'a t) : Orion_lang.Value.extern =
  let module V = Orion_lang.Value in
  {
    V.ex_name = t.name;
    ex_dims = t.dims;
    ex_get = (fun _ -> raise (Out_of_bounds (t.name ^ ": iteration only")));
    ex_set = (fun _ _ -> raise (Out_of_bounds (t.name ^ ": iteration only")));
    ex_iter = (fun f -> iter (fun key v -> f key (to_value v)) t);
    ex_count = (fun () -> count t);
    ex_fast = None;
  }

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

(* The stored entries whose index along [dim] lies in [lo, hi).  Dense
   storage yields one contiguous key run per combination of the
   leading dimensions, computed without a scan. *)
let rec region :
    type a. a t -> dim:int -> lo:int -> hi:int -> int array * a array =
 fun t ~dim ~lo ~hi ->
  let lo = max 0 lo and hi = min t.dims.(dim) hi in
  match t.storage with
  | Dense d ->
      let inner = t.strides.(dim) in
      let width = max 0 (hi - lo) * inner in
      let outer = total_size t.dims / (t.dims.(dim) * inner) in
      let keys =
        Array.init (outer * width) (fun i ->
            ((i / width) * t.dims.(dim) * inner) + (lo * inner) + (i mod width))
      in
      (keys, Array.map (fun lin -> d.(lin)) keys)
  | Sparse s ->
      let inside lin =
        let k = lin / t.strides.(dim) mod t.dims.(dim) in
        k >= lo && k < hi
      in
      let keys =
        Array.of_list (List.filter inside (Array.to_list (sorted_keys t)))
      in
      (keys, Array.map (fun lin -> Lin_table.find s.table lin) keys)
  | Floats src ->
      let keys, values = region src ~dim ~lo ~hi in
      (keys, Array.map (fun f -> Orion_lang.Value.Vfloat f) values)

let set_region t (keys : int array) (values : 'a array) =
  writable t;
  Array.iteri (fun i lin -> replace_lin t lin values.(i)) keys
(* ------------------------------------------------------------------ *)
(* Partitions                                                          *)
(* ------------------------------------------------------------------ *)

(* A self-describing slice of a float DistArray: its entries as
   parallel ascending linearized keys and values.  [Codec] gives it its
   one byte form, shared by checkpoints and the distributed runtime. *)
type partition = {
  pt_array : string;
  pt_dims : int array;
  pt_default : float;
  pt_sparse : bool;
  pt_keys : int array;
  pt_values : float array;
}

(** The stored entries of [t] that [select] keeps (linearized key,
    value; default: all of them, and dense arrays store every cell). *)
let to_partition ?(select = fun _ _ -> true) (t : float t) : partition =
  let all = sorted_keys t in
  let n = Array.length all in
  let keys = Array.make n 0 and values = Array.create_float n and m = ref 0 in
  Array.iter
    (fun lin ->
      let v = find_lin t lin in
      if select lin v then begin
        keys.(!m) <- lin;
        values.(!m) <- v;
        incr m
      end)
    all;
  {
    pt_array = t.name;
    pt_dims = Array.copy t.dims;
    pt_default = t.default;
    pt_sparse = is_sparse t;
    pt_keys = Array.sub keys 0 !m;
    pt_values = Array.sub values 0 !m;
  }

(** Write a partition's entries into [t] (point sets; sparse arrays may
    gain keys outside parallel sections).
    @raise Dimension_mismatch when names or dims disagree. *)
let apply_partition (t : float t) (p : partition) =
  if p.pt_array <> t.name then
    raise
      (Dimension_mismatch
         (Printf.sprintf "apply_partition: partition of %s applied to %s"
            p.pt_array t.name));
  if p.pt_dims <> t.dims then
    raise
      (Dimension_mismatch
         (Printf.sprintf "%s: partition dims do not match array dims" t.name));
  set_region t p.pt_keys p.pt_values

(** Materialize a fresh DistArray holding exactly a partition's
    entries, with the source's storage kind (dense cells missing from
    the partition hold [pt_default]). *)
let of_partition ?name (p : partition) : float t =
  let name = Option.value name ~default:p.pt_array in
  let t =
    if p.pt_sparse then
      create_sparse ~name ~dims:(Array.copy p.pt_dims) ~default:p.pt_default
    else fill_dense ~name ~dims:(Array.copy p.pt_dims) p.pt_default
  in
  set_region t p.pt_keys p.pt_values;
  t

(* ------------------------------------------------------------------ *)
(* Text-file loading                                                   *)
(* ------------------------------------------------------------------ *)

(** Load a sparse DistArray from a text file with a user-defined
    per-line parser (paper: [Orion.text_file(path, parse_line)]). *)
let text_file ~name ~dims ~default ~parse_line path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match parse_line line with
         | Some (key, v) -> entries := (key, v) :: !entries
         | None -> ()
     done
   with End_of_file -> close_in ic);
  of_entries ~name ~dims ~default (List.rev !entries)
