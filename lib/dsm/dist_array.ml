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

type 'a storage =
  | Dense of 'a array  (** row-major *)
  | Sparse of {
      table : (int, 'a) Hashtbl.t;  (** linearized key -> value *)
      mutable sorted_keys : int array option;
          (** cache of keys in ascending order, for deterministic
              iteration; invalidated when a new key is inserted *)
    }

type 'a t = {
  name : string;
  dims : int array;
  strides : int array;
  storage : 'a storage;
  default : 'a;
}

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let compute_strides dims =
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

let delinearize t lin =
  Array.mapi (fun i _ -> lin / t.strides.(i) mod t.dims.(i)) t.dims

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

(** Dense array initialized from the structured key. *)
let init_dense ~name ~dims ~f =
  check_dims name dims;
  let strides = compute_strides dims in
  let size = total_size dims in
  let delin lin = Array.mapi (fun i _ -> lin / strides.(i) mod dims.(i)) dims in
  let data = Array.init size (fun lin -> f (delin lin)) in
  { name; dims; strides; storage = Dense data; default = data.(0) }

let fill_dense ~name ~dims value =
  check_dims name dims;
  let strides = compute_strides dims in
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
    strides = compute_strides dims;
    storage = Sparse { table = Hashtbl.create 1024; sorted_keys = None };
    default;
  }

let of_entries ~name ~dims ~default entries =
  let t = create_sparse ~name ~dims ~default in
  (match t.storage with
  | Sparse s ->
      List.iter
        (fun (key, v) -> Hashtbl.replace s.table (linearize t key) v)
        entries
  | Dense _ -> assert false);
  t

(* ------------------------------------------------------------------ *)
(* Basic access                                                        *)
(* ------------------------------------------------------------------ *)

let name t = t.name
let dims t = t.dims
let ndims t = Array.length t.dims

let count t =
  match t.storage with
  | Dense d -> Array.length d
  | Sparse s -> Hashtbl.length s.table

let is_sparse t = match t.storage with Dense _ -> false | Sparse _ -> true

(** Element count × 8 bytes: the communication size of a partition is
    derived from this (values are floats or similarly-sized scalars). *)
let bytes_per_element = 8.0

let size_bytes t = float_of_int (count t) *. bytes_per_element

let get t key =
  let lin = linearize t key in
  match t.storage with
  | Dense d -> d.(lin)
  | Sparse s -> ( match Hashtbl.find_opt s.table lin with Some v -> v | None -> t.default)

let get_opt t key =
  let lin = linearize t key in
  match t.storage with
  | Dense d -> Some d.(lin)
  | Sparse s -> Hashtbl.find_opt s.table lin

(* Concurrency contract (OCaml 5 domains, see [Orion.Engine]):
   disjoint-cell writes to [Dense] storage are plain disjoint field
   writes and race-free; [Hashtbl.replace] on an EXISTING sparse key
   mutates the bound cons cell in place and is likewise safe across
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

let set t key v =
  let lin = linearize t key in
  match t.storage with
  | Dense d -> d.(lin) <- v
  | Sparse s ->
      if not (Hashtbl.mem s.table lin) then begin
        check_sparse_insert t lin;
        s.sorted_keys <- None
      end;
      Hashtbl.replace s.table lin v

let update t key f =
  let lin = linearize t key in
  match t.storage with
  | Dense d -> d.(lin) <- f d.(lin)
  | Sparse s ->
      let cur =
        match Hashtbl.find_opt s.table lin with
        | Some v -> v
        | None ->
            check_sparse_insert t lin;
            s.sorted_keys <- None;
            t.default
      in
      Hashtbl.replace s.table lin (f cur)

(* ------------------------------------------------------------------ *)
(* Iteration (deterministic order)                                     *)
(* ------------------------------------------------------------------ *)

let sorted_keys t =
  match t.storage with
  | Dense d -> Array.init (Array.length d) Fun.id
  | Sparse s -> (
      match s.sorted_keys with
      | Some k -> k
      | None ->
          let keys = Array.make (Hashtbl.length s.table) 0 in
          let i = ref 0 in
          Hashtbl.iter
            (fun k _ ->
              keys.(!i) <- k;
              incr i)
            s.table;
          Array.sort compare keys;
          s.sorted_keys <- Some keys;
          keys)

let value_of_lin t lin =
  match t.storage with
  | Dense d -> d.(lin)
  | Sparse s -> (
      match Hashtbl.find_opt s.table lin with Some v -> v | None -> t.default)

(** Iterate over stored entries in ascending key order (deterministic
    across runs, so serial executions are reproducible). *)
let iter f t =
  Array.iter (fun lin -> f (delinearize t lin) (value_of_lin t lin)) (sorted_keys t)

let fold f acc t =
  Array.fold_left
    (fun acc lin -> f acc (delinearize t lin) (value_of_lin t lin))
    acc (sorted_keys t)

(** Stored entries, ascending key order. *)
let entries t =
  Array.map (fun lin -> (delinearize t lin, value_of_lin t lin)) (sorted_keys t)

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

let map ~name ~f t =
  match t.storage with
  | Dense d ->
      {
        t with
        name;
        storage = Dense (Array.map f d);
        default = f t.default;
      }
  | Sparse s ->
      let table = Hashtbl.create (Hashtbl.length s.table) in
      Hashtbl.iter (fun k v -> Hashtbl.replace table k (f v)) s.table;
      {
        t with
        name;
        storage = Sparse { table; sorted_keys = s.sorted_keys };
        default = f t.default;
      }

let map_entries ~name ~default ~f t =
  let acc = fold (fun acc key v -> (key, v) :: acc) [] t in
  of_entries ~name ~dims:t.dims ~default
    (List.rev_map (fun (key, v) -> (key, f key v)) acc)

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
    carries {!Orion_lang.Value.fast_access} point accessors so compiled
    loop bodies bypass the boxed path entirely (a hooked extern must
    not, because the fast path would skip the hooks). *)
let to_extern ?on_get ?on_set (t : float t) : Orion_lang.Value.extern =
  let module V = Orion_lang.Value in
  let fast =
    match (on_get, on_set) with
    | None, None ->
        (* [get]/[set] linearize (and bounds-check) immediately and do
           not retain the key array, so callers may reuse a key buffer *)
        Some { V.fa_get = get t; fa_set = set t }
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
let region t ~dim ~lo ~hi : int array * 'a array =
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
      (keys, Array.map (fun lin -> Hashtbl.find s.table lin) keys)

let set_region t (keys : int array) (values : 'a array) =
  match t.storage with
  | Dense d -> Array.iteri (fun i lin -> d.(lin) <- values.(i)) keys
  | Sparse s ->
      Array.iteri
        (fun i lin ->
          if not (Hashtbl.mem s.table lin) then begin
            check_sparse_insert t lin;
            s.sorted_keys <- None
          end;
          Hashtbl.replace s.table lin values.(i))
        keys

(* ------------------------------------------------------------------ *)
(* Partition serialization                                             *)
(* ------------------------------------------------------------------ *)

(* One self-describing, wire/disk-safe slice of a DistArray.  This is
   the single serialized form shared by checkpointing and the
   distributed runtime (lib/net): entries are (linearized key, value)
   pairs in ascending key order, so round-tripping is deterministic and
   float values survive bitwise (Marshal writes their exact bits). *)
type 'a partition = {
  pt_array : string;  (** source DistArray name *)
  pt_dims : int array;
  pt_default : 'a;
  pt_sparse : bool;  (** storage kind of the source array *)
  pt_entries : (int * 'a) array;
      (** (linearized key, value), ascending key order *)
}

(** Serialize the entries of [t] selected by [select] (default: all
    stored entries; dense arrays store every cell) as a partition. *)
let to_partition ?select (t : 'a t) : 'a partition =
  let keep =
    match select with
    | None -> fun _ _ -> true
    | Some f -> fun lin v -> f (delinearize t lin) v
  in
  let out = ref [] in
  let n = ref 0 in
  Array.iter
    (fun lin ->
      let v = value_of_lin t lin in
      if keep lin v then begin
        out := (lin, v) :: !out;
        incr n
      end)
    (sorted_keys t);
  let entries = Array.make !n (0, t.default) in
  List.iteri (fun i e -> entries.(!n - 1 - i) <- e) !out;
  {
    pt_array = t.name;
    pt_dims = Array.copy t.dims;
    pt_default = t.default;
    pt_sparse = is_sparse t;
    pt_entries = entries;
  }

(** Write a partition's entries into [t] (point sets; sparse arrays may
    gain keys outside parallel sections).
    @raise Dimension_mismatch when names or dims disagree. *)
let apply_partition (t : 'a t) (p : 'a partition) =
  if p.pt_array <> t.name then
    raise
      (Dimension_mismatch
         (Printf.sprintf "apply_partition: partition of %s applied to %s"
            p.pt_array t.name));
  if p.pt_dims <> t.dims then
    raise
      (Dimension_mismatch
         (Printf.sprintf "%s: partition dims do not match array dims" t.name));
  Array.iter (fun (lin, v) -> set t (delinearize t lin) v) p.pt_entries

(** Materialize a fresh DistArray holding exactly a partition's
    entries, with the source's storage kind (dense cells missing from
    the partition hold [pt_default]). *)
let of_partition ?name (p : 'a partition) : 'a t =
  let name = Option.value name ~default:p.pt_array in
  let t =
    if p.pt_sparse then
      create_sparse ~name ~dims:(Array.copy p.pt_dims) ~default:p.pt_default
    else fill_dense ~name ~dims:(Array.copy p.pt_dims) p.pt_default
  in
  Array.iter (fun (lin, v) -> set t (delinearize t lin) v) p.pt_entries;
  t

let partition_to_bytes (p : 'a partition) : bytes = Marshal.to_bytes p []

let partition_of_bytes (b : bytes) : 'a partition =
  (Marshal.from_bytes b 0 : 'a partition)

(** Serialized size in bytes — the unit of the distributed runtime's
    per-array communication accounting. *)
let partition_size_bytes p = Bytes.length (partition_to_bytes p)

(* ------------------------------------------------------------------ *)
(* Text-file loading and checkpointing                                 *)
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

(** Checkpoint to disk (eagerly evaluated; paper §4.3 fault tolerance).
    The on-disk format is a whole-array {!partition}, the same
    serialization the distributed runtime ships over sockets. *)
let checkpoint t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc (to_partition t) [])

let restore ~name path : 'a t =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_partition ~name (Marshal.from_channel ic : 'a partition))
