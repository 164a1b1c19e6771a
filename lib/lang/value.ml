(** Runtime values for the OrionScript interpreter.

    Distributed arrays appear to interpreted code as {!extern} handles:
    opaque objects with get/set/iterate callbacks supplied by the host
    (the DSM layer).  This keeps the language library free of any
    dependency on the runtime. *)

type concrete_sub =
  | Cpoint of int  (** a single (0-based) position *)
  | Crange of int * int  (** inclusive 0-based range *)
  | Call_dim  (** the whole dimension, [:] *)

(** The element keys concrete subscripts [subs] cover in an array of
    [dims]: ranges and whole dimensions expanded, as a cartesian
    product in ascending order. *)
let keys_of_subs (dims : int array) (subs : concrete_sub array) :
    int array list =
  if Array.for_all (function Cpoint _ -> true | _ -> false) subs then
    [ Array.map (function Cpoint p -> p | _ -> 0) subs ]
  else
    let expand dim = function
      | Cpoint p -> [ p ]
      | Crange (a, b) -> List.init (max 0 (b - a + 1)) (fun k -> a + k)
      | Call_dim -> List.init dim Fun.id
    in
    let rec cart i =
      if i >= Array.length subs then [ [] ]
      else
        let tails = cart (i + 1) in
        List.concat_map
          (fun p -> List.map (fun tl -> p :: tl) tails)
          (expand dims.(i) subs.(i))
    in
    List.map Array.of_list (cart 0)

type t =
  | Vunit
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Vvec of float array  (** result of a set query on one dimension *)
  | Vtuple of t list
  | Vindex of int array  (** a loop-iteration index vector (0-based) *)
  | Vextern of extern

and extern = {
  ex_name : string;
  ex_dims : int array;
  ex_get : concrete_sub array -> t;
  ex_set : concrete_sub array -> t -> unit;
  ex_iter : (int array -> t -> unit) -> unit;
      (** iterate over stored entries with their (0-based) index vectors *)
  ex_count : unit -> int;  (** number of stored entries *)
  ex_fast : fast_access option;
      (** unboxed point-element accessors for float arrays — present
          only when no host hook needs to observe individual accesses,
          so compiled loop bodies (see [Compile]) may use them freely *)
}

(** Scalar fast path into a float-element array: point keys are passed
    as 0-based per-dimension indices (the callee linearizes against its
    strides and bounds-checks exactly like the boxed path, so the two
    paths raise identical exceptions). *)
and fast_access = {
  fa_get : int array -> float;
  fa_set : int array -> float -> unit;
  fa_dense : dense option;
      (** a dense array's flat storage, which compiled code reads and
          writes in place; it checks every key against [ex_dims] first
          and leaves an out-of-bounds key to [fa_get]/[fa_set], which
          raise the array's own error *)
}

(** Row-major storage: the element at 0-based key [k] is
    [dn_data.(sum_i k.(i) * dn_strides.(i))]. *)
and dense = { dn_data : float array; dn_strides : int array }

exception Type_error of string

let type_name = function
  | Vunit -> "unit"
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vbool _ -> "bool"
  | Vstring _ -> "string"
  | Vvec _ -> "vector"
  | Vtuple _ -> "tuple"
  | Vindex _ -> "index"
  | Vextern _ -> "distarray"

let to_float = function
  | Vint n -> float_of_int n
  | Vfloat f -> f
  | v -> raise (Type_error (Printf.sprintf "expected a number, got %s" (type_name v)))

let to_int = function
  | Vint n -> n
  | Vfloat f when Float.is_integer f -> int_of_float f
  | v -> raise (Type_error (Printf.sprintf "expected an int, got %s" (type_name v)))

let to_bool = function
  | Vbool b -> b
  | v -> raise (Type_error (Printf.sprintf "expected a bool, got %s" (type_name v)))

let to_vec = function
  | Vvec v -> v
  | Vfloat f -> [| f |]
  | Vint n -> [| float_of_int n |]
  | v -> raise (Type_error (Printf.sprintf "expected a vector, got %s" (type_name v)))

let rec pp fmt = function
  | Vunit -> Fmt.string fmt "()"
  | Vint n -> Fmt.int fmt n
  | Vfloat f -> Fmt.pf fmt "%g" f
  | Vbool b -> Fmt.bool fmt b
  | Vstring s -> Fmt.pf fmt "%S" s
  | Vvec v ->
      Fmt.pf fmt "[%a]"
        Fmt.(array ~sep:(any ", ") (fmt "%g"))
        v
  | Vtuple vs -> Fmt.pf fmt "(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp) vs
  | Vindex idx ->
      Fmt.pf fmt "#[%a]" Fmt.(array ~sep:(any ", ") int) idx
  | Vextern ex -> Fmt.pf fmt "<distarray %s>" ex.ex_name

let to_string v = Fmt.str "%a" pp v
