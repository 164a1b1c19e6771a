(** One-time loop-body compiler for [@parallel_for] bodies.

    The tree-walking {!Interp} re-dispatches on the AST for every
    element of every pass; this module performs that dispatch {e once},
    turning the body into a tree of OCaml closures that pass their
    results by destination, so a body allocates nothing per entry:

    - variables resolve to {e slots} instead of per-access hashtable
      lookups; a slot whose static type is known holds its value
      unboxed: an int or float cell, a vector's array, a key's index
      array;
    - a small static type inference (fixpoint over the body) finds
      scalar [int]/[float] expressions; an int node returns its value
      (ints are immediate), and a float node writes its result into a
      cell it owns, since a float returned from a closure is boxed;
    - vector expressions (extern slices, [+ - * /] and negation over
      vectors and scalars) fill a scratch [float array] owned by their
      node, reallocated only when the length changes, with
      {!Interp}'s element-wise loops; assigned to a vector local, they
      fill the local's own array instead;
    - DistArray point subscripts and one-dimensional slices
      ([W\[:, j\]], [W\[lo:hi, j\]]) resolve through the host's
      {!Value.fast_access}, when no profile or access hook needs to
      observe the access: a dense array's flat storage with the
      bounds checked first, else the unboxed point accessors.  A
      slice lying wholly inside dense storage is one strided loop, and
      a store [W\[:, j\] = x - g * s] into it runs as one loop;
    - builtins devirtualize to direct closures at compile time;
    - a block of float entries runs as one call ({!run_floats}): one
      handler for the block, and a key that the body only subscripts
      delinearized into one array the kernel owns;
    - the body is compiled twice: the generic closure tree above, which
      runs whenever a hook is attached, and a fast body for hook-free
      runs, in which the key's components live in int cells and each
      common straight-line statement is one closure whose operands
      (cells, dense storage with its strides and extents, the
      operator's loop) were all fixed when the kernel was built
      ({!fast_assign}, {!fast_store}, {!fast_op_store}).

    Observational equivalence with {!Interp.eval_body_for} is the
    contract: same values bitwise, same exceptions with the same
    positioned messages, same RNG consumption order, and — whenever
    [env.profile] or [env.on_array_access] is set — the same records in
    the same order (every access site dynamically falls back to the
    boxed, hook-calling path when either is set, so one kernel serves
    both the multicore engine and the journaling distributed worker).
    Vectors keep the interpreter's reference semantics: [b = a] makes
    both locals hold one array, so an index write through either shows
    in both, and an array another holder may see (a second local, or a
    boxed value handed out) is never refilled in place.

    Known (documented) semantic hole: globals are captured from
    [env.vars] once at compile time, so a host builtin that rebinds
    interpreter variables mid-loop would not be observed.  No host
    builtin does — they communicate through the DistArrays themselves —
    and [flush_locals] writes locals back after the loop, matching the
    interpreter's leaked bindings. *)

open Ast
open Value

let enabled () =
  match Sys.getenv_opt "ORION_NO_COMPILE" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

(* raised (at compile time only) on constructs whose semantics we
   cannot reproduce exactly; [compile_body] turns it into [None] *)
exception Unsupported

let infer_bug what =
  invalid_arg
    (Printf.sprintf
       "Orion compile: static type inference violated (%s) — run with \
        ORION_NO_COMPILE=1 and report this"
       what)

(* ------------------------------------------------------------------ *)
(* Slots and static types                                              *)
(* ------------------------------------------------------------------ *)

(* A tiny monotone lattice: Tbot (never assigned yet) ⊑ concrete type
   ⊑ Tany.  Soundness contract: if inference concludes Tint/Tfloat for
   an expression, every value it successfully evaluates to at run time
   is Vint/Vfloat. *)
type ty = Tbot | Tint | Tfloat | Tbool | Tvec | Tindex | Textern | Tany

let join a b =
  if a = b then a
  else match (a, b) with Tbot, x | x, Tbot -> x | _ -> Tany

let ty_of_value = function
  | Vint _ -> Tint
  | Vfloat _ -> Tfloat
  | Vbool _ -> Tbool
  | Vvec _ -> Tvec
  | Vindex _ -> Tindex
  | Vextern _ -> Textern
  | Vunit | Vstring _ | Vtuple _ -> Tany

type fcell = Interp.fcell = { mutable cv : float }
type icell = { mutable ci : int }

(* a vector variable: the array it holds, and whether another holder
   (a second local, or a boxed value handed out) may see that array —
   only an unshared array is refilled in place *)
type vcell = { mutable va : float array; mutable vshared : bool }

type xcell = { mutable ix : int array }

(* how a slot holds its value, fixed by its static type once inference
   converges; only [Rbox] holds a boxed [Value.t] *)
type rep =
  | Rbox
  | Rint of icell
  | Rfloat of fcell
  | Rvec of vcell
  | Rindex of xcell

type slot = {
  sl_name : string;
  sl_local : bool;  (** assigned somewhere in the body (or a loop var) *)
  mutable sl_v : Value.t;  (** the value of an [Rbox] slot *)
  mutable sl_defined : bool;
  mutable sl_ty : ty;
  mutable sl_rep : rep;
}

let check_defined s =
  if not s.sl_defined then
    raise
      (Interp.Runtime_error
         (Printf.sprintf "undefined variable %s" s.sl_name))

(* the slot's value for a use that keeps no reference to it *)
let slot_peek s =
  check_defined s;
  match s.sl_rep with
  | Rbox -> s.sl_v
  | Rint c -> Vint c.ci
  | Rfloat c -> Vfloat c.cv
  | Rvec c -> Vvec c.va
  | Rindex c -> Vindex c.ix

(* the slot's value, boxed for a holder that may keep it: a vector
   array handed out is shared from then on *)
let slot_get s =
  let v = slot_peek s in
  (match s.sl_rep with Rvec c -> c.vshared <- true | _ -> ());
  v

(* store a boxed value; a vector array from the boxed world may be held
   elsewhere, so it is shared *)
let slot_set s v =
  (match (s.sl_rep, v) with
  | Rbox, _ -> s.sl_v <- v
  | Rint c, Vint n -> c.ci <- n
  | Rfloat c, Vfloat f -> c.cv <- f
  | Rvec c, Vvec a ->
      c.va <- a;
      c.vshared <- true
  | Rindex c, Vindex k -> c.ix <- k
  | _ -> infer_bug ("slot " ^ s.sl_name));
  s.sl_defined <- true

let set_index s key =
  match s.sl_rep with
  | Rindex c ->
      c.ix <- key;
      s.sl_defined <- true
  | _ -> slot_set s (Vindex key)

(* the representation [s]'s static type allows; a captured value of
   another type (only the forced key and value slots can hold one)
   leaves the slot undefined until the kernel first sets it *)
let fix_rep s =
  let rep =
    match (s.sl_ty, s.sl_v) with
    | Tint, v -> Rint { ci = (match v with Vint n -> n | _ -> 0) }
    | Tfloat, v -> Rfloat { cv = (match v with Vfloat f -> f | _ -> 0.0) }
    | Tvec, v ->
        Rvec { va = (match v with Vvec a -> a | _ -> [||]); vshared = true }
    | Tindex, v -> Rindex { ix = (match v with Vindex k -> k | _ -> [||]) }
    | _ -> Rbox
  in
  (match rep with
  | Rbox -> ()
  | _ -> if ty_of_value s.sl_v <> s.sl_ty then s.sl_defined <- false);
  s.sl_rep <- rep

module Names = Set.Make (String)

type ctx = {
  env : Interp.env;
  slots : (string, slot) Hashtbl.t;
  mutable assigned : Names.t;
      (** while compiling, the locals assigned on every path from the
          body's start to the current statement *)
  fast : bool;
      (** compiling the body that runs with no hook attached: common
          statements become one closure each ({!fast_assign}) *)
  key_var : string;
  key_cells : icell array;
      (** in the fast body, [key[c]]'s value for a literal [c] (empty
          unless the key stays local) *)
}

let slot ctx name =
  match Hashtbl.find_opt ctx.slots name with
  | Some s -> s
  | None -> infer_bug ("unallocated slot " ^ name)

(* is [s] certainly defined wherever the statement being compiled reads
   it?  A slot defined at compile time stays defined (nothing undefines
   a variable), and so does one assigned earlier on every path *)
let known ctx s = s.sl_defined || Names.mem s.sl_name ctx.assigned

(* A compiled block: its statements and their source positions. *)
type cblock = {
  cb_env : Interp.env;
  cb_stmts : (unit -> unit) array;
  cb_pos : pos array;
}

type t = {
  c_env : Interp.env;
  c_key : slot;
  c_key_cells : icell array;
      (** what [c_fast] reads [key[1]], [key[2]], … from, set per entry *)
  c_key_local : bool;
      (** the key is only subscripted by points ({!key_stays_local}):
          a block's keys are delinearized into [c_key_buf] *)
  c_key_buf : xcell;
  c_value : slot;
  c_value_float : bool;  (** runs only through [run_float] *)
  c_body : cblock;  (** every statement generic: runs when a hook is attached *)
  c_fast : cblock;  (** the same statements, common ones specialized *)
  c_locals : slot list;
}

(* ------------------------------------------------------------------ *)
(* Name collection                                                     *)
(* ------------------------------------------------------------------ *)

(* every expression the body evaluates, with each assignment target as
   the variable or the read [v[subs]] it names, and each loop variable
   and iterated array as a variable *)
let body_exprs body =
  Ast.fold_stmts
    (fun acc stmt ->
      match stmt.sk with
      | Assign (lv, e) | Op_assign (_, lv, e) ->
          (match lv with
          | Lvar v -> Var v
          | Lindex (v, subs) -> Index (Var v, subs))
          :: e :: acc
      | If (c, _, _) | While (c, _) -> c :: acc
      | For { kind = Range_loop { var; lo; hi }; _ } -> Var var :: lo :: hi :: acc
      | For { kind = Each_loop { key; value; arr }; _ } ->
          Var key :: Var value :: Var arr :: acc
      | Expr_stmt e -> e :: acc
      | Break | Continue -> acc)
    [] body

(* [f acc e] over every (sub-)expression the body evaluates *)
let fold_body f acc body =
  List.fold_left (Ast.fold_expr f) acc (body_exprs body)

(* every variable the body reads or writes, including array bases,
   subscript expressions and loop variables *)
let referenced_names body =
  fold_body (fun acc e -> match e with Var v -> v :: acc | _ -> acc) [] body
  |> List.sort_uniq String.compare

(* Does the body do no more with [key] than subscript it by one point
   ([key[1]])?  Then no value holds the key array past its entry, and a
   block's keys may all be written into one array. *)
let key_stays_local key body =
  let uses, points =
    fold_body
      (fun (uses, points) e ->
        match e with
        | Var v when v = key -> (uses + 1, points)
        | Index (Var v, [ Sub_expr _ ]) when v = key -> (uses, points + 1)
        | _ -> (uses, points))
      (0, 0) body
  in
  uses = points

(* how many components the body reads from [key] by a literal,
   [key[1]] to [key[n]]: the cells a local key's components go in *)
let key_width key body =
  fold_body
    (fun n e ->
      match e with
      | Index (Var v, [ Sub_expr (Int_lit c) ]) when v = key -> max n c
      | _ -> n)
    0 body

(* the names a statement rebinds: [v = e], [v op= e] and loop
   variables.  An index write [A[i] = e] changes what [A] holds, never
   which array [A] is, so it leaves [A] a captured global. *)
let rebound_names body =
  Ast.fold_stmts
    (fun acc stmt ->
      match stmt.sk with
      | Assign (Lvar v, _) | Op_assign (_, Lvar v, _) -> v :: acc
      | For { kind = Range_loop { var; _ }; _ } -> var :: acc
      | For { kind = Each_loop { key; value; _ }; _ } -> key :: value :: acc
      | Assign (Lindex _, _)
      | Op_assign (_, Lindex _, _)
      | If _ | While _ | Expr_stmt _ | Break | Continue ->
          acc)
    [] body

(* ------------------------------------------------------------------ *)
(* Static type inference (fixpoint)                                    *)
(* ------------------------------------------------------------------ *)

let is_point = function Sub_expr _ -> true | Sub_range _ | Sub_all -> false
let all_points subs = List.for_all is_point subs

(* exactly one [:] or [lo:hi] subscript, points everywhere else *)
let is_slice subs =
  List.length (List.filter (fun s -> not (is_point s)) subs) = 1

(* is [base] a compile-time-captured DistArray that no statement
   rebinds, carrying unboxed accessors, subscripted once per dimension?
   Its point reads are Vfloat and its slices Vvec (see
   {!Value.fast_access} and {!compile_body}'s contract). *)
let fast_extern ctx base subs =
  match base with
  | Var v -> (
      match Hashtbl.find_opt ctx.slots v with
      | Some ({ sl_local = false; sl_defined = true; sl_v = Vextern ex; _ } as s)
        when List.length subs = Array.length ex.ex_dims ->
          Option.map (fun fa -> (s, ex, fa)) ex.ex_fast
      | _ -> None)
  | _ -> None

let fast_extern_read ctx base subs =
  if all_points subs then fast_extern ctx base subs else None

let fast_extern_slice ctx base subs =
  if is_slice subs then fast_extern ctx base subs else None

let rec infer ctx e : ty =
  match e with
  | Int_lit _ -> Tint
  | Float_lit _ -> Tfloat
  | Bool_lit _ -> Tbool
  | String_lit _ -> Tany
  | Var v -> (slot ctx v).sl_ty
  | Unop (Neg, a) -> (
      match infer ctx a with
      | (Tint | Tfloat | Tvec | Tbot) as t -> t
      | _ -> Tany)
  | Unop (Not, _) -> Tbool
  | Binop (op, a, b) -> infer_binop op (infer ctx a) (infer ctx b)
  | Call (f, args) -> infer_call ctx f (List.map (infer ctx) args)
  | Tuple _ -> Tany
  | Index (base, subs) -> (
      match (fast_extern_read ctx base subs, fast_extern_slice ctx base subs) with
      | Some _, _ -> Tfloat
      | None, Some _ -> Tvec
      | None, None -> (
          match (infer ctx base, subs) with
          | Tvec, [ Sub_expr _ ] -> Tfloat
          | Tvec, ([ Sub_all ] | [ Sub_range _ ]) -> Tvec
          | Tindex, [ Sub_expr _ ] -> Tint
          | _ -> Tany))

and infer_binop op ta tb =
  match op with
  | Add | Sub | Mul | Div | Mod -> (
      match (ta, tb) with
      | Tbot, _ | _, Tbot -> Tbot
      | Tint, Tint -> Tint
      | (Tint | Tfloat), (Tint | Tfloat) -> Tfloat
      (* element-wise; [%] raises on a vector operand *)
      | Tvec, (Tvec | Tint | Tfloat) | (Tint | Tfloat), Tvec when op <> Mod ->
          Tvec
      | _ -> Tany)
  | Pow -> (
      match (ta, tb) with
      | Tbot, _ | _, Tbot -> Tbot
      | Tint, Tint -> Tany (* int^int is Vint only when the exponent ≥ 0 *)
      | (Tint | Tfloat), (Tint | Tfloat) -> Tfloat
      | _ -> Tany)
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> Tbool

and infer_call _ctx f args =
  match (f, args) with
  | ("int" | "floor" | "ceil" | "round" | "rand_int"), [ _ ] -> Tint
  | "length", [ (Tvec | Tindex | Textern) ] -> Tint
  | "size", [ _; _ ] -> Tint
  | ("float" | "abs2" | "sigmoid" | "norm"), [ _ ] -> Tfloat
  | ("exp" | "log" | "sqrt"), _ -> Tfloat (* any arity: Vfloat or raise *)
  | "dot", [ _; _ ] -> Tfloat
  | "sum", [ Tvec ] -> Tfloat
  | "abs", [ Tint ] -> Tint
  | "abs", [ Tfloat ] -> Tfloat
  | ("min" | "max"), [ Tint; Tint ] -> Tint
  | ("min" | "max"), [ (Tint | Tfloat); (Tint | Tfloat) ] -> Tfloat
  | ("rand" | "randn"), [] -> Tfloat
  | "randn", [ _ ] -> Tvec
  | "zeros", [ _ ] -> Tvec
  | "fill", [ _; _ ] -> Tvec
  | _ -> Tany

(* one inference pass over the body; returns whether any slot widened *)
let infer_pass ctx body =
  let changed = ref false in
  let widen s t =
    let t' = join s.sl_ty t in
    if t' <> s.sl_ty then begin
      s.sl_ty <- t';
      changed := true
    end
  in
  let rec stmts b = List.iter stmt b
  and stmt st =
    match st.sk with
    | Assign (Lvar v, e) -> widen (slot ctx v) (infer ctx e)
    | Op_assign (op, Lvar v, e) ->
        let s = slot ctx v in
        widen s (infer_binop op s.sl_ty (infer ctx e))
    | Assign (Lindex _, _) | Op_assign (_, Lindex _, _) -> ()
    | If (_, t, f) -> stmts t; stmts f
    | While (_, b) -> stmts b
    | For { kind; body; _ } ->
        (match kind with
        | Range_loop { var; _ } -> widen (slot ctx var) Tint
        | Each_loop { key; value; _ } ->
            widen (slot ctx key) Tindex;
            (* ex_iter yields arbitrary Value.t *)
            widen (slot ctx value) Tany);
        stmts body
    | Expr_stmt _ | Break | Continue -> ()
  in
  stmts body;
  !changed

(* ------------------------------------------------------------------ *)
(* Compiled subscripts                                                 *)
(* ------------------------------------------------------------------ *)

(* a compiled 0-based point position: a constant, a key element
   ([key[c]] for a constant [c]) or an int variable certainly defined,
   read without a call, or else a closure *)
type isrc =
  | Iconst of int
  | Ikey of xcell * int  (** [ix.(c)] *)
  | Iint of icell  (** [ci - 1] *)
  | Irun of (unit -> int)

(* the cell the fast body reads [key[c]] from *)
let key_cell ctx v c =
  if ctx.fast && v = ctx.key_var && c >= 1 && c <= Array.length ctx.key_cells
  then Some ctx.key_cells.(c - 1)
  else None

let[@inline] iget = function
  | Iconst k -> k
  | Ikey (c, p) -> c.ix.(p)
  | Iint c -> c.ci - 1
  | Irun f -> f ()

(* a compiled subscript, producing 0-based concrete positions *)
type csub = Kall | Kpoint of isrc | Krange of isrc * isrc

(* evaluate compiled subscripts to a FRESH concrete-subscript array
   (fresh because access hooks retain what they are handed), in
   left-to-right order with lo-before-hi, as the interpreter does *)
let eval_csubs (ks : csub array) : Value.concrete_sub array =
  let n = Array.length ks in
  let out = Array.make n Call_dim in
  for i = 0 to n - 1 do
    out.(i) <-
      (match ks.(i) with
      | Kall -> Call_dim
      | Kpoint p -> Cpoint (iget p)
      | Krange (l, h) ->
          let lo = iget l in
          Crange (lo, iget h))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Shared runtime fragments (mirrors of the interpreter's dispatch)    *)
(* ------------------------------------------------------------------ *)

let read_extern env ex ks =
  (match env.Interp.profile with
  | Some p -> Profile.record_array_read p ex.ex_name
  | None -> ());
  let cs = eval_csubs ks in
  let r = ex.ex_get cs in
  (match env.Interp.on_array_access with
  | Some f -> f ex ~write:false cs
  | None -> ());
  r

let write_extern env ex ks v =
  (match env.Interp.profile with
  | Some p -> Profile.record_array_write p ex.ex_name
  | None -> ());
  let cs = eval_csubs ks in
  ex.ex_set cs v;
  match env.Interp.on_array_access with
  | Some f -> f ex ~write:true cs
  | None -> ()

let index_value env v (ks : csub array) =
  match v with
  | Vextern ex -> read_extern env ex ks
  | Vvec arr -> (
      match ks with
      | [| Kpoint p |] -> Vfloat arr.(iget p)
      | [| Kall |] -> Vvec (Array.copy arr)
      | [| Krange (l, h) |] ->
          let lo = iget l in
          let hi = iget h in
          Interp.checked_vec_range ~len:(Array.length arr) ~lo ~hi;
          Vvec (Array.sub arr lo (hi - lo + 1))
      | _ -> raise (Interp.Runtime_error "vectors take exactly one subscript"))
  | Vindex idx -> (
      match ks with
      | [| Kpoint p |] -> Vint (idx.(iget p) + 1)
      | _ ->
          raise (Interp.Runtime_error "index vectors take one point subscript"))
  | Vtuple vs -> (
      match ks with
      | [| Kpoint p |] -> List.nth vs (iget p)
      | _ -> raise (Interp.Runtime_error "tuples take one point subscript"))
  | v -> raise (Type_error ("cannot index a " ^ type_name v))

(* a vector's elements are written in place, so every holder of the
   array sees the store *)
let assign_index_value env s (ks : csub array) v =
  match slot_peek s with
  | Vextern ex -> write_extern env ex ks v
  | Vvec arr -> (
      match ks with
      | [| Kpoint p |] ->
          let i = iget p in
          arr.(i) <- to_float v
      | [| Kall |] ->
          let src = to_vec v in
          if Array.length src <> Array.length arr then
            raise (Interp.Runtime_error "vector length mismatch in assignment")
          else Array.blit src 0 arr 0 (Array.length arr)
      | [| Krange (l, h) |] ->
          let lo = iget l in
          let hi = iget h in
          Interp.checked_vec_range ~len:(Array.length arr) ~lo ~hi;
          let src = to_vec v in
          if Array.length src <> hi - lo + 1 then
            raise (Interp.Runtime_error "vector length mismatch in assignment")
          else Array.blit src 0 arr lo (hi - lo + 1)
      | _ -> raise (Interp.Runtime_error "unsupported vector assignment"))
  | other -> raise (Type_error ("cannot assign into a " ^ type_name other))

(* hooks-off test: the fast unboxed paths are only legal when neither
   the profiler nor the access hook needs to observe the access *)
let no_hooks env =
  match (env.Interp.profile, env.Interp.on_array_access) with
  | None, None -> true
  | _ -> false

(* ---- unboxed scalar arithmetic ------------------------------------ *)

(* The float operator [op] over cells, taken once when a kernel is
   built: a float passed to or returned from a function that is not
   inlined is boxed, a cell is not.  One rounding per operation, as
   [Interp.eval_binop]. *)
let float_op_fn op : fcell -> fcell -> fcell -> unit =
  match op with
  | Add -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- x +. y
  | Sub -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- x -. y
  | Mul -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- x *. y
  | Div -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- x /. y
  | Mod -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- Float.rem x y
  | Pow -> fun a b o -> let x = a.cv and y = b.cv in o.cv <- Float.pow x y
  | _ -> infer_bug "float operator"

type fun1 = Fneg | Fexp | Flog | Fsqrt | Fsigmoid | Fabs2 | Fabs

let float_fun1 op (a : fcell) (out : fcell) =
  let x = a.cv in
  match op with
  | Fneg -> out.cv <- -.x
  | Fexp -> out.cv <- exp x
  | Flog -> out.cv <- log x
  | Fsqrt -> out.cv <- sqrt x
  | Fsigmoid -> out.cv <- 1.0 /. (1.0 +. exp (-.x))
  | Fabs2 -> out.cv <- x *. x
  | Fabs -> out.cv <- Float.abs x

(* [to_int]'s acceptance of a float and its error text; the test is
   [Float.is_integer]'s, written out so that [x] stays unboxed *)
let int_of_cell (c : fcell) =
  let x = c.cv in
  if x = Float.trunc x && x -. x = 0.0 then int_of_float x
  else raise (Type_error "expected an int, got float")

(* ---- DistArray access through the fast accessors ------------------ *)

(* the row-major offset of [key] in a dense array, or -1 when an index
   lies outside [dims] *)
let dense_offset dims strides key =
  let lin = ref 0 and ok = ref true in
  for i = 0 to Array.length key - 1 do
    let k = key.(i) in
    if k < 0 || k >= dims.(i) then ok := false
    else lin := !lin + (k * strides.(i))
  done;
  if !ok then !lin else -1

(* [A[p1, .., pn]] on a fast extern: compiled positions, a reused key
   buffer they fill, and the same positions as subscripts for the boxed
   path *)
type point = {
  pt_ex : extern;
  pt_fa : fast_access;
  pt_ps : isrc array;
  pt_key : int array;
  pt_ks : csub array;
}

let fill_key pt =
  for i = 0 to Array.length pt.pt_ps - 1 do
    pt.pt_key.(i) <- iget pt.pt_ps.(i)
  done

(* evaluate the subscripts, then read the element into [out]; an
   out-of-bounds key goes to the accessor, which raises its error *)
let point_get pt (out : fcell) =
  fill_key pt;
  let key = pt.pt_key in
  match pt.pt_fa.fa_dense with
  | Some d ->
      let lin = dense_offset pt.pt_ex.ex_dims d.dn_strides key in
      out.cv <- (if lin >= 0 then d.dn_data.(lin) else pt.pt_fa.fa_get key)
  | None -> out.cv <- pt.pt_fa.fa_get key

let point_set pt (src : fcell) =
  fill_key pt;
  let key = pt.pt_key and x = src.cv in
  match pt.pt_fa.fa_dense with
  | Some d ->
      let lin = dense_offset pt.pt_ex.ex_dims d.dn_strides key in
      if lin >= 0 then d.dn_data.(lin) <- x else pt.pt_fa.fa_set key x
  | None -> pt.pt_fa.fa_set key x

(* a vector node's scratch array, reallocated only when the length
   changes *)
type vbuf = { mutable vb : float array }

let vbuf_for b n =
  if Array.length b.vb = n then b.vb
  else begin
    let a = Array.create_float n in
    b.vb <- a;
    a
  end

(* [A[p1, .., lo:hi, .., pn]] on a fast extern: the compiled
   subscripts, the sliced dimension, a key buffer that holds the point
   positions and walks the sliced one, and the node's result buffer.
   On dense storage the flat array and the sliced dimension's stride
   are fixed at compile time. *)
type slice = {
  sc_ex : extern;
  sc_fa : fast_access;
  sc_ks : csub array;
  sc_dim : int;
  sc_extent : int;  (** the sliced dimension's size: the bounds of [:] *)
  sc_key : int array;
  sc_buf : vbuf;
  sc_dense : bool;
  sc_data : float array;  (** the dense storage, or [[||]] *)
  sc_strides : int array;  (** its strides *)
  sc_step : int;  (** the sliced dimension's *)
  mutable sc_lo : int;
  mutable sc_hi : int;
  mutable sc_base : int;
      (** dense offset of key [sc_lo], or -1 when the slice does not lie
          wholly inside a dense array *)
}

let make_slice ex fa ks =
  let n = Array.length ks in
  let dim = ref 0 in
  Array.iteri (fun i k -> match k with Kpoint _ -> () | _ -> dim := i) ks;
  let data, strides =
    match fa.fa_dense with
    | Some dn -> (dn.dn_data, dn.dn_strides)
    | None -> ([||], Array.make n 0)
  in
  {
    sc_ex = ex;
    sc_fa = fa;
    sc_ks = ks;
    sc_dim = !dim;
    sc_extent = ex.ex_dims.(!dim);
    sc_key = Array.make n 0;
    sc_buf = { vb = [||] };
    sc_dense = Option.is_some fa.fa_dense;
    sc_data = data;
    sc_strides = strides;
    sc_step = strides.(!dim);
    sc_lo = 0;
    sc_hi = ex.ex_dims.(!dim) - 1;
    sc_base = -1;
  }

(* Evaluate the subscripts, left to right with lo before hi, as
   [eval_csubs], and locate the slice in dense storage ([sc_base]) as
   they come ([key], [dims] and [strides] are as long as the
   subscripts; [:] keeps the bounds {!make_slice} set).  Returns the
   slice's length, negative for a reversed range. *)
let[@inline] locate_slice sc =
  let ks = sc.sc_ks and key = sc.sc_key and dims = sc.sc_ex.ex_dims
  and strides = sc.sc_strides in
  let base = ref 0 and inside = ref sc.sc_dense in
  for i = 0 to Array.length ks - 1 do
    match Array.unsafe_get ks i with
    | Kpoint p ->
        let v = iget p in
        Array.unsafe_set key i v;
        if v < 0 || v >= Array.unsafe_get dims i then inside := false
        else base := !base + (v * Array.unsafe_get strides i)
    | Kall -> ()
    | Krange (l, h) ->
        let lo = iget l in
        sc.sc_lo <- lo;
        sc.sc_hi <- iget h
  done;
  let lo = sc.sc_lo and hi = sc.sc_hi in
  sc.sc_base <-
    (if !inside && lo >= 0 && hi < sc.sc_extent then
       !base + (lo * sc.sc_step)
     else -1);
  hi - lo + 1

(* An extern with a fast accessor answers a slice element by element,
   as [Dist_array.slice_vec] / [set_slice_vec] do: ascending positions,
   so an out-of-range element raises after the same prefix.  A located
   slice is one strided loop over dense storage; any other goes to the
   point accessor from its first element, which raises at the first key
   out of bounds. *)
let[@inline] gather sc r n =
  let base = sc.sc_base in
  if base >= 0 then begin
    let data = sc.sc_data and st = sc.sc_step in
    for k = 0 to n - 1 do
      r.(k) <- data.(base + (k * st))
    done
  end
  else begin
    let key = sc.sc_key and d = sc.sc_dim and lo = sc.sc_lo in
    for k = 0 to n - 1 do
      key.(d) <- lo + k;
      r.(k) <- sc.sc_fa.fa_get key
    done
  end

(* [src] into a located slice of length [n]; a store of another length
   goes to the boxed setter, which owns that error *)
let scatter sc src n =
  if Array.length src <> n then
    sc.sc_ex.ex_set
      (Array.mapi
         (fun i k ->
           match k with
           | Kpoint _ -> Cpoint sc.sc_key.(i)
           | Kall -> Call_dim
           | Krange _ -> Crange (sc.sc_lo, sc.sc_hi))
         sc.sc_ks)
      (Vvec src)
  else
    let base = sc.sc_base in
    if base >= 0 then begin
      let data = sc.sc_data and st = sc.sc_step in
      for k = 0 to n - 1 do
        data.(base + (k * st)) <- src.(k)
      done
    end
    else begin
      let key = sc.sc_key and d = sc.sc_dim and lo = sc.sc_lo in
      for k = 0 to n - 1 do
        key.(d) <- lo + k;
        sc.sc_fa.fa_set key src.(k)
      done
    end

(* a reversed range fails as [Dist_array.slice_vec]'s [Array.init] *)
let read_slice sc =
  let n = locate_slice sc in
  if n < 0 then invalid_arg "Array.init";
  let r = vbuf_for sc.sc_buf n in
  gather sc r n;
  r

let write_slice sc src = scatter sc src (locate_slice sc)

(* the array a vector variable [c] takes a result of length [n] in: its
   own when unshared and of that length, else a fresh one it owns from
   now on.  Called only once nothing can raise before the result is
   complete, so a failed statement leaves the variable as it was. *)
let[@inline] own_array c n =
  if (not c.vshared) && Array.length c.va = n then c.va
  else begin
    let a = Array.create_float n in
    c.va <- a;
    c.vshared <- false;
    a
  end

(* a result in a node's buffer, copied into a vector variable *)
let store_vec c r =
  let n = Array.length r in
  let a = own_array c n in
  for i = 0 to n - 1 do
    a.(i) <- r.(i)
  done

(* [data.(base + k * st) <- x.(k) op (y.(k) op' s)] for every [k] of
   [x], which [y] and the slice must be as long as: each operation
   rounded on its own, with its operands in the order of [Interp]'s
   loops ([y op' s] as [vec_scalar_fn], then [x op t] as
   [vec_vec_fn]), so a NaN meeting a NaN keeps the same sign.  The
   operators are taken once, when the kernel is built. *)
let fused_fn op op' :
    float array -> int -> int -> float array -> float array -> fcell -> unit =
  let n x = Array.length x - 1 in
  match (op, op') with
  | Add, Add -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a +. (y.(k) +. s) done
  | Add, Sub -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a +. (y.(k) -. s) done
  | Add, Mul -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a +. (y.(k) *. s) done
  | Add, _ -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a +. (y.(k) /. s) done
  | Sub, Add -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a -. (y.(k) +. s) done
  | Sub, Sub -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a -. (y.(k) -. s) done
  | Sub, Mul -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a -. (y.(k) *. s) done
  | Sub, _ -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a -. (y.(k) /. s) done
  | Mul, Add -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a *. (y.(k) +. s) done
  | Mul, Sub -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a *. (y.(k) -. s) done
  | Mul, Mul -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a *. (y.(k) *. s) done
  | Mul, _ -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a *. (y.(k) /. s) done
  | _, Add -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a /. (y.(k) +. s) done
  | _, Sub -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a /. (y.(k) -. s) done
  | _, Mul -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a /. (y.(k) *. s) done
  | _, _ -> fun d b st x y c -> let s = c.cv in for k = 0 to n x do let a = x.(k) in d.(b + (k * st)) <- a /. (y.(k) /. s) done

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Unboxed scalar code: an int node returns its value; a float node
   runs, then its result is in its cell.  A cell belongs to its node
   (or is a variable's own), and only its owner writes it. *)
type num = I of (unit -> int) | F of fcell * (unit -> unit)

(* A statically-vector expression: a vector variable, whose array an
   assignment shares, or a node.  A node's run leaves its result in a
   scratch array of its own, which a boxed value must not keep and an
   assignment copies into the variable's own array. *)
type vnode = Vlocal of slot * vcell | Vfresh of (unit -> float array)

(* the run of a float node with nothing to do — a constant, or a
   variable certainly defined; a parent then skips the call *)
let noop () = ()

let as_fnode = function
  | F (c, r) -> (c, r)
  | I f ->
      let out = { cv = 0.0 } in
      (out, fun () -> out.cv <- float_of_int (f ()))

let fnode1 op (a, ra) =
  let out = { cv = 0.0 } in
  F
    ( out,
      if ra == noop then fun () -> float_fun1 op a out
      else fun () ->
        ra ();
        float_fun1 op a out )

(* a vector operand: a variable's array read without a call, or a
   node's run *)
type vsrc = Vcell of vcell | Vrun of (unit -> float array)

let[@inline] vget = function Vcell c -> c.va | Vrun f -> f ()

let box_num = function
  | I f -> fun () -> Vint (f ())
  | F (c, r) ->
      fun () ->
        r ();
        Vfloat c.cv

let vec_src ctx = function
  | Vlocal (s, c) ->
      if known ctx s then Vcell c
      else
        Vrun
          (fun () ->
            check_defined s;
            c.va)
  | Vfresh f -> Vrun f

let box_vec = function
  | Vlocal (s, _) -> fun () -> slot_get s
  | Vfresh f -> fun () -> Vvec (Array.copy (f ()))

let rec compile_expr ctx (e : expr) : unit -> Value.t =
  match e with
  | Int_lit n ->
      let v = Vint n in
      fun () -> v
  | Float_lit f ->
      let v = Vfloat f in
      fun () -> v
  | Bool_lit b ->
      let v = Vbool b in
      fun () -> v
  | String_lit s ->
      let v = Vstring s in
      fun () -> v
  | Var v ->
      let s = slot ctx v in
      fun () -> slot_get s
  | Binop (And, a, b) ->
      let ca = compile_expr ctx a in
      let cb = compile_expr ctx b in
      fun () -> if to_bool (ca ()) then Vbool (to_bool (cb ())) else Vbool false
  | Binop (Or, a, b) ->
      let ca = compile_expr ctx a in
      let cb = compile_expr ctx b in
      fun () -> if to_bool (ca ()) then Vbool true else Vbool (to_bool (cb ()))
  | Binop (op, a, b) -> (
      match compile_typed ctx e with
      | Some f -> f
      | None ->
          let ca = compile_expr ctx a in
          let cb = compile_expr ctx b in
          fun () ->
            let va = ca () in
            let vb = cb () in
            Interp.eval_binop op va vb)
  | Unop (Neg, a) -> (
      match compile_typed ctx e with
      | Some f -> f
      | None ->
          let ca = compile_expr ctx a in
          fun () -> (
            match ca () with
            | Vint n -> Vint (-n)
            | Vfloat f -> Vfloat (-.f)
            | Vvec v -> Vvec (Array.map Float.neg v)
            | v -> raise (Type_error ("cannot negate " ^ type_name v))))
  | Unop (Not, a) ->
      let ca = compile_expr ctx a in
      fun () -> Vbool (not (to_bool (ca ())))
  | Tuple es ->
      let cs = List.map (compile_expr ctx) es in
      fun () -> Vtuple (eval_list cs)
  | Call (f, args) -> (
      match compile_typed ctx e with
      | Some c -> c
      | None ->
          (* everything else (size, sum, fill, println, host builtins, …)
             goes through the interpreter's single dispatch point with
             the same left-to-right argument order *)
          let env = ctx.env in
          let cargs = List.map (compile_expr ctx) args in
          fun () -> Interp.eval_builtin env f (eval_list cargs))
  | Index (base, subs) -> (
      match compile_typed ctx e with
      | Some f -> f
      | None ->
          let env = ctx.env in
          let cb =
            match base with
            | Var v ->
                let s = slot ctx v in
                fun () -> slot_peek s
            | _ -> compile_expr ctx base
          in
          let ks = Array.of_list (List.map (compile_csub ctx) subs) in
          fun () ->
            let v = cb () in
            index_value env v ks)

and eval_list cs =
  match cs with
  | [] -> []
  | c :: tl ->
      let v = c () in
      v :: eval_list tl

(* [e] through its unboxed scalar or vector node, boxed at the end;
   never the generic path, so [compile_expr] cannot recurse on [e] *)
and compile_typed ctx e : (unit -> Value.t) option =
  match compile_num ctx ~fallback:false e with
  | Some n -> Some (box_num n)
  | None -> Option.map box_vec (compile_vec ctx e)

(* ---- unboxed scalar compilation ----------------------------------- *)

(* [compile_num ctx ~fallback e] compiles [e] to an unboxed int or
   float node when its static type allows.  A DistArray read inside
   checks for hooks itself and takes the boxed, recording path when one
   is attached.  [fallback] permits wrapping the generic boxed closure
   when no structural specialization applies (must be [false] when
   called from [compile_expr] on the same node, to avoid mutual
   recursion). *)
and compile_num ctx ~fallback (e : expr) : num option =
  let env = ctx.env in
  let num_arg = float_arg ctx in
  match e with
  | Int_lit n -> Some (I (fun () -> n))
  | Float_lit f -> Some (F ({ cv = f }, noop))
  | Var v -> (
      let s = slot ctx v in
      match s.sl_rep with
      | Rint c ->
          if known ctx s then Some (I (fun () -> c.ci))
          else
            Some
              (I
                 (fun () ->
                   check_defined s;
                   c.ci))
      | Rfloat c ->
          Some (F (c, if known ctx s then noop else fun () -> check_defined s))
      | Rbox | Rvec _ | Rindex _ -> None)
  | Unop (Neg, a) -> (
      match compile_num ctx ~fallback:true a with
      | Some (I f) -> Some (I (fun () -> -f ()))
      | Some (F (c, r)) -> Some (fnode1 Fneg (c, r))
      | None -> None)
  | Binop (op, a, b) -> (
      match
        ( compile_num ctx ~fallback:true a,
          compile_num ctx ~fallback:true b )
      with
      | Some na, Some nb -> compile_num_binop op na nb
      | _ -> None)
  | Call ("int", [ a ]) ->
      Some
        (I
           (match compile_num ctx ~fallback:true a with
           | Some (I f) -> f
           | Some (F (c, r)) ->
               fun () ->
                 r ();
                 int_of_cell c
           | None ->
               let c = compile_expr ctx a in
               fun () -> to_int (c ())))
  | Call ("float", [ a ]) ->
      let c, r = num_arg a in
      Some (F (c, r))
  | Call ("exp", [ a ]) -> Some (fnode1 Fexp (num_arg a))
  | Call ("log", [ a ]) -> Some (fnode1 Flog (num_arg a))
  | Call ("sqrt", [ a ]) -> Some (fnode1 Fsqrt (num_arg a))
  | Call ("sigmoid", [ a ]) -> Some (fnode1 Fsigmoid (num_arg a))
  | Call ("abs2", [ a ]) -> Some (fnode1 Fabs2 (num_arg a))
  | Call ("abs", [ a ]) -> (
      match compile_num ctx ~fallback:true a with
      | Some (I f) -> Some (I (fun () -> abs (f ())))
      | Some (F (c, r)) -> Some (fnode1 Fabs (c, r))
      | None -> None)
  | Call (("floor" | "ceil" | "round") as fn, [ a ]) ->
      let c, r = num_arg a in
      Some
        (I
           (match fn with
           | "floor" ->
               fun () ->
                 r ();
                 int_of_float (Float.floor c.cv)
           | "ceil" ->
               fun () ->
                 r ();
                 int_of_float (Float.ceil c.cv)
           | _ ->
               fun () ->
                 r ();
                 int_of_float (Float.round c.cv)))
  | Call ("rand", []) ->
      let out = { cv = 0.0 } in
      Some (F (out, fun () -> out.cv <- Interp.Rng.float env.Interp.rng))
  | Call ("randn", []) ->
      let out = { cv = 0.0 } in
      Some (F (out, fun () -> out.cv <- Interp.Rng.gaussian env.Interp.rng))
  | Call ("rand_int", [ a ]) ->
      let c = compile_int_arg ctx a in
      Some
        (I
           (fun () ->
             let n = c () in
             if n <= 0 then
               raise (Interp.Runtime_error "rand_int expects a positive bound")
             else
               int_of_float (Interp.Rng.float env.Interp.rng *. float_of_int n)))
  | Call (("min" | "max") as fn, [ a; b ]) -> (
      match
        ( compile_num ctx ~fallback:true a,
          compile_num ctx ~fallback:true b )
      with
      | Some (I fa), Some (I fb) ->
          let op = if fn = "min" then min else max in
          Some
            (I
               (fun () ->
                 let x = fa () in
                 let y = fb () in
                 op x y))
      | Some na, Some nb ->
          let ca, ra = as_fnode na and cb, rb = as_fnode nb in
          let out = { cv = 0.0 } in
          Some
            (F
               ( out,
                 if fn = "min" then (fun () ->
                   ra ();
                   rb ();
                   out.cv <- Float.min ca.cv cb.cv)
                 else fun () ->
                   ra ();
                   rb ();
                   out.cv <- Float.max ca.cv cb.cv ))
      | _ -> None)
  | Call ("dot", ([ _; _ ] as args)) ->
      let c, r = compile_dot ctx args in
      Some (F (c, r))
  | Call ("norm", [ a ]) ->
      let c = compile_expr ctx a in
      let out = { cv = 0.0 } in
      Some
        (F
           ( out,
             fun () ->
               let x = to_vec (c ()) in
               out.cv <- sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 x)
           ))
  | Index (Var v, [ Sub_expr (Int_lit k) ]) when key_cell ctx v k <> None ->
      let c = Option.get (key_cell ctx v k) in
      Some (I (fun () -> c.ci))
  | Index (Var v, [ Sub_expr i ]) when (slot ctx v).sl_ty = Tindex -> (
      (* [key[i]]: the base is looked up before the subscript runs *)
      let s = slot ctx v in
      let p = compile_point ctx i in
      match s.sl_rep with
      | Rindex c ->
          Some
            (I
               (fun () ->
                 check_defined s;
                 let k = iget p in
                 c.ix.(k) + 1))
      | _ -> infer_bug ("index slot " ^ v))
  | Index (Var v, [ Sub_expr i ]) when (slot ctx v).sl_ty = Tvec -> (
      let s = slot ctx v in
      let p = compile_point ctx i in
      let out = { cv = 0.0 } in
      match s.sl_rep with
      | Rvec c ->
          Some
            (F
               ( out,
                 fun () ->
                   check_defined s;
                   let k = iget p in
                   out.cv <- c.va.(k) ))
      | _ -> infer_bug ("vector slot " ^ v))
  | Index (base, subs) -> (
      match fast_point ctx base subs with
      | Some (s, pt) ->
          let out = { cv = 0.0 } in
          Some
            (F
               ( out,
                 fun () ->
                   if no_hooks env then point_get pt out
                   else
                     match index_value env (slot_peek s) pt.pt_ks with
                     | Vfloat x -> out.cv <- x
                     | _ -> infer_bug ("extern read " ^ pt.pt_ex.ex_name) ))
      | None -> num_fallback ctx ~fallback e)
  | _ -> num_fallback ctx ~fallback e

(* an argument compiled unboxed-or-boxed, converted like [to_float] *)
and float_arg ctx a : fcell * (unit -> unit) =
  match compile_num ctx ~fallback:true a with
  | Some n -> as_fnode n
  | None ->
      let c = compile_expr ctx a in
      let out = { cv = 0.0 } in
      (out, fun () -> out.cv <- to_float (c ()))

(* an argument converted like [to_int] *)
and compile_int_arg ctx a : unit -> int =
  match compile_num ctx ~fallback:true a with
  | Some (I f) -> f
  | Some (F (c, r)) ->
      fun () ->
        r ();
        int_of_cell c
  | None ->
      let g = compile_expr ctx a in
      fun () -> to_int (g ())

(* [dot(a, b)]: a plain loop when both arguments are statically
   vectors; otherwise both values first, then each converted like
   [to_vec], as the interpreter does *)
and compile_dot ctx args : fcell * (unit -> unit) =
  let out = { cv = 0.0 } in
  match args with
  | [ a; b ] when infer ctx a = Tvec && infer ctx b = Tvec ->
      let xa = vec_operand ctx a in
      let xb = vec_operand ctx b in
      ( out,
        fun () ->
          let x = vget xa in
          let y = vget xb in
          Interp.vec_dot_into x y out )
  | [ a; b ] ->
      let ca = compile_expr ctx a in
      let cb = compile_expr ctx b in
      ( out,
        fun () ->
          let va = ca () in
          let vb = cb () in
          let x = to_vec va in
          let y = to_vec vb in
          Interp.vec_dot_into x y out )
  | _ -> infer_bug "dot arity"

and num_fallback ctx ~fallback e : num option =
  if not fallback then None
  else
    match infer ctx e with
    | Tint ->
        let c = compile_expr ctx e in
        Some
          (I
             (fun () ->
               match c () with
               | Vint n -> n
               | _ -> infer_bug "int expression"))
    | Tfloat ->
        let c = compile_expr ctx e in
        let out = { cv = 0.0 } in
        Some
          (F
             ( out,
               fun () ->
                 match c () with
                 | Vfloat f -> out.cv <- f
                 | _ -> infer_bug "float expression" ))
    | _ -> None

and compile_num_binop op na nb : num option =
  let int_op iop =
    match (na, nb) with
    | I fa, I fb ->
        Some
          (I
             (fun () ->
               let x = fa () in
               let y = fb () in
               iop x y))
    | _ -> None
  in
  let float_op () =
    let ca, ra = as_fnode na and cb, rb = as_fnode nb in
    let out = { cv = 0.0 } and f = float_op_fn op in
    Some
      (F
         ( out,
           match (ra == noop, rb == noop) with
           | true, true -> fun () -> f ca cb out
           | true, false ->
               fun () ->
                 rb ();
                 f ca cb out
           | false, true ->
               fun () ->
                 ra ();
                 f ca cb out
           | false, false ->
               fun () ->
                 ra ();
                 rb ();
                 f ca cb out ))
  in
  let arith iop =
    match int_op iop with Some _ as r -> r | None -> float_op ()
  in
  match op with
  | Add -> arith ( + )
  | Sub -> arith ( - )
  | Mul -> arith ( * )
  | Div -> (
      match (na, nb) with
      | I fa, I fb ->
          Some
            (I
               (fun () ->
                 let x = fa () in
                 let y = fb () in
                 if y = 0 then raise (Interp.Runtime_error "division by zero")
                 else x / y))
      | _ -> float_op ())
  | Mod -> (
      match (na, nb) with
      | I fa, I fb ->
          Some
            (I
               (fun () ->
                 let x = fa () in
                 let y = fb () in
                 if y = 0 then raise (Interp.Runtime_error "mod by zero")
                 else ((x mod y) + y) mod y))
      | _ -> float_op ())
  | Pow -> (
      (* Vint ^ Vint is Vint only for non-negative exponents — a runtime
         property, so int^int stays on the generic path *)
      match (na, nb) with
      | I _, I _ -> None
      | _ -> float_op ())
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> None

(* ---- vector compilation ------------------------------------------- *)

(* [compile_vec ctx e] compiles a statically-vector [e] when it is an
   extern slice, a vector variable, or [+ - * /] / negation over vector
   and scalar operands, evaluated in the interpreter's operand order.
   [None] leaves [e] to the boxed path (never called by [compile_expr]
   on a node it would hand back, so the two cannot recurse forever). *)
and compile_vec ctx (e : expr) : vnode option =
  (* [f dst] computes the result into [dst n], for a result of length
     [n], once nothing is left that can raise *)
  let fresh f =
    let buf = { vb = [||] } in
    let to_buf n = vbuf_for buf n in
    Some (Vfresh (fun () -> f to_buf))
  in
  match e with
  | Var v -> (
      let s = slot ctx v in
      match s.sl_rep with Rvec c -> Some (Vlocal (s, c)) | _ -> None)
  | Index (base, subs) -> compile_slice_read ctx base subs
  | Unop (Neg, a) when infer ctx a = Tvec ->
      let xa = vec_operand ctx a in
      fresh (fun dst ->
          let x = vget xa in
          let r = dst (Array.length x) in
          Interp.vec_neg_into x r;
          r)
  | Binop ((Add | Sub | Mul | Div) as op, a, b) -> (
      match (infer ctx a, infer ctx b) with
      | Tvec, Tvec ->
          let xa = vec_operand ctx a in
          let xb = vec_operand ctx b in
          let f = Interp.vec_vec_fn op in
          fresh (fun dst ->
              let x = vget xa in
              let y = vget xb in
              Interp.check_same_length x y;
              let r = dst (Array.length x) in
              f x y r;
              r)
      | Tvec, (Tint | Tfloat) ->
          let xa = vec_operand ctx a in
          let cs, rs = float_arg ctx b in
          let f = Interp.vec_scalar_fn op in
          fresh (fun dst ->
              let x = vget xa in
              if rs != noop then rs ();
              let r = dst (Array.length x) in
              f x cs r;
              r)
      | (Tint | Tfloat), Tvec ->
          let cs, rs = float_arg ctx a in
          let xb = vec_operand ctx b in
          let f = Interp.scalar_vec_fn op in
          fresh (fun dst ->
              if rs != noop then rs ();
              let y = vget xb in
              let r = dst (Array.length y) in
              f cs y r;
              r)
      | _ -> None)
  | _ -> None

(* a statically-vector operand, read only: structurally when possible,
   else boxed and unwrapped *)
and vec_operand ctx (e : expr) : vsrc =
  match compile_vec ctx e with
  | Some vn -> vec_src ctx vn
  | None ->
      let c = compile_expr ctx e in
      Vrun
        (fun () ->
          match c () with Vvec x -> x | _ -> infer_bug "vector expression")

(* a slice of a fast extern, or the boxed read whenever a hook is
   attached; assigned to a vector local, a located dense slice is read
   straight into the local's own array *)
and compile_slice_read ctx base subs : vnode option =
  match fast_extern_slice ctx base subs with
  | None -> None
  | Some (s, ex, fa) ->
      let env = ctx.env in
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      let sc = make_slice ex fa ks in
      let run () =
        if no_hooks env then read_slice sc
        else
          match index_value env (slot_peek s) ks with
          | Vvec x -> x
          | _ -> infer_bug ("extern slice " ^ ex.ex_name)
      in
      Some (Vfresh run)

(* the point subscripts of a fast extern read or store *)
and fast_point ctx base subs : (slot * point) option =
  match fast_extern_read ctx base subs with
  | Some (s, ex, fa) ->
      let ps =
        Array.of_list
          (List.map
             (function Sub_expr e -> compile_point ctx e | _ -> assert false)
             subs)
      in
      Some
        ( s,
          {
            pt_ex = ex;
            pt_fa = fa;
            pt_ps = ps;
            pt_key = Array.make (Array.length ps) 0;
            pt_ks = Array.map (fun p -> Kpoint p) ps;
          } )
  | None -> None

(* ---- subscripts --------------------------------------------------- *)

(* a point subscript as a 0-based position; [to_int]'s exact
   acceptance (integers and integer-valued floats) and error text *)
and compile_point ctx (e : expr) : isrc =
  match e with
  | Int_lit n -> Iconst (n - 1)
  | Var v -> (
      let s = slot ctx v in
      match s.sl_rep with
      | Rint c when known ctx s -> Iint c
      | _ -> point_run ctx e)
  | Index (Var v, [ Sub_expr (Int_lit k) ]) -> (
      let s = slot ctx v in
      match (key_cell ctx v k, s.sl_rep) with
      | Some c, _ -> Iint c
      | None, Rindex c when known ctx s -> Ikey (c, k - 1)
      | None, _ -> point_run ctx e)
  | _ -> point_run ctx e

and point_run ctx e =
  let f = compile_int_arg ctx e in
  Irun (fun () -> f () - 1)

and compile_csub ctx = function
  | Sub_all -> Kall
  | Sub_expr e -> Kpoint (compile_point ctx e)
  | Sub_range (lo, hi) -> Krange (compile_point ctx lo, compile_point ctx hi)

(* ------------------------------------------------------------------ *)
(* Statements with every operand fixed at build time                   *)
(* ------------------------------------------------------------------ *)

(* In the fast body (no hook attached, the key's components in cells),
   the common straight-line statements compile to one closure each,
   whose operands are all resolved when the kernel is built: float
   cells, vector variables' cells, and dense storage located by int
   cells, with the operator's loop or function taken once.  Every such
   operand is read without effects, so a statement that meets anything
   but the common case (a position outside the array or held boxed and
   not an int, vectors of different lengths, a float that is not an
   integer) hands itself whole to its generic closure [slow], which
   evaluates it again from the start and raises what the interpreter
   raises, after the same writes. *)

let is_arith = function Add | Sub | Mul | Div | Mod | Pow -> true | _ -> false

(* a float operand read from a cell: a literal, negated or not, or a
   float variable certainly defined.  An int literal is converted as an
   operation with a float operand converts it. *)
let fleaf ctx e : fcell option =
  match e with
  | Float_lit f -> Some { cv = f }
  | Int_lit n -> Some { cv = float_of_int n }
  | Unop (Neg, Float_lit f) -> Some { cv = -.f }
  | Unop (Neg, Int_lit n) -> Some { cv = float_of_int (-n) }
  | Var v -> (
      let s = slot ctx v in
      match s.sl_rep with Rfloat c when known ctx s -> Some c | _ -> None)
  | _ -> None

(* A statement's float scalar operand: a leaf, or [a op b] over two
   leaves, computed into a cell of the statement's own.  As the
   function computing it (nothing to do for a leaf), its two operands
   and its result's cell. *)
type scalar = (fcell -> fcell -> fcell -> unit) * fcell * fcell * fcell

let leaf_fn (_ : fcell) (_ : fcell) (_ : fcell) = ()

let scalar_operand ctx e : scalar option =
  match (fleaf ctx e, e) with
  | Some c, _ -> Some (leaf_fn, c, c, c)
  | None, Binop (op, a, b) when is_arith op && infer ctx e = Tfloat -> (
      match (fleaf ctx a, fleaf ctx b) with
      | Some x, Some y -> Some (float_op_fn op, x, y, { cv = 0.0 })
      | _ -> None)
  | None, _ -> None

(* a vector variable certainly defined *)
let vleaf ctx e : vcell option =
  match e with
  | Var v -> (
      let s = slot ctx v in
      match s.sl_rep with Rvec c when known ctx s -> Some c | _ -> None)
  | _ -> None

(* a 0-based position read from an int cell, as [ci - 1]: a literal, an
   int variable certainly defined or a key component *)
let ipos ctx e : icell option =
  match e with
  | Int_lit _ | Var _ | Index (Var _, [ Sub_expr (Int_lit _) ]) -> (
      match compile_point ctx e with
      | Iint c -> Some c
      | Iconst k -> Some { ci = k + 1 }
      | Ikey _ | Irun _ -> None)
  | _ -> None

(* [A[p1, .., pn]], or the same with one [:], over a dense DistArray,
   every point in a cell or in a variable held boxed (an lda topic drawn
   by a host builtin), whose value a statement first moves to a cell *)
type dloc = {
  dl_data : float array;
  dl_pos : icell array;  (** the points' positions *)
  dl_boxed : (slot * icell) array;  (** the boxed variables among them *)
  dl_dims : int array;  (** their extents *)
  dl_strides : int array;  (** their strides *)
  dl_slice : bool;  (** one subscript is [:] *)
  dl_step : int;  (** its stride *)
  dl_len : int;  (** its extent *)
}

let dense_loc ctx base subs : dloc option =
  match fast_extern ctx base subs with
  | Some (_, ex, { fa_dense = Some d; _ }) ->
      let rec go i pos boxed alls step len = function
        | [] ->
            if alls > 1 then None
            else
              let pos = Array.of_list (List.rev pos) in
              Some
                {
                  dl_data = d.dn_data;
                  dl_pos = Array.map (fun (c, _, _) -> c) pos;
                  dl_boxed = Array.of_list boxed;
                  dl_dims = Array.map (fun (_, n, _) -> n) pos;
                  dl_strides = Array.map (fun (_, _, st) -> st) pos;
                  dl_slice = alls = 1;
                  dl_step = step;
                  dl_len = len;
                }
        | Sub_all :: rest ->
            go (i + 1) pos boxed (alls + 1) d.dn_strides.(i) ex.ex_dims.(i)
              rest
        | Sub_range _ :: _ -> None
        | Sub_expr e :: rest -> (
            let at c boxed =
              go (i + 1)
                ((c, ex.ex_dims.(i), d.dn_strides.(i)) :: pos)
                boxed alls step len rest
            in
            match (ipos ctx e, e) with
            | Some c, _ -> at c boxed
            | None, Var v -> (
                let s = slot ctx v in
                match s.sl_rep with
                | Rbox when known ctx s ->
                    let c = { ci = 0 } in
                    at c ((s, c) :: boxed)
                | _ -> None)
            | None, _ -> None)
      in
      go 0 [] [] 0 0 1 subs
  | _ -> None

(* move [l]'s boxed positions to their cells; false when one is not an
   int, which [to_int] may convert or reject *)
let unbox_positions l =
  Array.for_all
    (fun (s, c) ->
      match s.sl_v with
      | Vint n ->
          c.ci <- n;
          true
      | _ -> false)
    l.dl_boxed

(* the dense offset of [l]'s first element, or -1 when a point lies
   outside its extent or is held boxed and not an int *)
let[@inline] dloc_base l =
  let pos = l.dl_pos in
  let base = ref 0
  and inside = ref (Array.length l.dl_boxed = 0 || unbox_positions l) in
  for i = 0 to Array.length pos - 1 do
    let v = (Array.unsafe_get pos i).ci - 1 in
    if v < 0 || v >= Array.unsafe_get l.dl_dims i then inside := false
    else base := !base + (v * Array.unsafe_get l.dl_strides i)
  done;
  if !inside then !base else -1

(* [dst = src op s] over two dense points: the source read, the scalar,
   then the destination located and written, as the interpreter orders
   them *)
let point_update ~slow src dst op ((sf, sa, sb, so) : scalar) =
  let f = float_op_fn op and cur = { cv = 0.0 } and res = { cv = 0.0 } in
  let sd = src.dl_data and dd = dst.dl_data in
  fun () ->
    let o = dloc_base src in
    if o < 0 then slow ()
    else begin
      sf sa sb so;
      let o' = dloc_base dst in
      if o' < 0 then slow ()
      else begin
        cur.cv <- sd.(o);
        f cur so res;
        dd.(o') <- res.cv
      end
    end

let is_vec_op = function Add | Sub | Mul | Div -> true | _ -> false

(* [v = e] for a variable [s] *)
let fast_assign ctx s e ~slow : (unit -> unit) option =
  match (s.sl_rep, e) with
  | Rvec c, Index (base, subs) -> (
      match dense_loc ctx base subs with
      | Some ({ dl_slice = true; dl_data = data; dl_step = st; dl_len = n; _ }
              as l) ->
          Some
            (fun () ->
              let b = dloc_base l in
              if b < 0 then slow ()
              else begin
                let r = own_array c n in
                for k = 0 to n - 1 do
                  r.(k) <- data.(b + (k * st))
                done;
                s.sl_defined <- true
              end)
      | _ -> None)
  | Rvec c, Binop (op, a, b) when is_vec_op op -> (
      match (vleaf ctx a, vleaf ctx b) with
      | Some x, Some y ->
          let f = Interp.vec_vec_fn op in
          Some
            (fun () ->
              let xa = x.va and ya = y.va in
              let n = Array.length xa in
              if Array.length ya <> n then slow ()
              else begin
                f xa ya (own_array c n);
                s.sl_defined <- true
              end)
      | Some x, None ->
          Option.map
            (fun (sf, sa, sb, so) ->
              let f = Interp.vec_scalar_fn op in
              fun () ->
                sf sa sb so;
                let xa = x.va in
                f xa so (own_array c (Array.length xa));
                s.sl_defined <- true)
            (scalar_operand ctx b)
      | None, Some y ->
          Option.map
            (fun (sf, sa, sb, so) ->
              let f = Interp.scalar_vec_fn op in
              fun () ->
                sf sa sb so;
                let ya = y.va in
                f so ya (own_array c (Array.length ya));
                s.sl_defined <- true)
            (scalar_operand ctx a)
      | None, None -> None)
  | Rfloat c, Call ("dot", [ a; b ]) -> (
      match (vleaf ctx a, vleaf ctx b) with
      | Some x, Some y ->
          Some
            (fun () ->
              Interp.vec_dot_into x.va y.va c;
              s.sl_defined <- true)
      | _ -> None)
  | Rfloat c, Binop (op, a, b) when is_arith op && infer ctx e = Tfloat -> (
      match (fleaf ctx a, fleaf ctx b) with
      | Some x, Some y ->
          let f = float_op_fn op in
          Some
            (fun () ->
              f x y c;
              s.sl_defined <- true)
      | _ -> None)
  | Rint c, Call ("int", [ Index (base, subs) ]) -> (
      match dense_loc ctx base subs with
      | Some ({ dl_slice = false; dl_data = data; _ } as l) ->
          Some
            (fun () ->
              let o = dloc_base l in
              if o < 0 then slow ()
              else
                (* [int_of_cell]'s test; [slow] raises its error *)
                let x = data.(o) in
                if x = Float.trunc x && x -. x = 0.0 then begin
                  c.ci <- int_of_float x;
                  s.sl_defined <- true
                end
                else slow ())
      | _ -> None)
  | _ -> None

(* [A[subs] = e] *)
let fast_store ctx name subs e ~slow : (unit -> unit) option =
  match (dense_loc ctx (Var name) subs, e) with
  | Some ({ dl_slice = true; _ } as l), Binop (op, x, Binop (op', y, sc))
    when is_vec_op op && is_vec_op op' -> (
      match (vleaf ctx x, vleaf ctx y, scalar_operand ctx sc) with
      | Some xc, Some yc, Some (sf, sa, sb, so) ->
          let f = fused_fn op op' and data = l.dl_data and st = l.dl_step
          and n = l.dl_len in
          Some
            (fun () ->
              sf sa sb so;
              let xa = xc.va and ya = yc.va in
              let b = dloc_base l in
              if b < 0 || Array.length xa <> n || Array.length ya <> n then
                slow ()
              else f data b st xa ya so)
      | _ -> None)
  | Some ({ dl_slice = false; _ } as dst), Binop (op, Index (src, ssubs), sc)
    when is_arith op -> (
      match (dense_loc ctx src ssubs, scalar_operand ctx sc) with
      | Some ({ dl_slice = false; _ } as srcl), Some sco ->
          Some (point_update ~slow srcl dst op sco)
      | _ -> None)
  | _ -> None

(* [A[subs] op= e]: the element read, [e], then the element written *)
let fast_op_store ctx op name subs e ~slow : (unit -> unit) option =
  match (dense_loc ctx (Var name) subs, scalar_operand ctx e) with
  | Some ({ dl_slice = false; _ } as l), Some sco when is_arith op ->
      Some (point_update ~slow l l op sco)
  | _ -> None

(* the fast body's closure for a statement whose generic closure is
   [slow], when [fast] specializes it *)
let specialize ctx slow fast =
  if ctx.fast then Option.value (fast ~slow) ~default:slow else slow

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

(* the error a statement at [pos] raised, prefixed with that position
   unless a nested statement's already is: the innermost wins *)
let positioned (pos : pos) e =
  match e with
  | Interp.Runtime_error msg
    when pos.line > 0 && not (Interp.has_pos_prefix msg) ->
      Interp.Runtime_error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg)
  | Type_error msg when pos.line > 0 && not (Interp.has_pos_prefix msg) ->
      Type_error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg)
  | e -> e

(* The statements in order, each timed when a profile is attached.  One
   handler per block, not per statement, positions an error: [i] is the
   statement that raised it. *)
let run_block cb =
  let stmts = cb.cb_stmts and n = Array.length cb.cb_stmts in
  let i = ref 0 in
  try
    match cb.cb_env.Interp.profile with
    | None ->
        while !i < n do
          stmts.(!i) ();
          incr i
        done
    | Some p ->
        while !i < n do
          let line = cb.cb_pos.(!i).line in
          let t0 = Unix.gettimeofday () in
          Fun.protect
            ~finally:(fun () ->
              Profile.record_line p ~line
                ~seconds:(Unix.gettimeofday () -. t0))
            stmts.(!i);
          incr i
        done
  with (Interp.Runtime_error _ | Type_error _) as e ->
    raise (positioned cb.cb_pos.(!i) e)

(* statements in order, so that each sees what the earlier ones
   certainly assign *)
let rec compile_block ctx (b : block) : cblock =
  let rec go = function
    | [] -> []
    | st :: rest ->
        let c = compile_stmt ctx st in
        c :: go rest
  in
  {
    cb_env = ctx.env;
    cb_stmts = Array.of_list (go b);
    cb_pos = Array.of_list (List.map (fun st -> st.spos) b);
  }

(* a nested block, which may run zero times or be skipped: what it
   assigns is certain only inside it; returns what it assigned *)
and compile_nested ctx ?(extra = []) (b : block) =
  let before = ctx.assigned in
  ctx.assigned <- List.fold_right Names.add extra before;
  let cb = compile_block ctx b in
  let after = ctx.assigned in
  ctx.assigned <- before;
  (cb, after)

and assign ctx name = ctx.assigned <- Names.add name ctx.assigned

and compile_stmt ctx stmt : unit -> unit =
  let env = ctx.env in
  match stmt.sk with
  | Assign (Lvar v, e) ->
      let s = slot ctx v in
      let c = specialize ctx (compile_assign_var ctx s e) (fast_assign ctx s e) in
      assign ctx v;
      c
  | Assign (Lindex (v, subs), e) ->
      let c =
        match compile_slice_store ctx v subs e with
        | Some f -> f
        | None -> compile_assign_index ctx v subs e
      in
      let c = specialize ctx c (fast_store ctx v subs e) in
      (* the store raised unless [v] was defined *)
      assign ctx v;
      c
  | Op_assign (op, Lvar v, e) when is_arith op ->
      (* [v op= e] reads [v] before [e], exactly as [v = v op e] *)
      let s = slot ctx v and e = Binop (op, Var v, e) in
      let c = specialize ctx (compile_assign_var ctx s e) (fast_assign ctx s e) in
      assign ctx v;
      c
  | Op_assign (op, Lvar v, e) ->
      let s = slot ctx v in
      let c = compile_expr ctx e in
      assign ctx v;
      fun () ->
        let cur = slot_get s in
        let rhs = c () in
        slot_set s (Interp.eval_binop op cur rhs)
  | Op_assign (op, Lindex (v, subs), e) ->
      let c =
        specialize ctx
          (compile_op_assign_index ctx op v subs e)
          (fast_op_store ctx op v subs e)
      in
      assign ctx v;
      c
  | If (c, then_b, else_b) ->
      let cc = compile_expr ctx c in
      let ct, at = compile_nested ctx then_b in
      let cf, af = compile_nested ctx else_b in
      ctx.assigned <- Names.inter at af;
      fun () -> if to_bool (cc ()) then run_block ct else run_block cf
  | While (c, body) ->
      let cc = compile_expr ctx c in
      let cb, _ = compile_nested ctx body in
      fun () -> (
        try
          while to_bool (cc ()) do
            try run_block cb with Interp.Continue_exc -> ()
          done
        with Interp.Break_exc -> ())
  | For { parallel = Some _; _ } ->
      (* whether a nested @parallel_for runs serially or routes to the
         runtime handler depends on mutable env state — punt to the
         interpreter *)
      raise Unsupported
  | For { kind = Range_loop { var; lo; hi }; body; parallel = None } ->
      let s = slot ctx var in
      (* 1-based bounds, converted like [to_int] *)
      let clo = compile_int_arg ctx lo in
      let chi = compile_int_arg ctx hi in
      let cb, _ = compile_nested ctx ~extra:[ var ] body in
      let set_var =
        match s.sl_rep with
        | Rint c ->
            fun i ->
              c.ci <- i;
              s.sl_defined <- true
        | _ -> fun i -> slot_set s (Vint i)
      in
      fun () ->
        let l = clo () in
        let h = chi () in
        (try
           for i = l to h do
             set_var i;
             try run_block cb with Interp.Continue_exc -> ()
           done
         with Interp.Break_exc -> ())
  | For { kind = Each_loop { key; value; arr }; body; parallel = None } ->
      let sa = slot ctx arr in
      let sk = slot ctx key in
      let sv = slot ctx value in
      let cb, _ = compile_nested ctx ~extra:[ key; value ] body in
      fun () -> (
        match slot_peek sa with
        | Vextern ex -> (
            try
              ex.ex_iter (fun idx v ->
                  (match env.Interp.profile with
                  | Some p -> Profile.record_array_read p ex.ex_name
                  | None -> ());
                  (match env.Interp.on_array_access with
                  | Some f ->
                      f ex ~write:false (Array.map (fun i -> Cpoint i) idx)
                  | None -> ());
                  set_index sk idx;
                  slot_set sv v;
                  try run_block cb with Interp.Continue_exc -> ())
            with Interp.Break_exc -> ())
        | v ->
            raise
              (Type_error
                 (Printf.sprintf "cannot iterate over %s (variable %s)"
                    (type_name v) arr)))
  | Expr_stmt e ->
      let c = compile_expr ctx e in
      fun () -> ignore (c ())
  | Break -> fun () -> raise Interp.Break_exc
  | Continue -> fun () -> raise Interp.Continue_exc

(* [v = e]: the value goes straight into [v]'s unboxed representation;
   [b = a] makes both vector variables hold one (now shared) array *)
and compile_assign_var ctx s e : unit -> unit =
  let generic () =
    let c = compile_expr ctx e in
    fun () -> slot_set s (c ())
  in
  match s.sl_rep with
  | Rint c -> (
      match compile_num ctx ~fallback:true e with
      | Some (I f) ->
          fun () ->
            c.ci <- f ();
            s.sl_defined <- true
      | _ -> generic ())
  | Rfloat c -> (
      match compile_num ctx ~fallback:true e with
      | Some (F (x, r)) ->
          if r == noop then fun () ->
            c.cv <- x.cv;
            s.sl_defined <- true
          else fun () ->
            r ();
            c.cv <- x.cv;
            s.sl_defined <- true
      | _ -> generic ())
  | Rvec c -> (
      match compile_vec ctx e with
      | Some (Vlocal (s', c')) ->
          fun () ->
            check_defined s';
            c.va <- c'.va;
            c.vshared <- true;
            c'.vshared <- true;
            s.sl_defined <- true
      | Some (Vfresh f) ->
          fun () ->
            store_vec c (f ());
            s.sl_defined <- true
      | None -> generic ())
  | Rbox | Rindex _ -> generic ()

(* W[:, j] = e for a statically-vector e: the RHS, then the subscripts,
   as the boxed store *)
and compile_slice_store ctx name subs e : (unit -> unit) option =
  match fast_extern_slice ctx (Var name) subs with
  | Some (s, ex, fa) when infer ctx e = Tvec -> (
      let env = ctx.env in
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      let sc = make_slice ex fa ks in
      let cv = vec_operand ctx e in
      Some
        (fun () ->
          let x = vget cv in
          if no_hooks env then write_slice sc x
          else assign_index_value env s ks (Vvec x)))
  | _ -> None

(* A[i, j] = e
   interpreter order: RHS value; base lookup; profile write record;
   subscripts; store; access hook *)
and compile_assign_index ctx name subs e : unit -> unit =
  let env = ctx.env in
  let s = slot ctx name in
  let ce = compile_expr ctx e in
  let generic ks () =
    let v = ce () in
    assign_index_value env s ks v
  in
  match (fast_point ctx (Var name) subs, s.sl_rep, subs) with
  | Some (_, pt), _, _ -> (
      (* a statically-float RHS stores straight through the fast
         accessor; otherwise box, then pick the path per value *)
      match
        if infer ctx e = Tfloat then compile_num ctx ~fallback:true e
        else None
      with
      | Some (F (x, r)) ->
          fun () ->
            if no_hooks env then begin
              r ();
              point_set pt x
            end
            else generic pt.pt_ks ()
      | _ ->
          let tmp = { cv = 0.0 } in
          fun () ->
            if no_hooks env then begin
              match ce () with
              | Vfloat x ->
                  tmp.cv <- x;
                  point_set pt tmp
              | v ->
                  (* non-float store: the boxed setter owns the
                     conversion/error semantics *)
                  write_extern env pt.pt_ex pt.pt_ks v
            end
            else generic pt.pt_ks ())
  | None, Rvec c, [ Sub_expr i ] when infer ctx e = Tfloat || infer ctx e = Tint
    ->
      (* [a[i] = x] on a vector variable writes its array in place *)
      let x, r = float_arg ctx e in
      let p = compile_point ctx i in
      fun () ->
        r ();
        check_defined s;
        let k = iget p in
        c.va.(k) <- x.cv
  | None, _, _ -> generic (Array.of_list (List.map (compile_csub ctx) subs))

(* A[i, j] op= e
   interpreter order: full read (record, subscripts #1, get, hook);
   RHS; combine; full write (record, subscripts #2, set, hook) — the
   subscripts are evaluated twice, and the compiled paths keep that *)
and compile_op_assign_index ctx op name subs e : unit -> unit =
  let env = ctx.env in
  let s = slot ctx name in
  let ce = compile_expr ctx e in
  let generic ks () =
    let cur = index_value env (slot_peek s) ks in
    let rhs = ce () in
    let nv = Interp.eval_binop op cur rhs in
    assign_index_value env s ks nv
  in
  match fast_point ctx (Var name) subs with
  | Some (_, pt) -> (
      let rhs_ty = infer ctx e in
      let cur = { cv = 0.0 } and res = { cv = 0.0 } in
      match
        if is_arith op && (rhs_ty = Tint || rhs_ty = Tfloat) then
          compile_num ctx ~fallback:true e
        else None
      with
      | Some n ->
          let x, r = as_fnode n and f = float_op_fn op in
          fun () ->
            if no_hooks env then begin
              point_get pt cur;
              r ();
              f cur x res;
              point_set pt res
            end
            else generic pt.pt_ks ()
      | None ->
          fun () ->
            if no_hooks env then begin
              point_get pt cur;
              let rhs = ce () in
              match Interp.eval_binop op (Vfloat cur.cv) rhs with
              | Vfloat y ->
                  res.cv <- y;
                  point_set pt res
              | nv -> write_extern env pt.pt_ex pt.pt_ks nv
            end
            else generic pt.pt_ks ())
  | None -> generic (Array.of_list (List.map (compile_csub ctx) subs))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compile_body (env : Interp.env) ?(value_float = false) ~key_var ~value_var
    (body : Ast.block) : t option =
  try
    let names = referenced_names body in
    let rebound = rebound_names body in
    let locals =
      List.sort_uniq String.compare (key_var :: value_var :: rebound)
    in
    (* the kernel sets its key and value before the body runs *)
    let set_first = Names.of_list [ key_var; value_var ] in
    let key_local = key_stays_local key_var body in
    let ctx =
      {
        env;
        slots = Hashtbl.create 32;
        assigned = set_first;
        fast = false;
        key_var;
        key_cells =
          (if key_local then
             Array.init (key_width key_var body) (fun _ -> { ci = 0 })
           else [||]);
      }
    in
    List.iter
      (fun name ->
        let captured = Hashtbl.find_opt env.Interp.vars name in
        let v, defined =
          match captured with Some v -> (v, true) | None -> (Vunit, false)
        in
        Hashtbl.replace ctx.slots name
          {
            sl_name = name;
            sl_local = List.mem name locals;
            sl_v = v;
            sl_defined = defined;
            sl_ty = (if defined then ty_of_value v else Tbot);
            sl_rep = Rbox;
          })
      (List.sort_uniq String.compare (key_var :: value_var :: names));
    let sk = slot ctx key_var in
    let sv = slot ctx value_var in
    sk.sl_ty <- Tindex;
    sv.sl_ty <- (if value_float then Tfloat else Tany);
    (* fixpoint: join-only widening over a finite lattice terminates *)
    let guard = ref 0 in
    while infer_pass ctx body && !guard < 100 do
      incr guard
    done;
    Hashtbl.iter (fun _ s -> fix_rep s) ctx.slots;
    let cbody = compile_block ctx body in
    let cfast = compile_block { ctx with fast = true; assigned = set_first } body in
    let locals_slots = List.map (slot ctx) locals in
    Some
      {
        c_env = env;
        c_key = sk;
        c_key_cells = ctx.key_cells;
        c_key_local = key_local;
        c_key_buf = { ix = [||] };
        c_value = sv;
        c_value_float = value_float;
        c_body = cbody;
        c_fast = cfast;
        c_locals = locals_slots;
      }
  with Unsupported -> None

(* the body an entry with [key] runs: the fast one when no hook is
   attached and [key] has every component the body reads from a cell,
   which are then set from it *)
let body_for t key =
  let cells = t.c_key_cells in
  if no_hooks t.c_env && Array.length key >= Array.length cells then begin
    for d = 0 to Array.length cells - 1 do
      cells.(d).ci <- key.(d) + 1
    done;
    t.c_fast
  end
  else t.c_body

let run t ~key ~value =
  if t.c_value_float then
    invalid_arg
      "Compile.run: a kernel compiled with ~value_float:true runs on unboxed \
       values (Compile.run_float)";
  set_index t.c_key key;
  slot_set t.c_value value;
  try run_block (body_for t key) with Interp.Continue_exc -> ()

(* the value variable set to [values.(i)], read where it is stored: a
   float passed to a function is boxed *)
let set_float_value t values i =
  match t.c_value.sl_rep with
  | Rfloat c ->
      c.cv <- values.(i);
      t.c_value.sl_defined <- true
  | _ -> slot_set t.c_value (Vfloat values.(i))

let run_float t ~key values i =
  set_index t.c_key key;
  set_float_value t values i;
  try run_block (body_for t key) with Interp.Continue_exc -> ()

(* The block loop, with no hook attached: the body's statements for
   each entry in turn, under one handler that positions an error and
   one that moves on at a [continue].  A local key is written into the
   kernel's own array and, for the fast body, its cells; anything else
   gets a fresh key per entry. *)
let run_entries t ~dims ~strides keys values =
  let sk = t.c_key and local = t.c_key_local in
  let fast = Array.length dims >= Array.length t.c_key_cells in
  let cb = if fast then t.c_fast else t.c_body in
  let cells = if fast then t.c_key_cells else [||] in
  let kbuf =
    if not local then [||]
    else begin
      if Array.length t.c_key_buf.ix <> Array.length dims then
        t.c_key_buf.ix <- Array.make (Array.length dims) 0;
      t.c_key_buf.ix
    end
  in
  let n = Array.length keys in
  if local && n > 0 then set_index sk kbuf;
  let stmts = cb.cb_stmts and ns = Array.length cb.cb_stmts in
  let e = ref 0 and s = ref 0 in
  let rec go () =
    match
      while !e < n do
        let i = !e in
        if local then begin
          delinearize_into kbuf ~dims ~strides keys.(i);
          for d = 0 to Array.length cells - 1 do
            cells.(d).ci <- kbuf.(d) + 1
          done
        end
        else set_index sk (delinearize_in ~dims ~strides keys.(i));
        set_float_value t values i;
        s := 0;
        while !s < ns do
          stmts.(!s) ();
          incr s
        done;
        e := i + 1
      done
    with
    | () -> ()
    | exception Interp.Continue_exc ->
        incr e;
        go ()
  in
  try go ()
  with (Interp.Runtime_error _ | Type_error _) as ex ->
    raise (positioned cb.cb_pos.(!s) ex)

let run_floats t ~dims ~strides keys values =
  if no_hooks t.c_env then run_entries t ~dims ~strides keys values
  else
    for i = 0 to Array.length keys - 1 do
      run_float t ~key:(delinearize_in ~dims ~strides keys.(i)) values i
    done

(* a key array handed out may be the kernel's own, refilled by the next
   block, so the environment gets a copy *)
let flush_locals t =
  List.iter
    (fun s ->
      if s.sl_defined then
        Hashtbl.replace t.c_env.Interp.vars s.sl_name
          (match s.sl_rep with
          | Rindex c -> Vindex (Array.copy c.ix)
          | _ -> slot_get s))
    t.c_locals
