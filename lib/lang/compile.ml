(** One-time loop-body compiler for [@parallel_for] bodies.

    The tree-walking {!Interp} re-dispatches on the AST for every
    element of every pass; this module performs that dispatch {e once},
    turning the body into a tree of OCaml closures:

    - variables resolve to mutable {e slots} (array cells) instead of
      per-access hashtable lookups;
    - DistArray point subscripts and one-dimensional slices
      ([W\[:, j\]], [W\[lo:hi, j\]]) resolve through the host's
      unboxed {!Value.fast_access} accessors with a reused key buffer,
      element by element for a slice, when no profile or access hook
      needs to observe the access;
    - a small static type inference (fixpoint over the body) finds
      scalar [int]/[float] expressions and compiles them unboxed, and
      finds vector expressions (extern slices, [+ - * /] and negation
      over vectors and scalars) and compiles them to [float array]
      loops that build one fresh array per operation, as
      {!Interp.eval_binop} does;
    - builtins devirtualize to direct closures at compile time.

    Observational equivalence with {!Interp.eval_body_for} is the
    contract: same values bitwise, same exceptions with the same
    positioned messages, same RNG consumption order, and — whenever
    [env.profile] or [env.on_array_access] is set — the same records in
    the same order (every access site dynamically falls back to the
    boxed, hook-calling path when either is set, so one kernel serves
    both the multicore engine and the journaling distributed worker).

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

type slot = {
  sl_name : string;
  sl_local : bool;  (** assigned somewhere in the body (or a loop var) *)
  mutable sl_v : Value.t;
  mutable sl_defined : bool;
  mutable sl_ty : ty;
}

let slot_get s =
  if s.sl_defined then s.sl_v
  else
    raise
      (Interp.Runtime_error
         (Printf.sprintf "undefined variable %s" s.sl_name))

let slot_set s v =
  s.sl_v <- v;
  s.sl_defined <- true

let slot_int s =
  match slot_get s with
  | Vint n -> n
  | _ -> infer_bug ("int slot " ^ s.sl_name)

let slot_float s =
  match slot_get s with
  | Vfloat f -> f
  | _ -> infer_bug ("float slot " ^ s.sl_name)

type ctx = { env : Interp.env; slots : (string, slot) Hashtbl.t }

let slot ctx name =
  match Hashtbl.find_opt ctx.slots name with
  | Some s -> s
  | None -> infer_bug ("unallocated slot " ^ name)

type t = {
  c_env : Interp.env;
  c_key : slot;
  c_value : slot;
  c_value_float : bool;
  c_body : (unit -> unit) array;
  c_locals : slot list;
}

(* ------------------------------------------------------------------ *)
(* Name collection                                                     *)
(* ------------------------------------------------------------------ *)

(* every variable the body reads or writes, including array bases,
   subscript expressions and loop variables *)
let referenced_names body =
  let names = ref [] in
  let add n = names := n :: !names in
  let expr e =
    ignore
      (Ast.fold_expr
         (fun () e -> match e with Var v -> add v | _ -> ())
         () e)
  in
  let sub s =
    ignore
      (Ast.fold_subscript
         (fun () e -> match e with Var v -> add v | _ -> ())
         () s)
  in
  ignore
    (Ast.fold_stmts
       (fun () stmt ->
         match stmt.sk with
         | Assign (Lvar v, e) -> add v; expr e
         | Assign (Lindex (v, subs), e) ->
             add v;
             List.iter sub subs;
             expr e
         | Op_assign (_, Lvar v, e) -> add v; expr e
         | Op_assign (_, Lindex (v, subs), e) ->
             add v;
             List.iter sub subs;
             expr e
         | If (c, _, _) -> expr c
         | While (c, _) -> expr c
         | For { kind = Range_loop { var; lo; hi }; _ } ->
             add var; expr lo; expr hi
         | For { kind = Each_loop { key; value; arr }; _ } ->
             add key; add value; add arr
         | Expr_stmt e -> expr e
         | Break | Continue -> ())
       () body);
  List.sort_uniq String.compare !names

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

(* a compiled subscript: closures produce 0-based concrete positions *)
type csub =
  | Kall
  | Kpoint of (unit -> int)
  | Krange of (unit -> int) * (unit -> int)

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
      | Kpoint f -> Cpoint (f ())
      | Krange (l, h) ->
          let lo = l () in
          Crange (lo, h ()))
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
      | [| Kpoint f |] -> Vfloat arr.(f ())
      | [| Kall |] -> Vvec (Array.copy arr)
      | [| Krange (l, h) |] ->
          let lo = l () in
          let hi = h () in
          Interp.checked_vec_range ~len:(Array.length arr) ~lo ~hi;
          Vvec (Array.sub arr lo (hi - lo + 1))
      | _ -> raise (Interp.Runtime_error "vectors take exactly one subscript"))
  | Vindex idx -> (
      match ks with
      | [| Kpoint f |] -> Vint (idx.(f ()) + 1)
      | _ ->
          raise (Interp.Runtime_error "index vectors take one point subscript"))
  | Vtuple vs -> (
      match ks with
      | [| Kpoint f |] -> List.nth vs (f ())
      | _ -> raise (Interp.Runtime_error "tuples take one point subscript"))
  | v -> raise (Type_error ("cannot index a " ^ type_name v))

let assign_index_value env s (ks : csub array) v =
  match slot_get s with
  | Vextern ex -> write_extern env ex ks v
  | Vvec arr -> (
      match ks with
      | [| Kpoint f |] ->
          let i = f () in
          arr.(i) <- to_float v
      | [| Kall |] ->
          let src = to_vec v in
          if Array.length src <> Array.length arr then
            raise (Interp.Runtime_error "vector length mismatch in assignment")
          else Array.blit src 0 arr 0 (Array.length arr)
      | [| Krange (l, h) |] ->
          let lo = l () in
          let hi = h () in
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

(* ---- extern slices through the unboxed accessors ------------------ *)

(* [A[p1, .., lo:hi, .., pn]] on a fast extern: the compiled
   subscripts, the sliced dimension, and a key buffer that holds the
   point positions and walks the sliced one *)
type slice = {
  sc_ks : csub array;
  sc_dim : int;
  sc_extent : int;  (** the sliced dimension's size: the bounds of [:] *)
  sc_key : int array;
  mutable sc_lo : int;
  mutable sc_hi : int;
}

let make_slice ex ks =
  let n = Array.length ks in
  let dim = ref 0 in
  Array.iteri (fun i k -> match k with Kpoint _ -> () | _ -> dim := i) ks;
  {
    sc_ks = ks;
    sc_dim = !dim;
    sc_extent = ex.ex_dims.(!dim);
    sc_key = Array.make n 0;
    sc_lo = 0;
    sc_hi = 0;
  }

(* the subscripts, left to right with lo before hi, as [eval_csubs] *)
let eval_slice sc =
  for i = 0 to Array.length sc.sc_ks - 1 do
    match sc.sc_ks.(i) with
    | Kpoint f -> sc.sc_key.(i) <- f ()
    | Kall ->
        sc.sc_lo <- 0;
        sc.sc_hi <- sc.sc_extent - 1
    | Krange (l, h) ->
        let lo = l () in
        sc.sc_lo <- lo;
        sc.sc_hi <- h ()
  done

(* An extern with a fast accessor answers a slice element by element,
   as [Dist_array.slice_vec] / [set_slice_vec] do: ascending positions,
   so an out-of-range element raises after the same prefix, and a
   reversed range fails as their [Array.init] does. *)
let read_slice fa sc =
  eval_slice sc;
  let lo = sc.sc_lo and key = sc.sc_key and d = sc.sc_dim in
  let n = sc.sc_hi - lo + 1 in
  if n < 0 then invalid_arg "Array.init";
  let r = Array.create_float n in
  for k = 0 to n - 1 do
    key.(d) <- lo + k;
    r.(k) <- fa.fa_get key
  done;
  r

(* a store of the wrong length goes to the boxed setter, which owns
   that error *)
let write_slice ex fa sc src =
  eval_slice sc;
  let lo = sc.sc_lo and key = sc.sc_key and d = sc.sc_dim in
  let n = sc.sc_hi - lo + 1 in
  if Array.length src <> n then
    ex.ex_set
      (Array.mapi
         (fun i k ->
           match k with
           | Kpoint _ -> Cpoint key.(i)
           | Kall -> Call_dim
           | Krange _ -> Crange (lo, sc.sc_hi))
         sc.sc_ks)
      (Vvec src)
  else
    for k = 0 to n - 1 do
      key.(d) <- lo + k;
      fa.fa_set key src.(k)
    done

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* unboxed scalar code *)
type num = I of (unit -> int) | F of (unit -> float)

let as_float = function F f -> f | I f -> fun () -> float_of_int (f ())

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
      match compile_num ctx ~fallback:false ~hookfree:false e with
      | Some (I f) -> fun () -> Vint (f ())
      | Some (F f) -> fun () -> Vfloat (f ())
      | None -> (
          match compile_vec ctx e with
          | Some f -> fun () -> Vvec (f ())
          | None ->
              let ca = compile_expr ctx a in
              let cb = compile_expr ctx b in
              fun () ->
                let va = ca () in
                let vb = cb () in
                Interp.eval_binop op va vb))
  | Unop (Neg, a) -> (
      match compile_vec ctx e with
      | Some f -> fun () -> Vvec (f ())
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
  | Call (f, args) -> compile_call ctx f args
  | Index (base, subs) -> compile_index ctx base subs

and eval_list cs =
  match cs with
  | [] -> []
  | c :: tl ->
      let v = c () in
      v :: eval_list tl

(* ---- builtin devirtualization ------------------------------------ *)

and compile_call ctx f args : unit -> Value.t =
  let env = ctx.env in
  let cargs = List.map (compile_expr ctx) args in
  match (f, cargs) with
  | "int", [ c ] -> fun () -> Vint (to_int (c ()))
  | "float", [ c ] -> fun () -> Vfloat (to_float (c ()))
  | "exp", [ c ] -> fun () -> Vfloat (exp (to_float (c ())))
  | "log", [ c ] -> fun () -> Vfloat (log (to_float (c ())))
  | "sqrt", [ c ] -> fun () -> Vfloat (sqrt (to_float (c ())))
  | "sigmoid", [ c ] ->
      fun () ->
        let x = to_float (c ()) in
        Vfloat (1.0 /. (1.0 +. exp (-.x)))
  | "abs2", [ c ] ->
      fun () ->
        let x = to_float (c ()) in
        Vfloat (x *. x)
  | "abs", [ c ] ->
      fun () -> (
        match c () with
        | Vint n -> Vint (abs n)
        | v -> Vfloat (Float.abs (to_float v)))
  | "floor", [ c ] -> fun () -> Vint (int_of_float (Float.floor (to_float (c ()))))
  | "ceil", [ c ] -> fun () -> Vint (int_of_float (Float.ceil (to_float (c ()))))
  | "round", [ c ] -> fun () -> Vint (int_of_float (Float.round (to_float (c ()))))
  | "rand", [] -> fun () -> Vfloat (Interp.Rng.float env.Interp.rng)
  | "randn", [] -> fun () -> Vfloat (Interp.Rng.gaussian env.Interp.rng)
  | "rand_int", [ c ] ->
      fun () ->
        let n = to_int (c ()) in
        if n <= 0 then
          raise (Interp.Runtime_error "rand_int expects a positive bound")
        else Vint (int_of_float (Interp.Rng.float env.Interp.rng *. float_of_int n))
  | "min", [ a; b ] ->
      fun () ->
        let va = a () in
        let vb = b () in
        (match (va, vb) with
        | Vint x, Vint y -> Vint (min x y)
        | _ ->
            let x = to_float va in
            let y = to_float vb in
            Vfloat (Float.min x y))
  | "max", [ a; b ] ->
      fun () ->
        let va = a () in
        let vb = b () in
        (match (va, vb) with
        | Vint x, Vint y -> Vint (max x y)
        | _ ->
            let x = to_float va in
            let y = to_float vb in
            Vfloat (Float.max x y))
  | "dot", [ _; _ ] ->
      let f = compile_dot ctx args in
      fun () -> Vfloat (f ())
  | "norm", [ c ] ->
      fun () ->
        let x = to_vec (c ()) in
        Vfloat (sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 x))
  | "zeros", [ c ] -> fun () -> Vvec (Array.make (to_int (c ())) 0.0)
  | "length", [ c ] ->
      fun () -> (
        match c () with
        | Vvec v -> Vint (Array.length v)
        | Vextern ex -> Vint (ex.ex_count ())
        | Vtuple vs -> Vint (List.length vs)
        | Vindex idx -> Vint (Array.length idx)
        | v -> Interp.eval_builtin env "length" [ v ])
  | _ ->
      (* everything else (size, sum, fill, println, host builtins, …)
         goes through the interpreter's single dispatch point with the
         same left-to-right argument order *)
      fun () -> Interp.eval_builtin env f (eval_list cargs)

(* ---- unboxed scalar compilation ----------------------------------- *)

(* [compile_num ctx ~fallback ~hookfree e] compiles [e] to an unboxed
   int/float closure when its static type allows.  [hookfree] kernels
   may skip profile/access-hook records (they only ever run under a
   dynamic no-hooks check); non-hookfree ones are valid anywhere.
   [fallback] permits wrapping the generic boxed closure when no
   structural specialization applies (must be [false] when called from
   [compile_expr] on the same node, to avoid mutual recursion). *)
and compile_num ctx ~fallback ~hookfree (e : expr) : num option =
  let num_arg = float_arg ctx ~hookfree in
  match e with
  | Int_lit n -> Some (I (fun () -> n))
  | Float_lit f -> Some (F (fun () -> f))
  | Var v -> (
      let s = slot ctx v in
      match s.sl_ty with
      | Tint -> Some (I (fun () -> slot_int s))
      | Tfloat -> Some (F (fun () -> slot_float s))
      | _ -> None)
  | Unop (Neg, a) -> (
      match compile_num ctx ~fallback:true ~hookfree a with
      | Some (I f) -> Some (I (fun () -> -f ()))
      | Some (F f) -> Some (F (fun () -> -.(f ())))
      | None -> None)
  | Binop (op, a, b) -> (
      match
        ( compile_num ctx ~fallback:true ~hookfree a,
          compile_num ctx ~fallback:true ~hookfree b )
      with
      | Some na, Some nb -> compile_num_binop op na nb
      | _ -> None)
  | Call ("int", [ a ]) ->
      Some
        (I
           (match compile_num ctx ~fallback:true ~hookfree a with
           | Some (I f) -> f
           | Some (F f) ->
               fun () ->
                 let x = f () in
                 if Float.is_integer x then int_of_float x
                 else raise (Type_error "expected an int, got float")
           | None ->
               let c = compile_expr ctx a in
               fun () -> to_int (c ())))
  | Call ("float", [ a ]) -> Some (F (num_arg a))
  | Call ("exp", [ a ]) ->
      let f = num_arg a in
      Some (F (fun () -> exp (f ())))
  | Call ("log", [ a ]) ->
      let f = num_arg a in
      Some (F (fun () -> log (f ())))
  | Call ("sqrt", [ a ]) ->
      let f = num_arg a in
      Some (F (fun () -> sqrt (f ())))
  | Call ("sigmoid", [ a ]) ->
      let f = num_arg a in
      Some
        (F
           (fun () ->
             let x = f () in
             1.0 /. (1.0 +. exp (-.x))))
  | Call ("abs2", [ a ]) ->
      let f = num_arg a in
      Some
        (F
           (fun () ->
             let x = f () in
             x *. x))
  | Call ("abs", [ a ]) -> (
      match compile_num ctx ~fallback:true ~hookfree a with
      | Some (I f) -> Some (I (fun () -> abs (f ())))
      | Some (F f) -> Some (F (fun () -> Float.abs (f ())))
      | None -> None)
  | Call (("floor" | "ceil" | "round") as fn, [ a ]) ->
      let f = num_arg a in
      let op =
        match fn with
        | "floor" -> Float.floor
        | "ceil" -> Float.ceil
        | _ -> Float.round
      in
      Some (I (fun () -> int_of_float (op (f ()))))
  | Call ("rand", []) ->
      Some (F (fun () -> Interp.Rng.float ctx.env.Interp.rng))
  | Call ("randn", []) ->
      Some (F (fun () -> Interp.Rng.gaussian ctx.env.Interp.rng))
  | Call ("rand_int", [ a ]) ->
      let c =
        match compile_num ctx ~fallback:true ~hookfree a with
        | Some (I f) -> f
        | Some (F f) ->
            fun () ->
              let x = f () in
              if Float.is_integer x then int_of_float x
              else raise (Type_error "expected an int, got float")
        | None ->
            let g = compile_expr ctx a in
            fun () -> to_int (g ())
      in
      Some
        (I
           (fun () ->
             let n = c () in
             if n <= 0 then
               raise (Interp.Runtime_error "rand_int expects a positive bound")
             else
               int_of_float
                 (Interp.Rng.float ctx.env.Interp.rng *. float_of_int n)))
  | Call (("min" | "max") as fn, [ a; b ]) -> (
      match
        ( compile_num ctx ~fallback:true ~hookfree a,
          compile_num ctx ~fallback:true ~hookfree b )
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
          let fa = as_float na and fb = as_float nb in
          let op = if fn = "min" then Float.min else Float.max in
          Some
            (F
               (fun () ->
                 let x = fa () in
                 let y = fb () in
                 op x y))
      | _ -> None)
  | Call ("dot", ([ _; _ ] as args)) -> Some (F (compile_dot ctx args))
  | Call ("norm", [ a ]) ->
      let c = compile_expr ctx a in
      Some
        (F
           (fun () ->
             let x = to_vec (c ()) in
             sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 x)))
  | Index ((Var v as base), [ Sub_expr i ]) when infer ctx base = Tindex ->
      (* [key[i]]: the base is looked up before the subscript runs *)
      let s = slot ctx v in
      let p = compile_point ctx i in
      Some
        (I
           (fun () ->
             match slot_get s with
             | Vindex idx -> idx.(p ()) + 1
             | _ -> infer_bug ("index slot " ^ v)))
  | Index (base, subs) when hookfree -> (
      match fast_extern_read ctx base subs with
      | Some (_, _, fa) ->
          let ps =
            Array.of_list
              (List.map
                 (function
                   | Sub_expr e -> compile_point ctx e
                   | _ -> assert false)
                 subs)
          in
          let n = Array.length ps in
          let buf = Array.make n 0 in
          Some
            (F
               (fun () ->
                 for i = 0 to n - 1 do
                   buf.(i) <- ps.(i) ()
                 done;
                 fa.fa_get buf))
      | None -> num_fallback ctx ~fallback e)
  | _ -> num_fallback ctx ~fallback e

(* an argument compiled unboxed-or-boxed, converted like [to_float] *)
and float_arg ctx ~hookfree a : unit -> float =
  match compile_num ctx ~fallback:true ~hookfree a with
  | Some n -> as_float n
  | None ->
      let c = compile_expr ctx a in
      fun () -> to_float (c ())

(* [dot(a, b)]: a plain loop when both arguments are statically
   vectors; otherwise both values first, then each converted like
   [to_vec], as the interpreter does *)
and compile_dot ctx args : unit -> float =
  match args with
  | [ a; b ] when infer ctx a = Tvec && infer ctx b = Tvec ->
      let fa = vec_operand ctx a in
      let fb = vec_operand ctx b in
      fun () ->
        let x = fa () in
        let y = fb () in
        Interp.vec_dot x y
  | [ a; b ] ->
      let ca = compile_expr ctx a in
      let cb = compile_expr ctx b in
      fun () ->
        let va = ca () in
        let vb = cb () in
        let x = to_vec va in
        let y = to_vec vb in
        Interp.vec_dot x y
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
        Some
          (F
             (fun () ->
               match c () with
               | Vfloat f -> f
               | _ -> infer_bug "float expression"))
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
  let float_op fop =
    let fa = as_float na and fb = as_float nb in
    Some
      (F
         (fun () ->
           let x = fa () in
           let y = fb () in
           fop x y))
  in
  let arith iop fop =
    match int_op iop with Some _ as r -> r | None -> float_op fop
  in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
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
      | _ -> float_op ( /. ))
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
      | _ -> float_op Float.rem)
  | Pow -> (
      (* Vint ^ Vint is Vint only for non-negative exponents — a runtime
         property, so int^int stays on the generic path *)
      match (na, nb) with
      | I _, I _ -> None
      | _ -> float_op Float.pow)
  | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> None

(* ---- vector compilation ------------------------------------------- *)

(* [compile_vec ctx e] compiles a statically-vector [e] to a closure
   returning its elements, when [e] is an extern slice, a vector
   variable, or [+ - * /] / negation over vector and scalar operands.
   Arithmetic returns a fresh array; a variable returns the array it
   holds, so [b = a] still aliases, as in the interpreter.  [None]
   leaves [e] to the boxed path (never called by [compile_expr] on a
   node it would hand back, so the two cannot recurse forever). *)
and compile_vec ctx (e : expr) : (unit -> float array) option =
  let scalar = float_arg ctx ~hookfree:false in
  match e with
  | Var v ->
      let s = slot ctx v in
      if s.sl_ty <> Tvec then None
      else
        Some
          (fun () ->
            match slot_get s with
            | Vvec x -> x
            | _ -> infer_bug ("vector slot " ^ v))
  | Index (base, subs) -> compile_slice_read ctx base subs
  | Unop (Neg, a) when infer ctx a = Tvec ->
      let fa = vec_operand ctx a in
      Some (fun () -> Interp.vec_neg (fa ()))
  | Binop ((Add | Sub | Mul | Div) as op, a, b) -> (
      match (infer ctx a, infer ctx b) with
      | Tvec, Tvec ->
          let fa = vec_operand ctx a in
          let fb = vec_operand ctx b in
          Some
            (fun () ->
              let x = fa () in
              let y = fb () in
              Interp.vec_vec op x y)
      | Tvec, (Tint | Tfloat) ->
          let fa = vec_operand ctx a in
          let fb = scalar b in
          Some
            (fun () ->
              let x = fa () in
              let y = fb () in
              Interp.vec_scalar op x y)
      | (Tint | Tfloat), Tvec ->
          let fa = scalar a in
          let fb = vec_operand ctx b in
          Some
            (fun () ->
              let x = fa () in
              let y = fb () in
              Interp.scalar_vec op x y)
      | _ -> None)
  | _ -> None

(* a statically-vector operand: structurally when possible, else boxed
   and unwrapped *)
and vec_operand ctx (e : expr) : unit -> float array =
  match compile_vec ctx e with
  | Some f -> f
  | None -> (
      let c = compile_expr ctx e in
      fun () -> match c () with Vvec x -> x | _ -> infer_bug "vector expression")

(* a slice of a fast extern: element by element through the unboxed
   accessor, or the boxed read whenever a hook is attached *)
and compile_slice_read ctx base subs : (unit -> float array) option =
  match fast_extern_slice ctx base subs with
  | None -> None
  | Some (s, ex, fa) ->
      let env = ctx.env in
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      let sc = make_slice ex ks in
      Some
        (fun () ->
          if no_hooks env then read_slice fa sc
          else
            match index_value env (slot_get s) ks with
            | Vvec x -> x
            | _ -> infer_bug ("extern slice " ^ ex.ex_name))

(* ---- subscripts --------------------------------------------------- *)

(* a point subscript as a 0-based int closure; [to_int]'s exact
   acceptance (integers and integer-valued floats) and error text *)
and compile_point ctx (e : expr) : unit -> int =
  match compile_num ctx ~fallback:true ~hookfree:false e with
  | Some (I f) -> fun () -> f () - 1
  | Some (F f) ->
      fun () ->
        let x = f () in
        if Float.is_integer x then int_of_float x - 1
        else raise (Type_error "expected an int, got float")
  | None ->
      let c = compile_expr ctx e in
      fun () -> to_int (c ()) - 1

and compile_csub ctx = function
  | Sub_all -> Kall
  | Sub_expr e -> Kpoint (compile_point ctx e)
  | Sub_range (lo, hi) -> Krange (compile_point ctx lo, compile_point ctx hi)

(* ---- indexing ----------------------------------------------------- *)

and compile_index ctx base subs : unit -> Value.t =
  let env = ctx.env in
  match (compile_slice_read ctx base subs, fast_extern_read ctx base subs) with
  | Some f, _ -> fun () -> Vvec (f ())
  | None, Some (s, _, fa) ->
      let ps =
        Array.of_list
          (List.map
             (function Sub_expr e -> compile_point ctx e | _ -> assert false)
             subs)
      in
      let n = Array.length ps in
      let buf = Array.make n 0 in
      let ks = Array.map (fun p -> Kpoint p) ps in
      fun () ->
        if no_hooks env then begin
          for i = 0 to n - 1 do
            buf.(i) <- ps.(i) ()
          done;
          Vfloat (fa.fa_get buf)
        end
        else index_value env (slot_get s) ks
  | None, None ->
      let cb = compile_expr ctx base in
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      fun () ->
        let v = cb () in
        index_value env v ks

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

let is_arith = function Add | Sub | Mul | Div | Mod | Pow -> true | _ -> false

let arith_float_op = function
  | Add -> ( +. )
  | Sub -> ( -. )
  | Mul -> ( *. )
  | Div -> ( /. )
  | Mod -> Float.rem
  | Pow -> Float.pow
  | _ -> assert false

(* the fast-path pieces of an [Lindex] on a captured DistArray with
   point subscripts and an unboxed accessor *)
type fast_store = {
  fs_fa : Value.fast_access;
  fs_ps : (unit -> int) array;
  fs_buf : int array;
  fs_ks : csub array;
}

let fast_store ctx name subs =
  match fast_extern_read ctx (Var name) subs with
  | Some (_, _, fa) ->
      let ps =
        Array.of_list
          (List.map
             (function Sub_expr e -> compile_point ctx e | _ -> assert false)
             subs)
      in
      Some
        {
          fs_fa = fa;
          fs_ps = ps;
          fs_buf = Array.make (Array.length ps) 0;
          fs_ks = Array.map (fun p -> Kpoint p) ps;
        }
  | None -> None

let fill_buf fs =
  for i = 0 to Array.length fs.fs_ps - 1 do
    fs.fs_buf.(i) <- fs.fs_ps.(i) ()
  done

let rec compile_stmt ctx (stmt : stmt) : unit -> unit =
  let kind = compile_stmt_kind ctx stmt in
  let env = ctx.env in
  let pos = stmt.spos in
  fun () ->
    try
      match env.Interp.profile with
      | None -> kind ()
      | Some p ->
          let t0 = Unix.gettimeofday () in
          Fun.protect
            ~finally:(fun () ->
              Profile.record_line p ~line:pos.line
                ~seconds:(Unix.gettimeofday () -. t0))
            kind
    with
    | Interp.Runtime_error msg
      when pos.line > 0 && not (Interp.has_pos_prefix msg) ->
        raise
          (Interp.Runtime_error
             (Printf.sprintf "%d:%d: %s" pos.line pos.col msg))
    | Type_error msg when pos.line > 0 && not (Interp.has_pos_prefix msg) ->
        raise
          (Type_error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg))

and compile_block ctx (b : block) : (unit -> unit) array =
  Array.of_list (List.map (compile_stmt ctx) b)

and run_block cb = Array.iter (fun f -> f ()) cb

and compile_stmt_kind ctx stmt : unit -> unit =
  let env = ctx.env in
  match stmt.sk with
  | Assign (Lvar v, e) ->
      let s = slot ctx v in
      let c = compile_expr ctx e in
      fun () -> slot_set s (c ())
  | Assign (Lindex (v, subs), e) -> (
      match compile_slice_store ctx v subs e with
      | Some f -> f
      | None -> compile_assign_index ctx v subs e)
  | Op_assign (op, Lvar v, e) -> (
      let s = slot ctx v in
      (* [v op= e] reads [v] before [e], as [v = v op e] does *)
      let vec =
        match op with
        | Add | Sub | Mul | Div -> compile_vec ctx (Binop (op, Var v, e))
        | _ -> None
      in
      match vec with
      | Some f -> fun () -> slot_set s (Vvec (f ()))
      | None ->
          let c = compile_expr ctx e in
          fun () ->
            let cur = slot_get s in
            let rhs = c () in
            slot_set s (Interp.eval_binop op cur rhs))
  | Op_assign (op, Lindex (v, subs), e) ->
      compile_op_assign_index ctx op v subs e
  | If (c, then_b, else_b) ->
      let cc = compile_expr ctx c in
      let ct = compile_block ctx then_b in
      let cf = compile_block ctx else_b in
      fun () -> if to_bool (cc ()) then run_block ct else run_block cf
  | While (c, body) ->
      let cc = compile_expr ctx c in
      let cb = compile_block ctx body in
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
      let clo = compile_loop_bound ctx lo in
      let chi = compile_loop_bound ctx hi in
      let cb = compile_block ctx body in
      fun () ->
        let l = clo () in
        let h = chi () in
        (try
           for i = l to h do
             slot_set s (Vint i);
             try run_block cb with Interp.Continue_exc -> ()
           done
         with Interp.Break_exc -> ())
  | For { kind = Each_loop { key; value; arr }; body; parallel = None } ->
      let sa = slot ctx arr in
      let sk = slot ctx key in
      let sv = slot ctx value in
      let cb = compile_block ctx body in
      fun () -> (
        match slot_get sa with
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
                  slot_set sk (Vindex idx);
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

(* a 1-based loop bound, converted like [to_int] *)
and compile_loop_bound ctx e : unit -> int =
  match compile_num ctx ~fallback:true ~hookfree:false e with
  | Some (I f) -> f
  | Some (F f) ->
      fun () ->
        let x = f () in
        if Float.is_integer x then int_of_float x
        else raise (Type_error "expected an int, got float")
  | None ->
      let c = compile_expr ctx e in
      fun () -> to_int (c ())

(* A[i, j] = e
   interpreter order: RHS value; base lookup; profile write record;
   subscripts; store; access hook *)
(* W[:, j] = e for a statically-vector e: element by element through
   the unboxed setter, same order as the boxed store (RHS, then
   subscripts) *)
and compile_slice_store ctx name subs e : (unit -> unit) option =
  match fast_extern_slice ctx (Var name) subs with
  | Some (s, ex, fa) when infer ctx e = Tvec ->
      let env = ctx.env in
      let cv = vec_operand ctx e in
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      let sc = make_slice ex ks in
      Some
        (fun () ->
          if no_hooks env then write_slice ex fa sc (cv ())
          else
            let v = Vvec (cv ()) in
            assign_index_value env s ks v)
  | _ -> None

and compile_assign_index ctx name subs e : unit -> unit =
  let env = ctx.env in
  let s = slot ctx name in
  let ce = compile_expr ctx e in
  match fast_store ctx name subs with
  | Some fs -> (
      let generic () =
        let v = ce () in
        assign_index_value env s fs.fs_ks v
      in
      (* statically-float RHS stores straight through the unboxed
         accessor; otherwise box, then pick the path per value *)
      match
        if infer ctx e = Tfloat then
          compile_num ctx ~fallback:true ~hookfree:true e
        else None
      with
      | Some (F fe) ->
          fun () ->
            if no_hooks env then begin
              let x = fe () in
              fill_buf fs;
              fs.fs_fa.fa_set fs.fs_buf x
            end
            else generic ()
      | _ ->
          fun () ->
            if no_hooks env then begin
              let v = ce () in
              match v with
              | Vfloat x ->
                  fill_buf fs;
                  fs.fs_fa.fa_set fs.fs_buf x
              | v ->
                  (* non-float store: the boxed setter owns the
                     conversion/error semantics *)
                  write_extern env
                    (match slot_get s with
                    | Vextern ex -> ex
                    | _ -> infer_bug "extern slot")
                    fs.fs_ks v
            end
            else generic ())
  | None ->
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      fun () ->
        let v = ce () in
        assign_index_value env s ks v

(* A[i, j] op= e
   interpreter order: full read (record, subscripts #1, get, hook);
   RHS; combine; full write (record, subscripts #2, set, hook) — the
   subscripts are evaluated twice, and the compiled paths keep that *)
and compile_op_assign_index ctx op name subs e : unit -> unit =
  let env = ctx.env in
  let s = slot ctx name in
  let ce = compile_expr ctx e in
  let generic ks () =
    let cur = index_value env (slot_get s) ks in
    let rhs = ce () in
    let nv = Interp.eval_binop op cur rhs in
    assign_index_value env s ks nv
  in
  match fast_store ctx name subs with
  | Some fs -> (
      let rhs_ty = infer ctx e in
      match
        if is_arith op && (rhs_ty = Tint || rhs_ty = Tfloat) then
          compile_num ctx ~fallback:true ~hookfree:true e
        else None
      with
      | Some n ->
          let fe = as_float n in
          let fop = arith_float_op op in
          fun () ->
            if no_hooks env then begin
              fill_buf fs;
              let cur = fs.fs_fa.fa_get fs.fs_buf in
              let r = fe () in
              fill_buf fs;
              fs.fs_fa.fa_set fs.fs_buf (fop cur r)
            end
            else generic fs.fs_ks ()
      | None ->
          fun () ->
            if no_hooks env then begin
              fill_buf fs;
              let cur = fs.fs_fa.fa_get fs.fs_buf in
              let rhs = ce () in
              let nv = Interp.eval_binop op (Vfloat cur) rhs in
              fill_buf fs;
              match nv with
              | Vfloat x -> fs.fs_fa.fa_set fs.fs_buf x
              | nv ->
                  write_extern env
                    (match slot_get s with
                    | Vextern ex -> ex
                    | _ -> infer_bug "extern slot")
                    fs.fs_ks nv
            end
            else generic fs.fs_ks ())
  | None ->
      let ks = Array.of_list (List.map (compile_csub ctx) subs) in
      generic ks

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compile_body (env : Interp.env) ?(value_float = false) ~key_var ~value_var
    (body : Ast.block) : t option =
  try
    let names = referenced_names body in
    let locals =
      List.sort_uniq String.compare
        (key_var :: value_var :: rebound_names body)
    in
    let ctx = { env; slots = Hashtbl.create 32 } in
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
    let cbody = compile_block ctx body in
    let locals_slots = List.map (slot ctx) locals in
    Some
      {
        c_env = env;
        c_key = sk;
        c_value = sv;
        c_value_float = value_float;
        c_body = cbody;
        c_locals = locals_slots;
      }
  with Unsupported -> None

let run t ~key ~value =
  if t.c_value_float then (
    match value with
    | Vfloat _ -> ()
    | v ->
        invalid_arg
          (Printf.sprintf
             "Compile.run: kernel compiled with ~value_float:true got a %s \
              value"
             (type_name v)));
  slot_set t.c_key (Vindex key);
  slot_set t.c_value value;
  try run_block t.c_body with Interp.Continue_exc -> ()

let flush_locals t =
  List.iter
    (fun s ->
      if s.sl_defined then Hashtbl.replace t.c_env.Interp.vars s.sl_name s.sl_v)
    t.c_locals
