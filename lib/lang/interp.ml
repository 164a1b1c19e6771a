(** Tree-walking interpreter for OrionScript.

    This plays the role of Julia's JIT in the paper's prototype: the
    analysis operates on the AST, and the same AST is then *executed* —
    either serially by the driver, or iteration-by-iteration by the
    distributed executor via {!eval_body_for}.

    Distributed arrays are visible only through {!Value.extern} handles
    installed in the environment by the host. *)

open Ast
open Value

exception Runtime_error of string

exception Break_exc
exception Continue_exc

(** A deterministic splitmix64 generator so interpreted programs are
    reproducible across runs and platforms. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }
  let state t = t.state
  let set_state t s = t.state <- s

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let float t =
    (* uniform in [0, 1) from the top 53 bits *)
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits /. 9007199254740992.0

  let gaussian t =
    (* Box–Muller; one value per call is fine at our scale *)
    let u1 = max (float t) 1e-300 in
    let u2 = float t in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
end

type env = {
  vars : (string, Value.t) Hashtbl.t;
  rng : Rng.t;
  host_call : string -> Value.t list -> Value.t option;
      (** extra builtins supplied by the host; returns [None] if the
          name is not a host builtin *)
  mutable on_parallel_for : (env -> Ast.stmt -> unit) option;
      (** when set, @parallel_for statements are routed here (the
          distributed runtime) instead of executing serially *)
  mutable profile : Profile.t option;
      (** when set, statement execution and DistArray accesses are
          recorded (see {!Profile}) *)
  mutable on_array_access :
    (Value.extern -> write:bool -> Value.concrete_sub array -> unit) option;
      (** when set, called after every successful DistArray element
          access with the concrete (0-based) subscripts — the hook the
          dynamic dependence validator uses to build its access log *)
}

let create_env ?(seed = 42) ?(host_call = fun _ _ -> None) ?profile () =
  {
    vars = Hashtbl.create 64;
    rng = Rng.create seed;
    host_call;
    on_parallel_for = None;
    profile;
    on_array_access = None;
  }

let set_var env name v = Hashtbl.replace env.vars name v

let get_var env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> v
  | None -> raise (Runtime_error (Printf.sprintf "undefined variable %s" name))

let var_opt env name = Hashtbl.find_opt env.vars name

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let check_same_length a b =
  if Array.length a <> Array.length b then
    raise
      (Runtime_error
         (Printf.sprintf "vector length mismatch: %d vs %d" (Array.length a)
            (Array.length b)))

(* An unboxed float: a record of one float field is stored flat, so
   writing it allocates nothing. *)
type fcell = { mutable cv : float }

(* Element-wise vector arithmetic, one loop per operator: calling a
   [float -> float -> float] closure would box every element.  Each
   loop writes its result into [r], which must have the operands'
   length; a scalar operand comes in a cell, since a float argument
   would be boxed.  The interpreter wraps each in a fresh array, and
   {!Compile}'s kernels take the operator's loop once, when they are
   built, and pass their own reused buffers, so both paths run one
   piece of machine code per operator: when both operands of an
   instruction are NaN, which one's sign survives depends on the
   instruction's operand order, and separately compiled loops need not
   agree on it. *)
let vec_vec_fn op : float array -> float array -> float array -> unit =
  match op with
  | Add ->
      fun x y r ->
        check_same_length x y;
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) +. y.(i) done
  | Sub ->
      fun x y r ->
        check_same_length x y;
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) -. y.(i) done
  | Mul ->
      fun x y r ->
        check_same_length x y;
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) *. y.(i) done
  | _ ->
      fun x y r ->
        check_same_length x y;
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) /. y.(i) done

let vec_scalar_fn op : float array -> fcell -> float array -> unit =
  match op with
  | Add ->
      fun x c r ->
        let s = c.cv in
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) +. s done
  | Sub ->
      fun x c r ->
        let s = c.cv in
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) -. s done
  | Mul ->
      fun x c r ->
        let s = c.cv in
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) *. s done
  | _ ->
      fun x c r ->
        let s = c.cv in
        for i = 0 to Array.length x - 1 do r.(i) <- x.(i) /. s done

let scalar_vec_fn op : fcell -> float array -> float array -> unit =
  match op with
  | Add ->
      fun c y r ->
        let s = c.cv in
        for i = 0 to Array.length y - 1 do r.(i) <- s +. y.(i) done
  | Sub ->
      fun c y r ->
        let s = c.cv in
        for i = 0 to Array.length y - 1 do r.(i) <- s -. y.(i) done
  | Mul ->
      fun c y r ->
        let s = c.cv in
        for i = 0 to Array.length y - 1 do r.(i) <- s *. y.(i) done
  | _ ->
      fun c y r ->
        let s = c.cv in
        for i = 0 to Array.length y - 1 do r.(i) <- s /. y.(i) done

let vec_neg_into x r =
  for i = 0 to Array.length x - 1 do
    r.(i) <- -.x.(i)
  done

let vec_dot_into x y (out : fcell) =
  check_same_length x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  out.cv <- !acc

let vec_vec op x y =
  let r = Array.create_float (Array.length x) in
  vec_vec_fn op x y r;
  r

let vec_scalar op x s =
  let r = Array.create_float (Array.length x) in
  vec_scalar_fn op x { cv = s } r;
  r

let scalar_vec op s y =
  let r = Array.create_float (Array.length y) in
  scalar_vec_fn op { cv = s } y r;
  r

let vec_neg x =
  let r = Array.create_float (Array.length x) in
  vec_neg_into x r;
  r

let vec_dot x y =
  let c = { cv = 0.0 } in
  vec_dot_into x y c;
  c.cv

let num_binop op op_int op_float a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (op_int x y)
  | (Vint _ | Vfloat _), (Vint _ | Vfloat _) ->
      Vfloat (op_float (to_float a) (to_float b))
  | Vvec x, Vvec y -> Vvec (vec_vec op x y)
  | Vvec x, (Vint _ | Vfloat _) -> Vvec (vec_scalar op x (to_float b))
  | (Vint _ | Vfloat _), Vvec y -> Vvec (scalar_vec op (to_float a) y)
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "cannot apply arithmetic to %s and %s" (type_name a)
              (type_name b)))

let compare_values op a b =
  match (a, b) with
  | (Vint _ | Vfloat _), (Vint _ | Vfloat _) ->
      Vbool (op (compare (to_float a) (to_float b)) 0)
  | Vstring x, Vstring y -> Vbool (op (String.compare x y) 0)
  | Vbool x, Vbool y -> Vbool (op (compare x y) 0)
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "cannot compare %s and %s" (type_name a)
              (type_name b)))

let eval_binop op a b =
  match op with
  | Add -> num_binop Add ( + ) ( +. ) a b
  | Sub -> num_binop Sub ( - ) ( -. ) a b
  | Mul -> num_binop Mul ( * ) ( *. ) a b
  | Div -> (
      match (a, b) with
      | Vint x, Vint y ->
          if y = 0 then raise (Runtime_error "division by zero")
          else Vint (x / y)
      | _ -> num_binop Div ( / ) ( /. ) a b)
  | Mod -> (
      match (a, b) with
      | Vint x, Vint y ->
          if y = 0 then raise (Runtime_error "mod by zero")
          else Vint (((x mod y) + y) mod y)
      | _ -> Vfloat (Float.rem (to_float a) (to_float b)))
  | Pow -> (
      match (a, b) with
      | Vint x, Vint y when y >= 0 ->
          let rec go acc n = if n = 0 then acc else go (acc * x) (n - 1) in
          Vint (go 1 y)
      | _ -> Vfloat (Float.pow (to_float a) (to_float b)))
  | Eq -> compare_values ( = ) a b
  | Ne -> compare_values ( <> ) a b
  | Lt -> compare_values ( < ) a b
  | Le -> compare_values ( <= ) a b
  | Gt -> compare_values ( > ) a b
  | Ge -> compare_values ( >= ) a b
  | And -> Vbool (to_bool a && to_bool b)
  | Or -> Vbool (to_bool a || to_bool b)

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let float_fun1 name f args =
  match args with
  | [ v ] -> Vfloat (f (to_float v))
  | _ -> raise (Runtime_error (name ^ " expects 1 argument"))

let eval_builtin env name args =
  match (name, args) with
  (* conversions are sequenced left-to-right explicitly wherever a
     builtin takes several arguments: {!Compile}'s devirtualized
     closures replicate the order, so both paths raise the same error
     first when several arguments are invalid *)
  | "dot", [ a; b ] ->
      let x = to_vec a in
      let y = to_vec b in
      Vfloat (vec_dot x y)
  | "norm", [ a ] ->
      let x = to_vec a in
      Vfloat (sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0.0 x))
  | "zeros", [ n ] -> Vvec (Array.make (to_int n) 0.0)
  | "fill", [ v; n ] -> Vvec (Array.make (to_int n) (to_float v))
  | "length", [ Vvec v ] -> Vint (Array.length v)
  | "length", [ Vextern ex ] -> Vint (ex.ex_count ())
  | "length", [ Vtuple vs ] -> Vint (List.length vs)
  | "length", [ Vindex idx ] -> Vint (Array.length idx)
  | "size", [ Vextern ex ] ->
      Vtuple (Array.to_list (Array.map (fun d -> Vint d) ex.ex_dims))
  | "size", [ Vextern ex; d ] -> Vint ex.ex_dims.(to_int d - 1)
  | "sum", [ Vvec v ] -> Vfloat (Array.fold_left ( +. ) 0.0 v)
  | "abs", [ Vint n ] -> Vint (abs n)
  | "abs", [ v ] -> Vfloat (Float.abs (to_float v))
  | "abs2", [ v ] ->
      let f = to_float v in
      Vfloat (f *. f)
  | "exp", args -> float_fun1 "exp" exp args
  | "log", args -> float_fun1 "log" log args
  | "sqrt", args -> float_fun1 "sqrt" sqrt args
  | "sigmoid", [ v ] ->
      let x = to_float v in
      Vfloat (1.0 /. (1.0 +. exp (-.x)))
  | "floor", [ v ] -> Vint (int_of_float (Float.floor (to_float v)))
  | "ceil", [ v ] -> Vint (int_of_float (Float.ceil (to_float v)))
  | "round", [ v ] -> Vint (int_of_float (Float.round (to_float v)))
  | "float", [ v ] -> Vfloat (to_float v)
  | "int", [ v ] -> Vint (to_int v)
  (* two ints stay an int: [A[min(i, j)]] must not become a float
     subscript by silent coercion *)
  | "min", [ Vint a; Vint b ] -> Vint (min a b)
  | "min", [ a; b ] ->
      let x = to_float a in
      let y = to_float b in
      Vfloat (Float.min x y)
  | "max", [ Vint a; Vint b ] -> Vint (max a b)
  | "max", [ a; b ] ->
      let x = to_float a in
      let y = to_float b in
      Vfloat (Float.max x y)
  | "rand", [] -> Vfloat (Rng.float env.rng)
  | "randn", [] -> Vfloat (Rng.gaussian env.rng)
  | "randn", [ n ] ->
      Vvec (Array.init (to_int n) (fun _ -> Rng.gaussian env.rng))
  | "rand_int", [ n ] ->
      (* uniform in [0, n) *)
      let n = to_int n in
      if n <= 0 then raise (Runtime_error "rand_int expects a positive bound")
      else Vint (int_of_float (Rng.float env.rng *. float_of_int n))
  | "println", args ->
      List.iter (fun v -> print_string (Value.to_string v)) args;
      print_newline ();
      Vunit
  | _, _ -> (
      match env.host_call name args with
      | Some v -> v
      | None ->
          raise (Runtime_error (Printf.sprintf "unknown function %s/%d" name
                                   (List.length args))))

(* ------------------------------------------------------------------ *)
(* Subscript evaluation                                                *)
(* ------------------------------------------------------------------ *)

(** Validate a 0-based inclusive vector range before slicing: reversed
    (empty) ranges and out-of-bounds ends surface as {!Runtime_error}s
    (positioned by the enclosing statement) rather than a raw
    [Invalid_argument] escaping from [Array.sub]/[Array.blit].
    Messages quote the 1-based surface subscripts. *)
let checked_vec_range ~len ~lo ~hi =
  if lo > hi then
    raise
      (Runtime_error
         (Printf.sprintf "empty vector range %d:%d (lo > hi)" (lo + 1)
            (hi + 1)))
  else if lo < 0 || hi >= len then
    raise
      (Runtime_error
         (Printf.sprintf "vector range %d:%d out of bounds (length %d)"
            (lo + 1) (hi + 1) len))

(* Surface subscripts are 1-based (Julia); concrete subscripts are
   0-based. *)

let rec eval_concrete_sub env = function
  | Sub_all -> Call_dim
  | Sub_expr e -> Cpoint (to_int (eval_expr env e) - 1)
  | Sub_range (lo, hi) ->
      (* lo before hi, explicitly — compiled subscripts keep this order *)
      let l = to_int (eval_expr env lo) - 1 in
      let h = to_int (eval_expr env hi) - 1 in
      Crange (l, h)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and eval_expr env e =
  match e with
  | Int_lit n -> Vint n
  | Float_lit f -> Vfloat f
  | Bool_lit b -> Vbool b
  | String_lit s -> Vstring s
  | Var v -> get_var env v
  | Binop (And, a, b) ->
      (* short-circuit *)
      if to_bool (eval_expr env a) then Vbool (to_bool (eval_expr env b))
      else Vbool false
  | Binop (Or, a, b) ->
      if to_bool (eval_expr env a) then Vbool true
      else Vbool (to_bool (eval_expr env b))
  | Binop (op, a, b) ->
      (* left operand first, explicitly — OCaml's argument order is
         unspecified, and compiled kernels evaluate left-to-right *)
      let va = eval_expr env a in
      let vb = eval_expr env b in
      eval_binop op va vb
  | Unop (Neg, a) -> (
      match eval_expr env a with
      | Vint n -> Vint (-n)
      | Vfloat f -> Vfloat (-.f)
      | Vvec v -> Vvec (vec_neg v)
      | v -> raise (Type_error ("cannot negate " ^ type_name v)))
  | Unop (Not, a) -> Vbool (not (to_bool (eval_expr env a)))
  | Call (f, args) ->
      (* explicit left-to-right argument evaluation (matched by the
         compiled kernels) *)
      let rec eval_args = function
        | [] -> []
        | e :: tl ->
            let v = eval_expr env e in
            v :: eval_args tl
      in
      let args = eval_args args in
      eval_builtin env f args
  | Tuple es ->
      let rec eval_args = function
        | [] -> []
        | e :: tl ->
            let v = eval_expr env e in
            v :: eval_args tl
      in
      Vtuple (eval_args es)
  | Index (base, subs) -> (
      match eval_expr env base with
      | Vextern ex ->
          (match env.profile with
          | Some p -> Profile.record_array_read p ex.ex_name
          | None -> ());
          let csubs = Array.of_list (List.map (eval_concrete_sub env) subs) in
          let v = ex.ex_get csubs in
          (match env.on_array_access with
          | Some f -> f ex ~write:false csubs
          | None -> ());
          v
      | Vvec v -> (
          match subs with
          | [ Sub_expr e ] -> Vfloat v.(to_int (eval_expr env e) - 1)
          | [ Sub_all ] -> Vvec (Array.copy v)
          | [ Sub_range (lo, hi) ] ->
              let lo = to_int (eval_expr env lo) - 1 in
              let hi = to_int (eval_expr env hi) - 1 in
              checked_vec_range ~len:(Array.length v) ~lo ~hi;
              Vvec (Array.sub v lo (hi - lo + 1))
          | _ -> raise (Runtime_error "vectors take exactly one subscript"))
      | Vindex idx -> (
          match subs with
          | [ Sub_expr e ] -> Vint (idx.(to_int (eval_expr env e) - 1) + 1)
          | _ -> raise (Runtime_error "index vectors take one point subscript"))
      | Vtuple vs -> (
          match subs with
          | [ Sub_expr e ] -> List.nth vs (to_int (eval_expr env e) - 1)
          | _ -> raise (Runtime_error "tuples take one point subscript"))
      | v -> raise (Type_error ("cannot index a " ^ type_name v)))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let assign_lvalue env lhs v =
  match lhs with
  | Lvar name -> set_var env name v
  | Lindex (name, subs) -> (
      match get_var env name with
      | Vextern ex ->
          (match env.profile with
          | Some p -> Profile.record_array_write p ex.ex_name
          | None -> ());
          let csubs = Array.of_list (List.map (eval_concrete_sub env) subs) in
          ex.ex_set csubs v;
          (match env.on_array_access with
          | Some f -> f ex ~write:true csubs
          | None -> ())
      | Vvec arr -> (
          match subs with
          | [ Sub_expr e ] ->
              let i = to_int (eval_expr env e) - 1 in
              arr.(i) <- to_float v
          | [ Sub_all ] ->
              let src = to_vec v in
              if Array.length src <> Array.length arr then
                raise (Runtime_error "vector length mismatch in assignment")
              else Array.blit src 0 arr 0 (Array.length arr)
          | [ Sub_range (lo, hi) ] ->
              let lo = to_int (eval_expr env lo) - 1 in
              let hi = to_int (eval_expr env hi) - 1 in
              checked_vec_range ~len:(Array.length arr) ~lo ~hi;
              let src = to_vec v in
              if Array.length src <> hi - lo + 1 then
                raise (Runtime_error "vector length mismatch in assignment")
              else Array.blit src 0 arr lo (hi - lo + 1)
          | _ -> raise (Runtime_error "unsupported vector assignment"))
      | other ->
          raise (Type_error ("cannot assign into a " ^ type_name other)))

let read_lvalue env = function
  | Lvar name -> get_var env name
  | Lindex (name, subs) -> eval_expr env (Index (Var name, subs))

(* Is [msg] already prefixed with a "line:col: " position (added by a
   nested statement)?  Innermost statements win, so errors carry the
   most precise position available. *)
let has_pos_prefix msg =
  let n = String.length msg in
  let is_digit c = c >= '0' && c <= '9' in
  let rec digits i = if i < n && is_digit msg.[i] then digits (i + 1) else i in
  let i = digits 0 in
  if i = 0 || i >= n || msg.[i] <> ':' then false
  else
    let j = digits (i + 1) in
    j > i + 1 && j < n && msg.[j] = ':'

let rec exec_stmt env stmt =
  try
    match env.profile with
    | None -> exec_stmt_kind env stmt
    | Some p ->
        (* [Fun.protect] so break/continue exceptions still record *)
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            Profile.record_line p ~line:stmt.spos.line
              ~seconds:(Unix.gettimeofday () -. t0))
          (fun () -> exec_stmt_kind env stmt)
  with
  | Runtime_error msg when stmt.spos.line > 0 && not (has_pos_prefix msg) ->
      raise
        (Runtime_error
           (Printf.sprintf "%d:%d: %s" stmt.spos.line stmt.spos.col msg))
  | Type_error msg when stmt.spos.line > 0 && not (has_pos_prefix msg) ->
      raise
        (Type_error
           (Printf.sprintf "%d:%d: %s" stmt.spos.line stmt.spos.col msg))

and exec_stmt_kind env stmt =
  match stmt.sk with
  | Assign (lhs, e) -> assign_lvalue env lhs (eval_expr env e)
  | Op_assign (op, lhs, e) ->
      let cur = read_lvalue env lhs in
      let rhs = eval_expr env e in
      assign_lvalue env lhs (eval_binop op cur rhs)
  | If (cond, then_b, else_b) ->
      if to_bool (eval_expr env cond) then exec_block env then_b
      else exec_block env else_b
  | While (cond, body) ->
      (try
         while to_bool (eval_expr env cond) do
           try exec_block env body with Continue_exc -> ()
         done
       with Break_exc -> ())
  | For { kind; body; parallel } -> (
      match (parallel, env.on_parallel_for) with
      | Some _, Some handler -> handler env stmt
      | (Some _ | None), _ ->
          (* without a runtime handler the driver executes a parallel
             for-loop serially *)
          exec_loop env kind body)
  | Expr_stmt e -> ignore (eval_expr env e)
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc

and exec_loop env kind body =
  match kind with
  | Range_loop { var; lo; hi } -> (
      let lo = to_int (eval_expr env lo) in
      let hi = to_int (eval_expr env hi) in
      try
        for i = lo to hi do
          set_var env var (Vint i);
          try exec_block env body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Each_loop { key; value; arr } -> (
      match get_var env arr with
      | Vextern ex -> (
          try
            ex.ex_iter (fun idx v ->
                (match env.profile with
                | Some p -> Profile.record_array_read p ex.ex_name
                | None -> ());
                (match env.on_array_access with
                | Some f ->
                    f ex ~write:false (Array.map (fun i -> Cpoint i) idx)
                | None -> ());
                set_var env key (Vindex idx);
                set_var env value v;
                try exec_block env body with Continue_exc -> ())
          with Break_exc -> ())
      | v ->
          raise
            (Type_error
               (Printf.sprintf "cannot iterate over %s (variable %s)"
                  (type_name v) arr)))

and exec_block env block = List.iter (exec_stmt env) block

(** Run a whole program in [env]. *)
let run_program env program = exec_block env program

(** Execute the body of a parallel for-loop for a single iteration:
    binds the loop's key and value variables, then runs the body.
    This is the unit of work the distributed executor schedules. *)
let eval_body_for env ~key_var ~value_var ~key ~value body =
  set_var env key_var (Vindex key);
  set_var env value_var value;
  try exec_block env body with Continue_exc -> ()
