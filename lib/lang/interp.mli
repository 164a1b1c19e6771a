(** Tree-walking interpreter for OrionScript — the stand-in for Julia's
    JIT in the paper's prototype.  Distributed arrays appear only as
    {!Value.extern} handles installed in the environment by the host. *)

(** Raised on runtime failures (undefined variables, division by zero,
    unknown functions, …).  When the failure occurs while executing a
    statement with a known source position, the message is prefixed
    with the innermost statement's ["line:col: "]. *)
exception Runtime_error of string

exception Break_exc
exception Continue_exc

(** Deterministic splitmix64 RNG backing [rand]/[randn]. *)
module Rng : sig
  type t

  val create : int -> t
  val float : t -> float  (** uniform in [0, 1) *)
  val gaussian : t -> float  (** standard normal *)

  (** The full splitmix64 state, for checkpoint capture/restore. *)
  val state : t -> int64

  val set_state : t -> int64 -> unit
end

(** An interpreter environment is SINGLE-WRITER: [vars] is a plain
    Hashtbl that {!eval_body_for} mutates on every iteration, so an
    [env] must only ever be driven by one OCaml domain at a time.
    Parallel execution gives each domain its own [env] over the same
    shared DistArrays and host builtins (see [Orion.App.inst_make_env]).
    The [profile] field must likewise point at a per-domain
    {!Profile.t} shard (merge shards after the pass with
    {!Profile.merge}) — recording takes no lock. *)
type env = {
  vars : (string, Value.t) Hashtbl.t;
  rng : Rng.t;
  host_call : string -> Value.t list -> Value.t option;
      (** extra builtins supplied by the host; [None] = not handled *)
  mutable on_parallel_for : (env -> Ast.stmt -> unit) option;
      (** when set, [@parallel_for] statements are routed here (the
          distributed runtime) instead of executing serially *)
  mutable profile : Profile.t option;
      (** when set, statement execution times (by source line) and
          DistArray element accesses are recorded *)
  mutable on_array_access :
    (Value.extern -> write:bool -> Value.concrete_sub array -> unit) option;
      (** when set, called after every successful DistArray element
          access with the concrete (0-based) subscripts — the hook the
          dynamic dependence validator uses to build its access log *)
}

val create_env :
  ?seed:int ->
  ?host_call:(string -> Value.t list -> Value.t option) ->
  ?profile:Profile.t ->
  unit ->
  env

val set_var : env -> string -> Value.t -> unit

(** @raise Runtime_error if the variable is undefined. *)
val get_var : env -> string -> Value.t

val var_opt : env -> string -> Value.t option

(** Evaluate a binary operation on values (numeric promotion,
    element-wise vector arithmetic). *)
val eval_binop : Ast.binop -> Value.t -> Value.t -> Value.t

(** @raise Runtime_error ["vector length mismatch: m vs n"] unless the
    two vectors have the same length. *)
val check_same_length : float array -> float array -> unit

(** An unboxed float: one mutable float field, stored flat, so a write
    allocates nothing.  {!Compile}'s numeric nodes write their results
    into these. *)
type fcell = { mutable cv : float }

(** [vec_vec_fn op] is the loop that writes the element-wise [x op y]
    into [r] (of [x]'s length), for [op] one of [Add], [Sub], [Mul] or
    [Div] (any other operator divides).  These loops are the only
    vector arithmetic: the interpreter runs them into fresh arrays and
    {!Compile}'s kernels, which take an operator's loop once when they
    are built, into reused buffers, which keeps the two paths
    bitwise-equal down to the sign of a NaN.
    @raise Runtime_error as {!check_same_length}, before writing. *)
val vec_vec_fn : Ast.binop -> float array -> float array -> float array -> unit

(** [vec_scalar_fn op x s r]: [x op s] for every element [x] of the
    vector, into [r]. *)
val vec_scalar_fn : Ast.binop -> float array -> fcell -> float array -> unit

(** [scalar_vec_fn op s y r]: [s op y] for every element [y] of the
    vector, into [r]. *)
val scalar_vec_fn : Ast.binop -> fcell -> float array -> float array -> unit

(** Element-wise negation, into [r]. *)
val vec_neg_into : float array -> float array -> unit

(** The dot product of two equal-length vectors, summed left to right,
    into the cell.
    @raise Runtime_error as {!check_same_length}. *)
val vec_dot_into : float array -> float array -> fcell -> unit

(** Evaluate a builtin (or host-supplied) function call on evaluated
    arguments — the single dispatch point {!Compile} devirtualizes
    against and falls back to. *)
val eval_builtin : env -> string -> Value.t list -> Value.t

(** Validate a 0-based inclusive vector range before slicing.
    @raise Runtime_error on an empty/reversed or out-of-bounds range. *)
val checked_vec_range : len:int -> lo:int -> hi:int -> unit

(** Is [msg] already prefixed with a ["line:col: "] position?  Used to
    keep the innermost statement's position when rewrapping errors. *)
val has_pos_prefix : string -> bool

val eval_expr : env -> Ast.expr -> Value.t
val exec_stmt : env -> Ast.stmt -> unit
val exec_block : env -> Ast.block -> unit

(** Run a whole program in [env]. *)
val run_program : env -> Ast.program -> unit

(** Execute the body of a parallel for-loop for one iteration: binds
    the loop's key and value variables, runs the body (this is the unit
    of work the distributed executor schedules). *)
val eval_body_for :
  env ->
  key_var:string ->
  value_var:string ->
  key:int array ->
  value:Value.t ->
  Ast.block ->
  unit
