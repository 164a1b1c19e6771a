(** One-time loop-body compiler for [@parallel_for] bodies.

    [compile_body] lowers a body block to a closure kernel: variables
    resolve to mutable slots instead of per-access hashtable lookups,
    DistArray point subscripts and one-dimensional slices resolve to
    the host's unboxed {!Value.fast_access} accessors when available,
    scalar floats run unboxed, vector slices and element-wise vector
    arithmetic ([+ - * /], negation, [dot]) run as [float array]
    loops, and builtins devirtualize to direct OCaml closures.  A
    captured DistArray takes the accessor paths unless the body
    rebinds it ([v = ...], [v op= ...], a loop variable); index writes
    do not rebind.  The kernel is observationally identical to
    {!Interp.eval_body_for} — same values bitwise, same exceptions with
    the same positioned messages, same RNG consumption, same profile /
    access-hook callbacks in the same order — which the differential
    tests in [test_lang] check property-style.

    An extern carrying {!Value.fast_access} must answer a slice query
    as [Dist_array.to_extern] does: element by element in ascending
    position through the same get/set, so the compiled slice paths
    raise the same exceptions after the same prefix of writes.

    Compilation is conservative: any construct whose semantics the
    compiler cannot reproduce exactly (a nested [@parallel_for], a free
    variable missing from the environment) yields [None] and the caller
    falls back to the tree-walking interpreter. *)

type t

(** Compile [body] against [env]'s current bindings.  Globals (free
    variables already bound in [env], e.g. DistArray handles and
    hyper-parameters) are captured by reference at compile time; locals
    become slots private to the kernel.  [value_float] compiles a
    kernel for a float iteration space: it runs only through
    {!run_float}, and its value variable, unless the body rebinds it,
    lives in an unboxed slot.  Returns [None] when the body uses an
    unsupported construct. *)
val compile_body :
  Interp.env ->
  ?value_float:bool ->
  key_var:string ->
  value_var:string ->
  Ast.block ->
  t option

(** Run the kernel for one iteration — the compiled equivalent of
    {!Interp.eval_body_for}.
    @raise Invalid_argument on a kernel compiled with
    [~value_float:true] *)
val run : t -> key:int array -> value:Value.t -> unit

(** [run_float t ~key values i] runs the kernel for one iteration
    whose value is [Vfloat values.(i)]: a [~value_float:true] kernel
    reads it unboxed, any other boxes it. *)
val run_float : t -> key:int array -> float array -> int -> unit

(** Write the kernel's local slots back into the environment's
    variable table, so post-loop code observing leaked loop locals
    (as the interpreter leaks them) sees identical bindings. *)
val flush_locals : t -> unit

(** [false] iff the [ORION_NO_COMPILE] escape hatch is set (to anything
    but [""] or ["0"]). *)
val enabled : unit -> bool
