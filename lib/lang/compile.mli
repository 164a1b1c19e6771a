(** One-time loop-body compiler for [@parallel_for] bodies.

    [compile_body] lowers a body block to a closure kernel that passes
    results by destination: variables resolve to slots that hold typed
    values unboxed, float nodes write cells, vector slices and
    element-wise vector arithmetic ([+ - * /], negation, [dot]) fill
    reused [float array] buffers, DistArray point subscripts and
    one-dimensional slices go through the host's {!Value.fast_access}
    (a dense array's flat storage in place) when available, and
    builtins devirtualize to direct OCaml closures.  Each common
    straight-line statement (mf's vector statements, lda's scalar
    read-modify-writes on dense arrays) is one closure whose operands
    were all resolved when the kernel was built.  A captured DistArray
    takes the fast paths unless the body rebinds it ([v = ...],
    [v op= ...], a loop variable); index writes do not rebind.  A
    float block runs in one call ({!run_floats}).  The kernel is
    observationally identical to {!Interp.eval_body_for} — same values
    bitwise, same exceptions with the same positioned messages, same
    RNG consumption — which the differential tests in [test_lang]
    check property-style.

    Hooks belong to the interpreter.  A kernel is compiled for, and
    runs in, an environment with no profile and no access hook only:
    {!compile_body} returns [None] for a hooked environment, so the
    caller interprets the body and the hook sees every access, and a
    kernel whose environment gains a hook after compiling refuses to
    run.

    An extern carrying {!Value.fast_access} must answer a slice query
    as [Dist_array.to_extern] does: element by element in ascending
    position through the same get/set, so the compiled slice paths
    raise the same exceptions after the same prefix of writes; its
    [fa_dense] storage must be the array [fa_get]/[fa_set] access.

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
    {!run_floats}, and its value variable, unless the body rebinds it,
    lives in an unboxed slot.  Returns [None] when a profile or an
    access hook is attached to [env], or when the body uses an
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
    [~value_float:true], or when a profile or an access hook is
    attached to the kernel's environment *)
val run : t -> key:int array -> value:Value.t -> unit

(** [run_floats t ~dims ~strides keys values] runs the kernel for a
    block of float entries in order: entry [i] has the linearized key
    [keys.(i)] (row-major against [dims], whose strides are [strides])
    and the value [Vfloat values.(i)]: a [~value_float:true] kernel
    reads it unboxed, any other boxes it.  The same as
    {!Interp.eval_body_for} on each entry with its delinearized key,
    including where an error stops the block.  The block runs under one
    handler; a body that only subscripts its key by points ([key[1]])
    reads every entry's key from one array the kernel owns, so nothing
    is allocated per entry.
    @raise Invalid_argument when a profile or an access hook is
    attached to the kernel's environment *)
val run_floats :
  t -> dims:int array -> strides:int array -> int array -> float array -> unit

(** Write the kernel's local slots back into the environment's
    variable table, so post-loop code observing leaked loop locals
    (as the interpreter leaks them) sees identical bindings. *)
val flush_locals : t -> unit

(** [false] iff the [ORION_NO_COMPILE] escape hatch is set (to anything
    but [""] or ["0"]). *)
val enabled : unit -> bool
