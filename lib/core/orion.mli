(** Orion — automating dependence-aware parallelization of serial
    imperative ML programs on distributed shared memory (Wei et al.,
    EuroSys'19).

    A {!session} owns a simulated cluster and a registry of DistArrays.
    Serial OrionScript programs are analyzed statically
    ({!analyze_script}); each [@parallel_for] loop receives a {!Plan.t}
    (1D / 2D / 2D-unimodular / data parallelism) with DistArray
    placements; loops execute either fully interpreted ({!run_script})
    or with native loop bodies ({!compile} / {!execute}) under
    dependence-preserving schedules, charging virtual time. *)

(** {1 Re-exported supporting libraries} *)

module Ast = Orion_lang.Ast
module Parser = Orion_lang.Parser
module Pretty = Orion_lang.Pretty
module Interp = Orion_lang.Interp
module Value = Orion_lang.Value
module Check = Orion_lang.Check
module Compile = Orion_lang.Compile
module Subscript = Orion_analysis.Subscript
module Depvec = Orion_analysis.Depvec
module Depanalysis = Orion_analysis.Depanalysis
module Unimodular = Orion_analysis.Unimodular
module Plan = Orion_analysis.Plan
module Refs = Orion_analysis.Refs
module Prefetch = Orion_analysis.Prefetch
module Cost_model = Orion_sim.Cost_model
module Cluster = Orion_sim.Cluster
module Recorder = Orion_sim.Recorder
module Trace = Orion_obs.Trace
module Metrics = Orion_obs.Metrics
module Clock = Orion_obs.Clock
module Telemetry = Orion_obs.Telemetry
module Dist_array = Orion_dsm.Dist_array
module Partitioner = Orion_dsm.Partitioner
module Dist_buffer = Orion_dsm.Buffer
module Accumulator = Orion_dsm.Accumulator
module Param_server = Orion_dsm.Param_server
module Schedule = Orion_runtime.Schedule
module Executor = Orion_runtime.Executor
module Domain_exec = Orion_runtime.Domain_exec
module Explain = Orion_analysis.Explain
module Profile = Orion_lang.Profile
module Log = Log
module Report = Orion_report

(** {1 Sessions} *)

type runner =
  session ->
  Plan.t ->
  pipeline_depth:int ->
  (key:int array -> value:Value.t -> unit) ->
  Executor.pass_stats

and registered = {
  reg_name : string;
  reg_dims : int array;
  reg_size_bytes : float;
  reg_count : int;
  reg_buffered : bool;
  reg_extern : Value.extern option;
  reg_runner : runner option;
}

and session = {
  cluster : Cluster.t;
  mutable registry : registered list;
  mutable loop_cache : (Ast.stmt * Plan.t) list;
      (** analysis memoized per loop statement (macro expansion runs
          once, even for loops nested in driver loops) *)
  mutable default_pipeline_depth : int;
  mutable prefetch_recorded : (string * int array) list;
}

val create_session :
  ?cost:Cost_model.t ->
  ?recorder:Recorder.t ->
  num_machines:int ->
  workers_per_machine:int ->
  unit ->
  session

val find_registered : session -> string -> registered option
val dist_var_names : session -> string list
val buffered_names : session -> string list
val array_dims_fn : session -> string -> int array option

(** Declare a DistArray by name/shape only (native-body workflows where
    the actual storage is app-managed). *)
val register_meta :
  session ->
  name:string ->
  dims:int array ->
  ?buffered:bool ->
  ?count:int ->
  unit ->
  unit

(** Register a float DistArray: visible to interpreted programs and the
    analyzer.  [buffered] marks it as written through a DistArray
    Buffer (writes exempt from dependence analysis). *)
val register : session -> ?buffered:bool -> float Dist_array.t -> unit

(** Register a DistArray of arbitrary element type for iteration (e.g.
    SLR samples), with a conversion to interpreter values. *)
val register_iterable :
  session -> 'v Dist_array.t -> to_value:('v -> Value.t) -> unit

(** {1 Analysis} *)

exception Analysis_error of string

(** Analyze one [@parallel_for] statement (memoized per statement). *)
val analyze_loop : session -> Ast.stmt -> Plan.t

(** Analyze every [@parallel_for] loop in a script, in order. *)
val analyze_script : session -> string -> Plan.t list

(** Run the semantic checker with the registered DistArrays as
    globals. *)
val check_script : session -> string -> Check.diagnostic list

(** {1 Compilation and native execution} *)

type 'v compiled = {
  plan : Plan.t;
  schedule : 'v Schedule.t;
  rotated_bytes_per_partition : float;
  pipeline_depth : int;
}

(** Build the static computation schedule for [plan] over [iter]:
    space partitions = workers; time partitions = workers ×
    [pipeline_depth] for unordered 2D (Fig. 8); exact wavefronts for
    unimodular plans.  [shuffle_seed] randomizes within-block sample
    order (SGD practice); [None] keeps ascending key order. *)
val compile :
  session ->
  plan:Plan.t ->
  iter:'v Dist_array.t ->
  ?pipeline_depth:int ->
  ?shuffle_seed:int option ->
  unit ->
  'v compiled

(** The execution model of a compiled loop: the happens-before order
    every backend runs its schedule under. *)
val model_of : 'v compiled -> Domain_exec.model

(** Execute a compiled loop with a native body on the simulated
    cluster, under its {!model_of} (1D / ordered wavefront / unordered
    pipelined rotation / time-major). *)
val execute :
  session ->
  'v compiled ->
  ?compute:Executor.compute_cost ->
  body:'v Executor.body ->
  unit ->
  Executor.pass_stats

(** {1 Interpreted driver programs} *)

(** Run a whole OrionScript driver program: statements execute in the
    interpreter; [@parallel_for] loops are analyzed (once), compiled,
    and executed on the simulated cluster.  Host builtins provided:
    [get_aggregated_value], [reset_accumulator], and the prefetch
    markers.  Returns the final environment and per-loop-execution
    statistics. *)
val run_script :
  session ->
  ?seed:int ->
  ?profile:Profile.t ->
  string ->
  Interp.env * Executor.pass_stats list

(** {1 Prefetch execution} *)

(** Run a synthesized prefetch program ({!Prefetch.synthesize}) for one
    iteration; returns the recorded (array, 0-based key) accesses in
    order. *)
val run_prefetch_program :
  session ->
  generated:Ast.block ->
  key_var:string ->
  value_var:string ->
  key:int array ->
  value:Value.t ->
  bindings:(string * Value.t) list ->
  (string * int array) list

(** {1 Application registry}

    One registry for the built-in applications (mf, slr, lda, gbt).
    The CLI, benchmark harness, and verification suite all resolve apps
    here instead of hand-wiring their own copies.
    [Orion_apps.Registry.ensure ()] populates it. *)

module App : sig
  (** A materialized app: a session with registered DistArrays, the
      parsed parallel loop, and interpreter plumbing to run its body. *)
  type instance = {
    inst_name : string;  (** registry name of the app this came from *)
    inst_session : session;
    inst_env : Interp.env;  (** the primary (serial-path) environment *)
    inst_make_env : unit -> Interp.env;
        (** a fresh environment over the {e same} DistArrays and host
            builtins — one per domain for parallel execution, because
            {!Interp.env} is single-writer *)
    inst_loop : Ast.stmt;
    inst_key_var : string;
    inst_value_var : string;
    inst_body : Ast.block;
    inst_iter : Value.t Dist_array.t;
    inst_iter_name : string;
    inst_outputs : (string * float Dist_array.t) list;
        (** model arrays compared by equality/differential checks *)
    inst_arrays : (string * float Dist_array.t) list;
        (** every float model DistArray by name — outputs and read-only
            inputs alike; what the distributed runtime ships as
            partitions, serves prefetches from, and applies write
            journals to *)
    inst_buffered : string list;
        (** buffer-written arrays, dependence-exempt; merged from
            per-domain shadows under parallel execution *)
  }

  type t = {
    app_name : string;
    app_description : string;
    app_script : string;  (** the OrionScript source fed to the analyzer *)
    app_tolerance : float option;
        (** [None]: independent dependence-respecting runs must agree
            bitwise; [Some rel]: within relative tolerance (buffered FP
            accumulation is order-sensitive in the last bits) *)
    app_make :
      ?scale:float ->
      ?records:bool ->
      num_machines:int ->
      workers_per_machine:int ->
      unit ->
      instance;
        (** build a fresh deterministic instance (identical initial
            state every call); [scale] enlarges the dataset.
            [~records:false] builds from shapes only, as a distributed
            worker does: every array at its shape and the iteration
            space empty, unless a host builtin closes over the
            records *)
    app_register_meta : session -> unit;
        (** register the paper-scale array shapes so the analysis
            pipeline can run without materializing data *)
    app_loss : (instance -> float) option;
        (** training objective over the instance's current model state,
            for convergence benchmarking ([None]: no scalar loss) *)
    app_prepare_pass : (instance -> unit) option;
        (** fold buffered accumulators into the model between separate
            [Engine.run] calls (e.g. apply a gradient buffer and zero
            it) — only used by pass-at-a-time drivers such as the
            convergence bench *)
  }

  (** Register (or replace, by name) an app. *)
  val register : t -> unit

  val all : unit -> t list
  val find : string -> t option
  val names : unit -> string list
end

(** {1 The engine}

    Unified execution entry point over both substrates: the simulated
    cluster ([`Sim], virtual time, sequential) and a real OCaml 5
    domain pool ([`Parallel n], wall clock, {!Domain_exec}).  Both
    execute the {e same} compiled schedule under the same
    happens-before order, so for serializable schedules their results
    are element-wise equal (up to the app's tolerance for buffered
    accumulation). *)

module Engine : sig
  type transport = [ `Unix | `Tcp ]

  type distributed = { procs : int; transport : transport }

  type mode = [ `Sim | `Parallel of int | `Distributed of distributed ]

  val transport_to_string : transport -> string
  val mode_to_string : mode -> string

  (** Structured failure of a distributed run: a worker crashed, a
      socket broke, the protocol was violated, or the deadline passed.
      [de_rank] names the offending worker when one is known. *)
  exception
    Distributed_error of { de_rank : int option; de_reason : string }

  val distributed_error_to_string : exn -> string

  type report = {
    ep_app : string;
    ep_mode : mode;
    ep_strategy : string;
    ep_model : string;
    ep_domains : int;  (** 1 for [`Sim] *)
    ep_space_parts : int;
    ep_time_parts : int;
    ep_entries : int;
    ep_blocks : int;
    ep_steals : int;  (** 0 for [`Sim] *)
    ep_compiled : bool;
        (** loop bodies ran as {!Orion_lang.Compile} kernels rather
            than through the tree-walking interpreter ([`Sim] always
            interprets — it is the differential reference) *)
    ep_wall_seconds : float;
    ep_sim_time : float;  (** virtual cluster time ([`Sim] only) *)
    ep_bytes_shipped : float;
        (** wire bytes of serialized DistArray state ([`Distributed]
            only: start-up regions + tokens and pass syncs + final
            buffered shadows) *)
    ep_bytes_by_array : (string * float) list;
        (** [ep_bytes_shipped] broken down per DistArray *)
    ep_bytes_full : float;
        (** what the same traffic costs in the raw layout, 16 bytes per
            entry (an 8-byte key and 8 bytes of IEEE bits) — the before
            side of bytes-saved accounting ([`Distributed] only) *)
    ep_policy_by_array : (string * string) list;
        (** the per-DistArray key mode the wire encoder settled on
            (["sparse"] or ["dense"]; empty for the local modes) *)
    ep_telemetry : Telemetry.summary option;
        (** wall-clock telemetry of the real run: merged span timeline,
            per-pass metrics, measured block costs ([None] for [`Sim] —
            its trace lives on the cluster — or when disabled) *)
  }

  (** Compile [inst]'s loop body against [env] with {!Compile} (call
      {e after} any shadow rebinding — the kernel captures the
      environment's current array bindings).  Over a float iteration
      space ({!Dist_array.float_view}, on a distributed worker as on
      the master) the kernel takes a whole block, its values unboxed,
      through {!Compile.run_floats}; no value is looked at to decide.  [None]
      when compilation is disabled ([ORION_NO_COMPILE]), a profile or
      an access hook is attached to [env] (hooks are observed by the
      interpreter only), or the body uses an unsupported construct;
      callers fall back to the interpreter. *)
  val compile_kernel : App.instance -> Interp.env -> Compile.t option

  (** [inst]'s loop body over [env]: its {!compile_kernel} kernel (kept
      for [Compile.flush_locals] at the end), taking a float block whole
      with its values unboxed, or the interpreter, which boxes each, when the
      body does not compile.  The pool and the distributed worker both
      build their bodies here. *)
  val loop_body :
    App.instance -> Interp.env -> Compile.t option * Value.t Schedule.body

  (** {2 Buffered shadows}

      A buffered array is only combined with [+=] inside the loop, so
      each domain (or rank) accumulates into zero-filled shadows of its
      own, and their nonzero entries are summed into the shared array
      afterwards — at a checkpoint into a copy — in ascending domain
      (rank) order. *)

  (** Zero-filled shadows of [inst]'s buffered arrays, rebound under
      their names in [env] (call before compiling a kernel on [env]). *)
  val make_shadows :
    App.instance -> Interp.env -> (string * float Dist_array.t) list

  (** A shadow's contribution: its nonzero entries. *)
  val shadow_part : float Dist_array.t -> Dist_array.partition

  (** Add a contribution into an array, entry by entry. *)
  val merge_part : float Dist_array.t -> Dist_array.partition -> unit

  (** [inst]'s model arrays as they would stand if the run ended now:
      buffered arrays as copies with [contributions] (one list per
      domain or rank, ascending) merged in, every other array as [live
      name arr] gives it. *)
  val buffered_view :
    App.instance ->
    live:(string -> float Dist_array.t -> float Dist_array.t) ->
    Dist_array.partition list list ->
    (string * float Dist_array.t) list

  (** Called at pass boundaries — every [every] completed passes when
      [run] gets [~checkpoint:(every, sink)] — with the model arrays as
      they would stand if the run ended there: shared arrays live,
      buffered arrays merged into temporary copies.  The sink decides
      what to persist ([lib/store]'s [Checkpoint.save] writes them to
      disk), so the core stays free of file-format dependencies. *)
  type checkpoint_sink =
    pass_done:int -> (string * float Dist_array.t) list -> unit

  (** {2 The run driver}

      {!run} is the one skeleton of every mode.  It plans, builds the
      schedule and its execution model once, starts the mode's
      {!backend}, calls the backend's passes with its boundary rule —
      the sink fires at [pass_done mod every = 0] — and builds the
      {!report} from the backend's {!outcome}. *)

  (** What a backend counted by the end of its run. *)
  type outcome = {
    o_domains : int;  (** workers that ran blocks *)
    o_entries : int;
    o_steals : int;
    o_compiled : bool;
    o_bytes_by_array : (string * float) list;  (** sorted by name *)
    o_bytes_full : float;  (** the raw layout's size of the same traffic *)
    o_policy_by_array : (string * string) list;
    o_windows : (int * float * float) list;
        (** per-pass [(pass, start, finish)] on the run's telemetry
            clock, ascending *)
  }

  (** One domain, nothing counted: the base of a backend's outcome. *)
  val no_outcome : outcome

  (** One execution substrate's side of {!run}. *)
  type backend = {
    passes : boundary:(int -> unit) -> unit;
        (** execute every pass, calling [boundary pass_done] as the
            state after each pass becomes complete, in ascending order
            (the distributed master sees pass boundaries only when asked
            to report them) *)
    boundary_view : unit -> (string * float Dist_array.t) list;
        (** the model arrays as of the latest boundary *)
    finish : unit -> outcome;
        (** settle the final state into the instance *)
  }

  (** The distributed backend, installed by [lib/net]'s [Dist_master]
      (via [Orion_apps.Registry.ensure ()]) so the core library stays
      free of socket/process dependencies.  Called at the top of the
      run, it spawns the workers, then forces [plan] while they start
      and [schedule] (the run's schedule and execution model) while
      they build their instances.  [report_passes] says whether the run
      checkpoints, so the workers must report each pass boundary. *)
  type distributed_runner =
    session ->
    App.instance ->
    procs:int ->
    transport:transport ->
    passes:int ->
    scale:float ->
    telemetry:Telemetry.t ->
    report_passes:bool ->
    plan:Plan.t Lazy.t ->
    schedule:(Value.t compiled * Domain_exec.model) Lazy.t ->
    backend

  val distributed_runner : distributed_runner option ref

  (** Run [inst]'s parallel loop [passes] times under [mode], mutating
      its DistArrays in place.  [scale] must echo the dataset scale
      [inst] was built with (only consulted by [`Distributed], whose
      workers rebuild the instance from the app registry).
      [telemetry] (default {!Telemetry.default_enabled}) turns
      wall-clock span recording on for the real modes; the summary
      lands in [ep_telemetry].
      [checkpoint] registers a pass-boundary {!checkpoint_sink} invoked
      every [every] completed passes, in all three modes.
      @raise Invalid_argument when [every < 1].
      @raise Distributed_error when a [`Distributed] run fails. *)
  val run :
    session ->
    App.instance ->
    mode:mode ->
    ?passes:int ->
    ?pipeline_depth:int ->
    ?scale:float ->
    ?telemetry:bool ->
    ?checkpoint:int * checkpoint_sink ->
    unit ->
    report
end
