(** Orion — automating dependence-aware parallelization of serial
    imperative ML programs on distributed shared memory.

    This is the public facade reproducing the system of Wei et al.
    (EuroSys'19).  A {!session} owns a simulated cluster and a registry
    of DistArrays.  Serial OrionScript programs are analyzed
    statically ({!analyze_script}); each [@parallel_for] loop receives
    a {!Plan.t} describing its parallelization (1D / 2D / 2D with
    unimodular transformation / data parallelism via buffers) and the
    placement of every accessed DistArray.  Loops are then executed —
    either fully interpreted ({!run_script}) or with native OCaml loop
    bodies standing in for the JIT-generated code ({!compile} /
    {!execute}) — under dependence-preserving schedules with the
    cluster charging virtual time.

    Re-exports: the submodules below are the supporting libraries. *)

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

(* ------------------------------------------------------------------ *)
(* Session and registry                                                *)
(* ------------------------------------------------------------------ *)

(** How an iterable DistArray executes a compiled loop for interpreted
    bodies: captures the typed array, hiding its element type. *)
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
      (** memoized analysis per loop statement (the paper: macro
          expansion runs once even for loops inside driver loops) *)
  mutable default_pipeline_depth : int;
  mutable prefetch_recorded : (string * int array) list;
      (** most recent synthesized-prefetch recording, newest first *)
}

let create_session ?(cost = Cost_model.default) ?recorder ~num_machines
    ~workers_per_machine () =
  {
    cluster = Cluster.create ?recorder ~num_machines ~workers_per_machine ~cost ();
    registry = [];
    loop_cache = [];
    default_pipeline_depth = 2;
    prefetch_recorded = [];
  }

let find_registered session name =
  List.find_opt (fun r -> r.reg_name = name) session.registry

let dist_var_names session = List.map (fun r -> r.reg_name) session.registry

let buffered_names session =
  List.filter_map
    (fun r -> if r.reg_buffered then Some r.reg_name else None)
    session.registry

let array_dims_fn session name =
  Option.map (fun r -> r.reg_dims) (find_registered session name)

let register_meta session ~name ~dims ?(buffered = false) ?(count = 0) () =
  session.registry <-
    {
      reg_name = name;
      reg_dims = dims;
      reg_size_bytes =
        float_of_int (max count (Array.fold_left ( * ) 1 dims))
        *. Dist_array.bytes_per_element;
      reg_count = count;
      reg_buffered = buffered;
      reg_extern = None;
      reg_runner = None;
    }
    :: List.filter (fun r -> r.reg_name <> name) session.registry

(* ------------------------------------------------------------------ *)
(* Compilation: plan -> schedule -> executable                         *)
(* ------------------------------------------------------------------ *)

type 'v compiled = {
  plan : Plan.t;
  schedule : 'v Schedule.t;
  rotated_bytes_per_partition : float;
  pipeline_depth : int;
}

let rotated_bytes session (plan : Plan.t) ~time_parts =
  List.fold_left
    (fun acc (name, placement) ->
      match placement with
      | Plan.Rotated _ -> (
          match find_registered session name with
          | Some r -> acc +. (r.reg_size_bytes /. float_of_int time_parts)
          | None -> acc)
      | Plan.Local_partitioned _ | Plan.Replicated | Plan.Server -> acc)
    0.0 plan.placements

(** Build the static computation schedule for [plan] over iteration
    space [iter].  Space partitions = number of workers; time
    partitions = workers × [pipeline_depth] for unordered 2D loops
    (multiple time indices per worker enable pipelining, Fig. 8). *)
let compile session ~(plan : Plan.t) ~(iter : 'v Dist_array.t)
    ?pipeline_depth ?(shuffle_seed = Some Schedule.default_shuffle_seed) () :
    'v compiled =
  let workers = Cluster.num_workers session.cluster in
  let depth =
    Option.value pipeline_depth ~default:session.default_pipeline_depth
  in
  let schedule, depth =
    match plan.strategy with
    | Plan.One_d { space_dim } ->
        (Schedule.partition_1d ?shuffle_seed iter ~space_dim ~space_parts:workers, 1)
    | Plan.Two_d { space_dim; time_dim } ->
        let depth = if plan.ordered then 1 else depth in
        ( Schedule.partition_2d ?shuffle_seed iter ~space_dim ~time_dim
            ~space_parts:workers ~time_parts:(workers * depth),
          depth )
    | Plan.Two_d_unimodular { matrix; _ } ->
        ( Schedule.partition_unimodular ?shuffle_seed iter ~matrix
            ~space_parts:workers ~time_parts:(workers * 4),
          1 )
    | Plan.Data_parallel ->
        (Schedule.partition_1d ?shuffle_seed iter ~space_dim:0 ~space_parts:workers, 1)
  in
  {
    plan;
    schedule;
    rotated_bytes_per_partition =
      rotated_bytes session plan ~time_parts:schedule.Schedule.time_parts;
    pipeline_depth = depth;
  }

(* trace spans for rotated transfers carry the rotated DistArrays'
   names, so per-array communication volume survives into the metrics *)
let rotated_label (plan : Plan.t) =
  match
    List.filter_map
      (fun (name, placement) ->
        match placement with
        | Plan.Rotated _ -> Some name
        | Plan.Local_partitioned _ | Plan.Replicated | Plan.Server -> None)
      plan.placements
  with
  | [] -> "rotated"
  | names -> String.concat "+" names

(** The execution model of a compiled loop: the happens-before order
    every backend runs its schedule under. *)
let model_of (c : 'v compiled) =
  Domain_exec.model_of_plan c.plan ~pipeline_depth:c.pipeline_depth
    ~sp:c.schedule.Schedule.space_parts ~tp:c.schedule.Schedule.time_parts

(** Execute a compiled loop with a native loop body. *)
let execute session (c : 'v compiled) ?(compute = Executor.Measured)
    ~(body : 'v Executor.body) () =
  Executor.run session.cluster ~compute ~model:(model_of c)
    ~label:(rotated_label c.plan)
    ~bytes_per_partition:c.rotated_bytes_per_partition c.schedule body

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let make_runner (iter : 'v Dist_array.t) ~(to_value : 'v -> Value.t) : runner =
  (* memoize one schedule per plan (per loop statement) *)
  let cache : (Plan.t * 'v compiled) list ref = ref [] in
  fun session plan ~pipeline_depth body_fn ->
    let compiled =
      match List.assq_opt plan !cache with
      | Some c -> c
      | None ->
          let c = compile session ~plan ~iter ~pipeline_depth () in
          cache := (plan, c) :: !cache;
          c
    in
    let body ~worker:_ ~key ~value = body_fn ~key ~value:(to_value value) in
    execute session compiled ~body ()

(** Register a float DistArray: visible to interpreted programs (as a
    DSM extern) and to the analyzer (name, dims).  [buffered] marks it
    as written through a DistArray Buffer, exempting its writes from
    dependence analysis. *)
let register session ?(buffered = false) (arr : float Dist_array.t) =
  let name = Dist_array.name arr in
  session.registry <-
    {
      reg_name = name;
      reg_dims = Dist_array.dims arr;
      reg_size_bytes = Dist_array.size_bytes arr;
      reg_count = Dist_array.count arr;
      reg_buffered = buffered;
      reg_extern = Some (Dist_array.to_extern arr);
      reg_runner =
        Some (make_runner arr ~to_value:(fun v -> Value.Vfloat v));
    }
    :: List.filter (fun r -> r.reg_name <> name) session.registry

(** Register a DistArray with arbitrary element type for iteration only
    (e.g. an SLR sample array), with a conversion to interpreter
    values. *)
let register_iterable session (arr : 'v Dist_array.t)
    ~(to_value : 'v -> Value.t) =
  let name = Dist_array.name arr in
  session.registry <-
    {
      reg_name = name;
      reg_dims = Dist_array.dims arr;
      reg_size_bytes = Dist_array.size_bytes arr;
      reg_count = Dist_array.count arr;
      reg_buffered = false;
      reg_extern = Some (Dist_array.to_iter_extern ~to_value arr);
      reg_runner = Some (make_runner arr ~to_value);
    }
    :: List.filter (fun r -> r.reg_name <> name) session.registry

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

exception Analysis_error of string

(** Analyze one [@parallel_for] statement against the session registry. *)
let analyze_loop session (stmt : Ast.stmt) : Plan.t =
  match List.assq_opt stmt session.loop_cache with
  | Some plan -> plan
  | None ->
      let iter_name =
        match stmt.Ast.sk with
        | Ast.For { kind = Ast.Each_loop { arr; _ }; _ } -> arr
        | _ -> raise (Analysis_error "not a parallel for-loop")
      in
      let iter_reg =
        match find_registered session iter_name with
        | Some r -> r
        | None ->
            raise
              (Analysis_error
                 (Printf.sprintf "iteration space %s is not a registered \
                                  DistArray" iter_name))
      in
      let info =
        Refs.analyze_loop
          ~dist_vars:(dist_var_names session)
          ~buffered_arrays:(buffered_names session)
          ~iter_space_ndims:(Array.length iter_reg.reg_dims)
          stmt
      in
      let plan =
        Plan.decide info
          ~array_dims:(array_dims_fn session)
          ~iter_count:(float_of_int (max iter_reg.reg_count 1))
      in
      session.loop_cache <- (stmt, plan) :: session.loop_cache;
      plan

(** Analyze every [@parallel_for] loop in a script. *)
let analyze_script session src : Plan.t list =
  let program = Parser.parse_program src in
  List.map (analyze_loop session) (Refs.find_parallel_loops program)

(** Run the semantic checker on a script, treating the session's
    registered DistArrays as defined globals. *)
let check_script session src : Check.diagnostic list =
  Check.check_program ~globals:(dist_var_names session)
    (Parser.parse_program src)

(* ------------------------------------------------------------------ *)
(* Interpreted execution of whole driver programs                      *)
(* ------------------------------------------------------------------ *)

let concrete_sub_of_value (v : Value.t) : Value.concrete_sub =
  match v with
  | Value.Vint i -> Value.Cpoint (i - 1)
  | Value.Vstring "*" -> Value.Call_dim
  | Value.Vtuple [ Value.Vstring "range"; Value.Vint lo; Value.Vint hi ] ->
      Value.Crange (lo - 1, hi - 1)
  | _ -> raise (Analysis_error "bad prefetch subscript")

(* host builtins: prefetch recording markers and accumulator helpers *)
let host_builtins session env_ref name (args : Value.t list) =
  match (name, args) with
  | "__all", [] -> Some (Value.Vstring "*")
  | "__range", [ lo; hi ] ->
      Some (Value.Vtuple [ Value.Vstring "range"; lo; hi ])
  | "__record", Value.Vstring arr :: subs ->
      let csubs = List.map concrete_sub_of_value subs in
      (match find_registered session arr with
      | Some r ->
          (* record the cartesian key set (bounded by practicality) *)
          List.iter
            (fun key ->
              session.prefetch_recorded <-
                (arr, key) :: session.prefetch_recorded)
            (Value.keys_of_subs r.reg_dims (Array.of_list csubs))
      | None -> ());
      Some Value.Vunit
  | "get_aggregated_value", [ Value.Vstring var ] -> (
      match !env_ref with
      | Some env -> Some (Interp.get_var env var)
      | None -> None)
  | "reset_accumulator", [ Value.Vstring var ] -> (
      match !env_ref with
      | Some env ->
          Interp.set_var env var (Value.Vfloat 0.0);
          Some Value.Vunit
      | None -> None)
  | _ -> None

(** Run a whole OrionScript driver program: statements execute in the
    interpreter; [@parallel_for] loops are analyzed (once), compiled
    to a schedule, and executed on the simulated cluster.  Returns the
    final environment and the per-loop-execution statistics. *)
let run_script session ?(seed = 42) ?profile src =
  let program = Parser.parse_program src in
  let env_ref = ref None in
  let env =
    Interp.create_env ~seed ~host_call:(host_builtins session env_ref) ?profile
      ()
  in
  env_ref := Some env;
  (* bind registered DistArrays *)
  List.iter
    (fun r ->
      match r.reg_extern with
      | Some ex -> Interp.set_var env r.reg_name (Value.Vextern ex)
      | None -> ())
    session.registry;
  let stats = ref [] in
  env.Interp.on_parallel_for <-
    Some
      (fun env stmt ->
        match stmt.Ast.sk with
        | Ast.For { kind = Ast.Each_loop { key; value; arr }; body; _ } ->
            let plan = analyze_loop session stmt in
            let reg =
              match find_registered session arr with
              | Some r -> r
              | None -> raise (Analysis_error ("unknown DistArray " ^ arr))
            in
            let runner =
              match reg.reg_runner with
              | Some r -> r
              | None ->
                  raise (Analysis_error (arr ^ " is not iterable"))
            in
            let body_fn ~key:k ~value:v =
              Interp.eval_body_for env ~key_var:key ~value_var:value ~key:k
                ~value:v body
            in
            let s =
              runner session plan
                ~pipeline_depth:session.default_pipeline_depth body_fn
            in
            stats := s :: !stats
        | _ -> raise (Analysis_error "unexpected parallel statement"));
  Interp.run_program env program;
  (env, List.rev !stats)

(* ------------------------------------------------------------------ *)
(* Prefetch execution support                                          *)
(* ------------------------------------------------------------------ *)

(** Run the synthesized prefetch program for one iteration and return
    the recorded (array, key) accesses, newest-cleared each call. *)
let run_prefetch_program session ~(generated : Ast.block) ~key_var ~value_var
    ~key ~value ~bindings =
  session.prefetch_recorded <- [];
  let env_ref = ref None in
  let env =
    Interp.create_env ~host_call:(host_builtins session env_ref) ()
  in
  env_ref := Some env;
  List.iter (fun (k, v) -> Interp.set_var env k v) bindings;
  List.iter
    (fun r ->
      match r.reg_extern with
      | Some ex -> Interp.set_var env r.reg_name (Value.Vextern ex)
      | None -> ())
    session.registry;
  Interp.eval_body_for env ~key_var ~value_var ~key ~value generated;
  let recorded = List.rev session.prefetch_recorded in
  session.prefetch_recorded <- [];
  recorded

(* ------------------------------------------------------------------ *)
(* The application registry                                            *)
(* ------------------------------------------------------------------ *)

(** One registry for the built-in applications.  Everything that used
    to hand-wire mf|slr|lda|gbt — the CLI subcommands, the benchmark
    harness, the verification fixtures — resolves an {!App.t} here
    instead.  [Orion_apps.Registry] populates the registry; consumers
    call its [ensure] to force that module to link. *)
module App = struct
  (** A materialized app: a session with registered DistArrays, the
      parsed parallel loop, and interpreter plumbing to run its body.
      Every DistArray is real storage; host builtins are written to be
      order-independent across dependence-respecting serializations, so
      any two such executions agree (exactly, or to {!t.app_tolerance}
      for buffered floating-point accumulation). *)
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
        (** iteration space carrying interpreter values; an all-float
            space is a {!Dist_array.float_view} of its loaded table,
            whose schedule blocks and compiled kernel keep the floats
            unboxed *)
    inst_iter_name : string;
    inst_outputs : (string * float Dist_array.t) list;
        (** model arrays compared by equality/differential checks *)
    inst_arrays : (string * float Dist_array.t) list;
        (** every float model DistArray by name — outputs and read-only
            inputs alike; the handles the distributed runtime ships as
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
            state every call); [scale] enlarges the dataset for
            benchmarking.  [~records:false] builds from shapes only, as
            a distributed worker does (its schedule row carries the
            entries it runs): every array at its shape and the
            iteration space empty, unless a host builtin closes over
            the records *)
    app_register_meta : session -> unit;
        (** register the paper-scale array shapes (Table 2) so the
            analysis pipeline can run without materializing data *)
    app_loss : (instance -> float) option;
        (** training objective over the instance's current model state,
            for convergence benchmarking ([None]: no scalar loss) *)
    app_prepare_pass : (instance -> unit) option;
        (** fold buffered accumulators into the model between separate
            [Engine.run] calls (e.g. apply a gradient buffer and zero
            it) — only used by drivers that run pass-at-a-time, like
            the convergence bench; single-run equivalence paths never
            call it *)
  }

  let registered : t list ref = ref []

  (** Register (or replace, by name) an app, preserving first-come
      registry order. *)
  let register app =
    if List.exists (fun a -> a.app_name = app.app_name) !registered then
      registered :=
        List.map
          (fun a -> if a.app_name = app.app_name then app else a)
          !registered
    else registered := !registered @ [ app ]

  let all () = !registered
  let find name = List.find_opt (fun a -> a.app_name = name) !registered
  let names () = List.map (fun a -> a.app_name) !registered
end

(* ------------------------------------------------------------------ *)
(* The engine: one entry point over both execution substrates          *)
(* ------------------------------------------------------------------ *)

(** Unified execution entry point: run an app's parallel loop either on
    the simulated cluster ([`Sim], virtual time, sequential) or on a
    real OCaml 5 domain pool ([`Parallel n], wall-clock time,
    {!Domain_exec}).  Both modes execute the {e same} compiled schedule
    under the same happens-before order, so for serializable schedules
    their results are element-wise equal (up to the app's tolerance for
    buffered accumulation). *)
module Engine = struct
  type transport = [ `Unix | `Tcp ]

  type distributed = { procs : int; transport : transport }

  type mode = [ `Sim | `Parallel of int | `Distributed of distributed ]

  let transport_to_string = function `Unix -> "unix" | `Tcp -> "tcp"

  let mode_to_string = function
    | `Sim -> "sim"
    | `Parallel n -> Printf.sprintf "parallel(%d)" n
    | `Distributed { procs; transport } ->
        Printf.sprintf "distributed(%d,%s)" procs
          (transport_to_string transport)

  (** Structured failure of a distributed run: a worker crashed, a
      socket broke, the protocol was violated, or the deadline passed.
      [de_rank] is the offending worker when one is known. *)
  exception
    Distributed_error of { de_rank : int option; de_reason : string }

  let distributed_error_to_string = function
    | Distributed_error { de_rank = Some r; de_reason } ->
        Printf.sprintf "distributed run failed (worker %d): %s" r de_reason
    | Distributed_error { de_rank = None; de_reason } ->
        Printf.sprintf "distributed run failed: %s" de_reason
    | e -> Printexc.to_string e

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
        (** loop bodies ran as {!Orion_lang.Compile} kernels rather than
            through the tree-walking interpreter ([`Sim] always
            interprets — it is the differential reference) *)
    ep_wall_seconds : float;  (** real elapsed time of the pass(es) *)
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

  let interp_body env (inst : App.instance) ~key ~value =
    Interp.eval_body_for env ~key_var:inst.App.inst_key_var
      ~value_var:inst.App.inst_value_var ~key ~value inst.App.inst_body

  (** Compile [inst]'s loop body against [env] (call {e after} any
      shadow rebinding — the kernel captures the environment's current
      array bindings).  Over a float iteration space
      ({!Dist_array.float_view}) the kernel takes a block's values
      unboxed ({!Compile.run_floats}); no value is looked at here.  [None] when
      compilation is disabled ([ORION_NO_COMPILE]), a profile or an
      access hook is attached to [env], or the body uses an unsupported
      construct; callers fall back to {!interp_body}. *)
  let compile_kernel (inst : App.instance) (env : Interp.env) :
      Compile.t option =
    if not (Compile.enabled ()) then None
    else
      Compile.compile_body env
        ~value_float:(Dist_array.floats_of_view inst.App.inst_iter <> None)
        ~key_var:inst.App.inst_key_var ~value_var:inst.App.inst_value_var
        inst.App.inst_body

  (** [inst]'s loop body over [env]: its compiled kernel, or the
      interpreter, which boxes each value, when the body does not
      compile (a hooked [env] among the reasons). *)
  let loop_body inst env : Compile.t option * Value.t Schedule.body =
    match compile_kernel inst env with
    | Some k ->
        ( Some k,
          {
            Schedule.boxed = (fun ~key ~value -> Compile.run k ~key ~value);
            unboxed =
              Some
                (fun ~dims ~strides keys values ->
                  Compile.run_floats k ~dims ~strides keys values);
          } )
    | None ->
        ( None,
          Schedule.boxed_body (fun ~key ~value ->
              interp_body env inst ~key ~value) )

  (* -- buffered shadows -----------------------------------------------
     Buffered arrays are only ever combined with [+=] inside the loop
     and never read for their pre-pass value there, so each domain (or
     rank) accumulates into zero-filled shadows of its own, and their
     nonzero entries are summed into the shared arrays afterwards, in
     ascending domain (rank) order: serial accumulation up to FP
     reassociation. *)

  let make_shadows (inst : App.instance) env =
    List.filter_map
      (fun (name, arr) ->
        if List.mem name inst.App.inst_buffered then begin
          let shadow =
            Dist_array.fill_dense ~name ~dims:(Dist_array.dims arr) 0.0
          in
          Interp.set_var env name
            (Value.Vextern (Dist_array.to_extern shadow));
          Some (name, shadow)
        end
        else None)
      inst.App.inst_arrays

  let shadow_part shadow =
    Dist_array.to_partition ~select:(fun _ v -> v <> 0.0) shadow

  let merge_part arr (part : Dist_array.partition) =
    Array.iteri
      (fun i lin ->
        Dist_array.update arr (Dist_array.delinearize arr lin) (fun x ->
            x +. part.Dist_array.pt_values.(i)))
      part.Dist_array.pt_keys

  let buffered_view (inst : App.instance) ~live contributions =
    List.map
      (fun (name, arr) ->
        if List.mem name inst.App.inst_buffered then begin
          let copy = Dist_array.of_partition (Dist_array.to_partition arr) in
          List.iter
            (List.iter (fun (part : Dist_array.partition) ->
                 if part.Dist_array.pt_array = name then merge_part copy part))
            contributions;
          (name, copy)
        end
        else (name, live name arr))
      inst.App.inst_arrays

  (** Called at pass boundaries with [pass_done] completed passes and
      the model arrays as they would stand if the run ended there
      (buffered arrays merged into temporary copies).  The sink decides
      what to persist — [lib/store]'s [Checkpoint] writes them to disk
      — so the core stays free of file-format dependencies. *)
  type checkpoint_sink =
    pass_done:int -> (string * float Dist_array.t) list -> unit

  (* -- the run driver -------------------------------------------------
     One skeleton for every mode: plan -> schedule -> model, a backend's
     passes with one boundary rule, one report.  A backend supplies only
     its execution. *)

  type outcome = {
    o_domains : int;
    o_entries : int;
    o_steals : int;
    o_compiled : bool;
    o_bytes_by_array : (string * float) list;
    o_bytes_full : float;
    o_policy_by_array : (string * string) list;
    o_windows : (int * float * float) list;
  }

  let no_outcome =
    {
      o_domains = 1;
      o_entries = 0;
      o_steals = 0;
      o_compiled = false;
      o_bytes_by_array = [];
      o_bytes_full = 0.0;
      o_policy_by_array = [];
      o_windows = [];
    }

  type backend = {
    passes : boundary:(int -> unit) -> unit;
    boundary_view : unit -> (string * float Dist_array.t) list;
    finish : unit -> outcome;
  }

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

  let distributed_runner : distributed_runner option ref = ref None

  (* the local backends run their passes one after another *)
  let each_pass ~passes run_pass ~boundary =
    for pass = 0 to passes - 1 do
      run_pass pass;
      boundary (pass + 1)
    done

  (* the simulated cluster: sequential, interpreted, virtual time; its
     arrays are live and serial, so a boundary hands them over as they
     are *)
  let sim_backend session (inst : App.instance) ~passes (compiled, _) =
    let entries = ref 0 in
    let body ~worker:_ ~key ~value =
      interp_body inst.App.inst_env inst ~key ~value
    in
    {
      passes =
        each_pass ~passes (fun _ ->
            let st = execute session compiled ~body () in
            entries := !entries + st.Executor.entries_executed);
      boundary_view = (fun () -> inst.App.inst_arrays);
      finish =
        (fun () -> { no_outcome with o_entries = !entries });
    }

  (* the domain pool: one environment per domain over the same shared
     DistArrays, buffered arrays shadowed per domain *)
  let pool_backend (inst : App.instance) ~domains ~passes ~tel (compiled, model)
    =
    let envs =
      Array.init domains (fun d ->
          if d = 0 then inst.App.inst_env else inst.App.inst_make_env ())
    in
    let shadows = Array.map (make_shadows inst) envs in
    (* each domain's body, compiled after its shadow rebinding *)
    let kernels, bodies = Array.split (Array.map (loop_body inst) envs) in
    let contributions () =
      Array.to_list
        (Array.map (List.map (fun (_, shadow) -> shadow_part shadow)) shadows)
    in
    let windows = ref [] in
    let entries = ref 0 and steals = ref 0 in
    let run_pass pass =
      let w0 = Telemetry.now tel in
      let st =
        Domain_exec.run_schedule ~telemetry:tel ~pass ~domains ~model
          compiled.schedule ~bodies
      in
      if Telemetry.enabled tel then
        windows := (pass, w0, Telemetry.now tel) :: !windows;
      entries := !entries + st.Domain_exec.entries_run;
      steals := !steals + st.Domain_exec.steals
    in
    {
      passes =
        (fun ~boundary ->
          Dist_array.enter_parallel ();
          Fun.protect ~finally:Dist_array.exit_parallel (fun () ->
              each_pass ~passes run_pass ~boundary));
      boundary_view =
        (fun () ->
          buffered_view inst ~live:(fun _ arr -> arr) (contributions ()));
      finish =
        (fun () ->
          (* leak loop locals back into the envs, as the interpreter's
             per-iteration [set_var]s would have *)
          Array.iter (Option.iter Compile.flush_locals) kernels;
          let shared name = List.assoc name inst.App.inst_arrays in
          List.iter
            (List.iter (fun (part : Dist_array.partition) ->
                 merge_part (shared part.Dist_array.pt_array) part))
            (contributions ());
          (* rebind the shared buffered arrays in every env so a later
             serial pass (or another run) sees the merged state *)
          Array.iteri
            (fun d ->
              List.iter (fun (name, _) ->
                  Interp.set_var envs.(d) name
                    (Value.Vextern (Dist_array.to_extern (shared name)))))
            shadows;
          {
            no_outcome with
            o_domains = domains;
            o_entries = !entries;
            o_steals = !steals;
            o_compiled = Array.for_all Option.is_some kernels;
            o_windows = List.rev !windows;
          });
    }

  (** Run [inst]'s parallel loop once under [mode].  [passes] repeats
      the pass (driver loops run several); the report aggregates all of
      them.  [scale] must echo the dataset scale [inst] was built with
      (only consulted by [`Distributed], whose workers rebuild the
      instance). *)
  let run (session : session) (inst : App.instance) ~(mode : mode)
      ?(passes = 1) ?pipeline_depth ?(scale = 1.0)
      ?(telemetry = Telemetry.default_enabled ()) ?checkpoint () : report =
    (match checkpoint with
    | Some (every, _) when every < 1 ->
        invalid_arg
          (Printf.sprintf
             "Engine.run: checkpoint every %d passes (must be >= 1)" every)
    | _ -> ());
    (* the telemetry clock starts here, so pass windows read against it
       leave planning, the schedule build, kernel compile and worker
       spawn in start-up *)
    let t_run = Clock.now () in
    let tel =
      match mode with
      | `Sim -> Telemetry.create ~enabled:false ~workers:1 ()
      | `Parallel n -> Telemetry.create ~enabled:telemetry ~workers:(max 1 n) ()
      | `Distributed { procs; _ } ->
          Telemetry.create ~enabled:telemetry ~workers:procs ()
    in
    let plan = lazy (analyze_loop session inst.App.inst_loop) in
    let schedule =
      lazy
        (let c =
           compile session ~plan:(Lazy.force plan) ~iter:inst.App.inst_iter
             ?pipeline_depth ()
         in
         (c, model_of c))
    in
    let backend =
      match mode with
      | `Sim -> sim_backend session inst ~passes (Lazy.force schedule)
      | `Parallel n ->
          pool_backend inst ~domains:(max 1 n) ~passes ~tel
            (Lazy.force schedule)
      | `Distributed { procs; transport } -> (
          match !distributed_runner with
          | Some start ->
              start session inst ~procs ~transport ~passes ~scale
                ~telemetry:tel ~report_passes:(checkpoint <> None) ~plan
                ~schedule
          | None ->
              raise
                (Distributed_error
                   {
                     de_rank = None;
                     de_reason =
                       "no distributed runner installed (link orion_net and \
                        call Orion_apps.Registry.ensure ())";
                   }))
    in
    (* the distributed wall clock covers spawn and start-up; the local
       ones start with the passes *)
    let t0 = match mode with `Distributed _ -> t_run | _ -> Clock.now () in
    (* only the simulator advances the cluster's virtual clocks *)
    let sim0 = Cluster.now session.cluster in
    backend.passes ~boundary:(fun pass_done ->
        match checkpoint with
        | Some (every, sink) when pass_done mod every = 0 ->
            sink ~pass_done (backend.boundary_view ())
        | _ -> ());
    let o = backend.finish () in
    let plan = Lazy.force plan and compiled, model = Lazy.force schedule in
    let total = List.fold_left (fun acc (_, b) -> acc +. b) 0.0 in
    let summary () =
      match mode with
      | `Distributed _ ->
          let comms =
            {
              Telemetry.cs_bytes_shipped = total o.o_bytes_by_array;
              cs_bytes_full = o.o_bytes_full;
              cs_by_array = o.o_policy_by_array;
            }
          in
          Telemetry.summarize tel ~mode:"distributed" ~comms
            ~windows:o.o_windows ()
      | `Sim | `Parallel _ ->
          Telemetry.summarize tel ~mode:"parallel" ~windows:o.o_windows ()
    in
    {
      ep_app = inst.App.inst_name;
      ep_mode = mode;
      ep_strategy = Plan.strategy_to_string plan.Plan.strategy;
      ep_model = Domain_exec.model_to_string model;
      ep_domains = o.o_domains;
      ep_space_parts = compiled.schedule.Schedule.space_parts;
      ep_time_parts = compiled.schedule.Schedule.time_parts;
      ep_entries = o.o_entries;
      ep_blocks =
        passes * compiled.schedule.Schedule.space_parts
        * compiled.schedule.Schedule.time_parts;
      ep_steals = o.o_steals;
      ep_compiled = o.o_compiled;
      ep_wall_seconds = Clock.elapsed t0;
      ep_sim_time = Cluster.now session.cluster -. sim0;
      ep_bytes_shipped = total o.o_bytes_by_array;
      ep_bytes_by_array = o.o_bytes_by_array;
      ep_bytes_full = o.o_bytes_full;
      ep_policy_by_array = o.o_policy_by_array;
      ep_telemetry =
        (if Telemetry.enabled tel then Some (summary ()) else None);
    }
end
