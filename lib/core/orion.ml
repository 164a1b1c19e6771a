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
module Pipeline = Orion_dsm.Pipeline
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

(** Execute a compiled loop with a native loop body. *)
let execute session (c : 'v compiled) ?(compute = Executor.Measured)
    ~(body : 'v Executor.body) () =
  let cluster = session.cluster in
  match c.plan.strategy with
  | Plan.One_d _ | Plan.Data_parallel ->
      Executor.run_1d cluster ~compute c.schedule body
  | Plan.Two_d _ ->
      if c.plan.ordered then
        Executor.run_2d_ordered cluster ~compute
          ~rotated_label:(rotated_label c.plan)
          ~rotated_bytes_per_partition:c.rotated_bytes_per_partition
          c.schedule body
      else
        Executor.run_2d_unordered cluster ~compute
          ~pipeline_depth:c.pipeline_depth
          ~rotated_label:(rotated_label c.plan)
          ~rotated_bytes_per_partition:c.rotated_bytes_per_partition
          c.schedule body
  | Plan.Two_d_unimodular _ ->
      Executor.run_time_major cluster ~compute
        ~comm_label:(rotated_label c.plan)
        ~comm_bytes_per_step:c.rotated_bytes_per_partition c.schedule body

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
          (* expand to the point indices of the first dimension touched *)
          let points =
            List.mapi
              (fun i s ->
                match s with
                | Value.Cpoint p -> [ p ]
                | Value.Crange (a, b) -> List.init (b - a + 1) (fun k -> a + k)
                | Value.Call_dim -> List.init r.reg_dims.(i) Fun.id)
              csubs
          in
          (* record the cartesian key set (bounded by practicality) *)
          let rec cart = function
            | [] -> [ [] ]
            | d :: rest ->
                let tails = cart rest in
                List.concat_map (fun p -> List.map (fun t -> p :: t) tails) d
          in
          List.iter
            (fun key ->
              session.prefetch_recorded <-
                (arr, Array.of_list key) :: session.prefetch_recorded)
            (cart points)
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
        (** iteration space carrying interpreter values *)
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
      ?scale:float -> num_machines:int -> workers_per_machine:int -> unit ->
      instance;
        (** build a fresh deterministic instance (identical initial
            state every call); [scale] enlarges the dataset for
            benchmarking *)
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
            only: partition ship + prefetch + tokens + flushes) *)
    ep_bytes_by_array : (string * float) list;
        (** [ep_bytes_shipped] broken down per DistArray *)
    ep_bytes_full : float;
        (** what the same traffic costs as one [Marshal]ed record per
            write or partition — the before side of bytes-saved
            accounting ([`Distributed] only) *)
    ep_policy_by_array : (string * string) list;
        (** the per-DistArray key mode the wire encoder settled on
            (["sparse"] or ["dense"]; empty for the local modes) *)
    ep_telemetry : Telemetry.summary option;
        (** wall-clock telemetry of the real run: merged span timeline,
            per-pass metrics, measured block costs ([None] for [`Sim] —
            its trace lives on the cluster — or when disabled) *)
  }

  let report_payload (r : report) : Report.json =
    Report.Obj
      [
        ("app", Report.Str r.ep_app);
        ("mode", Report.Str (mode_to_string r.ep_mode));
        ("strategy", Report.Str r.ep_strategy);
        ("model", Report.Str r.ep_model);
        ("domains", Report.Int r.ep_domains);
        ("space_parts", Report.Int r.ep_space_parts);
        ("time_parts", Report.Int r.ep_time_parts);
        ("entries", Report.Int r.ep_entries);
        ("blocks", Report.Int r.ep_blocks);
        ("steals", Report.Int r.ep_steals);
        ("compiled", Report.Bool r.ep_compiled);
        ("wall_seconds", Report.Float r.ep_wall_seconds);
        ("sim_time", Report.Float r.ep_sim_time);
        ("bytes_shipped", Report.Float r.ep_bytes_shipped);
        ( "bytes_by_array",
          Report.Obj
            (List.map
               (fun (name, b) -> (name, Report.Float b))
               r.ep_bytes_by_array) );
        ("bytes_full", Report.Float r.ep_bytes_full);
        ( "policy_by_array",
          Report.Obj
            (List.map
               (fun (name, label) -> (name, Report.Str label))
               r.ep_policy_by_array) );
        ( "telemetry",
          match r.ep_telemetry with
          | Some sm -> Telemetry.summary_json sm
          | None -> Report.Null );
      ]

  let interp_body env (inst : App.instance) ~key ~value =
    Interp.eval_body_for env ~key_var:inst.App.inst_key_var
      ~value_var:inst.App.inst_value_var ~key ~value inst.App.inst_body

  (** Compile [inst]'s loop body against [env] (call {e after} any
      shadow rebinding — the kernel captures the environment's current
      array bindings).  [None] when compilation is disabled
      ([ORION_NO_COMPILE]) or the body uses an unsupported construct;
      callers fall back to {!interp_body}. *)
  let compile_kernel (inst : App.instance) (env : Interp.env) :
      Compile.t option =
    if not (Compile.enabled ()) then None
    else begin
      (* the unboxed value slot is only sound if every iterated value
         is a float — scan the stored values, in any order, up to the
         first that is not *)
      let value_float =
        Dist_array.for_all
          (function Value.Vfloat _ -> true | _ -> false)
          inst.App.inst_iter
      in
      Compile.compile_body env ~value_float
        ~key_var:inst.App.inst_key_var ~value_var:inst.App.inst_value_var
        inst.App.inst_body
    end

  (* Per-domain shadow for a buffered array: zero-filled same-shape
     dense storage rebound under the array's name in that domain's
     environment.  Buffered arrays are only ever combined with [+=]
     inside the loop and never read for their pre-pass value there, so
     accumulating into zeros and summing the shadows into the shared
     array afterwards (in fixed domain order) is equivalent to serial
     accumulation up to FP reassociation. *)
  let make_shadows (inst : App.instance) env =
    List.filter_map
      (fun (name, arr) ->
        if List.mem name inst.App.inst_buffered then begin
          let shadow =
            Dist_array.fill_dense ~name ~dims:(Dist_array.dims arr) 0.0
          in
          Interp.set_var env name
            (Value.Vextern (Dist_array.to_extern shadow));
          Some (name, arr, shadow)
        end
        else None)
      inst.App.inst_outputs

  let merge_shadows shadows =
    List.iter
      (fun (_, shared, shadow) ->
        Dist_array.iter
          (fun key v ->
            if v <> 0.0 then Dist_array.update shared key (fun x -> x +. v))
          shadow)
      shadows

  (** Called at pass boundaries with [pass_done] completed passes and
      the model arrays as they would stand if the run ended there
      (buffered arrays merged into temporary copies).  The sink decides
      what to persist — [lib/store]'s [Checkpoint] writes them to disk
      — so the core stays free of file-format dependencies. *)
  type checkpoint_sink =
    pass_done:int -> (string * float Dist_array.t) list -> unit

  (** One adaptive re-planning decision, produced by a {!replanner} at
      a pass boundary and applied before the next pass runs.  Any
      combination of the three knobs; [None] everywhere is a no-op.
      The engine applies the decision mechanically — validation
      (race-checking the candidate schedule, cost improvement) is the
      re-planner's job before it returns [Some]. *)
  type replan = {
    rp_space_boundaries : Partitioner.boundaries option;
        (** replace the space cut (e.g. weighted by measured per-block
            seconds instead of entry counts) *)
    rp_pipeline_depth : int option;  (** unordered-2D pipeline depth *)
    rp_strategy : Plan.strategy option;  (** switch strategies outright *)
    rp_reason : string;  (** for decision logs *)
  }

  (** Called after pass [pass] (0-based) completes, for every pass but
      the last, with that pass's measured block costs (empty when
      telemetry is unavailable, e.g. [`Sim] — scripted replays still
      work).  [Some] adopts the decision for all subsequent passes. *)
  type replanner =
    pass:int -> costs:Telemetry.block_cost list -> replan option

  (** The distributed master driver, installed by [lib/net]'s
      [Dist_master] (via [Orion_apps.Registry.ensure]) so the core
      library stays free of any socket/process dependency.  Receives
      the scale the instance was built with, because remote workers
      rebuild the instance from the app registry. *)
  type distributed_runner =
    session ->
    App.instance ->
    procs:int ->
    transport:transport ->
    passes:int ->
    pipeline_depth:int option ->
    scale:float ->
    telemetry:bool ->
    checkpoint:(int * checkpoint_sink) option ->
    replanner:replanner option ->
    report

  let distributed_runner : distributed_runner option ref = ref None

  (* Rebuild plan/schedule/model for an adopted re-plan.  Strategy or
     depth switches recompile from scratch; explicit space boundaries
     then override the histogram-balanced cut ([Schedule.rebalance]).
     Unimodular schedules never re-balance: their time partitions are
     exact wavefronts. *)
  let apply_replan session ~(plan : Plan.t) ~iter ~depth (rp : replan) =
    let plan =
      match rp.rp_strategy with
      | Some s -> { plan with Plan.strategy = s }
      | None -> plan
    in
    let depth = Option.value rp.rp_pipeline_depth ~default:depth in
    let c = compile session ~plan ~iter ~pipeline_depth:depth () in
    let schedule =
      Option.bind rp.rp_space_boundaries (fun space_boundaries ->
          Schedule.rebalance plan.Plan.strategy iter ~space_boundaries
            ~time_parts:c.schedule.Schedule.time_parts)
      |> Option.value ~default:c.schedule
    in
    let c = { c with schedule } in
    let sp = schedule.Schedule.space_parts
    and tp = schedule.Schedule.time_parts in
    let model =
      Domain_exec.model_of_plan plan ~pipeline_depth:c.pipeline_depth ~sp ~tp
    in
    (plan, c, model)

  (** Run [inst]'s parallel loop once under [mode].  [passes] repeats
      the pass (driver loops run several); the report aggregates all of
      them.  [scale] must echo the dataset scale [inst] was built with
      (only consulted by [`Distributed], whose workers rebuild the
      instance). *)
  let run (session : session) (inst : App.instance) ~(mode : mode)
      ?(passes = 1) ?pipeline_depth ?(scale = 1.0)
      ?(telemetry = Telemetry.default_enabled ()) ?checkpoint
      ?replanner () : report =
    (* re-planning feeds on measured block costs *)
    let telemetry = telemetry || Option.is_some replanner in
    let checkpoint_due pass_done =
      match checkpoint with
      | Some (every, _) when every > 0 -> pass_done mod every = 0
      | _ -> false
    in
    match mode with
    | `Distributed { procs; transport } -> (
        match !distributed_runner with
        | Some f ->
            f session inst ~procs ~transport ~passes ~pipeline_depth ~scale
              ~telemetry ~checkpoint ~replanner
        | None ->
            raise
              (Distributed_error
                 {
                   de_rank = None;
                   de_reason =
                     "no distributed runner installed (link orion_net and \
                      call Orion_apps.Registry.ensure ())";
                 }))
    | (`Sim | `Parallel _) as submode ->
    let plan0 = analyze_loop session inst.App.inst_loop in
    let compiled0 =
      compile session ~plan:plan0 ~iter:inst.App.inst_iter ?pipeline_depth ()
    in
    let model0 =
      Domain_exec.model_of_plan plan0
        ~pipeline_depth:compiled0.pipeline_depth
        ~sp:compiled0.schedule.Schedule.space_parts
        ~tp:compiled0.schedule.Schedule.time_parts
    in
    (* the current (plan, compiled, model) — an adopted re-plan swaps
       all three at a pass boundary *)
    let state = ref (plan0, compiled0, model0) in
    let consider_replan ~pass ~costs =
      match replanner with
      | None -> ()
      | Some f -> (
          match f ~pass ~costs with
          | None -> ()
          | Some rp ->
              let plan, c, _ = !state in
              state :=
                apply_replan session ~plan ~iter:inst.App.inst_iter
                  ~depth:c.pipeline_depth rp)
    in
    match submode with
    | `Sim ->
        let sim0 = Cluster.now session.cluster in
        let t0 = Clock.now () in
        let entries = ref 0 and blocks = ref 0 in
        for p = 1 to passes do
          let _, compiled, _ = !state in
          let body ~worker:_ ~key ~value =
            interp_body inst.App.inst_env inst ~key ~value
          in
          let st = execute session compiled ~body () in
          entries := !entries + st.Executor.entries_executed;
          blocks :=
            !blocks
            + (compiled.schedule.Schedule.space_parts
              * compiled.schedule.Schedule.time_parts);
          (* no wall-clock telemetry in virtual time: re-planning here
             only serves scripted replays, which ignore costs *)
          if p < passes then consider_replan ~pass:(p - 1) ~costs:[];
          (* sim arrays are live and serial — hand them over directly *)
          if checkpoint_due p then
            match checkpoint with
            | Some (_, sink) -> sink ~pass_done:p inst.App.inst_arrays
            | None -> ()
        done;
        let plan, compiled, model = !state in
        {
          ep_app = inst.App.inst_name;
          ep_mode = mode;
          ep_strategy = Plan.strategy_to_string plan.Plan.strategy;
          ep_model = Domain_exec.model_to_string model;
          ep_domains = 1;
          ep_space_parts = compiled.schedule.Schedule.space_parts;
          ep_time_parts = compiled.schedule.Schedule.time_parts;
          ep_entries = !entries;
          ep_blocks = !blocks;
          ep_steals = 0;
          ep_compiled = false;
          ep_wall_seconds = Clock.elapsed t0;
          ep_sim_time = Cluster.now session.cluster -. sim0;
          ep_bytes_shipped = 0.0;
          ep_bytes_by_array = [];
          ep_bytes_full = 0.0;
          ep_policy_by_array = [];
          ep_telemetry = None;
        }
    | `Parallel domains ->
        let domains = max 1 domains in
        (* one environment per domain over the same shared DistArrays;
           buffered arrays get per-domain shadows *)
        let envs =
          Array.init domains (fun d ->
              if d = 0 then inst.App.inst_env else inst.App.inst_make_env ())
        in
        let shadows =
          Array.to_list (Array.map (fun env -> make_shadows inst env) envs)
        in
        (* compile each domain's loop body once, after the shadow
           rebinding above (the kernel captures env's array bindings);
           any domain that fails to compile interprets instead *)
        let kernels = Array.map (fun env -> compile_kernel inst env) envs in
        let bodies =
          Array.mapi
            (fun d env ->
              match kernels.(d) with
              | Some k -> fun ~key ~value -> Compile.run k ~key ~value
              | None -> fun ~key ~value -> interp_body env inst ~key ~value)
            envs
        in
        let tel = Telemetry.create ~enabled:telemetry ~workers:domains () in
        (* pass-boundary view of the model: shared arrays are live;
           buffered arrays become temporary copies with every domain's
           shadow merged in (domain order, matching the final merge) *)
        let checkpoint_view () =
          List.map
            (fun (name, arr) ->
              if List.mem name inst.App.inst_buffered then begin
                let copy =
                  Dist_array.of_partition (Dist_array.to_partition arr)
                in
                List.iter
                  (fun env_shadows ->
                    List.iter
                      (fun (n, _, shadow) ->
                        if n = name then
                          Dist_array.iter
                            (fun key v ->
                              if v <> 0.0 then
                                Dist_array.update copy key (fun x -> x +. v))
                            shadow)
                      env_shadows)
                  shadows;
                (name, copy)
              end
              else (name, arr))
            inst.App.inst_arrays
        in
        let windows = ref [] in
        let t0 = Clock.now () in
        let blocks = ref 0 and entries = ref 0 and steals = ref 0 in
        Dist_array.enter_parallel ();
        Fun.protect
          ~finally:(fun () -> Dist_array.exit_parallel ())
          (fun () ->
            for pass = 0 to passes - 1 do
              let _, compiled, model = !state in
              let w0 = if telemetry then Telemetry.now tel else 0.0 in
              let st =
                Domain_exec.run_schedule ~telemetry:tel ~pass ~domains ~model
                  compiled.schedule ~bodies
              in
              if telemetry then
                windows := (pass, w0, Telemetry.now tel) :: !windows;
              blocks := !blocks + st.Domain_exec.blocks_run;
              entries := !entries + st.Domain_exec.entries_run;
              steals := !steals + st.Domain_exec.steals;
              (* domains are joined between run_schedule calls, so the
                 boundary state is quiescent: safe to swap the schedule
                 (shards are never drained in parallel mode, so
                 per-pass costs stay readable here) *)
              if pass < passes - 1 then
                consider_replan ~pass
                  ~costs:
                    (if Telemetry.enabled tel then
                       Telemetry.block_costs_for_pass tel ~pass
                     else []);
              if checkpoint_due (pass + 1) then
                match checkpoint with
                | Some (_, sink) -> sink ~pass_done:(pass + 1) (checkpoint_view ())
                | None -> ()
            done);
        (* leak loop locals back into the envs, as the interpreter's
           per-iteration [set_var]s would have *)
        Array.iter
          (function Some k -> Compile.flush_locals k | None -> ())
          kernels;
        (* deterministic merge: domain 0's shadow first, then 1, ... *)
        List.iter merge_shadows shadows;
        (* rebind the shared buffered arrays in every env so a later
           serial pass (or another Engine.run) sees the merged state *)
        List.iteri
          (fun d env_shadows ->
            List.iter
              (fun (name, shared, _) ->
                Interp.set_var envs.(d) name
                  (Value.Vextern (Dist_array.to_extern shared)))
              env_shadows)
          shadows;
        let plan, compiled, model = !state in
        {
          ep_app = inst.App.inst_name;
          ep_mode = mode;
          ep_strategy = Plan.strategy_to_string plan.Plan.strategy;
          ep_model = Domain_exec.model_to_string model;
          ep_domains = domains;
          ep_space_parts = compiled.schedule.Schedule.space_parts;
          ep_time_parts = compiled.schedule.Schedule.time_parts;
          ep_entries = !entries;
          ep_blocks = !blocks;
          ep_steals = !steals;
          ep_compiled = Array.for_all Option.is_some kernels;
          ep_wall_seconds = Clock.elapsed t0;
          ep_sim_time = 0.0;
          ep_bytes_shipped = 0.0;
          ep_bytes_by_array = [];
          ep_bytes_full = 0.0;
          ep_policy_by_array = [];
          ep_telemetry =
            (if telemetry then
               Some
                 (Telemetry.summarize tel ~mode:"parallel"
                    ~windows:(List.rev !windows) ())
             else None);
        }
end
