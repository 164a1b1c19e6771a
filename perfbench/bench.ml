(* The repository benchmark: one workload per process.

   Generates the workload's shards from the seed (untimed), then
   repeatedly sets up and trains the workload's configuration and,
   interleaved with it, a single-domain baseline of the same task on a
   freshly materialized instance of the same shape.  The baseline is the
   result reference for every timed run.  Prints one JSON object as the
   last line of stdout: end-to-end metrics, or per-layer metrics from a
   traced run ([--trace 1]).  Exits 1 when any run raised or diverged
   from its baseline.  Drives the program only through
   [Registry.materialize], [Orion.analyze_loop], [Orion.compile],
   [Engine.compile_kernel] and [Engine.run]. *)

module Engine = Orion.Engine
module App = Orion.App
module Clock = Orion.Clock
module Dist_array = Orion.Dist_array
module Schedule = Orion.Schedule
module Telemetry = Orion.Telemetry
module Metrics = Orion_obs.Metrics
module Gen = Orion_store.Gen
module Registry = Orion_apps.Registry
module R = Orion.Report

type workload = {
  name : string;
  app : string;
  spec : Gen.spec;
  data_env : string;  (** how the program (and exec'd workers) find the shards *)
  mode : Engine.mode;
  passes : int;
}

let workloads =
  [
    {
      name = "mf-pool";
      app = "mf";
      spec = Gen.movielens_spec ~scale:0.05 ();
      data_env = Registry.ratings_dir_env;
      mode = `Parallel 2;
      passes = 6;
    };
    {
      name = "mf-dist";
      app = "mf";
      spec = Gen.movielens_spec ~scale:0.05 ();
      data_env = Registry.ratings_dir_env;
      mode = `Distributed { Engine.procs = 2; transport = `Unix };
      passes = 2;
    };
  ]

(* every instance: 2 machines x 1 worker, so the configuration and its
   single-domain baseline compile the same schedule *)
let num_machines = 2
let baseline_mode = `Parallel 1

(* at least this many timed iterations, however short [--seconds] is *)
let min_iterations = 3

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Clock.now () in
  let x = f () in
  (x, Clock.elapsed t0)

(* ------------------------------------------------------------------ *)
(* Spans of the traced run, recorded around each call into a layer     *)
(* ------------------------------------------------------------------ *)

type span = { label : string; iteration : int; start : float; finish : float }

let spans : span list ref = ref []
let run_start = Clock.now ()

let traced_call ~iteration name f =
  let start = Clock.now () in
  let x = f () in
  let finish = Clock.now () in
  spans :=
    { label = name; iteration; start = start -. run_start; finish = finish -. run_start }
    :: !spans;
  (x, finish -. start)

let span_json s =
  R.Obj
    [
      ("name", R.Str s.label);
      ("parent", R.Str (Printf.sprintf "iteration/%d" s.iteration));
      ("start", R.Float s.start);
      ("finish", R.Float s.finish);
    ]

(* ------------------------------------------------------------------ *)
(* Steal: CPU time the hypervisor gave to other guests (diagnostic)   *)
(* ------------------------------------------------------------------ *)

(* On a shared host a run on both vCPUs slows down far more than the
   share of CPU time taken from them, so each timed configuration run
   reports that share on stderr: when two sets of runs disagree, it
   tells host contention from a change in the program.  It is not a
   metric. *)

(* (steal, total) clock ticks over all CPUs, from the first line of
   /proc/stat; None where the kernel does not report them *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line = In_channel.input_line ic in
      close_in ic;
      match Option.map (String.split_on_char ' ') line with
      | Some ("cpu" :: fields) -> (
          match List.filter (( <> ) "") fields |> List.map float_of_string_opt with
          | Some user :: Some nice :: Some system :: Some idle :: Some iowait
            :: Some irq :: Some softirq :: Some steal :: _ ->
              Some
                (steal, user +. nice +. system +. idle +. iowait +. irq +. softirq +. steal)
          | _ -> None)
      | _ -> None)

(* [f ()] with the share of all CPU ticks during it that were stolen;
   0 where steal is not reported *)
let with_steal f =
  let before = cpu_ticks () in
  let x = f () in
  match (before, cpu_ticks ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> (x, (s1 -. s0) /. (t1 -. t0))
  | _ -> (x, 0.0)

(* ------------------------------------------------------------------ *)
(* Set-up, training, result gate                                       *)
(* ------------------------------------------------------------------ *)

let materialize w =
  match
    Registry.materialize w.app ~scale:1.0 ~num_machines ~workers_per_machine:1
  with
  | Some inst -> inst
  | None -> failwith ("unknown app " ^ w.app)

(* how a layer call is timed: plainly, or as a recorded span *)
type timer = { call : 'a. string -> (unit -> 'a) -> 'a * float }

let plain = { call = (fun _ f -> timed f) }

(* shard load into a fresh instance, then static analysis of its loop;
   returns the instance with the load and analysis seconds *)
let setup ?(timer = plain) w =
  let inst, load_s = timer.call "store.load" (fun () -> materialize w) in
  let _, plan_s =
    timer.call "analysis.plan" (fun () ->
        Orion.analyze_loop inst.App.inst_session inst.App.inst_loop)
  in
  (inst, load_s, plan_s)

let train w inst ~mode ~telemetry =
  timed (fun () ->
      Engine.run inst.App.inst_session inst ~mode ~passes:w.passes ~telemetry ())

let same_value (app : App.t) a b =
  match app.App.app_tolerance with
  | None -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Some tol ->
      Float.abs (a -. b) /. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-12
      <= tol

let same_arrays app (a : App.instance) (b : App.instance) =
  List.for_all2
    (fun (_, x) (_, y) ->
      Dist_array.count x = Dist_array.count y
      && Dist_array.fold
           (fun ok key v -> ok && same_value app v (Dist_array.get y key))
           true x)
    a.App.inst_arrays b.App.inst_arrays

(* the app's objective after a run, with any buffered state (a gradient
   buffer) folded into the model first *)
let final_loss (app : App.t) inst =
  Option.iter (fun f -> f inst) app.App.app_prepare_pass;
  match app.App.app_loss with
  | Some f -> f inst
  | None -> failwith ("app " ^ app.App.app_name ^ " declares no loss")

(* The result gate: every run's final arrays, then its loss, against
   the baseline's.  Returns the common loss, or [None] on a mismatch. *)
let check app ~base runs =
  if not (List.for_all (fun run -> same_arrays app run base) runs) then None
  else
    let lb = final_loss app base in
    if List.for_all (fun run -> same_value app (final_loss app run) lb) runs
    then Some lb
    else None

(* ------------------------------------------------------------------ *)
(* Timed and traced iterations                                         *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* Count one attempted training run; a raised error or a result-gate
   failure counts as failed. *)
let gated f =
  incr attempted;
  match f () with
  | Some x -> Some x
  | None ->
      incr failed;
      None
  | exception (Engine.Distributed_error _ as e) ->
      prerr_endline ("perfbench: " ^ Engine.distributed_error_to_string e);
      incr failed;
      None
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      incr failed;
      None

(* Iterations until [seconds] have passed, with no iteration started
   that the last one's duration says would end past them. *)
let run_loop ~seconds body =
  let deadline = Clock.now () +. seconds in
  let i = ref 0 and last = ref 0.0 in
  while !i < min_iterations || Clock.now () +. !last < deadline do
    let t0 = Clock.now () in
    body !i;
    (* instances of this iteration are garbage now; collect outside the
       timed calls so every iteration starts from a compact heap *)
    Gc.compact ();
    last := Clock.elapsed t0;
    incr i
  done

(* A multi-domain run right after a single-threaded phase (a set-up, a
   baseline run) pays for waking the idle core, by a share that varies
   with the host's load.  So every timed multi-domain run is preceded by
   an untimed one-pass run of the configuration on this throwaway
   instance, kept from the warm-up: the clock starts with both cores
   busy, as in every pass but the first of a long training job. *)
let spare : App.instance option ref = ref None

let wake_cores ~mode =
  match (mode, !spare) with
  | `Parallel n, Some inst when n > 1 ->
      ignore
        (Engine.run inst.App.inst_session inst ~mode ~passes:1 ~telemetry:false ())
  | _ -> ()

(* untimed warm-up on throwaway instances: first-call and idle-gap
   effects land here, not in the first timed iteration *)
let warm_up w =
  let inst, _, _ = setup w in
  ignore (train w inst ~mode:baseline_mode ~telemetry:false);
  let inst, _, _ = setup w in
  ignore (train w inst ~mode:w.mode ~telemetry:false);
  (match w.mode with `Parallel n when n > 1 -> spare := Some inst | _ -> ());
  Gc.compact ()

let end_to_end (app : App.t) w ~seconds =
  let setups = ref [] and walls = ref [] and trains = ref [] in
  let ratios = ref [] and steals = ref [] and entries = ref 0 in
  let one ~mode =
    let inst, load_s, plan_s = setup w in
    wake_cores ~mode;
    let (r, train_s), steal =
      with_steal (fun () -> train w inst ~mode ~telemetry:false)
    in
    setups := (load_s +. plan_s) :: !setups;
    (inst, r, load_s +. plan_s, train_s, steal)
  in
  run_loop ~seconds (fun i ->
      ignore
        (gated (fun () ->
             (* alternate which side goes first, so drift hits both alike *)
             let (run, r, setup_s, train_s, steal), (base, _, _, base_s, _) =
               if i mod 2 = 0 then
                 let c = one ~mode:w.mode in
                 (c, one ~mode:baseline_mode)
               else
                 let b = one ~mode:baseline_mode in
                 (one ~mode:w.mode, b)
             in
             let loss = check app ~base [ run ] in
             Printf.eprintf
               "perfbench: iteration %d setup %.4f s train %.4f s (steal \
                %.1f%%) baseline %.4f s final loss %s\n%!"
               i setup_s train_s (100.0 *. steal) base_s
               (match loss with
               | Some l -> Printf.sprintf "%.17g" l
               | None -> "differs from the baseline");
             steals := steal :: !steals;
             Option.map
               (fun _ ->
                 walls := (setup_s +. train_s) :: !walls;
                 trains := train_s :: !trains;
                 ratios := (base_s /. train_s) :: !ratios;
                 entries := r.Engine.ep_entries)
               loss)));
  Printf.eprintf "perfbench: median steal %.1f%% over %d timed runs\n%!"
    (100.0 *. median !steals) (List.length !steals);
  let train_s = median !trains in
  [
    ("wall_s", median !walls, "s");
    ("setup_s", median !setups, "s");
    ("train_s", train_s, "s");
    ("samples_per_s", float_of_int !entries /. train_s, "1/s");
    ("speedup_vs_1", median !ratios, "x");
  ]

let per_layer (app : App.t) w ~records ~seconds ~telemetry_out =
  let samples = Hashtbl.create 32 in
  let add name v =
    Hashtbl.replace samples name
      (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])
  in
  let last_summary = ref None in
  let is_pool = match w.mode with `Parallel _ -> true | _ -> false in
  run_loop ~seconds (fun iteration ->
      let timer = { call = (fun name f -> traced_call ~iteration name f) } in
      let call = timer.call in
      ignore
        (gated (fun () ->
             let inst, load_s, plan_s = setup ~timer w in
             add "store.load_s" load_s;
             add "store.records_per_s" (float_of_int records /. load_s);
             add "analysis.plan_s" plan_s;
             (* memoized per session: the plan [setup] just made *)
             let plan =
               Orion.analyze_loop inst.App.inst_session inst.App.inst_loop
             in
             let c, build_s =
               call "schedule.build" (fun () ->
                   Orion.compile inst.App.inst_session ~plan
                     ~iter:inst.App.inst_iter ())
             in
             add "schedule.build_s" build_s;
             add "schedule.blocks"
               (float_of_int
                  (c.Orion.schedule.Schedule.space_parts
                  * c.Orion.schedule.Schedule.time_parts));
             let _, compile_s =
               call "kernel.compile" (fun () ->
                   Engine.compile_kernel inst (inst.App.inst_make_env ()))
             in
             add "kernel.compile_s" compile_s;
             (* traced and untraced runs alternate which goes first *)
             let traced () =
               wake_cores ~mode:w.mode;
               call "engine.run.traced" (fun () ->
                   Engine.run inst.App.inst_session inst ~mode:w.mode
                     ~passes:w.passes ~telemetry:true ())
             in
             let untraced () =
               let u, _, _ = setup w in
               wake_cores ~mode:w.mode;
               let _, s =
                 call "engine.run.untraced" (fun () ->
                     Engine.run u.App.inst_session u ~mode:w.mode
                       ~passes:w.passes ~telemetry:false ())
               in
               (u, s)
             in
             let (r, traced_s), (u, untraced_s) =
               if iteration mod 2 = 0 then
                 let t = traced () in
                 (t, untraced ())
               else
                 let un = untraced () in
                 (traced (), un)
             in
             let base, _, _ = setup w in
             let rb, base_s =
               call "engine.run.baseline" (fun () ->
                   Engine.run base.App.inst_session base ~mode:baseline_mode
                     ~passes:w.passes ~telemetry:false ())
             in
             add "kernel.ns_per_sample"
               (base_s *. 1e9 /. float_of_int rb.Engine.ep_entries);
             add "obs.overhead_frac" ((traced_s /. untraced_s) -. 1.0);
             let entries = float_of_int r.Engine.ep_entries in
             add "net.bytes_per_sample" (r.Engine.ep_bytes_shipped /. entries);
             add "net.bytes_full_per_sample" (r.Engine.ep_bytes_full /. entries);
             (match r.Engine.ep_telemetry with
             | None -> ()
             | Some sm ->
                 last_summary := Some sm;
                 let m = sm.Telemetry.sm_overall in
                 let busy = Array.fold_left ( +. ) 0.0 m.Metrics.busy_per_worker in
                 let total =
                   Float.max 1e-12
                     (busy +. m.Metrics.barrier_wait_sec +. m.Metrics.idle_sec)
                 in
                 let windows = List.map snd sm.Telemetry.sm_pass_metrics in
                 let first = List.hd windows
                 and last = List.hd (List.rev windows) in
                 add "net.startup_s" first.Metrics.window_start;
                 add "net.finish_s" (traced_s -. last.Metrics.window_end);
                 if is_pool then begin
                   add "pool.steals" (float_of_int r.Engine.ep_steals);
                   add "pool.straggler_ratio" m.Metrics.straggler_ratio;
                   add "pool.barrier_wait_frac" m.Metrics.barrier_wait_fraction;
                   add "pool.idle_frac" (m.Metrics.idle_sec /. total)
                 end
                 else begin
                   add "net.compute_frac" (m.Metrics.compute_sec /. total);
                   add "net.wait_frac" (m.Metrics.idle_sec /. total);
                   add "net.transfer_frac" (m.Metrics.transfer_sec /. total);
                   add "net.barrier_wait_frac" m.Metrics.barrier_wait_fraction;
                   add "net.straggler_ratio" m.Metrics.straggler_ratio
                 end);
             Option.map ignore (check app ~base [ inst; u ]))));
  (* one file: the benchmark's layer spans, the program's telemetry
     summary of the last traced run, and that run's span timeline as a
     Chrome trace *)
  (match (!last_summary, telemetry_out) with
  | Some sm, Some path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"workload\":%s,\"spans\":%s,\"telemetry\":%s,\"timeline\":%s}\n"
        (R.json_to_string (R.Str w.name))
        (R.json_to_string (R.List (List.rev_map span_json !spans)))
        (R.json_to_string (Telemetry.summary_json sm))
        (Telemetry.to_chrome_json sm);
      close_out oc
  | _ -> ());
  let layer name unit =
    let v =
      match Hashtbl.find_opt samples name with Some xs -> median xs | None -> 0.0
    in
    (name, v, unit)
  in
  [
    layer "store.load_s" "s";
    layer "store.records_per_s" "1/s";
    layer "analysis.plan_s" "s";
    layer "schedule.build_s" "s";
    layer "schedule.blocks" "count";
    layer "kernel.compile_s" "s";
    layer "kernel.ns_per_sample" "ns";
    layer "pool.steals" "count";
    layer "pool.straggler_ratio" "ratio";
    layer "pool.barrier_wait_frac" "share";
    layer "pool.idle_frac" "share";
    layer "net.startup_s" "s";
    layer "net.finish_s" "s";
    layer "net.bytes_per_sample" "B";
    layer "net.bytes_full_per_sample" "B";
    layer "net.compute_frac" "share";
    layer "net.wait_frac" "share";
    layer "net.transfer_frac" "share";
    layer "net.barrier_wait_frac" "share";
    layer "net.straggler_ratio" "ratio";
    layer "obs.overhead_frac" "share";
  ]

(* ------------------------------------------------------------------ *)

let metric_json (name, value, unit) =
  (name, R.Obj [ ("value", R.Float value); ("unit", R.Str unit) ])

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and dir = ref "" and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for the shards");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: unknown workload " ^ !workload ^ "; one of "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !dir = "" then (prerr_endline "perfbench: --dir is required"; exit 2);
  Registry.ensure ();
  let app = Option.get (App.find w.app) in
  (* seeded inputs, generated before any timing; the program (and every
     exec'd worker) reads them only through the data environment variable *)
  let data = Filename.concat !dir "data" in
  ignore (Gen.generate ~dir:data ~seed:!seed ~shards:2 w.spec);
  Unix.putenv w.data_env data;
  warm_up w;
  let metrics =
    if !trace = 0 then end_to_end app w ~seconds:!seconds
    else
      per_layer app w ~seconds:!seconds
        ~records:(Orion_store.Loader.dataset_count data)
        ~telemetry_out:(if !trace_out = "" then None else Some !trace_out)
  in
  print_endline
    (R.json_to_string
       (R.Obj
          [
            ("correct", R.Bool (!failed = 0));
            ("attempted", R.Int !attempted);
            ("failed", R.Int !failed);
            ("metrics", R.Obj (List.map metric_json metrics));
          ]));
  exit (if !failed = 0 then 0 else 1)
