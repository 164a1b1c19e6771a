(* The `orion` command-line tool.

   Subcommands:
     orion analyze FILE       statically analyze an OrionScript program
                              (prints the Fig. 6-style report per loop)
     orion explain FILE       full analysis provenance: per-pair dependence
                              derivation + strategy decision tree (or --app)
     orion run FILE           run a driver program on a simulated cluster
                              (--profile for a per-line hot-spot report)
     orion prefetch FILE      show the synthesized prefetch program for
                              the first parallel loop
     orion apps               list the built-in applications (Table 2)
     orion generate KIND OUT  write a synthetic dataset as a text file *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* DistArray declarations for scripts analyzed from the CLI: the JIT
   knows array sizes because arrays are materialized before the loop
   compiles; the CLI takes them as --array NAME:DIMS flags instead. *)
let parse_array_spec spec =
  match String.split_on_char ':' spec with
  | [ name; dims ] -> (
      ( name,
        String.split_on_char 'x' dims |> List.map int_of_string
        |> Array.of_list,
        false ))
  | [ name; dims; "buffered" ] ->
      ( name,
        String.split_on_char 'x' dims |> List.map int_of_string
        |> Array.of_list,
        true )
  | _ ->
      raise
        (Invalid_argument
           (spec ^ ": expected NAME:DIMSxDIMS or NAME:DIMS:buffered"))

let arrays_arg =
  let doc =
    "Declare a DistArray, e.g. --array ratings:480000x17000 or --array \
     w_buf:1000000:buffered.  Needed because the analyzer works on \
     materialized array shapes."
  in
  Arg.(value & opt_all string [] & info [ "array"; "a" ] ~docv:"SPEC" ~doc)

let machines_arg =
  Arg.(value & opt int 4 & info [ "machines"; "m" ] ~docv:"N" ~doc:"simulated machines")

let wpm_arg =
  Arg.(
    value & opt int 2
    & info [ "workers-per-machine"; "w" ] ~docv:"N" ~doc:"workers per machine")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"OrionScript source file")

(* --log LEVEL mirrors the ORION_LOG environment variable (the flag
   wins when both are given). *)
let log_arg =
  let doc =
    "Enable the structured event log at $(docv) (debug | info | warn); \
     equivalent to setting ORION_LOG."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"LEVEL" ~doc)

let setup_log = function
  | None -> ()
  | Some s -> (
      match Orion.Log.level_of_string s with
      | Some l -> Orion.Log.set_level (Some l)
      | None -> Printf.eprintf "orion: unknown log level %S (ignored)\n" s)

let make_session arrays ~machines ~wpm =
  let session =
    Orion.create_session ~num_machines:machines ~workers_per_machine:wpm ()
  in
  List.iter
    (fun spec ->
      let name, dims, buffered = parse_array_spec spec in
      Orion.register_meta session ~name ~dims ~buffered
        ~count:(Array.fold_left ( * ) 1 dims)
        ())
    arrays;
  session

(* A damaged shard (lib/store) ends any command that loads one with
   its position and exit status 1, never an uncaught exception. *)
let handle_corrupt cmd f =
  match f () with
  | n -> n
  | exception Orion_store.Shard.Corrupt { path; offset; reason } ->
      Printf.eprintf "orion %s: %s: corrupt at byte %d: %s\n" cmd path offset
        reason;
      1

(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run arrays machines wpm log file =
    setup_log log;
    let session = make_session arrays ~machines ~wpm in
    let src = read_file file in
    let diags = Orion.check_script session src in
    List.iter
      (fun d -> prerr_endline (Orion.Check.diagnostic_to_string d))
      diags;
    if Orion.Check.errors diags <> [] then 1
    else
      match Orion.analyze_script session src with
    | [] ->
        print_endline "no @parallel_for loops found";
        0
    | plans ->
        List.iteri
          (fun i plan ->
            Printf.printf "--- parallel loop %d ---\n" (i + 1);
            print_string (Orion.Plan.explain_to_string plan))
          plans;
        0
  in
  let term =
    Term.(const run $ arrays_arg $ machines_arg $ wpm_arg $ log_arg $ file_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically analyze an OrionScript program's parallel loops")
    term

(* Every subcommand resolves --app through the one registry in
   Orion.App (populated by Orion_apps.Registry); `--app list` prints
   it. *)
let () = Orion_apps.Registry.ensure ()

let print_registry () =
  List.iter
    (fun (a : Orion.App.t) ->
      Printf.printf "%-6s %s\n" a.Orion.App.app_name
        a.Orion.App.app_description)
    (Orion.App.all ())

let unknown_app_msg name =
  Printf.sprintf "unknown app %S (expected one of: %s, or `list`)" name
    (String.concat " " (Orion.App.names ()))

(* Registers the app's paper-scale (Table 2) array shapes with the
   session and returns its script, so the full analysis pipeline can be
   exercised without a dataset. *)
let builtin_app session name =
  match Orion.App.find name with
  | Some a ->
      a.Orion.App.app_register_meta session;
      Some a.Orion.App.app_script
  | None -> None

(* --scale falls back to ORION_BENCH_SCALE so scripted runs can grow
   every subcommand's dataset uniformly *)
let resolve_scale = function
  | Some s -> s
  | None -> (
      try Orion_apps.Bench.env_scale ()
      with Invalid_argument msg ->
        prerr_endline ("orion: " ^ msg);
        exit 1)

let explain_cmd =
  let run arrays machines wpm log app json measured domains passes file =
    setup_log log;
    if app = Some "list" then begin
      print_registry ();
      0
    end
    else if measured then begin
      (* --measured re-costs the decision tree from a real measured run,
         so it needs an app instance with data, not just array shapes *)
      match (app, file) with
      | None, _ | Some _, Some _ ->
          prerr_endline "orion explain: --measured needs --app NAME (no FILE)";
          1
      | Some name, None -> (
          match
            Orion_tune.Measured.run_app ~name ~domains ~passes
              ~scale:(resolve_scale None) ~num_machines:machines
              ~workers_per_machine:wpm
          with
          | Error e ->
              Printf.eprintf "orion explain: %s\n" e;
              1
          | Ok report ->
              if json then
                print_endline
                  (Orion.Report.emit ~kind:"explain-measured"
                     (Orion_tune.Measured.report_json report))
              else
                print_string
                  (Orion_tune.Measured.report_to_string report);
              0)
    end
    else
    let session = make_session arrays ~machines ~wpm in
    (* [checked] is false for built-in app scripts: they are driver
       fragments with free variables (e.g. num_iterations) that a real
       driver would define, so the whole-program checker does not
       apply. *)
    let src =
      match (app, file) with
      | Some _, Some _ ->
          prerr_endline "orion explain: give either FILE or --app, not both";
          None
      | Some name, None -> (
          match builtin_app session name with
          | Some src -> Some (src, false)
          | None ->
              Printf.eprintf "orion explain: %s\n" (unknown_app_msg name);
              None)
      | None, Some path -> Some (read_file path, true)
      | None, None ->
          prerr_endline "orion explain: need an OrionScript FILE or --app NAME";
          None
    in
    match src with
    | None -> 1
    | Some (src, checked) -> (
        let diags = if checked then Orion.check_script session src else [] in
        List.iter
          (fun d -> prerr_endline (Orion.Check.diagnostic_to_string d))
          diags;
        if Orion.Check.errors diags <> [] then 1
        else
          match Orion.analyze_script session src with
          | [] ->
              print_endline "no @parallel_for loops found";
              0
          | plans ->
              List.iteri
                (fun i plan ->
                  if json then print_endline (Orion.Explain.to_json plan)
                  else begin
                    Printf.printf "=== parallel loop %d ===\n" (i + 1);
                    print_string (Orion.Explain.report_to_string plan)
                  end)
                plans;
              0)
  in
  let app_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "app" ] ~docv:"NAME"
          ~doc:"explain a built-in application instead of a file: mf | slr | \
                lda | gbt")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"emit one machine-readable JSON object per loop instead of text")
  in
  let measured_arg =
    Arg.(
      value & flag
      & info [ "measured" ]
          ~doc:
            "run --app briefly on the domain pool with telemetry and render \
             the strategy decision tree with measured, calibrated costs \
             side-by-side with the static model, flagging decisions that \
             flip")
  in
  let domains_arg =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N"
          ~doc:"OCaml domains for the --measured calibration run")
  in
  let passes_arg =
    Arg.(
      value & opt int 2
      & info [ "passes" ] ~docv:"N"
          ~doc:"training passes for the --measured calibration run")
  in
  let file_pos =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"OrionScript source file")
  in
  let term =
    Term.(
      const run $ arrays_arg $ machines_arg $ wpm_arg $ log_arg $ app_arg
      $ json_arg $ measured_arg $ domains_arg $ passes_arg $ file_pos)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the full analysis provenance for each parallel loop: \
          per-reference-pair dependence derivation (Algorithm 2) and the \
          strategy decision tree (--measured re-costs it from a real run)")
    term

(* run a registered app's parallel loop through the unified engine:
   simulated, on the domain pool, or on real worker processes *)
let run_app name ~machines ~wpm ~domains ~procs ~tcp ~passes ~scale
    ~ckpt_dir ~ckpt_every ~resume =
  if name = "list" then begin
    print_registry ();
    0
  end
  else if resume && ckpt_dir = None then begin
    prerr_endline "orion run: --resume needs --checkpoint DIR";
    1
  end
  else
    match Orion.App.find name with
    | None ->
        Printf.eprintf "orion run: %s\n" (unknown_app_msg name);
        1
    | Some a -> (
        let scale = resolve_scale scale in
        let mode =
          match procs with
          | Some procs ->
              `Distributed
                {
                  Orion.Engine.procs;
                  transport = (if tcp then `Tcp else `Unix);
                }
          | None -> if domains <= 1 then `Sim else `Parallel domains
        in
        let inst =
          Orion_apps.Bench.make_instance a ~scale ~num_machines:machines
            ~workers_per_machine:wpm mode
        in
        (* resume picks up from the newest checkpoint: restore the
           arrays and RNG into the freshly built instance, then run only
           the passes the interrupted run never finished *)
        let done_passes =
          match (resume, ckpt_dir) with
          | true, Some dir -> (
              match Orion_store.Checkpoint.latest dir with
              | None ->
                  Printf.printf "no checkpoint in %s; starting from pass 0\n"
                    dir;
                  0
              | Some (path, s) ->
                  if s.Orion_store.Checkpoint.ck_app <> name then begin
                    Printf.eprintf
                      "orion run: checkpoint %s is for app %s, not %s\n" path
                      s.Orion_store.Checkpoint.ck_app name;
                    exit 1
                  end;
                  Orion_store.Checkpoint.restore s inst.Orion.App.inst_arrays;
                  Orion.Interp.Rng.set_state
                    inst.Orion.App.inst_env.Orion.Interp.rng
                    s.Orion_store.Checkpoint.ck_rng;
                  Printf.printf "resumed %s from %s (pass %d/%d)\n" name path
                    s.Orion_store.Checkpoint.ck_pass
                    s.Orion_store.Checkpoint.ck_total_passes;
                  s.Orion_store.Checkpoint.ck_pass)
          | _ -> 0
        in
        let remaining = max 0 (passes - done_passes) in
        let checkpoint =
          match ckpt_dir with
          | None -> None
          | Some dir ->
              let sink ~pass_done arrays =
                let s =
                  Orion_store.Checkpoint.snapshot ~app:name ~scale
                    ~pass:(done_passes + pass_done) ~total_passes:passes
                    ~rng:
                      (Orion.Interp.Rng.state
                         inst.Orion.App.inst_env.Orion.Interp.rng)
                    arrays
                in
                let path = Orion_store.Checkpoint.save ~dir s in
                Printf.printf "checkpoint: %s\n%!" path
              in
              Some (ckpt_every, sink)
        in
        if remaining = 0 then begin
          Printf.printf "app %s: all %d pass(es) already checkpointed\n" name
            passes;
          0
        end
        else
        match
          Orion.Engine.run inst.Orion.App.inst_session inst ~mode
            ~passes:remaining ~scale ?checkpoint ()
        with
        | exception (Orion.Engine.Distributed_error _ as exn) ->
            Printf.eprintf "orion run: %s\n"
              (Orion.Engine.distributed_error_to_string exn);
            1
        | r ->
            Printf.printf
              "app %s: %d pass(es), strategy %s, model %s, %dx%d blocks\n"
              name passes r.Orion.Engine.ep_strategy r.Orion.Engine.ep_model
              r.Orion.Engine.ep_space_parts r.Orion.Engine.ep_time_parts;
            Printf.printf "mode %s: %d entries, %d steals, wall %.4f s\n"
              (Orion.Engine.mode_to_string r.Orion.Engine.ep_mode)
              r.Orion.Engine.ep_entries r.Orion.Engine.ep_steals
              r.Orion.Engine.ep_wall_seconds;
            if r.Orion.Engine.ep_bytes_shipped > 0.0 then begin
              let full = r.Orion.Engine.ep_bytes_full in
              let saved =
                if full > 0.0 then
                  100.0 *. (1.0 -. (r.Orion.Engine.ep_bytes_shipped /. full))
                else 0.0
              in
              Printf.printf
                "bytes shipped: %.0f  (raw 16 B/entry %.0f, saved %.1f%%)\n"
                r.Orion.Engine.ep_bytes_shipped full saved;
              List.iter
                (fun (arr, b) ->
                  let key_mode =
                    match
                      List.assoc_opt arr r.Orion.Engine.ep_policy_by_array
                    with
                    | Some p -> Printf.sprintf "  [%s]" p
                    | None -> ""
                  in
                  Printf.printf "  %-16s %.0f%s\n" arr b key_mode)
                r.Orion.Engine.ep_bytes_by_array
            end;
            if r.Orion.Engine.ep_sim_time > 0.0 then
              Printf.printf "simulated time: %.4f s\n"
                r.Orion.Engine.ep_sim_time;
            (match r.Orion.Engine.ep_telemetry with
            | None -> ()
            | Some sm ->
                let m = sm.Orion.Telemetry.sm_overall in
                Printf.printf
                  "telemetry: straggler %.2f, barrier wait %.1f%%, %d \
                   span(s), %d dropped\n"
                  m.Orion.Metrics.straggler_ratio
                  (100.0 *. m.Orion.Metrics.barrier_wait_fraction)
                  (Orion.Trace.length sm.Orion.Telemetry.sm_trace)
                  sm.Orion.Telemetry.sm_dropped);
            0)

let run_cmd =
  let run arrays machines wpm log seed profile app domains procs tcp passes
      scale ckpt_dir ckpt_every resume file =
    handle_corrupt "run" @@ fun () ->
    setup_log log;
    match (app, file) with
    | Some _, Some _ ->
        prerr_endline "orion run: give either FILE or --app, not both";
        1
    | Some name, None ->
        run_app name ~machines ~wpm ~domains ~procs ~tcp ~passes ~scale
          ~ckpt_dir ~ckpt_every ~resume
    | None, None ->
        prerr_endline "orion run: need an OrionScript FILE or --app NAME";
        1
    | None, Some file ->
        let session = make_session arrays ~machines ~wpm in
        (* arrays declared on the command line become real zero-filled
           DistArrays so the program can execute *)
        List.iter
          (fun spec ->
            let name, dims, buffered = parse_array_spec spec in
            let arr = Orion.Dist_array.fill_dense ~name ~dims 0.0 in
            Orion.register session ~buffered arr)
          arrays;
        let src = read_file file in
        let prof = if profile then Some (Orion.Profile.create ()) else None in
        let env, stats = Orion.run_script session ~seed ?profile:prof src in
        ignore env;
        Printf.printf "ran %d parallel-loop executions\n" (List.length stats);
        Printf.printf "simulated time: %.4f s\n"
          (Orion.Cluster.now session.Orion.cluster);
        Printf.printf "bytes communicated: %.0f\n"
          session.Orion.cluster.Orion.Cluster.bytes_sent;
        (match prof with
        | Some p ->
            print_newline ();
            print_string (Orion.Profile.report ~src p)
        | None -> ());
        0
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "profile the interpreted driver: per-line hit counts and \
             inclusive wall time, plus per-DistArray element access counts")
  in
  let app_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "app" ] ~docv:"NAME"
          ~doc:
            "run a registered app's parallel loop instead of a file (`list` \
             prints the registry)")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains"; "parallel" ] ~docv:"N"
          ~doc:
            "execute --app on a real pool of $(docv) OCaml domains (1 = \
             simulated cluster)")
  in
  let procs =
    Arg.(
      value
      & opt (some int) None
      & info [ "procs" ] ~docv:"N"
          ~doc:
            "execute --app on $(docv) real worker processes over sockets \
             (lib/net); overrides --domains")
  in
  let tcp =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:
            "use TCP loopback instead of Unix domain sockets for --procs")
  in
  let passes =
    Arg.(
      value & opt int 1
      & info [ "passes" ] ~docv:"N" ~doc:"training passes for --app")
  in
  let scale =
    Arg.(
      value
      & opt (some float) None
      & info [ "scale" ] ~docv:"S"
          ~doc:
            "dataset scale factor for --app (default: ORION_BENCH_SCALE, or \
             1.0)")
  in
  let ckpt_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "checkpoint the model arrays, pass counter and RNG state into \
             $(docv) at pass boundaries (--app only)")
  in
  let ckpt_every =
    let at_least_one =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ ->
            Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value & opt at_least_one 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"checkpoint every $(docv) passes ($(docv) >= 1)")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "restore the newest checkpoint in --checkpoint DIR and run only \
             the remaining passes")
  in
  let file_pos =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"OrionScript source file")
  in
  let term =
    Term.(
      const run $ arrays_arg $ machines_arg $ wpm_arg $ log_arg $ seed $ profile
      $ app_arg $ domains $ procs $ tcp $ passes $ scale $ ckpt_dir
      $ ckpt_every $ resume $ file_pos)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an OrionScript driver program on a simulated cluster, or a \
          registered app on a real domain pool (--app NAME --domains N) or \
          on real worker processes over sockets (--app NAME --procs N)")
    term

let prefetch_cmd =
  let run arrays machines wpm file =
    let session = make_session arrays ~machines ~wpm in
    let src = read_file file in
    let program = Orion.Parser.parse_program src in
    match Orion.Refs.find_parallel_loops program with
    | { Orion.Ast.sk = Orion.Ast.For { kind = Each_loop _; body; _ }; _ } :: _ ->
        let plan =
          match Orion.analyze_script session src with
          | p :: _ -> p
          | [] -> failwith "unreachable"
        in
        let dist_vars = List.map fst plan.Orion.Plan.placements in
        let targets =
          match plan.Orion.Plan.prefetch_arrays with
          | [] -> dist_vars
          | l -> l
        in
        let generated, stats =
          Orion.Prefetch.synthesize ~dist_vars ~targets body
        in
        Printf.printf
          "# synthesized prefetch program (%d recordable, %d skipped)\n"
          stats.Orion.Prefetch.recorded stats.Orion.Prefetch.skipped;
        print_string (Orion.Pretty.program_to_string generated);
        0
    | _ ->
        prerr_endline "no @parallel_for loop found";
        1
  in
  let term = Term.(const run $ arrays_arg $ machines_arg $ wpm_arg $ file_arg) in
  Cmd.v
    (Cmd.info "prefetch"
       ~doc:"Show the synthesized bulk-prefetch program for the first loop")
    term

let apps_cmd =
  let run () =
    print_registry ();
    print_newline ();
    print_endline "Scripts (as fed to the analyzer):";
    List.iter
      (fun (a : Orion.App.t) ->
        Printf.printf "\n### %s\n%s" a.Orion.App.app_name
          a.Orion.App.app_script)
      (Orion.App.all ());
    0
  in
  Cmd.v
    (Cmd.info "apps" ~doc:"List registered applications and their scripts")
    Term.(const run $ const ())

let bench_cmd =
  let run machines wpm log mode apps domains procs tcp passes scale out =
    handle_corrupt "bench" @@ fun () ->
    setup_log log;
    let scale = resolve_scale scale in
    let apps = match apps with [] -> None | l -> Some l in
    let transport = if tcp then `Tcp else `Unix in
    let out = Option.value out ~default:(Orion_apps.Bench.default_out mode) in
    match
      Orion_apps.Bench.run ~mode ~scale ~out ?apps ~domains_list:domains
        ~procs_list:procs ~passes ~transport ~num_machines:machines
        ~workers_per_machine:wpm ()
    with
    | exception (Orion.Engine.Distributed_error _ as exn) ->
        Printf.eprintf "orion bench: %s\n"
          (Orion.Engine.distributed_error_to_string exn);
        1
    | exception Invalid_argument msg ->
        Printf.eprintf "orion bench: %s\n" msg;
        1
    | rows -> Orion_apps.Bench.exit_code rows
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("speedup", `Speedup);
               ("speedup-distributed", `Speedup_distributed);
               ("convergence", `Convergence);
             ])
          `Speedup
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "benchmark mode: speedup (domain-pool wall-clock scaling), \
             speedup-distributed (multi-process socket runtime scaling), \
             or convergence (per-pass training loss versus monotonic wall \
             time)")
  in
  let apps =
    Arg.(
      value
      & opt (list string) []
      & info [ "apps" ] ~docv:"NAMES"
          ~doc:"comma-separated registered apps (default: all)")
  in
  let domains =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "domains" ] ~docv:"NS"
          ~doc:"comma-separated domain counts to measure")
  in
  let procs =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "procs" ] ~docv:"NS"
          ~doc:
            "comma-separated worker-process counts to measure \
             (speedup-distributed)")
  in
  let tcp =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:
            "use TCP loopback instead of Unix domain sockets \
             (speedup-distributed)")
  in
  let passes =
    Arg.(
      value & opt int 3
      & info [ "passes" ] ~docv:"N" ~doc:"training passes per measurement")
  in
  let scale =
    Arg.(
      value
      & opt (some float) None
      & info [ "scale" ] ~docv:"S"
          ~doc:
            "dataset scale factor — enlarge each app's synthetic input by \
             this factor so per-entry work dominates pool overhead (default: \
             ORION_BENCH_SCALE, or 1.0)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "JSON output path (default by --mode: BENCH_parallel.json, \
             BENCH_distributed.json or BENCH_convergence.json)")
  in
  let term =
    Term.(
      const run $ machines_arg $ wpm_arg $ log_arg $ mode $ apps $ domains
      $ procs $ tcp $ passes $ scale $ out)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Benchmark the registered apps on the real multicore domain pool \
          (BENCH_parallel.json) or the multi-process socket runtime \
          (BENCH_distributed.json); every row is checked against a \
          simulated run of the same shape, and the exit status is 1 when \
          any row fails that check")
    term

let generate_cmd =
  let run kind out scale =
    (match kind with
    | "ratings" ->
        let d = Orion_data.Ratings.netflix_like ~scale () in
        let oc = open_out out in
        Orion.Dist_array.iter
          (fun key v -> Printf.fprintf oc "%d %d %.3f\n" key.(0) key.(1) v)
          d.ratings;
        close_out oc;
        Printf.printf "wrote %d ratings (%dx%d) to %s\n" d.num_ratings
          d.num_users d.num_items out
    | "corpus" ->
        let c = Orion_data.Corpus.nytimes_like ~scale () in
        let oc = open_out out in
        Orion.Dist_array.iter
          (fun key v -> Printf.fprintf oc "%d %d %.0f\n" key.(0) key.(1) v)
          c.tokens;
        close_out oc;
        Printf.printf "wrote %d tokens (%d docs, vocab %d) to %s\n"
          c.num_tokens c.num_docs c.vocab_size out
    | other -> Printf.eprintf "unknown dataset kind %S (ratings|corpus)\n" other);
    0
  in
  let kind =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc:"ratings | corpus")
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"output path")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"dataset scale factor")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Write a synthetic dataset to a text file")
    Term.(const run $ kind $ out $ scale)

(* orion data gen|info — the out-of-core path (lib/store): streaming
   binary shards instead of `generate`'s in-memory text dumps *)
let data_cmd =
  let handle_corrupt = handle_corrupt "data" in
  let gen_cmd =
    let run kind out scale shards seed =
      let scale = resolve_scale scale in
      let spec =
        match kind with
        | `Ratings -> Orion_store.Gen.movielens_spec ~scale ()
        | `Features -> Orion_store.Gen.kdd_spec ~scale ()
        | `Corpus -> Orion_store.Gen.nytimes_spec ~scale ()
      in
      handle_corrupt (fun () ->
          let headers = Orion_store.Gen.generate ~dir:out ~seed ~shards spec in
          let total =
            List.fold_left
              (fun acc h -> acc + h.Orion_store.Shard.h_count)
              0 headers
          in
          Printf.printf "wrote %d %s records (%s) in %d shard(s) to %s\n"
            total
            (Orion_store.Gen.spec_kind spec)
            (Orion_store.Gen.schema_of_spec spec)
            shards out;
          0)
    in
    let kind =
      Arg.(
        required
        & pos 0
            (some
               (enum
                  [
                    ("ratings", `Ratings);
                    ("features", `Features);
                    ("corpus", `Corpus);
                  ]))
            None
        & info [] ~docv:"KIND"
            ~doc:
              "ratings (MovieLens-shaped Zipf matrix), features (KDD-shaped \
               sparse samples), or corpus (NYTimes-shaped bags of words)")
    in
    let out =
      Arg.(
        required
        & opt (some string) None
        & info [ "out"; "o" ] ~docv:"DIR" ~doc:"dataset directory to write")
    in
    let scale =
      Arg.(
        value
        & opt (some float) None
        & info [ "scale" ] ~docv:"S"
            ~doc:
              "dataset scale factor (1.0 is full paper scale, e.g. ~10M \
               ratings; default: ORION_BENCH_SCALE, or 1.0)")
    in
    let shards =
      Arg.(
        value & opt int 8
        & info [ "shards" ] ~docv:"N" ~doc:"number of shard files")
    in
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"dataset seed")
    in
    Cmd.v
      (Cmd.info "gen"
         ~doc:
           "Stream a synthetic Zipf-skewed dataset into binary shards \
            (bounded memory: records never materialize in the heap)")
      Term.(const run $ kind $ out $ scale $ shards $ seed)
  in
  let info_cmd =
    let run dir verify =
      handle_corrupt (fun () ->
          let headers = Orion_store.Shard.dataset_headers dir in
          let h0 = List.hd headers in
          Printf.printf "dataset %s\n" dir;
          Printf.printf "  schema      %s (container v%d)\n"
            h0.Orion_store.Shard.h_schema Orion_store.Shard.version;
          Printf.printf "  seed        %d\n" h0.Orion_store.Shard.h_seed;
          Printf.printf "  shards      %d\n" h0.Orion_store.Shard.h_num_shards;
          List.iter
            (fun (k, v) -> Printf.printf "  %-11s %s\n" k v)
            h0.Orion_store.Shard.h_meta;
          let total = ref 0 in
          List.iter
            (fun h ->
              let path =
                Orion_store.Shard.shard_path ~dir h.Orion_store.Shard.h_shard
              in
              let size =
                let ic = open_in_bin path in
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> in_channel_length ic)
              in
              total := !total + h.Orion_store.Shard.h_count;
              (* --verify streams every record back through the CRC *)
              if verify then
                Orion_store.Shard.iter path ~f:(fun _ _ ~pos:_ ~len:_ -> ());
              Printf.printf "  shard %04d  %8d records  %10d bytes%s\n"
                h.Orion_store.Shard.h_shard h.Orion_store.Shard.h_count size
                (if verify then "  crc ok" else ""))
            headers;
          Printf.printf "  total       %d records\n" !total;
          0)
    in
    let dir =
      Arg.(
        required
        & pos 0 (some dir) None
        & info [] ~docv:"DIR" ~doc:"dataset directory")
    in
    let verify =
      Arg.(
        value & flag
        & info [ "verify" ]
            ~doc:"stream every record back and verify counts and CRCs")
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:"Describe a sharded dataset: schema, seed, shards, metadata")
      Term.(const run $ dir $ verify)
  in
  Cmd.group
    (Cmd.info "data"
       ~doc:
         "Out-of-core datasets: generate and inspect versioned binary \
          shards (CRC-checked, streaming)")
    [ gen_cmd; info_cmd ]

let trace_cmd =
  (* --mode parallel | distributed: run a registered app on a real
     runtime with telemetry forced on and export the merged wall-clock
     timeline (Chrome trace-event JSON with metrics and per-block
     costs as metadata) plus optional per-pass metrics CSV. *)
  let run_real ~kind ~app ~machines ~wpm ~domains ~procs ~tcp ~passes ~scale
      ~out ~csv =
    match Orion.App.find app with
    | None ->
        Printf.eprintf "orion trace: %s\n" (unknown_app_msg app);
        1
    | Some a -> (
        let mode, label =
          match kind with
          | `Parallel ->
              ( `Parallel domains,
                Printf.sprintf "parallel (%d domains)" domains )
          | `Distributed ->
              ( `Distributed
                  {
                    Orion.Engine.procs;
                    transport = (if tcp then `Tcp else `Unix);
                  },
                Printf.sprintf "distributed (%d procs)" procs )
        in
        let inst =
          Orion_apps.Bench.make_instance a ~scale ~num_machines:machines
            ~workers_per_machine:wpm mode
        in
        match
          Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes
            ~scale ~telemetry:true ()
        with
        | exception (Orion.Engine.Distributed_error _ as exn) ->
            Printf.eprintf "orion trace: %s\n"
              (Orion.Engine.distributed_error_to_string exn);
            1
        | r -> (
            match r.Orion.Engine.ep_telemetry with
            | None ->
                prerr_endline "orion trace: run produced no telemetry";
                1
            | Some sm ->
                let oc = open_out out in
                output_string oc (Orion.Telemetry.to_chrome_json sm);
                close_out oc;
                Printf.printf "app %s, %s: %d pass(es), wall %.4f s\n" app
                  label passes r.Orion.Engine.ep_wall_seconds;
                Printf.printf
                  "%d spans (%d dropped), open in chrome://tracing\n"
                  (Orion.Trace.length sm.Orion.Telemetry.sm_trace)
                  sm.Orion.Telemetry.sm_dropped;
                (* same "wrote PATH" line every bench mode prints *)
                Printf.printf "wrote %s\n" out;
                if sm.Orion.Telemetry.sm_dropped > 0 then
                  Printf.eprintf
                    "orion trace: warning: trace buffer overflow — %d \
                     span(s) dropped\n"
                    sm.Orion.Telemetry.sm_dropped;
                (match csv with
                | None -> ()
                | Some path ->
                    let oc = open_out path in
                    Printf.fprintf oc "# schema_version %d\n"
                      Orion.Report.schema_version;
                    Printf.fprintf oc "# dropped %d\n"
                      sm.Orion.Telemetry.sm_dropped;
                    output_string oc
                      ("pass," ^ Orion.Metrics.csv_header ^ "\n");
                    List.iter
                      (fun (pass, m) ->
                        Printf.fprintf oc "%d,%s\n" pass
                          (Orion.Metrics.csv_row m))
                      sm.Orion.Telemetry.sm_pass_metrics;
                    close_out oc;
                    Printf.printf "wrote per-pass metrics to %s\n" path);
                0))
  in
  let run_sim ~machines ~wpm ~strategy ~passes ~scale ~cost_per_entry ~out
      ~csv =
    let d = Orion_data.Ratings.netflix_like ~scale () in
    let cluster =
      Orion.Cluster.create ~num_machines:machines ~workers_per_machine:wpm
        ~cost:Orion.Cost_model.default ()
    in
    let workers = Orion.Cluster.num_workers cluster in
    let rank = 16 in
    let model =
      Orion_apps.Sgd_mf.init_model ~rank
        ~num_users:d.Orion_data.Ratings.num_users
        ~num_items:d.Orion_data.Ratings.num_items ()
    in
    let body ~worker ~key ~value =
      Orion_apps.Sgd_mf.body model ~step_size:0.005 ~worker ~key ~value
    in
    let ratings = d.Orion_data.Ratings.ratings in
    let compute = Orion.Executor.Per_entry cost_per_entry in
    (* H is the rotated DistArray for 2D MF schedules: rank x items
       floats, split across space partitions *)
    let h_bytes_per_partition =
      float_of_int (rank * d.Orion_data.Ratings.num_items)
      *. 8.0 /. float_of_int workers
    in
    let depth = 2 in
    let run_pass =
      let scheduled sched model bytes_per_partition () =
        Orion.Executor.run cluster ~compute ~model ~label:"H"
          ~bytes_per_partition sched body
      in
      let partition_2d time_parts =
        Orion.Schedule.partition_2d ratings ~space_dim:0 ~time_dim:1
          ~space_parts:workers ~time_parts
      in
      match strategy with
      | `Serial -> fun () -> Orion.Executor.run_serial cluster ~compute ratings body
      | `One_d ->
          scheduled
            (Orion.Schedule.partition_1d ratings ~space_dim:0
               ~space_parts:workers)
            Orion.Domain_exec.M_1d 0.0
      | `Ordered_2d ->
          scheduled (partition_2d workers) Orion.Domain_exec.M_2d_ordered
            h_bytes_per_partition
      | `Unordered_2d ->
          scheduled
            (partition_2d (workers * depth))
            (Orion.Domain_exec.M_2d_unordered { depth })
            (h_bytes_per_partition /. float_of_int depth)
      | `Time_major ->
          (* unimodular skew: every dependence is carried by the
             transformed time dimension, so steps run in sequence *)
          scheduled
            (Orion.Schedule.partition_unimodular ratings
               ~matrix:[| [| 1; 1 |]; [| 0; 1 |] |]
               ~space_parts:workers ~time_parts:0)
            Orion.Domain_exec.M_time_major
            (h_bytes_per_partition /. 16.0)
    in
    Printf.printf
      "SGD MF (%d ratings, %dx%d, rank %d) on %d machines x %d workers\n"
      d.Orion_data.Ratings.num_ratings d.Orion_data.Ratings.num_users
      d.Orion_data.Ratings.num_items rank machines wpm;
    let metrics_rows = ref [] in
    for pass = 1 to passes do
      let since = Orion.Cluster.now cluster in
      ignore (run_pass ());
      let m = Orion.Cluster.metrics ~since cluster in
      metrics_rows := m :: !metrics_rows;
      Printf.printf "pass %2d | loss %12.2f | %s\n" pass
        (Orion_apps.Sgd_mf.loss model ratings)
        (Orion.Metrics.summary m)
    done;
    let trace = cluster.Orion.Cluster.trace in
    let oc = open_out out in
    output_string oc
      (Orion.Trace.to_chrome_json
         ~pid_of_worker:(Orion.Cluster.machine_of cluster)
         trace);
    close_out oc;
    Printf.printf "%d spans (%d dropped), open in chrome://tracing\n"
      (Orion.Trace.length trace)
      (Orion.Trace.dropped trace);
    (* same "wrote PATH" line every bench mode prints *)
    Printf.printf "wrote %s\n" out;
    if Orion.Trace.dropped trace > 0 then
      Printf.eprintf
        "orion trace: warning: trace buffer overflow — %d span(s) dropped\n"
        (Orion.Trace.dropped trace);
    (match csv with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Printf.sprintf "# schema_version %d\n" Orion.Report.schema_version);
        output_string oc
          (Printf.sprintf "# dropped %d\n" (Orion.Trace.dropped trace));
        output_string oc (Orion.Metrics.csv_header ^ "\n");
        List.iter
          (fun m -> output_string oc (Orion.Metrics.csv_row m ^ "\n"))
          (List.rev !metrics_rows);
        close_out oc;
        Printf.printf "wrote per-pass metrics to %s\n" path);
    0
  in
  let run machines wpm mode app domains procs tcp strategy passes scale
      cost_per_entry out csv =
    handle_corrupt "trace" @@ fun () ->
    match mode with
    | `Sim -> run_sim ~machines ~wpm ~strategy ~passes ~scale ~cost_per_entry
                ~out ~csv
    | (`Parallel | `Distributed) as kind ->
        run_real ~kind ~app ~machines ~wpm ~domains ~procs ~tcp ~passes
          ~scale ~out ~csv
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("sim", `Sim);
               ("parallel", `Parallel);
               ("distributed", `Distributed);
             ])
          `Sim
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "what to trace: sim (virtual-time SGD MF on the simulated \
             cluster), parallel (wall-clock --app run on the domain pool), \
             or distributed (wall-clock --app run on real worker processes)")
  in
  let trace_app =
    Arg.(
      value & opt string "mf"
      & info [ "app" ] ~docv:"NAME"
          ~doc:
            "registered app to trace under --mode parallel|distributed \
             (`list` prints the registry)")
  in
  let domains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N"
          ~doc:"OCaml domains for --mode parallel")
  in
  let procs =
    Arg.(
      value & opt int 2
      & info [ "procs" ] ~docv:"N"
          ~doc:"worker processes for --mode distributed")
  in
  let tcp =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:
            "use TCP loopback instead of Unix domain sockets (--mode \
             distributed)")
  in
  let strategy =
    let choices =
      [
        ("serial", `Serial);
        ("1d", `One_d);
        ("2d-ordered", `Ordered_2d);
        ("2d-unordered", `Unordered_2d);
        ("time-major", `Time_major);
      ]
    in
    Arg.(
      value
      & opt (enum choices) `Unordered_2d
      & info [ "strategy"; "s" ] ~docv:"STRATEGY"
          ~doc:
            "execution strategy for --mode sim: serial | 1d | 2d-ordered | \
             2d-unordered | time-major")
  in
  let passes =
    Arg.(value & opt int 3 & info [ "passes"; "p" ] ~docv:"N" ~doc:"training passes")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"dataset scale factor")
  in
  let cost_per_entry =
    Arg.(
      value & opt float 6.4e-7
      & info [ "cost-per-entry" ] ~docv:"SEC"
          ~doc:"modeled compute seconds per SGD sample")
  in
  let out =
    Arg.(
      value & opt string "orion-trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Chrome trace-event JSON output")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"also write per-pass metrics as CSV")
  in
  let term =
    Term.(
      const run $ machines_arg $ wpm_arg $ mode $ trace_app $ domains $ procs
      $ tcp $ strategy $ passes $ scale $ cost_per_entry $ out $ csv)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Export a worker timeline (Chrome trace-event JSON) plus per-pass \
          metrics — from simulated SGD MF (--mode sim), a real domain-pool \
          run (--mode parallel), or a real multi-process run (--mode \
          distributed)")
    term

let verify_cmd =
  let run machines wpm log app json schedule pipeline_depth scale =
    setup_log log;
    if app = "list" then begin
      print_registry ();
      0
    end
    else
    let override =
      match schedule with
      | `Auto -> None
      | `One_d -> Some Orion_verify.Verify.Force_1d
      | `Ordered_2d -> Some Orion_verify.Verify.Force_2d_ordered
      | `Unordered_2d -> Some Orion_verify.Verify.Force_2d_unordered
    in
    match
      Orion_verify.Verify.verify_app ~num_machines:machines
        ~workers_per_machine:wpm ?pipeline_depth
        ~scale:(resolve_scale scale) ?schedule_override:override app
    with
    | Error e ->
        prerr_endline ("orion verify: " ^ e);
        2
    | Ok report ->
        print_string
          (if json then Orion_verify.Verify.report_to_json report ^ "\n"
           else Orion_verify.Verify.report_to_string report);
        if report.Orion_verify.Verify.r_passed then 0 else 1
  in
  let app_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "app" ] ~docv:"APP"
          ~doc:"built-in app to verify: mf | slr | lda | gbt")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"emit the report as JSON") in
  let schedule =
    let choices =
      [
        ("auto", `Auto);
        ("1d", `One_d);
        ("2d-ordered", `Ordered_2d);
        ("2d-unordered", `Unordered_2d);
      ]
    in
    Arg.(
      value & opt (enum choices) `Auto
      & info [ "schedule" ] ~docv:"SCHEDULE"
          ~doc:
            "schedule to race-check: auto (the planner's) | 1d | 2d-ordered \
             | 2d-unordered")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "pipeline-depth" ] ~docv:"N"
          ~doc:"pipeline depth for unordered 2-D schedules")
  in
  let scale =
    Arg.(
      value
      & opt (some float) None
      & info [ "scale" ] ~docv:"S"
          ~doc:
            "dataset scale factor (default: ORION_BENCH_SCALE, or 1.0)")
  in
  let machines =
    Arg.(
      value & opt int 2
      & info [ "machines"; "m" ] ~docv:"N" ~doc:"simulated machines")
  in
  let wpm =
    Arg.(
      value & opt int 2
      & info [ "workers-per-machine"; "w" ] ~docv:"N" ~doc:"workers per machine")
  in
  let term =
    Term.(
      const run $ machines $ wpm $ log_arg $ app_arg $ json $ schedule $ depth
      $ scale)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Dynamically validate the dependence analysis and race-check the \
          schedule for a built-in app (serial observation, soundness check, \
          adversarial differential execution)")
    term

let () =
  let doc =
    "Orion: automating dependence-aware parallelization of ML training"
  in
  let info = Cmd.info "orion" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd;
            explain_cmd;
            run_cmd;
            prefetch_cmd;
            apps_cmd;
            bench_cmd;
            generate_cmd;
            data_cmd;
            trace_cmd;
            verify_cmd;
          ]))
