(** The distributed master driver behind
    [Orion.Engine.run ~mode:(`Distributed _)].

    The master spawns [procs] worker processes first (fork for in-tree
    tests, exec of [orion_worker] for the CLI), analyzes the loop, and
    answers each Hello with the Plan, which carries that analysis; the
    workers build their instances from shapes while it compiles the
    schedule exactly as the simulated and domain-pool paths do.  It
    then sends each rank its Schedule_row, the entries of its blocks —
    or Shutdown, to the ranks beyond the space cut — and runs the rest
    of the startup protocol in a deterministic order (per-worker:
    Listening → Prefetch_request → Partition_ship → Prefetch_response;
    then one Peers broadcast).  It supervises execution with a
    select-based readiness loop plus non-blocking [waitpid] and a hard
    deadline — a worker crash, broken socket, or hang surfaces as a
    structured {!Orion.Engine.Distributed_error}, never as a hang.

    Its own instance stays untouched while the workers run; the final
    state is assembled purely from the wire: every worker's owned
    regions of owner-exclusive arrays (local partitions and last-held
    rotated slices, disjoint across ranks) set as they are, every
    worker's own-block write journal of the remaining arrays applied in
    (pass, natural-order) order — a valid serialization of the
    happens-before order, so non-buffered arrays reproduce the serial
    result bitwise — then buffered-array shadows
    merged in ascending rank order ([+=] of nonzero entries, exactly
    the domain pool's shadow merge), cross-checked against each
    worker's reported accumulator totals. *)

module Dist_array = Orion_dsm.Dist_array
module Partitioner = Orion_dsm.Partitioner
module Plan = Orion_analysis.Plan
module Schedule = Orion_runtime.Schedule
module Domain_exec = Orion_runtime.Domain_exec
module Trace = Orion_obs.Trace
module Cluster = Orion_sim.Cluster
module Telemetry = Orion_obs.Telemetry

type spawn = [ `Fork | `Exec of string ]

let spawn_env = "ORION_DIST_SPAWN"  (* "fork" or "exec:<path>" *)
let worker_exe_env = "ORION_WORKER_EXE"

(** Pick how to start workers: [ORION_DIST_SPAWN] override, then
    [ORION_WORKER_EXE], then the [orion_worker] executable next to the
    running binary, else fork this very process (always available — the
    in-tree tests and any host linking [orion_net] rely on it). *)
let default_spawn () : spawn =
  match Sys.getenv_opt spawn_env with
  | Some "fork" -> `Fork
  | Some s
    when String.length s > 5 && String.sub s 0 5 = "exec:"
         && Sys.file_exists (String.sub s 5 (String.length s - 5)) ->
      `Exec (String.sub s 5 (String.length s - 5))
  | _ -> (
      match Sys.getenv_opt worker_exe_env with
      | Some path when Sys.file_exists path -> `Exec path
      | _ ->
          let sibling =
            Filename.concat
              (Filename.dirname Sys.executable_name)
              "orion_worker.exe"
          in
          if Sys.file_exists sibling then `Exec sibling else `Fork)

let err ?rank fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (Orion.Engine.Distributed_error { de_rank = rank; de_reason = s }))
    fmt

let status_reason = function
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %d" s

(* ------------------------------------------------------------------ *)
(* Worker process management                                           *)
(* ------------------------------------------------------------------ *)

let spawn_worker (spawn : spawn) ~(materialize : Dist_worker.materialize)
    ~(listener : Transport.listener) ~rank ~master_addr : int =
  match spawn with
  | `Exec path ->
      Unix.create_process path
        [| path; "--rank"; string_of_int rank; "--master"; master_addr |]
        Unix.stdin Unix.stdout Unix.stderr
  | `Fork -> (
      match Unix.fork () with
      | 0 ->
          (* the child must not touch the master's listener or buffers;
             _exit skips at_exit / flushing inherited channels *)
          (try Unix.close listener.Transport.lfd with Unix.Unix_error _ -> ());
          let code =
            try
              Dist_worker.connect_and_serve ~materialize ~rank ~master_addr;
              0
            with _ -> 2
          in
          Unix._exit code
      | pid -> pid)

(** Terminate every still-running worker: SIGTERM, a short grace
    period, then SIGKILL; reap all of them. *)
let kill_workers (pids : (int * int) list) =
  let alive (_, pid) =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let rec reap deadline remaining =
    match List.filter alive remaining with
    | [] -> []
    | remaining when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        reap deadline remaining
    | remaining -> remaining
  in
  let term = List.filter alive pids in
  List.iter
    (fun (_, pid) -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    term;
  let stubborn = reap (Unix.gettimeofday () +. 2.0) term in
  List.iter
    (fun (_, pid) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    stubborn

(* ------------------------------------------------------------------ *)
(* The master protocol                                                 *)
(* ------------------------------------------------------------------ *)

type worker_state = {
  mutable st_conn : Transport.conn option;
  mutable st_addr : string option;  (** from Listening *)
  mutable st_prefetch : string list option;  (** from Prefetch_request *)
  mutable st_report : (Wire.part_payload list * Wire.block_writes list) option;
      (** owned regions and own journal, from Block_report *)
  mutable st_flush : Wire.part list option;
  mutable st_totals : (string * float) list option;
  mutable st_done : Wire.worker_stats option;
}

let run ~(materialize : Dist_worker.materialize) ?spawn
    (session : Orion.session) (inst : Orion.App.instance) ~procs
    ~(transport : Orion.Engine.transport) ~passes ~pipeline_depth ~scale
    ~telemetry ?(checkpoint : (int * Orion.Engine.checkpoint_sink) option)
    () : Orion.Engine.report =
  if procs < 1 then err "procs must be >= 1, got %d" procs;
  let timeout = Dist_worker.timeout_seconds ~default:120.0 in
  (* a worker dying mid-run must surface as EPIPE on our next send to
     it (handled by the supervision loop), not kill the master *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let cluster_workers = Cluster.num_workers session.Orion.cluster in
  if cluster_workers <> procs then
    err
      "distributed instances must be built with num_machines = procs and \
       workers_per_machine = 1 (procs = %d, session has %d workers)"
      procs cluster_workers;
  let t0 = Unix.gettimeofday () in
  let w0 = Orion_obs.Clock.now () in
  let deadline = t0 +. timeout in
  (* One telemetry shard per spawned worker, created before anything
     else so the run's telemetry clock covers spawn, planning and the
     schedule compile.  Workers record spans on their own monotonic
     clocks and ship them per pass with their absolute epoch; the
     shared per-machine monotonic origin makes
     [offset = worker_epoch - master_epoch] exact, so the merged
     timeline is one consistent multi-process view. *)
  let mtel = Telemetry.create ~enabled:telemetry ~workers:procs () in
  let like : Transport.addr =
    match transport with
    | `Unix -> `Unix ""
    | `Tcp -> `Tcp ("127.0.0.1", 0)
  in
  let listener = Transport.listen (Transport.fresh_addr ~like) in
  let master_addr = Transport.addr_to_string listener.Transport.laddr in
  let spawn = match spawn with Some s -> s | None -> default_spawn () in
  let trace = session.Orion.cluster.Cluster.trace in
  let states =
    Array.init procs (fun _ ->
        {
          st_conn = None;
          st_addr = None;
          st_prefetch = None;
          st_report = None;
          st_flush = None;
          st_totals = None;
          st_done = None;
        })
  in
  (* Workers start first: they rebuild their instances from the plan
     while this process plans and compiles the schedule.  The space cut
     is not known yet, so [procs] workers start; the ranks the cut
     leaves without blocks get [Shutdown] instead of a schedule row. *)
  let pids =
    List.init procs (fun rank ->
        (rank, spawn_worker spawn ~materialize ~listener ~rank ~master_addr))
  in
  let cleanup () =
    Array.iter
      (fun st ->
        match st.st_conn with
        | Some c -> Transport.close_conn c
        | None -> ())
      states;
    Transport.close_listener listener;
    kill_workers pids
  in
  (* Set once execution is supervised: before a failure tears the run
     down, read the pass reports already on the wire, so a checkpoint
     every rank completed is not lost to the order in which the master
     notices the failure and the reports. *)
  let salvage = ref ignore in
  let fail_cleanup ?rank fmt =
    Printf.ksprintf
      (fun s ->
        let f = !salvage in
        salvage := ignore;
        (try f () with _ -> ());
        cleanup ();
        raise
          (Orion.Engine.Distributed_error { de_rank = rank; de_reason = s }))
      fmt
  in
  try
    (* why [rank] exited with [status]: for a guarded exit, the reason
       in the [Fatal] it sent first, if it is still on the wire *)
    let exit_reason rank status =
      let rec fatal c =
        match Unix.select [ Transport.fd c ] [] [] 0.0 with
        | [], _, _ -> None
        | _ -> (
            match Transport.recv_step c with
            | `Msg (Wire.Fatal { f_reason; _ }) -> Some f_reason
            | `Msg _ -> fatal c
            | `Pending | `Eof -> None)
      in
      match (status, states.(rank).st_conn) with
      | Unix.WEXITED 2, Some c when not c.Transport.closed -> (
          match fatal c with
          | Some reason -> reason
          | None | (exception _) -> status_reason status)
      | _ -> status_reason status
    in
    (* raises if any child already died with a nonzero status.  A
       suddenly-dead worker (signal, [_exit]) makes its peers die of
       collateral damage moments later through the guarded
       uncaught-exception path (exit code 2); when both corpses are on
       the floor, blame the sudden death, whatever the reap order —
       and when only guarded corpses are visible, wait briefly for the
       root cause to become reapable *)
    let monitor_children () =
      let reap_dead () =
        List.filter_map
          (fun (rank, pid) ->
            if states.(rank).st_done <> None then None
            else
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> None
              | _, Unix.WEXITED 0 -> None
              | _, status -> Some (rank, status)
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None)
          pids
      in
      let guarded = function Unix.WEXITED 2 -> true | _ -> false in
      match reap_dead () with
      | [] -> ()
      | dead ->
          let rec settle tries dead =
            if tries = 0 || List.exists (fun (_, st) -> not (guarded st)) dead
            then dead
            else begin
              Unix.sleepf 0.05;
              settle (tries - 1) (dead @ reap_dead ())
            end
          in
          let dead = settle 20 dead in
          let rank, status =
            match List.find_opt (fun (_, st) -> not (guarded st)) dead with
            | Some root -> root
            | None -> List.hd dead
          in
          fail_cleanup ~rank "%s" (exit_reason rank status)
    in
    (* a worker (other than [except]) that already died abnormally — the
       root cause to prefer when another rank merely reports collateral *)
    let abnormal_exit ~except =
      List.find_map
        (fun (r, pid) ->
          if r = except || states.(r).st_done <> None then None
          else
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> None
            | _, Unix.WEXITED 0 -> None
            | _, status -> Some (r, status)
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None)
        pids
    in
    (* a peer's collateral complaint can arrive before the crasher's
       exit status is reapable; poll briefly before giving up on
       finding a root cause *)
    let abnormal_exit_wait ~except =
      let rec go tries =
        match abnormal_exit ~except with
        | Some _ as r -> r
        | None when tries > 0 ->
            Unix.sleepf 0.05;
            go (tries - 1)
        | None -> None
      in
      go 20
    in
    let check_deadline what =
      if Unix.gettimeofday () > deadline then
        fail_cleanup "timed out waiting for %s (%.0fs)" what
          timeout
    in
    (* -- analysis, while the workers start; the plan carries it ----- *)
    let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
    (* -- accept + hello, each answered with its plan ----------------- *)
    let connected = ref 0 in
    while !connected < procs do
      monitor_children ();
      check_deadline "worker connections";
      match Unix.select [ listener.Transport.lfd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          let c = Transport.accept listener in
          match Transport.recv c with
          | Some (Wire.Hello { h_rank; h_pid = _; h_version })
            when h_version = Wire.version
                 && h_rank >= 0 && h_rank < procs
                 && states.(h_rank).st_conn = None ->
              states.(h_rank).st_conn <- Some c;
              incr connected;
              Transport.send c
                (Wire.Plan
                   {
                     p_app = inst.Orion.App.inst_name;
                     p_scale = scale;
                     p_num_machines = session.Orion.cluster.Cluster.num_machines;
                     p_workers_per_machine =
                       session.Orion.cluster.Cluster.workers_per_machine;
                     p_rank = h_rank;
                     p_procs = procs;
                     p_passes = passes;
                     p_telemetry = telemetry;
                     p_report_passes = checkpoint <> None;
                     p_plan = plan;
                   })
          | Some (Wire.Hello { h_rank; h_version; _ }) ->
              fail_cleanup ~rank:h_rank
                "bad hello (rank %d, protocol version %d, expected %d)"
                h_rank h_version Wire.version
          | Some m -> fail_cleanup "expected hello, got %s" (Wire.tag m)
          | None -> fail_cleanup "worker closed during handshake")
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let conn rank =
      match states.(rank).st_conn with
      | Some c -> c
      | None -> fail_cleanup ~rank "no connection"
    in
    (* -- compile, while the workers build their instances ----------- *)
    let compiled =
      Orion.compile session ~plan ~iter:inst.Orion.App.inst_iter
        ?pipeline_depth ()
    in
    let sched = compiled.Orion.schedule in
    let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
    let model =
      Domain_exec.model_of_plan plan
        ~pipeline_depth:compiled.Orion.pipeline_depth ~sp ~tp
    in
    (* the partitioner may produce fewer space partitions than workers
       on tiny data (never more: the session has [procs] workers); one
       worker runs per partition *)
    let nw = sp in
    for rank = nw to procs - 1 do
      Transport.send (conn rank) Wire.Shutdown;
      Transport.close_conn (conn rank)
    done;
    (* -- schedule rows ------------------------------------------------
       Each rank gets its blocks' entries in scheduled order: linearized
       keys and values in the wire's value codec, so a worker needs no
       records of its own.  Every row also carries the iteration space's
       dims, entry count and digest, which a worker checks its instance
       against.  A worker reads its row only once its instance is built,
       and a row is larger than the socket buffer, so the rows go out
       together: each is written as far as its rank reads, and a rank
       still starting holds up only its own row.  The writes drain
       under the same supervision as the other start-up waits. *)
    let iter = inst.Orion.App.inst_iter in
    let rows =
      let digest = ref 0 in
      let blocks =
        Array.init nw (fun rank ->
            Array.map
              (fun (b : _ Schedule.block) ->
                let bytes, d =
                  Wire.encode_block ~linearize:(Dist_array.linearize iter)
                    b.Schedule.entries
                in
                digest := !digest + d;
                bytes)
              sched.Schedule.blocks.(rank))
      in
      Array.map
        (fun blocks ->
          {
            Wire.sr_sp = sched.Schedule.space_parts;
            sr_tp = sched.Schedule.time_parts;
            sr_model = model;
            sr_space_boundaries = sched.Schedule.space_boundaries;
            sr_time_boundaries = sched.Schedule.time_boundaries;
            sr_dims = Dist_array.dims iter;
            sr_entries = Dist_array.count iter;
            sr_digest = !digest;
            sr_blocks = blocks;
          })
        blocks
    in
    let rec send_rows pending =
      let pending =
        List.filter
          (fun (rank, push) ->
            match push () with
            | finished -> not finished
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
              -> (
                match abnormal_exit_wait ~except:(-1) with
                | Some (r, status) ->
                    fail_cleanup ~rank:r "%s" (exit_reason r status)
                | None ->
                    fail_cleanup ~rank
                      "worker closed before taking its schedule row"))
          pending
      in
      if pending <> [] then begin
        monitor_children ();
        check_deadline "workers to take their schedule rows";
        (try
           ignore
             (Unix.select []
                (List.map (fun (rank, _) -> Transport.fd (conn rank)) pending)
                [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        send_rows pending
      end
    in
    send_rows
      (List.init nw (fun rank ->
           (rank, Transport.start_send (conn rank) (Wire.Schedule_row rows.(rank)))));
    (* from here on only the [nw] ranks with blocks take part *)
    let states = Array.sub states 0 nw in
    (* (pass, natural-order position) ordering shared by pass-boundary
       checkpoints and the final assembly *)
    let order = Domain_exec.natural_order model ~sp ~tp in
    let pos = Hashtbl.create (sp * tp) in
    Array.iteri (fun i (s, t) -> Hashtbl.replace pos ((s * tp) + t) i) order;
    (* Owned regions set as they are, then journals in (pass,
       natural-order) order: the final assembly into [arrays], and each
       pass-boundary checkpoint into its copies.  [unknown] handles a
       name [arrays] does not hold. *)
    let assemble (arrays : (string, float Dist_array.t) Hashtbl.t) ~unknown
        (regions : Wire.part_payload list) (entries : Wire.block_writes list) =
      List.iter
        (fun payload ->
          let name, dims, keys, values = Policy.decode_region payload in
          match Hashtbl.find_opt arrays name with
          | Some arr when Dist_array.dims arr = dims ->
              Dist_array.set_region arr keys values
          | _ -> unknown name)
        regions;
      List.sort
        (fun (a : Wire.block_writes) (b : Wire.block_writes) ->
          compare
            (a.bw_pass, Hashtbl.find pos a.bw_block)
            (b.bw_pass, Hashtbl.find pos b.bw_block))
        entries
      |> List.iter (fun (bw : Wire.block_writes) ->
             Array.iter
               (fun (w : Wire.write) ->
                 match Hashtbl.find_opt arrays w.w_array with
                 | Some arr -> Dist_array.set arr w.w_key w.w_value
                 | None -> unknown w.w_array)
               bw.bw_writes)
    in
    (* -- pass-boundary checkpoint assembly ----------------------------
       When a checkpoint sink is registered, workers ship a Pass_report
       after every pass barrier.  The master folds them into shadow
       copies of the model arrays — never its own instance, which the
       final assembly owns — as the final assembly would, and keeps each
       rank's latest cumulative buffered shadows.  When every rank has
       reported a pass, the boundary state is complete and the sink
       fires. *)
    let ck_copies : (string, float Dist_array.t) Hashtbl.t = Hashtbl.create 8 in
    if checkpoint <> None then
      List.iter
        (fun (n, a) ->
          Hashtbl.replace ck_copies n
            (Dist_array.of_partition (Dist_array.to_partition a)))
        inst.Orion.App.inst_arrays;
    let ck_pending :
        ( int,
          (Wire.part_payload list * Wire.block_writes list) option array
          * Wire.part list option array )
        Hashtbl.t =
      Hashtbl.create 8
    in
    let ck_latest_shadows : Wire.part list array = Array.make nw [] in
    let ck_next = ref 0 in
    let note_pass_report ~rank ~pass regions entries parts =
      match checkpoint with
      | None -> ()
      | Some (every, sink) ->
          let slot =
            match Hashtbl.find_opt ck_pending pass with
            | Some s -> s
            | None ->
                let s = (Array.make nw None, Array.make nw None) in
                Hashtbl.replace ck_pending pass s;
                s
          in
          (fst slot).(rank) <- Some (regions, entries);
          (snd slot).(rank) <- Some parts;
          let rec drain () =
            match Hashtbl.find_opt ck_pending !ck_next with
            | Some (es, ps) when Array.for_all Option.is_some es ->
                let pass = !ck_next in
                Hashtbl.remove ck_pending pass;
                incr ck_next;
                let reported = Array.to_list es |> List.filter_map Fun.id in
                assemble ck_copies ~unknown:ignore
                  (List.concat_map fst reported)
                  (List.concat_map snd reported);
                Array.iteri
                  (fun r p ->
                    match p with
                    | Some parts -> ck_latest_shadows.(r) <- parts
                    | None -> ())
                  ps;
                if every > 0 && (pass + 1) mod every = 0 then begin
                  let view =
                    List.map
                      (fun (name, arr) ->
                        if List.mem name inst.Orion.App.inst_buffered then begin
                          (* base (untouched on the master) + every rank's
                             cumulative shadow, in rank order — the same
                             merge the end of the run performs *)
                          let copy =
                            Dist_array.of_partition
                              (Dist_array.to_partition arr)
                          in
                          Array.iter
                            (fun parts ->
                              List.iter
                                (fun (part : Wire.part) ->
                                  if part.Dist_array.pt_array = name then
                                    Array.iter
                                      (fun (lin, v) ->
                                        Dist_array.update copy
                                          (Dist_array.delinearize copy lin)
                                          (fun x -> x +. v))
                                      part.Dist_array.pt_entries)
                                parts)
                            ck_latest_shadows;
                          (name, copy)
                        end
                        else
                          ( name,
                            Option.value
                              (Hashtbl.find_opt ck_copies name)
                              ~default:arr ))
                      inst.Orion.App.inst_arrays
                  in
                  sink ~pass_done:(pass + 1) view
                end;
                drain ()
            | _ -> ()
          in
          drain ()
    in
    (* per-pass [(start, finish)] on the master's telemetry clock, as the
       union of the aligned worker windows *)
    let pass_windows : (int, float * float) Hashtbl.t = Hashtbl.create 8 in
    let bytes_by_array : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let bytes_full_by_array : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let policy_by_array : (string, string) Hashtbl.t = Hashtbl.create 8 in
    let bump tbl name bytes =
      Hashtbl.replace tbl name
        (bytes +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)
    in
    let account name bytes = bump bytes_by_array name bytes in
    let account_full name bytes = bump bytes_full_by_array name bytes in
    (* -- partition shipping + prefetch serving ---------------------- *)
    let boundaries = sched.Schedule.space_boundaries in
    let parts_for rank =
      List.filter_map
        (fun (name, arr) ->
          if List.mem name inst.Orion.App.inst_buffered then None
          else
            match List.assoc_opt name plan.Plan.placements with
            | Some (Plan.Local_partitioned { array_dim }) ->
                Some
                  (Dist_array.to_partition
                     ~select:(fun key _ ->
                       Partitioner.part_of ~boundaries key.(array_dim) = rank)
                     arr)
            | Some (Plan.Rotated _ | Plan.Replicated) ->
                Some (Dist_array.to_partition arr)
            | Some Plan.Server | None -> None)
        inst.Orion.App.inst_arrays
    in
    let ship_parts rank (msg : Wire.part_payload list -> Wire.msg) parts =
      (* both the packed bytes and the raw [Marshal] equivalent are
         accounted *)
      let payloads, accounts = Policy.prepare_parts parts in
      let t_send = Unix.gettimeofday () in
      Transport.send (conn rank) (msg payloads);
      let elapsed = Unix.gettimeofday () -. t_send in
      List.iter
        (fun (name, bytes, full, mode) ->
          account name bytes;
          account_full name full;
          (* workers' own payloads, reported at the end, override *)
          Option.iter (Hashtbl.replace policy_by_array name) mode;
          Trace.add trace ~label:("net:" ^ name) ~bytes ~worker:rank
            ~category:Trace.Transfer
            ~start_sec:(t_send -. t0)
            ~duration_sec:(elapsed /. float_of_int (max 1 (List.length parts))))
        accounts
    in
    let handshake = Event_loop.create () in
    for rank = 0 to nw - 1 do
      Event_loop.add handshake rank (conn rank)
    done;
    let ready rank =
      states.(rank).st_addr <> None && states.(rank).st_prefetch <> None
    in
    while not (Array.for_all (fun st -> st.st_prefetch <> None) states) do
      monitor_children ();
      check_deadline "worker startup";
      List.iter
        (function
          | Event_loop.Message (rank, Wire.Listening { l_addr; _ }) ->
              states.(rank).st_addr <- Some l_addr
          | Event_loop.Message (rank, Wire.Prefetch_request { pr_arrays; _ })
            ->
              states.(rank).st_prefetch <- Some pr_arrays;
              if not (ready rank) then
                fail_cleanup ~rank "prefetch request before listening";
              (* Listening is guaranteed first on this FIFO channel, so
                 the rank is fully announced: ship its partitions, then
                 serve the prefetch *)
              ship_parts rank
                (fun parts -> Wire.Partition_ship parts)
                (parts_for rank);
              ship_parts rank
                (fun parts -> Wire.Prefetch_response parts)
                (List.filter_map
                   (fun name ->
                     match
                       List.assoc_opt name inst.Orion.App.inst_arrays
                     with
                     | Some arr -> Some (Dist_array.to_partition arr)
                     | None -> None)
                   pr_arrays)
          | Event_loop.Message (rank, Wire.Fatal { f_reason; _ }) ->
              fail_cleanup ~rank "%s" f_reason
          | Event_loop.Message (rank, m) ->
              fail_cleanup ~rank "unexpected %s during startup" (Wire.tag m)
          | Event_loop.Closed rank ->
              fail_cleanup ~rank "worker disconnected during startup")
        (Event_loop.poll handshake ~timeout:0.1)
    done;
    let peers =
      Array.init nw (fun rank ->
          match states.(rank).st_addr with
          | Some a -> a
          | None -> fail_cleanup ~rank "no peer address")
    in
    for rank = 0 to nw - 1 do
      Transport.send (conn rank) (Wire.Peers peers)
    done;
    (* -- supervise execution ---------------------------------------- *)
    salvage :=
      (fun () ->
        let until = Unix.gettimeofday () +. 1.0 in
        let rec go () =
          match Event_loop.poll handshake ~timeout:0.05 with
          | [] -> ()
          | events ->
              List.iter
                (function
                  | Event_loop.Message
                      ( rank,
                        Wire.Pass_report
                          { pp_pass; pp_regions; pp_entries; pp_buffered; _ }
                      ) ->
                      note_pass_report ~rank ~pass:pp_pass pp_regions
                        pp_entries pp_buffered
                  | _ -> ())
                events;
              if Unix.gettimeofday () < until then go ()
        in
        go ());
    (* within one poll, a worker's failure is handled after every
       other rank's messages *)
    let failure = function
      | Event_loop.Closed _ | Event_loop.Message (_, Wire.Fatal _) -> 1
      | Event_loop.Message _ -> 0
    in
    while not (Array.for_all (fun st -> st.st_done <> None) states) do
      monitor_children ();
      check_deadline "workers to finish";
      List.iter
        (function
          | Event_loop.Message
              (rank, Wire.Block_report { br_regions; br_entries; _ }) ->
              states.(rank).st_report <- Some (br_regions, br_entries)
          | Event_loop.Message (rank, Wire.Buffer_flush { bf_parts; _ }) ->
              states.(rank).st_flush <- Some bf_parts
          | Event_loop.Message (rank, Wire.Acc_merge { am_totals; _ }) ->
              states.(rank).st_totals <- Some am_totals
          | Event_loop.Message
              ( rank,
                Wire.Pass_telemetry
                  {
                    pt_epoch;
                    pt_pass;
                    pt_window = pw0, pw1;
                    pt_dropped;
                    pt_spans;
                    pt_costs;
                    _;
                  } ) ->
              if telemetry then begin
                let offset = pt_epoch -. Telemetry.epoch mtel in
                Telemetry.import_spans mtel ~shard:rank ~offset pt_spans;
                Telemetry.import_costs mtel ~shard:rank pt_costs;
                Telemetry.note_dropped mtel ~shard:rank pt_dropped;
                let s = pw0 +. offset and f = pw1 +. offset in
                Hashtbl.replace pass_windows pt_pass
                  (match Hashtbl.find_opt pass_windows pt_pass with
                  | Some (s0, f0) -> (Float.min s0 s, Float.max f0 f)
                  | None -> (s, f))
              end
          | Event_loop.Message
              ( rank,
                Wire.Pass_report
                  { pp_pass; pp_regions; pp_entries; pp_buffered; _ } ) ->
              note_pass_report ~rank ~pass:pp_pass pp_regions pp_entries
                pp_buffered
          | Event_loop.Message (rank, Wire.Done stats) ->
              if
                states.(rank).st_report = None
                || states.(rank).st_flush = None
                || states.(rank).st_totals = None
              then fail_cleanup ~rank "done before final reports";
              states.(rank).st_done <- Some stats
          | Event_loop.Message (rank, Wire.Fatal { f_reason; _ }) ->
              (* a crashed worker makes its peers complain about closed
                 sockets; blame the crash, not the collateral *)
              (match abnormal_exit_wait ~except:rank with
              | Some (r, status) -> fail_cleanup ~rank:r "%s" (status_reason status)
              | None -> fail_cleanup ~rank "%s" f_reason)
          | Event_loop.Message (rank, m) ->
              fail_cleanup ~rank "unexpected %s during execution" (Wire.tag m)
          | Event_loop.Closed rank ->
              (* give the exit status a moment to become reapable so the
                 error names the real cause (e.g. the injected abort) *)
              let _, pid = List.nth pids rank in
              let rec status tries =
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ when tries > 0 ->
                    Unix.sleepf 0.05;
                    status (tries - 1)
                | 0, _ -> None
                | _, st -> Some st
                | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
              in
              (match status 20 with
              | Some st -> fail_cleanup ~rank "%s" (status_reason st)
              | None -> (
                  match abnormal_exit_wait ~except:rank with
                  | Some (r, st) -> fail_cleanup ~rank:r "%s" (status_reason st)
                  | None -> fail_cleanup ~rank "worker socket closed mid-run")))
        (List.stable_sort
           (fun a b -> compare (failure a) (failure b))
           (Event_loop.poll handshake ~timeout:0.1))
    done;
    salvage := ignore;
    (* -- orderly shutdown ------------------------------------------- *)
    for rank = 0 to nw - 1 do
      Transport.send (conn rank) Wire.Shutdown
    done;
    Array.iter
      (fun st ->
        match st.st_conn with
        | Some c -> Transport.close_conn c
        | None -> ())
      states;
    Transport.close_listener listener;
    List.iter
      (fun (rank, pid) ->
        let rec reap deadline =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when Unix.gettimeofday () < deadline ->
              Unix.sleepf 0.01;
              reap deadline
          | 0, _ ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
          | _, Unix.WEXITED 0 -> ()
          | _, status -> err ~rank "%s after completion" (status_reason status)
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        reap (Unix.gettimeofday () +. 5.0))
      pids;
    (* -- assemble final state --------------------------------------- *)
    let arr_tbl : (string, float Dist_array.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (n, a) -> Hashtbl.replace arr_tbl n a)
      inst.Orion.App.inst_arrays;
    (* non-buffered arrays: owned regions as they are, journals in
       (pass, natural-order) order — a serialization of the
       happens-before order, reproducing the serial element values
       bitwise *)
    let reported =
      Array.to_list states |> List.filter_map (fun st -> st.st_report)
    in
    assemble arr_tbl ~unknown:(err "block report for unknown array %S")
      (List.concat_map fst reported)
      (List.concat_map snd reported);
    (* buffered arrays: merge shadows in ascending rank order, exactly
       the domain pool's deterministic shadow merge *)
    Array.iteri
      (fun rank st ->
        let parts = Option.value st.st_flush ~default:[] in
        let totals = Option.value st.st_totals ~default:[] in
        List.iter
          (fun (part : Wire.part) ->
            let name = part.Dist_array.pt_array in
            (match Hashtbl.find_opt arr_tbl name with
            | Some arr ->
                Array.iter
                  (fun (lin, v) ->
                    Dist_array.update arr (Dist_array.delinearize arr lin)
                      (fun x -> x +. v))
                  part.Dist_array.pt_entries
            | None -> err "buffer flush for unknown array %S" name);
            let flushed_total =
              Array.fold_left
                (fun acc (_, v) -> acc +. v)
                0.0 part.Dist_array.pt_entries
            in
            let bytes = float_of_int (Dist_array.partition_size_bytes part) in
            account name bytes;
            (* buffer flushes are always raw Marshal — actual = full *)
            account_full name bytes;
            Trace.add trace ~label:("net:" ^ name) ~bytes ~worker:rank
              ~category:Trace.Transfer
              ~start_sec:(Unix.gettimeofday () -. t0)
              ~duration_sec:0.0;
            (* the worker computed its accumulator total over the same
               entries in the same order: must match bitwise *)
            match List.assoc_opt name totals with
            | Some reported when reported = flushed_total -> ()
            | Some reported ->
                err ~rank
                  "accumulator total mismatch for %S: reported %h, flushed %h"
                  name reported flushed_total
            | None -> err ~rank "no accumulator total for %S" name)
          parts)
      states;
    (* token traffic, as reported per worker *)
    Array.iteri
      (fun rank st ->
        match st.st_done with
        | Some stats ->
            List.iter
              (fun (name, bytes) ->
                account name bytes;
                Trace.add trace ~label:("net:" ^ name) ~bytes ~worker:rank
                  ~category:Trace.Transfer
                  ~start_sec:(Unix.gettimeofday () -. t0)
                  ~duration_sec:0.0)
              stats.Wire.ws_bytes_by_array;
            List.iter
              (fun (name, bytes) -> account_full name bytes)
              stats.Wire.ws_bytes_full_by_array;
            List.iter
              (fun (name, label) -> Hashtbl.replace policy_by_array name label)
              stats.Wire.ws_policy_by_array
        | None -> ())
      states;
    let stats rank =
      match states.(rank).st_done with
      | Some s -> s
      | None -> err ~rank "missing worker stats"
    in
    let sum f =
      let acc = ref 0 in
      for rank = 0 to nw - 1 do
        acc := !acc + f (stats rank)
      done;
      !acc
    in
    let sorted_bindings tbl =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    let bytes_list = sorted_bindings bytes_by_array in
    let bytes_full_list = sorted_bindings bytes_full_by_array in
    {
      Orion.Engine.ep_app = inst.Orion.App.inst_name;
      ep_mode = `Distributed { Orion.Engine.procs; transport };
      ep_strategy = Plan.strategy_to_string plan.Plan.strategy;
      ep_model = Domain_exec.model_to_string model;
      ep_domains = nw;
      ep_space_parts = sp;
      ep_time_parts = tp;
      ep_entries = sum (fun s -> s.Wire.ws_entries);
      ep_blocks = sum (fun s -> s.Wire.ws_blocks);
      ep_steals = 0;
      (* workers compile their own kernels (falling back per-worker if a
         body is unsupported); report the master-side switch *)
      ep_compiled = Orion.Compile.enabled ();
      ep_wall_seconds = Orion_obs.Clock.elapsed w0;
      ep_sim_time = 0.0;
      ep_bytes_shipped = List.fold_left (fun acc (_, b) -> acc +. b) 0.0 bytes_list;
      ep_bytes_by_array = bytes_list;
      ep_bytes_full =
        List.fold_left (fun acc (_, b) -> acc +. b) 0.0 bytes_full_list;
      ep_policy_by_array = sorted_bindings policy_by_array;
      ep_telemetry =
        (if telemetry then
           let windows =
             Hashtbl.fold
               (fun pass (s, f) acc -> (pass, s, f) :: acc)
               pass_windows []
             |> List.sort compare
           in
           let comms =
             {
               Telemetry.cs_bytes_shipped =
                 List.fold_left (fun acc (_, b) -> acc +. b) 0.0 bytes_list;
               cs_bytes_full =
                 List.fold_left
                   (fun acc (_, b) -> acc +. b)
                   0.0 bytes_full_list;
               cs_by_array = sorted_bindings policy_by_array;
             }
           in
           Some (Telemetry.summarize mtel ~mode:"distributed" ~comms ~windows ())
         else None);
    }
  with
  | Orion.Engine.Distributed_error _ as e -> raise e
  | e ->
      cleanup ();
      raise
        (Orion.Engine.Distributed_error
           { de_rank = None; de_reason = Printexc.to_string e })

(** Install {!run} as [Orion.Engine]'s distributed runner. *)
let install ~(materialize : Dist_worker.materialize) =
  Orion.Engine.distributed_runner :=
    Some
      (fun session inst ~procs ~transport ~passes ~pipeline_depth ~scale
           ~telemetry ~checkpoint ->
        run ~materialize session inst ~procs ~transport ~passes
          ~pipeline_depth ~scale ~telemetry ?checkpoint ())
