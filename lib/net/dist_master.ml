(** The distributed backend of [Orion.Engine.run ~mode:(`Distributed _)].

    Protocol, in order: spawn [procs] workers (fork for in-tree tests,
    exec of [orion_worker] for the CLI); plan and compile the schedule
    while their processes start; answer each Hello with the Plan.  Each
    worker builds its instance and at once announces itself (Listening,
    then Prefetch_request).  Ranks beyond the space cut then get
    Shutdown; every other rank gets, back to back and with no round
    trip, its Schedule_row header, the row's payload as one raw frame
    (its blocks' entries and its local, rotated and replicated arrays'
    regions, built in one buffer) as soon as it is encoded, its
    Prefetch_response, and the Peers table once every rank has
    announced.  During execution each worker may
    send Pass_telemetry and, when the run checkpoints, one Pass_report
    per pass; at the end Block_report, Buffer_flush and Done, answered
    by Shutdown.  A worker crash, broken socket or hang
    surfaces as a structured {!Orion.Engine.Distributed_error}, never as
    a hang.

    The master's own instance stays untouched while the workers run;
    the final state is assembled from the wire: owned regions as they
    are, journals in (pass, natural-order) order, then buffered shadows
    through [Engine.merge_part] in ascending rank order, cross-checked
    against the totals each flush carries. *)

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

(** Poll [pid] until it has exited, up to [tries] more times [interval]
    apart: [`Exited status], [`Running], or [`Gone] when it was reaped
    already. *)
let poll_exit ?(tries = 0) ?(interval = 0.05) pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf interval;
        go (tries - 1)
    | 0, _ -> `Running
    | _, status -> `Exited status
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> `Gone
  in
  go tries

(** Wait up to [seconds] for [pid] to exit, as {!poll_exit}: polled
    first after 0.2 ms, then at doubling intervals of at most 10 ms, so
    a worker that exits at once is reaped at once. *)
let wait_exit ~seconds pid =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go interval =
    match poll_exit pid with
    | `Running when Unix.gettimeofday () < deadline ->
        Unix.sleepf interval;
        go (Float.min 0.01 (2.0 *. interval))
    | status -> status
  in
  go 0.0002

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
    period, then SIGKILL; reap all of them, and remove the socket file
    of each one's listener, which a killed worker leaves behind. *)
let kill_workers (pids : (int * int) list) =
  let alive (_, pid) = poll_exit pid = `Running in
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
    stubborn;
  List.iter (fun (_, pid) -> Transport.remove_sockets_of ~pid) term

(* ------------------------------------------------------------------ *)
(* The master protocol                                                 *)
(* ------------------------------------------------------------------ *)

type worker_state = {
  mutable st_conn : Transport.conn option;
  mutable st_addr : string option;  (** from Listening *)
  mutable st_records : bool option;
      (** from Listening: whether the worker holds records, and so
          needs the space digest in its row header *)
  mutable st_prefetch : string list option;  (** from Prefetch_request *)
  mutable st_report : (Wire.part_payload list * Wire.block_writes list) option;
      (** owned regions and own journal, from Block_report *)
  mutable st_flush : (Wire.part_payload list * (string * float) list) option;
      (** packed shadows and their totals, from Buffer_flush *)
  mutable st_done : Wire.worker_stats option;
  mutable st_fatal : string option;  (** from Fatal, once it is read *)
}

let start ~(materialize : Dist_worker.materialize) (session : Orion.session)
    (inst : Orion.App.instance) ~procs ~(transport : Orion.Engine.transport)
    ~passes ~scale ~telemetry:(mtel : Telemetry.t) ~report_passes ~plan
    ~schedule : Orion.Engine.backend =
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
  let deadline = t0 +. timeout in
  (* [telemetry] has one shard per spawned worker.  Workers record spans
     on their own monotonic clocks and ship them per pass with their
     absolute epoch; the shared per-machine monotonic origin makes
     [offset = worker_epoch - master_epoch] exact, so the merged
     timeline is one consistent multi-process view. *)
  let telemetry = Telemetry.enabled mtel in
  let like : Transport.addr =
    match transport with
    | `Unix -> `Unix ""
    | `Tcp -> `Tcp ("127.0.0.1", 0)
  in
  let listener = Transport.listen (Transport.fresh_addr ~like) in
  let master_addr = Transport.addr_to_string listener.Transport.laddr in
  let spawn = default_spawn () in
  let trace = session.Orion.cluster.Cluster.trace in
  let states =
    Array.init procs (fun _ ->
        {
          st_conn = None;
          st_addr = None;
          st_records = None;
          st_prefetch = None;
          st_report = None;
          st_flush = None;
          st_done = None;
          st_fatal = None;
        })
  in
  (* Workers start first: their processes start while this one plans
     and compiles the schedule.  The space cut is not known yet, so
     [procs] workers start; the ranks the cut leaves without blocks get
     [Shutdown] instead of a schedule row. *)
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
  (* every phase tears the run down on an unexpected exception *)
  let guard f =
    try f () with
    | Orion.Engine.Distributed_error _ as e -> raise e
    | e ->
        cleanup ();
        raise
          (Orion.Engine.Distributed_error
             { de_rank = None; de_reason = Printexc.to_string e })
  in
  guard @@ fun () ->
  (* why [rank] exited with [status]: for a guarded exit, the reason
     in the [Fatal] it sent first, already read or still on the wire *)
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
    match (status, states.(rank).st_fatal, states.(rank).st_conn) with
    | Unix.WEXITED 2, Some reason, _ -> reason
    | Unix.WEXITED 2, None, Some c when not c.Transport.closed -> (
        match fatal c with
        | Some reason -> reason
        | None | (exception _) -> status_reason status)
    | _ -> status_reason status
  in
  (* the workers (other than [except]) that have died abnormally *)
  let dead ~except =
    List.filter_map
      (fun (rank, pid) ->
        if rank = except || states.(rank).st_done <> None then None
        else
          match poll_exit pid with
          | `Exited (Unix.WEXITED 0) | `Running | `Gone -> None
          | `Exited status -> Some (rank, status))
      pids
  in
  (* raises if any child already died with a nonzero status.  A
     suddenly-dead worker (signal, [_exit]) makes its peers die of
     collateral damage moments later through the guarded
     uncaught-exception path (exit code 2); when both corpses are on
     the floor, blame the sudden death, whatever the reap order —
     and when only guarded corpses are visible, wait briefly for the
     root cause to become reapable *)
  let monitor_children () =
    let guarded = function Unix.WEXITED 2 -> true | _ -> false in
    match dead ~except:(-1) with
    | [] -> ()
    | found ->
        let rec settle tries found =
          if tries = 0 || List.exists (fun (_, st) -> not (guarded st)) found
          then found
          else begin
            Unix.sleepf 0.05;
            settle (tries - 1) (found @ dead ~except:(-1))
          end
        in
        let found = settle 20 found in
        let rank, status =
          match List.find_opt (fun (_, st) -> not (guarded st)) found with
          | Some root -> root
          | None -> List.hd found
        in
        fail_cleanup ~rank "%s" (exit_reason rank status)
  in
  (* a peer's collateral complaint can arrive before the crasher's
     exit status is reapable: the root cause to prefer, polled briefly *)
  let abnormal_exit_wait ~except =
    let rec go tries =
      match dead ~except with
      | found :: _ -> Some found
      | [] when tries > 0 ->
          Unix.sleepf 0.05;
          go (tries - 1)
      | [] -> None
    in
    go 20
  in
  let check_deadline what =
    if Unix.gettimeofday () > deadline then
      fail_cleanup "timed out waiting for %s (%.0fs)" what timeout
  in
  (* -- analysis, while the workers start; the plan carries it ------- *)
  let plan = Lazy.force plan in
  (* Master start-up spans, per rank, on the run's telemetry clock.
     They are held back and merged by start time into the rank's first
     shipped spans, so each worker's lane stays one timeline. *)
  let tel_now () = if telemetry then Telemetry.now mtel else 0.0 in
  let startup_spans : Trace.span list array = Array.make procs [] in
  let startup_span rank ~category ~label ?(bytes = 0.0) ?finish ~start () =
    if telemetry then
      startup_spans.(rank) <-
        {
          Trace.worker = rank;
          category;
          label;
          start_sec = start;
          duration_sec = Option.value finish ~default:(tel_now ()) -. start;
          bytes;
        }
        :: startup_spans.(rank)
  in
  (* -- the schedule build, while the workers' processes start: they
     wait for their plans, which go out once it is done, so the build
     and the instance builds never compete for the cores ------------- *)
  let build_start = tel_now () in
  let compiled, model = Lazy.force schedule in
  let build_end = tel_now () in
  (* -- accept + hello, each answered with its plan ------------------- *)
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
                   p_report_passes = report_passes;
                   p_plan = plan;
                 })
        | Some (Wire.Hello { h_rank; h_version; _ }) ->
            fail_cleanup ~rank:h_rank
              "bad hello (rank %d, protocol version %d, expected %d)" h_rank
              h_version Wire.version
        | Some m -> fail_cleanup "expected hello, got %s" (Wire.tag m)
        | None -> fail_cleanup "worker closed during handshake")
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let conn rank =
    match states.(rank).st_conn with
    | Some c -> c
    | None -> fail_cleanup ~rank "no connection"
  in
  let sched = compiled.Orion.schedule in
  let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
  (* the partitioner may produce fewer space partitions than workers
     on tiny data (never more: the session has [procs] workers); one
     worker runs per partition *)
  let nw = sp in
  for rank = 0 to nw - 1 do
    startup_span rank ~category:Trace.Compute ~label:"schedule build"
      ~start:build_start ~finish:build_end ()
  done;
  (* -- row frames -----------------------------------------------------
     Each rank's row payload is built in one buffer: its blocks' entries
     in scheduled order (float blocks as keys and IEEE bits, the others
     in the wire's tagged value codec), so a worker needs no records of
     its own, then the packed regions that fill its placed arrays — its
     local partition, and the whole rotated and replicated arrays,
     packed once for every row.  The row's header carries the
     iteration space's dims and entry count, which a worker checks its
     instance against, the spans of the payload, and — only for a rank
     that announced records of its own — the space's digest. *)
  let iter = inst.Orion.App.inst_iter in
  let arrays = inst.Orion.App.inst_arrays in
  let packer =
    Policy.sender
      ~linearize:(fun name key ->
        Dist_array.linearize (List.assoc name arrays) key)
      ~pos:Fun.id
  in
  (* a region shipped at start-up: its array, packed bytes and entry
     count *)
  let pack arr (keys, values) =
    ( arr.Dist_array.name,
      Policy.encode_region packer arr keys values,
      Array.length keys )
  in
  let wholes = Hashtbl.create 8 in
  let whole name arr =
    match Hashtbl.find_opt wholes name with
    | Some r -> r
    | None ->
        let r =
          pack arr
            (Dist_array.region arr ~dim:0 ~lo:0 ~hi:(Dist_array.dims arr).(0))
        in
        Hashtbl.replace wholes name r;
        r
  in
  let regions_for rank =
    List.filter_map
      (fun (name, arr) ->
        if List.mem name inst.Orion.App.inst_buffered then None
        else
          match List.assoc_opt name plan.Plan.placements with
          | Some (Plan.Local_partitioned { array_dim }) ->
              let lo, hi =
                Dist_worker.part_range sched.Schedule.space_boundaries rank
                  ~size:(Dist_array.dims arr).(array_dim)
              in
              Some (pack arr (Dist_array.region arr ~dim:array_dim ~lo ~hi))
          | Some (Plan.Rotated _ | Plan.Replicated) -> Some (whole name arr)
          | Some Plan.Server | None -> None)
      arrays
  in
  let encode_row rank =
    let start = tel_now () in
    let regions = regions_for rank in
    let frame, blocks, spans =
      Wire.row_frame sched.Schedule.blocks.(rank)
        (List.map (fun (_, b, _) -> b) regions)
    in
    startup_span rank ~category:Trace.Marshal ~label:"row encode"
      ~bytes:(float_of_int (Bytes.length frame))
      ~start ();
    (frame, blocks, spans, regions)
  in
  let digest = lazy (Wire.space_digest iter) in
  let row_header ~records (_, blocks, spans, _) =
    {
      Wire.sr_sp = sp;
      sr_tp = tp;
      sr_model = model;
      sr_space_boundaries = sched.Schedule.space_boundaries;
      sr_time_boundaries = sched.Schedule.time_boundaries;
      sr_dims = Dist_array.dims iter;
      sr_entries = Dist_array.count iter;
      sr_digest = (if records then Lazy.force digest else 0);
      sr_blocks = blocks;
      sr_regions = spans;
    }
  in
  (* per-pass [(start, finish)] on the run's telemetry clock, as the
     union of the aligned worker windows *)
  let pass_windows : (int, float * float) Hashtbl.t = Hashtbl.create 8 in
  let bytes_by_array : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let bytes_full = ref 0.0 in
  let policy_by_array : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl name bytes =
    Hashtbl.replace tbl name
      (bytes +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)
  in
  let account name bytes = bump bytes_by_array name bytes in
  let account_full n = bytes_full := !bytes_full +. Policy.raw_bytes n in
  (* [rank]'s wire transfer of [name] on the cluster trace, now *)
  let net_span ~rank name bytes =
    Trace.add trace ~label:("net:" ^ name) ~bytes ~worker:rank
      ~category:Trace.Transfer
      ~start_sec:(Unix.gettimeofday () -. t0)
      ~duration_sec:0.0
  in
  (* -- start-up sends --------------------------------------------------
     Every rank announces its listener and prefetch request as soon as
     its instance is built.  Each rank's frames then go out in order,
     with no round trip in between: the row's header and payload, the
     prefetch response (once requested) and the peers table (once every
     rank listens).  They are written as far as each rank reads, so a
     rank still starting holds up only its own frames, under the same
     supervision as the other start-up waits.  A rank beyond the space
     cut gets Shutdown at once; its connection stays open until the run
     ends, so that its announcement, still on its way, is not
     refused. *)
  for rank = nw to procs - 1 do
    Transport.send (conn rank) Wire.Shutdown
  done;
  let ship ~rank regions =
    List.iter
      (fun (name, b, n) ->
        account name (float_of_int (Bytes.length b));
        account_full n;
        net_span ~rank name (float_of_int (Bytes.length b)))
      regions
  in
  let handshake = Event_loop.create () in
  for rank = 0 to nw - 1 do
    Event_loop.add handshake rank (conn rank)
  done;
  (* per rank, the pushes of the frames still to go out, in order *)
  let outbox : (unit -> bool) list array = Array.make nw [] in
  let queue rank push = outbox.(rank) <- outbox.(rank) @ [ push ] in
  let message rank m = Transport.start_send (conn rank) m in
  (* write [rank]'s frames as far as its socket takes them *)
  let pump rank =
    let rec go () =
      match outbox.(rank) with
      | push :: rest ->
          if push () then begin
            outbox.(rank) <- rest;
            go ()
          end
      | [] -> ()
    in
    try go ()
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> (
      match abnormal_exit_wait ~except:(-1) with
      | Some (r, status) -> fail_cleanup ~rank:r "%s" (exit_reason r status)
      | None -> fail_cleanup ~rank "worker closed during startup")
  in
  let ranks = List.init nw Fun.id in
  let sending rank = outbox.(rank) <> [] in
  let writing () =
    List.filter_map
      (fun rank ->
        if sending rank then Some (Transport.fd (conn rank)) else None)
      ranks
  in
  let step () =
    monitor_children ();
    check_deadline "worker startup";
    List.iter pump ranks
  in
  (* the prefetch response follows the row, whichever came first: the
     row's encoding or the request *)
  let row_queued = Array.make nw false in
  let respond_prefetch rank =
    match states.(rank).st_prefetch with
    | Some pr_arrays ->
        let regions =
          List.filter_map
            (fun name -> Option.map (whole name) (List.assoc_opt name arrays))
            pr_arrays
        in
        ship ~rank regions;
        queue rank
          (message rank
             (Wire.Prefetch_response (List.map (fun (_, b, _) -> b) regions)))
    | None -> ()
  in
  let handle = function
    | Event_loop.Message (rank, Wire.Listening { l_addr; l_records }) ->
        states.(rank).st_addr <- Some l_addr;
        states.(rank).st_records <- Some l_records
    | Event_loop.Message (rank, Wire.Prefetch_request { pr_arrays; _ }) ->
        states.(rank).st_prefetch <- Some pr_arrays;
        (* Listening is guaranteed first on this FIFO channel *)
        if states.(rank).st_addr = None then
          fail_cleanup ~rank "prefetch request before listening";
        if row_queued.(rank) then respond_prefetch rank
    | Event_loop.Message (rank, Wire.Fatal { f_reason; _ }) ->
        fail_cleanup ~rank "%s" f_reason
    | Event_loop.Message (rank, m) ->
        fail_cleanup ~rank "unexpected %s during startup" (Wire.tag m)
    | Event_loop.Closed rank ->
        fail_cleanup ~rank "worker disconnected during startup"
  in
  (* Until every rank has announced itself and has its row: push, and
     read.  Each rank's row is encoded once the rank has announced
     itself, in the order the ranks announce, and goes out at once: its
     header, with the digest only for a rank that holds records, then
     its payload.  Until a rank is ready this process waits, leaving
     the cores to the workers still building their instances. *)
  let unsent = ref ranks in
  while
    !unsent <> []
    || List.exists (fun rank -> states.(rank).st_prefetch = None) ranks
  do
    match List.find_opt (fun r -> states.(r).st_records <> None) !unsent with
    | Some rank ->
        unsent := List.filter (fun r -> r <> rank) !unsent;
        let ((frame, _, _, regions) as row) = encode_row rank in
        let start = tel_now () in
        let records = states.(rank).st_records = Some true in
        queue rank (message rank (Wire.Schedule_row (row_header ~records row)));
        let push = Transport.start_send_frame (conn rank) frame in
        queue rank (fun () ->
            push ()
            && begin
                 startup_span rank ~category:Trace.Transfer ~label:"row send"
                   ~bytes:(float_of_int (Bytes.length frame))
                   ~start ();
                 ship ~rank regions;
                 true
               end);
        row_queued.(rank) <- true;
        respond_prefetch rank;
        pump rank
    | None ->
        step ();
        List.iter handle
          (Event_loop.poll handshake ~writing:(writing ()) ~timeout:0.05)
  done;
  let peers =
    Array.init nw (fun rank ->
        match states.(rank).st_addr with
        | Some a -> a
        | None -> fail_cleanup ~rank "no peer address")
  in
  List.iter (fun rank -> queue rank (message rank (Wire.Peers peers))) ranks;
  (* then only push: a rank with its peers table may be running, and
     what it reports is the supervision's to read *)
  step ();
  while List.exists sending ranks do
    (try ignore (Unix.select [] (writing ()) [] 0.05)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    step ()
  done;
  List.iter
    (fun (name, mode) -> Hashtbl.replace policy_by_array name mode)
    (Policy.decisions packer);
  (* from here on only the [nw] ranks with blocks take part *)
  let states = Array.sub states 0 nw in
  (* (pass, natural-order position) ordering shared by pass boundaries
     and the final assembly *)
  let order = Domain_exec.natural_order model ~sp ~tp in
  let pos = Hashtbl.create (sp * tp) in
  Array.iteri (fun i (s, t) -> Hashtbl.replace pos ((s * tp) + t) i) order;
  (* Owned regions set as they are, then journals in (pass,
     natural-order) order: the final assembly into [arrays], and each
     pass boundary into its copies.  [unknown] handles a name [arrays]
     does not hold. *)
  let assemble (arrays : (string, float Dist_array.t) Hashtbl.t) ~unknown
      (regions : Wire.part_payload list) (entries : Wire.block_writes list) =
    List.iter
      (fun payload ->
        let p = Orion_dsm.Codec.decode_part payload in
        match Hashtbl.find_opt arrays p.pt_array with
        | Some arr -> Dist_array.apply_partition arr p
        | None -> unknown p.pt_array)
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
  (* -- pass boundaries ------------------------------------------------
     When the run checkpoints, every rank ships one Pass_report per pass
     barrier, in pass order.  Once every rank has reported a pass, its
     boundary is complete: the reports fold into copies of the model
     arrays — never the master's own instance, which the final assembly
     owns — each rank's cumulative buffered shadows replace its last
     ones, and the driver gets the boundary. *)
  let copies : (string, float Dist_array.t) Hashtbl.t = Hashtbl.create 8 in
  if report_passes then
    List.iter
      (fun (n, a) ->
        Hashtbl.replace copies n
          (Dist_array.of_partition (Dist_array.to_partition a)))
      inst.Orion.App.inst_arrays;
  let reported = Array.init nw (fun _ -> Queue.create ()) in
  let latest_shadows : Dist_array.partition list array = Array.make nw [] in
  let boundaries = ref 0 in
  let note_pass_report ~boundary rank report =
    Queue.push report reported.(rank);
    while Array.for_all (fun q -> not (Queue.is_empty q)) reported do
      let pass = Array.map Queue.pop reported in
      assemble copies ~unknown:ignore
        (List.concat_map (fun (regions, _, _) -> regions) (Array.to_list pass))
        (List.concat_map (fun (_, entries, _) -> entries) (Array.to_list pass));
      Array.iteri
        (fun r (_, _, parts) ->
          latest_shadows.(r) <- List.map Orion_dsm.Codec.decode_part parts)
        pass;
      incr boundaries;
      boundary !boundaries
    done
  in
  let boundary_view () =
    Orion.Engine.buffered_view inst
      ~live:(fun name arr ->
        Option.value (Hashtbl.find_opt copies name) ~default:arr)
      (Array.to_list latest_shadows)
  in
  (* -- supervise execution ------------------------------------------ *)
  let supervise ~boundary =
    let pass_report = function
      | Event_loop.Message
          ( rank,
            Wire.Pass_report { pp_regions; pp_entries; pp_buffered; _ } ) ->
          note_pass_report ~boundary rank (pp_regions, pp_entries, pp_buffered);
          true
      | _ -> false
    in
    salvage :=
      (fun () ->
        let until = Unix.gettimeofday () +. 1.0 in
        let rec go () =
          match Event_loop.poll handshake ~timeout:0.05 with
          | [] -> ()
          | events ->
              List.iter (fun e -> ignore (pass_report e)) events;
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
        (fun event ->
          if not (pass_report event) then
            match event with
            | Event_loop.Message
                (rank, Wire.Block_report { br_regions; br_entries; _ }) ->
                states.(rank).st_report <- Some (br_regions, br_entries)
            | Event_loop.Message
                (rank, Wire.Buffer_flush { bf_parts; bf_totals; _ }) ->
                states.(rank).st_flush <- Some (bf_parts, bf_totals)
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
                  let shift (s : Trace.span) =
                    { s with Trace.start_sec = s.Trace.start_sec +. offset }
                  in
                  (* the rank's first spans take in its master start-up
                     spans, in start order *)
                  let spans =
                    List.merge
                      (fun (a : Trace.span) (b : Trace.span) ->
                        compare a.Trace.start_sec b.Trace.start_sec)
                      (List.rev startup_spans.(rank))
                      (List.map shift (Array.to_list pt_spans))
                  in
                  startup_spans.(rank) <- [];
                  Telemetry.import_spans mtel ~shard:rank ~offset:0.0
                    (Array.of_list spans);
                  Telemetry.import_costs mtel ~shard:rank pt_costs;
                  Telemetry.note_dropped mtel ~shard:rank pt_dropped;
                  let s = pw0 +. offset and f = pw1 +. offset in
                  Hashtbl.replace pass_windows pt_pass
                    (match Hashtbl.find_opt pass_windows pt_pass with
                    | Some (s0, f0) -> (Float.min s0 s, Float.max f0 f)
                    | None -> (s, f))
                end
            | Event_loop.Message (rank, Wire.Done stats) ->
                if
                  states.(rank).st_report = None
                  || states.(rank).st_flush = None
                then fail_cleanup ~rank "done before final reports";
                states.(rank).st_done <- Some stats
            | Event_loop.Message (rank, Wire.Fatal { f_reason; _ }) -> (
                (* a crashed worker makes its peers complain about closed
                   sockets; blame the crash, not the collateral — and a
                   worker that failed guarded, by the reason it sent *)
                match abnormal_exit_wait ~except:rank with
                | Some (r, status) ->
                    fail_cleanup ~rank:r "%s" (exit_reason r status)
                | None -> fail_cleanup ~rank "%s" f_reason)
            | Event_loop.Message (rank, m) ->
                fail_cleanup ~rank "unexpected %s during execution" (Wire.tag m)
            | Event_loop.Closed rank -> (
                (* give the exit status a moment to become reapable so
                   the error names the real cause (e.g. the injected
                   abort) *)
                match poll_exit ~tries:20 (List.assoc rank pids) with
                | `Exited st -> fail_cleanup ~rank "%s" (status_reason st)
                | `Running | `Gone -> (
                    match abnormal_exit_wait ~except:rank with
                    | Some (r, st) ->
                        fail_cleanup ~rank:r "%s" (status_reason st)
                    | None ->
                        fail_cleanup ~rank "worker socket closed mid-run")))
        (List.stable_sort
           (fun a b -> compare (failure a) (failure b))
           (let events = Event_loop.poll handshake ~timeout:0.1 in
            (* one poll may read several ranks' Fatals: each reason is
               kept for [exit_reason], whichever rank gets the blame *)
            List.iter
              (function
                | Event_loop.Message (rank, Wire.Fatal { f_reason; _ }) ->
                    states.(rank).st_fatal <- Some f_reason
                | _ -> ())
              events;
            events))
    done;
    salvage := ignore
  in
  (* -- orderly shutdown and the final state ------------------------- *)
  let finish () =
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
        match wait_exit ~seconds:5.0 pid with
        | `Running ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
        | `Exited (Unix.WEXITED 0) | `Gone -> ()
        | `Exited status ->
            err ~rank "%s after completion" (status_reason status))
      pids;
    (* the ranks beyond the space cut have exited too *)
    for rank = nw to procs - 1 do
      Transport.close_conn (conn rank)
    done;
    let arr_tbl : (string, float Dist_array.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (n, a) -> Hashtbl.replace arr_tbl n a)
      inst.Orion.App.inst_arrays;
    (* non-buffered arrays: owned regions as they are, journals in
       (pass, natural-order) order — a serialization of the
       happens-before order, reproducing the serial element values
       bitwise *)
    let reports =
      Array.to_list states |> List.filter_map (fun st -> st.st_report)
    in
    assemble arr_tbl ~unknown:(err "block report for unknown array %S")
      (List.concat_map fst reports)
      (List.concat_map snd reports);
    (* buffered arrays: every rank's shadows, in ascending rank order *)
    Array.iteri
      (fun rank st ->
        let payloads, totals = Option.value st.st_flush ~default:([], []) in
        List.iter
          (fun payload ->
            let part = Orion_dsm.Codec.decode_part payload in
            let name = part.Dist_array.pt_array in
            (match Hashtbl.find_opt arr_tbl name with
            | Some arr -> Orion.Engine.merge_part arr part
            | None -> err "buffer flush for unknown array %S" name);
            let flushed_total =
              Array.fold_left ( +. ) 0.0 part.Dist_array.pt_values
            in
            let bytes = float_of_int (Bytes.length payload) in
            account name bytes;
            account_full (Array.length part.Dist_array.pt_keys);
            net_span ~rank name bytes;
            (* the worker computed its accumulator total over the same
               entries in the same order: must match bitwise *)
            match List.assoc_opt name totals with
            | Some reported when reported = flushed_total -> ()
            | Some reported ->
                err ~rank
                  "accumulator total mismatch for %S: reported %h, flushed %h"
                  name reported flushed_total
            | None -> err ~rank "no accumulator total for %S" name)
          payloads)
      states;
    (* token traffic, as reported per worker *)
    let stats =
      Array.mapi
        (fun rank st ->
          match st.st_done with
          | Some s -> s
          | None -> err ~rank "missing worker stats")
        states
    in
    Array.iteri
      (fun rank (s : Wire.worker_stats) ->
        List.iter
          (fun (name, bytes) ->
            account name bytes;
            net_span ~rank name bytes)
          s.Wire.ws_bytes_by_array;
        bytes_full := !bytes_full +. s.Wire.ws_bytes_full;
        List.iter
          (fun (name, label) -> Hashtbl.replace policy_by_array name label)
          s.Wire.ws_policy_by_array)
      stats;
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    {
      Orion.Engine.no_outcome with
      o_domains = nw;
      o_entries = sum (fun s -> s.Wire.ws_entries);
      (* workers compile their own kernels (falling back per-worker if a
         body is unsupported); report the master-side switch *)
      o_compiled = Orion.Compile.enabled ();
      o_bytes_by_array = sorted bytes_by_array;
      o_bytes_full = !bytes_full;
      o_policy_by_array = sorted policy_by_array;
      o_windows =
        List.map (fun (pass, (s, f)) -> (pass, s, f)) (sorted pass_windows);
    }
  in
  {
    Orion.Engine.passes =
      (fun ~boundary -> guard (fun () -> supervise ~boundary));
    boundary_view;
    finish = (fun () -> guard finish);
  }

(** Install {!start} as [Orion.Engine]'s distributed backend. *)
let install ~(materialize : Dist_worker.materialize) =
  Orion.Engine.distributed_runner := Some (start ~materialize)
