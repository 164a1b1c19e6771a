(** Wall-clock telemetry for the real runtimes (domain pool and
    distributed workers).

    The recording side follows the same single-writer-shard discipline
    as the loop profiler: a telemetry value owns one {e shard} per
    worker (domain or distributed rank), and each worker appends spans
    and block costs only to its own shard — no locks, no contention on
    the hot path, and recording is a no-op (without even reading the
    clock) when telemetry is disabled.  After the run the shards are
    merged deterministically, in shard order, into one timeline.

    Timestamps are {!Clock} (monotonic) seconds relative to the
    telemetry [epoch], the absolute monotonic time at {!create}.
    Shipping the absolute epoch is what lets the distributed master
    align spans recorded by other processes: on one machine every
    process shares the monotonic origin, so a worker's span at relative
    time [x] lands on the master timeline at
    [x + (worker_epoch - master_epoch)] — see {!import_spans}.

    Besides raw spans, each shard accumulates a measured per-block cost
    table keyed [(pass, space, time)] — the empirical counterpart of
    the cost model behind [Plan.decide], which [orion explain
    --measured] re-costs the planner's candidates against. *)

type block_cost = {
  bc_pass : int;
  bc_space : int;  (** space-partition index sp *)
  bc_time : int;  (** time-partition index t *)
  bc_seconds : float;
  bc_entries : int;
}

type shard = {
  sh_trace : Trace.t;
  sh_costs : (int * int * int, float ref * int ref) Hashtbl.t;
      (** (pass, space, time) -> (seconds, entries), owned by one worker *)
  mutable sh_cursor : int;  (** first span not yet drained *)
  mutable sh_dropped_drained : int;  (** drops already handed out by drain *)
}

type t = {
  enabled : bool;
  epoch : float;  (** absolute {!Clock.now} at creation *)
  shards : shard array;
}

let create ?(enabled = true) ~workers () =
  {
    enabled;
    epoch = (if enabled then Clock.now () else 0.0);
    shards =
      Array.init (max workers 1) (fun _ ->
          {
            sh_trace = Trace.create ~enabled ();
            sh_costs = Hashtbl.create 64;
            sh_cursor = 0;
            sh_dropped_drained = 0;
          });
  }

let disabled = create ~enabled:false ~workers:1 ()
let enabled t = t.enabled
let epoch t = t.epoch
let workers t = Array.length t.shards

(** Current time on the telemetry clock (seconds since [epoch]).  Only
    meaningful while enabled; callers must guard with {!enabled} so the
    disabled path never even reads the clock. *)
let now t = if t.enabled then Clock.now () -. t.epoch else 0.0

(** [pass]/[time]/[space] tag rendered as a span label ("p0/t3/sp2"). *)
let block_label ~pass ~time ~space = Printf.sprintf "p%d/t%d/sp%d" pass time space

(** Record one span into [shard] (must be the caller's own shard). *)
let span ?label ?bytes t ~shard ~worker ~category ~start ~finish =
  if t.enabled then
    Trace.add ?label ?bytes t.shards.(shard).sh_trace ~worker ~category
      ~start_sec:start ~duration_sec:(finish -. start)

(** Record a block execution: a Compute span labeled with the block's
    [(pass, t, sp)] tag plus an entry in the measured-cost table. *)
let block t ~shard ~worker ~pass ~space ~time ~start ~finish ~entries =
  if t.enabled then begin
    let sh = t.shards.(shard) in
    Trace.add ~label:(block_label ~pass ~time ~space) sh.sh_trace ~worker
      ~category:Trace.Compute ~start_sec:start ~duration_sec:(finish -. start);
    let key = (pass, space, time) in
    match Hashtbl.find_opt sh.sh_costs key with
    | Some (sec, n) ->
        sec := !sec +. (finish -. start);
        n := !n + entries
    | None -> Hashtbl.add sh.sh_costs key (ref (finish -. start), ref entries)
  end

(* ------------------------------------------------------------------ *)
(* Merging and importing                                               *)
(* ------------------------------------------------------------------ *)

let shard_costs sh =
  Hashtbl.fold
    (fun (bc_pass, bc_space, bc_time) (sec, n) acc ->
      { bc_pass; bc_space; bc_time; bc_seconds = !sec; bc_entries = !n } :: acc)
    sh.sh_costs []

(** Worker side of distributed shipping: hand out everything [shard]
    recorded since the previous [drain] — spans past the cursor, the
    whole cost table, and any new drop count — then advance the cursor
    and clear the costs.  Single-writer safe when the owning worker
    calls it between passes. *)
let drain t ~shard =
  let sh = t.shards.(shard) in
  let all = Trace.spans sh.sh_trace in
  let fresh = Array.sub all sh.sh_cursor (Array.length all - sh.sh_cursor) in
  sh.sh_cursor <- Array.length all;
  let costs = shard_costs sh in
  Hashtbl.reset sh.sh_costs;
  let dropped = Trace.dropped sh.sh_trace - sh.sh_dropped_drained in
  sh.sh_dropped_drained <- Trace.dropped sh.sh_trace;
  (fresh, costs, dropped)

(** Master side: splice spans another process recorded into [shard],
    shifting each onto this telemetry's clock.  [offset] is
    [sender_epoch -. epoch t] — valid because the monotonic origin is
    shared by all processes on one machine. *)
let import_spans t ~shard ~offset spans =
  if t.enabled then
    Array.iter
      (fun (s : Trace.span) ->
        Trace.add_span t.shards.(shard).sh_trace
          { s with Trace.start_sec = s.Trace.start_sec +. offset })
      spans

let import_costs t ~shard costs =
  if t.enabled then
    let sh = t.shards.(shard) in
    List.iter
      (fun c ->
        let key = (c.bc_pass, c.bc_space, c.bc_time) in
        match Hashtbl.find_opt sh.sh_costs key with
        | Some (sec, n) ->
            sec := !sec +. c.bc_seconds;
            n := !n + c.bc_entries
        | None ->
            Hashtbl.add sh.sh_costs key (ref c.bc_seconds, ref c.bc_entries))
      costs

let note_dropped t ~shard n =
  if n > 0 then Trace.add_dropped t.shards.(shard).sh_trace n

(** All shards merged, in shard order, into one fresh trace (with the
    shards' drop counts summed) — deterministic for a fixed set of
    recorded spans. *)
let merged_trace t =
  let total = Array.fold_left (fun a sh -> a + Trace.length sh.sh_trace) 0 t.shards in
  let merged = Trace.create ~max_spans:(max total 1) () in
  Array.iter
    (fun sh ->
      Trace.iter (Trace.add_span merged) sh.sh_trace;
      Trace.add_dropped merged (Trace.dropped sh.sh_trace))
    t.shards;
  merged

let dropped t =
  Array.fold_left (fun a sh -> a + Trace.dropped sh.sh_trace) 0 t.shards

(** Measured cost per block, summed across shards, sorted by
    [(pass, space, time)]. *)
let block_costs t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      List.iter
        (fun c ->
          let key = (c.bc_pass, c.bc_space, c.bc_time) in
          match Hashtbl.find_opt tbl key with
          | Some (sec, n) ->
              sec := !sec +. c.bc_seconds;
              n := !n + c.bc_entries
          | None -> Hashtbl.add tbl key (ref c.bc_seconds, ref c.bc_entries))
        (shard_costs sh))
    t.shards;
  Hashtbl.fold
    (fun (bc_pass, bc_space, bc_time) (sec, n) acc ->
      { bc_pass; bc_space; bc_time; bc_seconds = !sec; bc_entries = !n } :: acc)
    tbl []
  |> List.sort (fun a b ->
         compare (a.bc_pass, a.bc_space, a.bc_time)
           (b.bc_pass, b.bc_space, b.bc_time))

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

(** What the wire encoding did to the traffic: actual bytes shipped
    vs the same traffic in the raw layout (16 bytes per entry or
    journaled write), and the per-array key modes. *)
type comms_summary = {
  cs_bytes_shipped : float;
  cs_bytes_full : float;
  cs_by_array : (string * string) list;
}

type summary = {
  sm_mode : string;  (** "parallel" or "distributed" *)
  sm_workers : int;
  sm_trace : Trace.t;  (** merged timeline, shard order *)
  sm_dropped : int;
  sm_pass_metrics : (int * Metrics.t) list;  (** one per pass window *)
  sm_block_costs : block_cost list;
  sm_overall : Metrics.t;
  sm_comms : comms_summary option;  (** distributed runs only *)
}

(** Fold a finished run into a summary.  [windows] gives each pass's
    [(pass, start, finish)] on the telemetry clock; pass metrics are
    scoped to those windows, [sm_overall] covers the whole trace. *)
let summarize t ~mode ?comms ~windows () =
  let trace = merged_trace t in
  let num_workers = workers t in
  {
    sm_mode = mode;
    sm_workers = num_workers;
    sm_trace = trace;
    sm_dropped = dropped t;
    sm_pass_metrics =
      List.map
        (fun (pass, start, finish) ->
          (pass, Metrics.of_trace ~since:start ~until:finish ~num_workers trace))
        windows;
    sm_block_costs = block_costs t;
    sm_overall = Metrics.of_trace ~num_workers trace;
    sm_comms = comms;
  }

let comms_summary_json cs : Orion_report.json =
  Orion_report.Obj
    [
      ("bytes_shipped", Orion_report.Float cs.cs_bytes_shipped);
      ("bytes_full", Orion_report.Float cs.cs_bytes_full);
      ( "savings_fraction",
        Orion_report.Float
          (if cs.cs_bytes_full > 0.0 then
             1.0 -. (cs.cs_bytes_shipped /. cs.cs_bytes_full)
           else 0.0) );
      ( "by_array",
        Orion_report.Obj
          (List.map
             (fun (name, label) -> (name, Orion_report.Str label))
             cs.cs_by_array) );
    ]

let block_cost_json c : Orion_report.json =
  Orion_report.Obj
    [
      ("pass", Orion_report.Int c.bc_pass);
      ("space", Orion_report.Int c.bc_space);
      ("time", Orion_report.Int c.bc_time);
      ("seconds", Orion_report.Float c.bc_seconds);
      ("entries", Orion_report.Int c.bc_entries);
    ]

(** The summary as an {!Orion_report} payload (kind ["telemetry"] when
    enveloped): mode, workers, drop count, overall and per-pass
    metrics, and the measured block-cost table. *)
let summary_json sm : Orion_report.json =
  Orion_report.Obj
    [
      ("mode", Orion_report.Str sm.sm_mode);
      ("workers", Orion_report.Int sm.sm_workers);
      ("spans", Orion_report.Int (Trace.length sm.sm_trace));
      ("dropped", Orion_report.Int sm.sm_dropped);
      ("overall", Metrics.to_json_value sm.sm_overall);
      ( "per_pass",
        Orion_report.List
          (List.map
             (fun (pass, m) ->
               Orion_report.Obj
                 [
                   ("pass", Orion_report.Int pass);
                   ("metrics", Metrics.to_json_value m);
                 ])
             sm.sm_pass_metrics) );
      ( "block_costs",
        Orion_report.List (List.map block_cost_json sm.sm_block_costs) );
      ( "comms",
        match sm.sm_comms with
        | Some cs -> comms_summary_json cs
        | None -> Orion_report.Null );
    ]

(** Chrome trace-event JSON for the merged timeline, with the metrics
    and block costs embedded as extra top-level metadata (so one file
    both loads in a viewer and carries the aggregates). *)
let to_chrome_json ?pid_of_worker sm =
  Trace.to_chrome_json ?pid_of_worker
    ~extra:
      [
        ("mode", Orion_report.Str sm.sm_mode);
        ("workers", Orion_report.Int sm.sm_workers);
        ("overall", Metrics.to_json_value sm.sm_overall);
        ( "per_pass",
          Orion_report.List
            (List.map
               (fun (pass, m) ->
                 Orion_report.Obj
                   [
                     ("pass", Orion_report.Int pass);
                     ("metrics", Metrics.to_json_value m);
                   ])
               sm.sm_pass_metrics) );
        ( "block_costs",
          Orion_report.List (List.map block_cost_json sm.sm_block_costs) );
      ]
    sm.sm_trace

(** Default on/off: the [ORION_TELEMETRY] environment variable, off
    only when set to ["0"] (recording is cheap; the span buffers are
    the only cost). *)
let default_enabled () =
  match Sys.getenv_opt "ORION_TELEMETRY" with Some "0" -> false | _ -> true
