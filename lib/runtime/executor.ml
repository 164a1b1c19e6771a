(** Distributed execution of scheduled loops (paper §4.3–4.4, Figs. 7–8).

    The executor really runs the loop body (so numeric results are
    exact for serializable schedules — the executed order is itself a
    valid serial order), while charging computation and communication
    to the simulated cluster's virtual clocks:

    - {b 1D}: each worker runs its space partition; global barrier.
    - {b ordered 2D}: wavefront over (space, time); a global step per
      anti-diagonal with a synchronization barrier (Fig. 7e).
    - {b unordered 2D}: workers start from different time indices and
      rotate partitions (Fig. 7f); with [pipeline_depth] > 1 each
      worker holds several time partitions and overlaps communication
      with computation (Fig. 8).

    Computation cost per block is *measured* (wall-clock of the real
    OCaml execution) and scaled by the cost model's language factor. *)

open Orion_sim

type 'v body = worker:int -> key:int array -> value:'v -> unit

type pass_stats = {
  sim_time : float;  (** cluster time consumed by this pass *)
  compute_seconds : float;  (** sum of per-block measured compute *)
  bytes_sent : float;
  entries_executed : int;
  steps : int;
}

let now_wall () = Unix.gettimeofday ()

(* Structured-log one completed pass; returns [st] so call sites can
   wrap their result expression. *)
let log_pass strategy (st : pass_stats) =
  if Log.enabled Log.Debug then
    Log.debug ~src:"executor"
      ~kv:
        [
          ("strategy", strategy);
          ("sim_time", Log.float st.sim_time);
          ("bytes", Log.float st.bytes_sent);
          ("entries", Log.int st.entries_executed);
          ("steps", Log.int st.steps);
        ]
      "pass complete";
  st


(* Execute one block, measuring real compute time; returns seconds. *)
let run_block (body : 'v body) ~worker (b : 'v Schedule.block) =
  let t0 = now_wall () in
  Array.iter (fun (key, v) -> body ~worker ~key ~value:v) b.Schedule.entries;
  now_wall () -. t0

(** Override for modeled (rather than measured) compute cost: seconds
    charged per entry.  Benchmarks that must mirror the paper's
    testbed speed use this; tests use measurement. *)
type compute_cost = Measured | Per_entry of float

let block_cost cost measured_seconds n_entries =
  match cost with
  | Measured -> measured_seconds
  | Per_entry c -> c *. float_of_int n_entries

(* ------------------------------------------------------------------ *)
(* 1D                                                                  *)
(* ------------------------------------------------------------------ *)

let run_1d cluster ?(compute = Measured) (sched : 'v Schedule.t) (body : 'v body)
    =
  let t_start = Cluster.now cluster in
  let bytes0 = cluster.Cluster.bytes_sent in
  let workers = Cluster.num_workers cluster in
  let compute_total = ref 0.0 in
  let executed = ref 0 in
  for s = 0 to sched.Schedule.space_parts - 1 do
    let w = s mod workers in
    let b = Schedule.block sched ~space:s ~time:0 in
    let measured = run_block body ~worker:w b in
    let secs = block_cost compute measured (Array.length b.Schedule.entries) in
    compute_total := !compute_total +. secs;
    executed := !executed + Array.length b.Schedule.entries;
    Cluster.compute cluster ~worker:w ~label:(Printf.sprintf "1d s%d" s) secs
  done;
  Cluster.barrier cluster ~label:"1d";
  log_pass "1d"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = !compute_total;
      bytes_sent = cluster.Cluster.bytes_sent -. bytes0;
      entries_executed = !executed;
      steps = 1;
    }

(* ------------------------------------------------------------------ *)
(* Ordered 2D (wavefront)                                              *)
(* ------------------------------------------------------------------ *)

let run_2d_ordered cluster ?(compute = Measured) ?(rotated_label = "rotated")
    ~rotated_bytes_per_partition (sched : 'v Schedule.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let bytes0 = cluster.Cluster.bytes_sent in
  let workers = Cluster.num_workers cluster in
  let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
  let compute_total = ref 0.0 in
  let executed = ref 0 in
  (* one global step per anti-diagonal; lexicographic order of the
     original iteration space is preserved because block (s, t) runs
     only after (s, t-1) and (s-1, t) *)
  for g = 0 to sp + tp - 2 do
    for s = 0 to sp - 1 do
      let t = g - s in
      if t >= 0 && t < tp then begin
        let w = s mod workers in
        (* the time partition's data arrives from the worker that used
           it in the previous step; the previous step ended with a
           global barrier, so the transfer starts from aligned clocks
           and sits on this step's critical path (no overlap with
           computation — the ordering constraint forbids proceeding) *)
        if s > 0 && rotated_bytes_per_partition > 0.0 then begin
          let bytes = rotated_bytes_per_partition in
          let cost = cluster.Cluster.cost in
          cluster.Cluster.bytes_sent <- cluster.Cluster.bytes_sent +. bytes;
          (* marshal + unmarshal, then the wire transfer; the transfer
             is recorded at its start (the clock *before* the charge —
             recording after the charge used to shift the Fig.-12-style
             bandwidth series one transfer-window late) *)
          Cluster.compute_raw cluster ~worker:w ~category:Orion_obs.Trace.Marshal
            ~label:rotated_label
            (2.0 *. Orion_sim.Cost_model.marshal_time cost bytes);
          let start = Cluster.clock cluster w in
          Cluster.compute_raw cluster ~worker:w
            ~category:Orion_obs.Trace.Transfer ~label:rotated_label ~bytes
            (Orion_sim.Cost_model.transfer_time cost bytes
            +. cost.network_latency_sec);
          Orion_sim.Recorder.record cluster.Cluster.recorder ~start_sec:start
            ~duration_sec:(Orion_sim.Cost_model.transfer_time cost bytes)
            ~bytes
        end;
        let b = Schedule.block sched ~space:s ~time:t in
        let measured = run_block body ~worker:w b in
        let secs =
          block_cost compute measured (Array.length b.Schedule.entries)
        in
        compute_total := !compute_total +. secs;
        executed := !executed + Array.length b.Schedule.entries;
        Cluster.compute cluster ~worker:w
          ~label:(Printf.sprintf "2d-ordered s%d.t%d" s t)
          secs
      end
    done;
    Cluster.barrier cluster ~label:"2d-ordered"
  done;
  log_pass "2d-ordered"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = !compute_total;
      bytes_sent = cluster.Cluster.bytes_sent -. bytes0;
      entries_executed = !executed;
      steps = sp + tp - 1;
    }

(* ------------------------------------------------------------------ *)
(* Unordered 2D with pipelined rotation                                *)
(* ------------------------------------------------------------------ *)

(* Workers own [pipeline_depth] time partitions at a time; worker [w]
   executes time index (w * depth + step) mod time_parts at each step,
   then ships that partition's rotated data to its predecessor, who
   will need it [depth] steps later. *)
let run_2d_unordered cluster ?(compute = Measured) ?(pipeline_depth = 2)
    ?(rotated_label = "rotated") ~rotated_bytes_per_partition
    (sched : 'v Schedule.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let bytes0 = cluster.Cluster.bytes_sent in
  let workers = Cluster.num_workers cluster in
  let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
  (* space partitions are assigned round-robin; with sp = workers this
     is the 1:1 assignment of Fig. 8 *)
  let depth = max 1 (min pipeline_depth (tp / max sp 1)) in
  let arrivals = Array.make tp 0.0 (* partition ready time at new owner *) in
  let compute_total = ref 0.0 in
  let executed = ref 0 in
  (* serializable order: steps outer, space partitions inner — blocks
     within a step differ in both space and time index *)
  for step = 0 to tp - 1 do
    for s = 0 to sp - 1 do
      let w = s mod workers in
      let t = ((s * depth) + step) mod tp in
      (* the first [depth] partitions each worker touches are assigned
         to it up front; later ones must have arrived from the
         successor worker *)
      if step >= depth && rotated_bytes_per_partition > 0.0 then
        Cluster.recv cluster ~dst:w ~arrival:arrivals.(t)
          ~label:rotated_label ~bytes:rotated_bytes_per_partition
          ~cross_machine:
            (Cluster.machine_of cluster w
            <> Cluster.machine_of cluster ((s + 1) mod sp mod workers));
      let b = Schedule.block sched ~space:s ~time:t in
      let measured = run_block body ~worker:w b in
      let secs =
        block_cost compute measured (Array.length b.Schedule.entries)
      in
      compute_total := !compute_total +. secs;
      executed := !executed + Array.length b.Schedule.entries;
      Cluster.compute cluster ~worker:w
        ~label:(Printf.sprintf "2d-unordered s%d.t%d" s t)
        secs;
      (* ship the just-used partition to the predecessor worker *)
      if rotated_bytes_per_partition > 0.0 then begin
        let pred = (s - 1 + sp) mod sp mod workers in
        arrivals.(t) <-
          Cluster.send cluster ~src:w ~dst:pred ~label:rotated_label
            ~bytes:rotated_bytes_per_partition
      end
    done
  done;
  Cluster.barrier cluster ~label:"2d-unordered";
  log_pass "2d-unordered"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = !compute_total;
      bytes_sent = cluster.Cluster.bytes_sent -. bytes0;
      entries_executed = !executed;
      steps = tp;
    }

(* ------------------------------------------------------------------ *)
(* Time-major (for unimodular transforms)                              *)
(* ------------------------------------------------------------------ *)

(** After a unimodular transformation, all dependences are carried by
    the outermost (time) transformed dimension: time partitions run
    sequentially with a barrier, space partitions within one time
    partition run in parallel. *)
let run_time_major cluster ?(compute = Measured) ?(comm_label = "shifted")
    ~comm_bytes_per_step (sched : 'v Schedule.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let bytes0 = cluster.Cluster.bytes_sent in
  let workers = Cluster.num_workers cluster in
  let compute_total = ref 0.0 in
  let executed = ref 0 in
  for t = 0 to sched.Schedule.time_parts - 1 do
    for s = 0 to sched.Schedule.space_parts - 1 do
      let w = s mod workers in
      let b = Schedule.block sched ~space:s ~time:t in
      let measured = run_block body ~worker:w b in
      let secs =
        block_cost compute measured (Array.length b.Schedule.entries)
      in
      compute_total := !compute_total +. secs;
      executed := !executed + Array.length b.Schedule.entries;
      Cluster.compute cluster ~worker:w
        ~label:(Printf.sprintf "time-major s%d.t%d" s t)
        secs;
      if comm_bytes_per_step > 0.0 then
        ignore
          (Cluster.send cluster ~src:w ~dst:((s + 1) mod workers)
             ~label:comm_label ~bytes:comm_bytes_per_step)
    done;
    Cluster.barrier cluster ~label:"time-major"
  done;
  log_pass "time-major"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = !compute_total;
      bytes_sent = cluster.Cluster.bytes_sent -. bytes0;
      entries_executed = !executed;
      steps = sched.Schedule.time_parts;
    }

(* ------------------------------------------------------------------ *)
(* Serial reference                                                    *)
(* ------------------------------------------------------------------ *)

(** Run all entries on worker 0 (the serial baseline).  [shuffle_seed]
    randomizes the sample order as serial SGD training would. *)
let run_serial cluster ?(compute = Measured) ?shuffle_seed
    (iter : 'v Orion_dsm.Dist_array.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let t0 = now_wall () in
  let n = ref 0 in
  (match shuffle_seed with
  | Some seed ->
      let entries = Orion_dsm.Dist_array.entries iter in
      Schedule.shuffle_in_place ~seed entries;
      Array.iter
        (fun (key, v) ->
          incr n;
          body ~worker:0 ~key ~value:v)
        entries
  | None ->
      Orion_dsm.Dist_array.iter
        (fun key v ->
          incr n;
          body ~worker:0 ~key ~value:v)
        iter);
  let measured = now_wall () -. t0 in
  let secs = block_cost compute measured !n in
  Cluster.compute cluster ~worker:0 ~label:"serial" secs;
  Cluster.advance_all cluster ~label:"serial" (Cluster.clock cluster 0);
  log_pass "serial"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = secs;
      bytes_sent = 0.0;
      entries_executed = !n;
      steps = 1;
    }
