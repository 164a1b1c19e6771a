(** The simulated distributed cluster.

    Workers are arranged on machines; each worker advances a private
    virtual clock.  Computation charges time to one worker's clock;
    communication charges marshalling CPU to the sender, transfer time
    over the (shared per-machine) network, and synchronizes the
    receiver's clock with the arrival time.  Barriers align all clocks.

    Every charge also emits a categorized span on the cluster's
    {!Orion_obs.Trace}, so per-worker timelines (compute vs. marshal vs. transfer
    vs. waiting) can be exported and aggregated after a run.  The
    optional [label] arguments name what the time was spent on (a
    schedule block, a rotated DistArray, a parameter server).

    The real numeric work is executed in-process by the caller; the
    cluster only accounts for *when* each piece would have happened on
    the paper's testbed. *)

open Orion_obs

type t = {
  num_machines : int;
  workers_per_machine : int;
  cost : Cost_model.t;
  clocks : float array;  (** per-worker virtual time *)
  recorder : Recorder.t;
  trace : Trace.t;
  mutable bytes_sent : float;
  mutable messages_sent : int;
}

let create ?(recorder = Recorder.create ()) ?(trace = Trace.create ())
    ~num_machines ~workers_per_machine ~cost () =
  Log.info ~src:"cluster"
    ~kv:
      [
        ("machines", Log.int num_machines);
        ("workers_per_machine", Log.int workers_per_machine);
      ]
    "cluster created";
  {
    num_machines;
    workers_per_machine;
    cost;
    clocks = Array.make (num_machines * workers_per_machine) 0.0;
    recorder;
    trace;
    bytes_sent = 0.0;
    messages_sent = 0;
  }

let num_workers t = t.num_machines * t.workers_per_machine
let machine_of t w = w / t.workers_per_machine
let clock t w = t.clocks.(w)
let now t = Array.fold_left max 0.0 t.clocks

(** Advance all clocks to at least [time] (e.g. after driver-side
    work); the wait is traced as idle time. *)
let advance_all ?label t time =
  Array.iteri
    (fun i c ->
      if c < time then begin
        Trace.add t.trace ?label ~worker:i ~category:Trace.Idle ~start_sec:c
          ~duration_sec:(time -. c);
        t.clocks.(i) <- time
      end)
    t.clocks

(** Charge [seconds] of computation (already scaled by the caller if
    it was measured rather than modeled) to worker [w]. *)
let compute ?label t ~worker seconds =
  let d = seconds *. t.cost.language_overhead in
  Trace.add t.trace ?label ~worker ~category:Trace.Compute
    ~start_sec:t.clocks.(worker) ~duration_sec:d;
  t.clocks.(worker) <- t.clocks.(worker) +. d

(** Charge unscaled time (system work such as hash-table maintenance
    that is not application-language code).  [category] refines what
    the time was (e.g. [Trace.Transfer] for a blocking rotation). *)
let compute_raw ?(category = Trace.Compute) ?label ?bytes t ~worker seconds =
  Trace.add t.trace ?label ?bytes ~worker ~category
    ~start_sec:t.clocks.(worker) ~duration_sec:seconds;
  t.clocks.(worker) <- t.clocks.(worker) +. seconds

(** Transfer [bytes] from [src] to [dst]; returns the arrival time but
    does not block the receiver (use [recv] or [send_recv]). *)
let send ?label t ~src ~dst ~bytes =
  t.bytes_sent <- t.bytes_sent +. bytes;
  t.messages_sent <- t.messages_sent + 1;
  let same_machine = machine_of t src = machine_of t dst in
  if same_machine then begin
    let d = Cost_model.intra_transfer_time t.cost bytes in
    Trace.add t.trace ?label ~bytes ~worker:src ~category:Trace.Transfer
      ~start_sec:t.clocks.(src) ~duration_sec:d;
    t.clocks.(src) <- t.clocks.(src) +. d;
    t.clocks.(src)
  end
  else begin
    let m = Cost_model.marshal_time t.cost bytes in
    Trace.add t.trace ?label ~worker:src ~category:Trace.Marshal
      ~start_sec:t.clocks.(src) ~duration_sec:m;
    t.clocks.(src) <- t.clocks.(src) +. m;
    let start = t.clocks.(src) in
    let d = Cost_model.transfer_time t.cost bytes in
    Trace.add t.trace ?label ~bytes ~worker:src ~category:Trace.Transfer
      ~start_sec:start ~duration_sec:d;
    Recorder.record t.recorder ~start_sec:start ~duration_sec:d ~bytes;
    start +. t.cost.network_latency_sec +. d
  end

(** Block worker [dst] until [arrival] (plus unmarshalling cost for
    cross-machine transfers, charged as marshalling again). *)
let recv ?label t ~dst ~arrival ~bytes ~cross_machine =
  if arrival > t.clocks.(dst) then begin
    Trace.add t.trace ?label ~worker:dst ~category:Trace.Idle
      ~start_sec:t.clocks.(dst)
      ~duration_sec:(arrival -. t.clocks.(dst));
    t.clocks.(dst) <- arrival
  end;
  if cross_machine then begin
    let m = Cost_model.marshal_time t.cost bytes in
    Trace.add t.trace ?label ~worker:dst ~category:Trace.Marshal
      ~start_sec:t.clocks.(dst) ~duration_sec:m;
    t.clocks.(dst) <- t.clocks.(dst) +. m
  end

(** Synchronous point-to-point transfer. *)
let send_recv ?label t ~src ~dst ~bytes =
  let arrival = send ?label t ~src ~dst ~bytes in
  recv ?label t ~dst ~arrival ~bytes
    ~cross_machine:(machine_of t src <> machine_of t dst)

(** Global barrier: all workers wait for the slowest. *)
let barrier ?label t =
  let m = now t +. t.cost.barrier_cost_sec in
  Array.iteri
    (fun w c ->
      Trace.add t.trace ?label ~worker:w ~category:Trace.Barrier_wait
        ~start_sec:c ~duration_sec:(m -. c))
    t.clocks;
  Array.fill t.clocks 0 (Array.length t.clocks) m

(** Reduce-and-broadcast of [bytes_per_worker] (e.g. accumulators or a
    data-parallel parameter sync): a simple flat aggregation model —
    every machine sends its workers' data to a coordinator and receives
    the merged result. *)
let all_reduce ?label t ~bytes_per_worker =
  barrier ?label t;
  let per_machine = bytes_per_worker *. float_of_int t.workers_per_machine in
  let total_in = per_machine *. float_of_int (max 0 (t.num_machines - 1)) in
  (* inbound to the coordinator is serialized on its NIC; outbound
     broadcast likewise *)
  let d = 2.0 *. Cost_model.transfer_time t.cost total_in in
  let m =
    2.0 *. Cost_model.marshal_time t.cost per_machine
    +. t.cost.network_latency_sec *. 2.0
  in
  t.bytes_sent <- t.bytes_sent +. (2.0 *. total_in);
  let start = now t in
  if Log.enabled Log.Debug then
    Log.debug ~src:"cluster"
      ~kv:
        [
          ("start", Log.float start);
          ("bytes", Log.float (2.0 *. total_in));
          ("duration", Log.float (d +. m));
        ]
      "all_reduce";
  Recorder.record t.recorder ~start_sec:start ~duration_sec:d
    ~bytes:(2.0 *. total_in);
  let share = 2.0 *. total_in /. float_of_int (max 1 (num_workers t)) in
  Array.iteri
    (fun w _ ->
      Trace.add t.trace ?label ~bytes:share ~worker:w ~category:Trace.Transfer
        ~start_sec:start ~duration_sec:d;
      Trace.add t.trace ?label ~worker:w ~category:Trace.Marshal
        ~start_sec:(start +. d) ~duration_sec:m)
    t.clocks;
  let finish = start +. d +. m in
  Array.fill t.clocks 0 (Array.length t.clocks) finish

(** Per-pass metrics over this cluster's trace (spans from [since],
    default the whole run). *)
let metrics ?since t =
  Metrics.of_trace ?since ~num_workers:(num_workers t) t.trace

(** Reset clocks (new experiment) without discarding the recorder or
    the trace. *)
let reset t =
  Array.fill t.clocks 0 (Array.length t.clocks) 0.0;
  t.bytes_sent <- 0.0;
  t.messages_sent <- 0
