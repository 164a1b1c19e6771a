(** A Bösen-style parameter server (Wei et al., SoCC'15), used as the
    data-parallel baseline substrate and as the server tier for
    DistArrays that cannot be locality-partitioned.

    Parameters are a flat float vector sharded across server processes
    (one per machine).  Each worker holds a full local cache; reads hit
    the cache, writes accumulate per-worker deltas that are also folded
    into the worker's own cache (a worker always sees its own updates —
    SGD runs locally sequentially).  [sync] is the per-data-pass
    synchronization barrier: deltas are summed into the master copy and
    caches refresh.  [communicate_round] implements Bösen's managed
    communication: under a bandwidth budget, the largest-magnitude
    pending deltas are sent early and fresh values flow back. *)

type t = {
  name : string;
  cluster : Orion_sim.Cluster.t;
  master : float array;
  caches : float array array;  (** per-worker cached copy *)
  deltas : (int, float) Hashtbl.t array;  (** per-worker pending updates *)
  bytes_per_entry_up : float;  (** key + value *)
  bytes_per_entry_down : float;
}

let create ~cluster ~name ~size ~init =
  let master = Array.init size init in
  let workers = Orion_sim.Cluster.num_workers cluster in
  {
    name;
    cluster;
    master;
    caches = Array.init workers (fun _ -> Array.copy master);
    deltas = Array.init workers (fun _ -> Hashtbl.create 1024);
    bytes_per_entry_up = 12.0;
    bytes_per_entry_down = 12.0;
  }

let size t = Array.length t.master
let master t = t.master

(** Read parameter [i] from worker [w]'s cache. *)
let read t ~worker i = t.caches.(worker).(i)

(** Apply delta [u] to parameter [i] from worker [w]: visible to [w]
    immediately, to others only after communication. *)
let update t ~worker i u =
  t.caches.(worker).(i) <- t.caches.(worker).(i) +. u;
  let tbl = t.deltas.(worker) in
  (match Hashtbl.find_opt tbl i with
  | None -> Hashtbl.replace tbl i u
  | Some prev -> Hashtbl.replace tbl i (prev +. u));
  ()

let pending_updates t ~worker = Hashtbl.length t.deltas.(worker)

(* apply one worker's pending deltas to the master copy *)
let apply_deltas_to_master t ~worker =
  let items =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.deltas.(worker) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (k, v) -> t.master.(k) <- t.master.(k) +. v) items;
  Hashtbl.reset t.deltas.(worker);
  List.length items

(** Per-pass synchronization: all workers push their deltas, the master
    aggregates, caches refresh.  [cache_entries] bounds the number of
    entries each worker re-fetches (defaults to the full model). *)
let sync ?cache_entries t =
  let cluster = t.cluster in
  let workers = Orion_sim.Cluster.num_workers cluster in
  let down_entries =
    float_of_int (Option.value cache_entries ~default:(size t))
  in
  (* communication: per-worker upload of pending deltas, then download
     of refreshed cache entries, modeled as an all-reduce-like phase *)
  let max_pending =
    let m = ref 0 in
    for w = 0 to workers - 1 do
      m := max !m (pending_updates t ~worker:w)
    done;
    !m
  in
  let bytes_per_worker =
    (float_of_int max_pending *. t.bytes_per_entry_up)
    +. (down_entries *. t.bytes_per_entry_down)
  in
  Orion_sim.Cluster.all_reduce cluster ~label:t.name ~bytes_per_worker;
  for w = 0 to workers - 1 do
    ignore (apply_deltas_to_master t ~worker:w)
  done;
  for w = 0 to workers - 1 do
    Array.blit t.master 0 t.caches.(w) 0 (size t)
  done

(** One managed-communication round (Bösen CM): each worker sends its
    [k] largest-magnitude pending deltas ([k] from the per-round byte
    budget), the master applies them, and fresh values for those
    entries propagate to all caches.  Returns the total bytes sent. *)
let communicate_round t ~budget_bytes_per_worker =
  let cluster = t.cluster in
  let workers = Orion_sim.Cluster.num_workers cluster in
  let per_entry = t.bytes_per_entry_up +. t.bytes_per_entry_down in
  let k = int_of_float (budget_bytes_per_worker /. per_entry) in
  if k <= 0 then 0.0
  else begin
    let touched = Hashtbl.create 1024 in
    let total_bytes = ref 0.0 in
    for w = 0 to workers - 1 do
      let items =
        Hashtbl.fold (fun i v acc -> (i, v) :: acc) t.deltas.(w) []
        |> List.sort (fun (_, a) (_, b) -> compare (abs_float b) (abs_float a))
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let chosen = take k items in
      List.iter
        (fun (i, v) ->
          t.master.(i) <- t.master.(i) +. v;
          Hashtbl.remove t.deltas.(w) i;
          Hashtbl.replace touched i ())
        chosen;
      let bytes = float_of_int (List.length chosen) *. per_entry in
      total_bytes := !total_bytes +. bytes;
      (* early communication happens in the background; charge the
         network (recorder) and a small marshalling cost to the worker.
         The background transfer is traced without advancing the clock
         — it overlaps the worker's ongoing computation. *)
      Orion_sim.Cluster.compute_raw cluster ~worker:w
        ~category:Orion_obs.Trace.Marshal ~label:t.name
        (Orion_sim.Cost_model.marshal_time
           cluster.Orion_sim.Cluster.cost bytes);
      let transfer_sec =
        Orion_sim.Cost_model.transfer_time
          cluster.Orion_sim.Cluster.cost bytes
      in
      Orion_obs.Trace.add cluster.Orion_sim.Cluster.trace ~label:t.name
        ~bytes ~worker:w ~category:Orion_obs.Trace.Transfer
        ~start_sec:(Orion_sim.Cluster.clock cluster w)
        ~duration_sec:transfer_sec;
      Orion_sim.Recorder.record cluster.Orion_sim.Cluster.recorder
        ~start_sec:(Orion_sim.Cluster.clock cluster w)
        ~duration_sec:transfer_sec ~bytes
    done;
    (* fresh values flow back to every cache for the touched entries,
       preserving each worker's still-pending local deltas *)
    Hashtbl.iter
      (fun i () ->
        for w = 0 to workers - 1 do
          let pending =
            Option.value (Hashtbl.find_opt t.deltas.(w) i) ~default:0.0
          in
          t.caches.(w).(i) <- t.master.(i) +. pending
        done)
      touched;
    !total_bytes
  end

(** A server-side random access (no cache): charges a network round
    trip — the §6.3 no-prefetch path. *)
let random_access_read t ~worker i =
  let cluster = t.cluster in
  let lat = cluster.Orion_sim.Cluster.cost.network_latency_sec in
  Orion_sim.Cluster.compute_raw cluster ~worker
    ~category:Orion_obs.Trace.Idle ~label:t.name (2.0 *. lat);
  t.master.(i)

(** A bulk prefetch of [n] entries: one round trip plus streaming. *)
let bulk_fetch t ~worker ~n =
  let cluster = t.cluster in
  let bytes = float_of_int n *. t.bytes_per_entry_down in
  let cost = cluster.Orion_sim.Cluster.cost in
  let lat = cost.network_latency_sec in
  let transfer_sec = Orion_sim.Cost_model.transfer_time cost bytes in
  (* record the stream at its start (pre-advance clock), not after the
     round trip completed *)
  let start = Orion_sim.Cluster.clock cluster worker +. (2.0 *. lat) in
  Orion_sim.Recorder.record cluster.Orion_sim.Cluster.recorder
    ~start_sec:start ~duration_sec:transfer_sec ~bytes;
  Orion_sim.Cluster.compute_raw cluster ~worker
    ~category:Orion_obs.Trace.Transfer ~label:t.name ~bytes
    ((2.0 *. lat) +. transfer_sec);
  Orion_sim.Cluster.compute_raw cluster ~worker
    ~category:Orion_obs.Trace.Marshal ~label:t.name
    (Orion_sim.Cost_model.marshal_time cost bytes)
