(** Schedule race detection: replay a {!Orion_runtime.Schedule.t}
    against observed dependence edges.

    Each executor strategy induces a happens-before partial order over
    schedule blocks — per-worker program order plus the strategy's
    synchronization (barriers for 1D / ordered-2D / time-major;
    partition-rotation messages for unordered 2D, Fig. 8).  A
    dependence edge whose endpoints land in blocks unrelated by
    happens-before would race on a real cluster (the sequential
    simulator masks it); for ordered loops, an edge whose endpoints run
    in the wrong order additionally breaks the serial semantics. *)

(* The model type, its derivation and its natural order live with the
   multicore executor (the same happens-before order drives real
   parallel execution); this module adds the worker-aware HB matrix and
   race checks on top. *)
open Orion_runtime.Domain_exec

type t = {
  model : model;
  workers : int;
  sp : int;
  tp : int;
  block_of : (string, int * int * int) Hashtbl.t;
      (** iteration key -> (space, time, position within block) *)
  hb : bool array array;  (** strict happens-before, transitively closed *)
  natural : (int * int) array;  (** the executor's block execution sequence *)
}

let bid t ~s ~time = (s * t.tp) + time

(** Build the happens-before analysis of [sched] under [model] with
    [workers] simulated workers. *)
let build model ~workers (sched : 'v Orion_runtime.Schedule.t) : t =
  let sp = sched.Orion_runtime.Schedule.space_parts in
  let tp = sched.Orion_runtime.Schedule.time_parts in
  let n = sp * tp in
  let hb = Array.make_matrix n n false in
  let t =
    {
      model;
      workers;
      sp;
      tp;
      block_of = Hashtbl.create 1024;
      hb;
      natural = natural_order model ~sp ~tp;
    }
  in
  (* index every scheduled iteration *)
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun time b ->
          let pos = ref 0 in
          Orion_runtime.Schedule.iter_block
            (fun key _ ->
              Hashtbl.replace t.block_of (Depobserve.iter_key key)
                (s, time, !pos);
              incr pos)
            b)
        row)
    sched.Orion_runtime.Schedule.blocks;
  let edge src dst = hb.(src).(dst) <- true in
  (* per-worker program order: worker [s mod workers] runs its blocks in
     natural order *)
  let last = Array.make workers (-1) in
  Array.iter
    (fun (s, time) ->
      let id = bid t ~s ~time and w = s mod workers in
      if last.(w) >= 0 then edge last.(w) id;
      last.(w) <- id)
    t.natural;
  (* the model's synchronization: the dependence counters' edges, and
     the barrier closing every step where the simulator places one *)
  List.iter (fun (src, dst) -> edge src dst) (block_edges model ~sp ~tp);
  if barrier_per_step model then begin
    let id (s, time) = bid t ~s ~time in
    let steps = natural_steps model ~sp ~tp in
    for k = 1 to Array.length steps - 1 do
      Array.iter
        (fun a -> Array.iter (fun b -> edge (id a) (id b)) steps.(k))
        steps.(k - 1)
    done
  end;
  (* transitive closure *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if hb.(i).(k) then
        for j = 0 to n - 1 do
          if hb.(k).(j) then hb.(i).(j) <- true
        done
    done
  done;
  t

let happens_before t (s1, t1) (s2, t2) =
  t.hb.(bid t ~s:s1 ~time:t1).(bid t ~s:s2 ~time:t2)

type violation = {
  v_edge : Depobserve.edge;
  v_src_block : int * int;
  v_dst_block : int * int;
  v_why : [ `Concurrent | `Reversed | `Unscheduled ];
}

let why_to_string = function
  | `Concurrent -> "concurrent"
  | `Reversed -> "reversed"
  | `Unscheduled -> "unscheduled"

(** Check every observed dependence edge against the schedule.  An edge
    whose endpoints are in happens-before-unrelated blocks is a race.
    For [ordered] loops the serial order must also be preserved:
    reversed block order — or reversed positions within one block — is
    a violation (for unordered loops any dependence-respecting total
    order is a valid serial order, so reversal is permitted). *)
let check t ~ordered (edges : Depobserve.edge list) : violation list =
  List.filter_map
    (fun (e : Depobserve.edge) ->
      let src = Hashtbl.find_opt t.block_of (Depobserve.iter_key e.Depobserve.e_src) in
      let dst = Hashtbl.find_opt t.block_of (Depobserve.iter_key e.Depobserve.e_dst) in
      match (src, dst) with
      | None, _ | _, None ->
          Some
            {
              v_edge = e;
              v_src_block = (-1, -1);
              v_dst_block = (-1, -1);
              v_why = `Unscheduled;
            }
      | Some (s1, t1, p1), Some (s2, t2, p2) ->
          let b1 = (s1, t1) and b2 = (s2, t2) in
          let mk why =
            Some { v_edge = e; v_src_block = b1; v_dst_block = b2; v_why = why }
          in
          if b1 = b2 then
            if ordered && p2 < p1 then mk `Reversed else None
          else if happens_before t b1 b2 then None
          else if happens_before t b2 b1 then
            if ordered then mk `Reversed else None
          else mk `Concurrent)
    edges

let violation_to_string v =
  Printf.sprintf "%s dependence %s: block (%d,%d) vs (%d,%d) %s"
    (Depobserve.kind_to_string v.v_edge.Depobserve.e_kind)
    (Depobserve.edge_to_string v.v_edge)
    (fst v.v_src_block) (snd v.v_src_block) (fst v.v_dst_block)
    (snd v.v_dst_block)
    (why_to_string v.v_why)

(** A total order on blocks consistent with happens-before.  With
    [adversarial] false this reproduces the executor's own sequence;
    with [adversarial] true, ready blocks are emitted in *reverse*
    executor order, maximally reordering happens-before-unrelated
    blocks — the witness serial order used by the differential runner
    (a racy schedule makes the two orders compute different results). *)
let linearize t ~adversarial : (int * int) array =
  let n = t.sp * t.tp in
  let rank = Array.make n 0 in
  Array.iteri
    (fun i (s, time) -> rank.(bid t ~s ~time) <- i)
    t.natural;
  let emitted = Array.make n false in
  let out = Array.make n (0, 0) in
  for i = 0 to n - 1 do
    let best = ref (-1) in
    for b = 0 to n - 1 do
      if not emitted.(b) then begin
        let ready = ref true in
        for p = 0 to n - 1 do
          if t.hb.(p).(b) && not emitted.(p) then ready := false
        done;
        if !ready then
          match !best with
          | -1 -> best := b
          | cur ->
              if
                (adversarial && rank.(b) > rank.(cur))
                || ((not adversarial) && rank.(b) < rank.(cur))
              then best := b
      end
    done;
    assert (!best >= 0);
    emitted.(!best) <- true;
    out.(i) <- (!best / t.tp, !best mod t.tp)
  done;
  out
