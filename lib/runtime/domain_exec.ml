(** Real multicore execution of a schedule on a pool of OCaml 5
    {!Domain}s.

    The simulated executor {!Executor.run} walks a schedule's blocks
    sequentially in {!natural_order} and charges virtual time; this
    module executes the same blocks with *actual* parallelism while
    enforcing the happens-before order that {!natural_order} linearizes
    (and the race checker in [lib/verify] models) for each strategy:

    - {b 1D}: space partitions carry no cross-block dependences — every
      block is immediately ready; the pass ends with an implicit join.
    - {b ordered 2D}: block [(s, t)] waits for [(s-1, t)] and
      [(s, t-1)] — the dataflow form of the wavefront.  A 2D plan only
      exists when every dependence is carried within one space
      partition (same [s]) or one time partition (same [t]), and the
      two edges transitively order all same-[s] and all same-[t] pairs
      in lexicographic order, so serial (ordered-loop) semantics are
      preserved.
    - {b unordered 2D}: per-space-partition chains in pipeline-step
      order, plus the partition-rotation edge [(s, t) -> (s-1 mod sp,
      t)] that hands time partition [t] to the worker that uses it
      [depth] steps later.
    - {b time-major} (unimodular): dependences may connect consecutive
      transformed-time values across arbitrary space partitions, so
      every block of time partition [t] waits on all blocks of [t-1]
      (the barrier, as a dependence counter).

    Readiness is tracked with one {!Atomic} pending-predecessor counter
    per block (the "Atomic epoch counter per partition-window" design);
    a completed block batch-decrements its successors and {e chains
    directly into the first one it made ready} — only surplus ready
    blocks reach the shared pool, so a dependence chain costs no lock
    traffic at all.  Per-entry and steal accounting live in per-domain
    shards summed after the join; the hot loop touches no shared
    counter.  Work distribution is a small work-stealing pool: each
    domain owns a LIFO stack of ready blocks, pushes work it unlocks
    onto its own stack (locality), and steals from the other domains
    when its stack drains.  Idle domains block on a condition variable
    rather than spinning, so the pool degrades gracefully on machines
    with fewer cores than domains.

    The caller provides one loop-body closure {e per domain}: bodies
    typically close over a per-domain interpreter environment (see
    [Orion.Engine]), because {!Orion_lang.Interp.env} is single-writer
    by design. *)

type model =
  | M_1d
  | M_2d_ordered
  | M_2d_unordered of { depth : int }
  | M_time_major

let model_to_string = function
  | M_1d -> "1d"
  | M_2d_ordered -> "2d-ordered"
  | M_2d_unordered { depth } -> Printf.sprintf "2d-unordered(depth=%d)" depth
  | M_time_major -> "time-major"

(** The effective pipeline depth of an unordered-2D pass: at most the
    time partitions each space partition gets. *)
let effective_depth ~pipeline_depth ~sp ~tp =
  max 1 (min pipeline_depth (tp / max sp 1))

(** The execution model of a plan's schedule, shared by every backend. *)
let model_of_plan (plan : Orion_analysis.Plan.t) ~pipeline_depth ~sp ~tp =
  match plan.Orion_analysis.Plan.strategy with
  | Orion_analysis.Plan.One_d _ | Orion_analysis.Plan.Data_parallel -> M_1d
  | Orion_analysis.Plan.Two_d _ ->
      if plan.Orion_analysis.Plan.ordered then M_2d_ordered
      else M_2d_unordered { depth = effective_depth ~pipeline_depth ~sp ~tp }
  | Orion_analysis.Plan.Two_d_unimodular _ -> M_time_major

(** The simulated executor's global steps, each the blocks it runs in
    that step in order.  Concatenated they are {!natural_order}. *)
let natural_steps model ~sp ~tp =
  match model with
  | M_1d -> [| Array.init sp (fun s -> (s, 0)) |]
  | M_2d_ordered ->
      (* anti-diagonal g holds the blocks (s, g - s) *)
      Array.init
        (max 0 (sp + tp - 1))
        (fun g ->
          let lo = max 0 (g - tp + 1) in
          Array.init
            (max 0 (min (sp - 1) g - lo + 1))
            (fun i -> (lo + i, g - lo - i)))
  | M_2d_unordered { depth } ->
      Array.init tp (fun step ->
          Array.init sp (fun s -> (s, ((s * depth) + step) mod tp)))
  | M_time_major -> Array.init tp (fun t -> Array.init sp (fun s -> (s, t)))

(** The sequential order in which the simulated executor visits blocks
    (one dependence-respecting linearization of the model). *)
let natural_order model ~sp ~tp =
  Array.concat (Array.to_list (natural_steps model ~sp ~tp))

(** Whether a barrier closes every global step of the model (the
    ordered wavefront's anti-diagonals, time-major's time partitions)
    rather than only the pass. *)
let barrier_per_step = function
  | M_2d_ordered | M_time_major -> true
  | M_1d | M_2d_unordered _ -> false

(* ------------------------------------------------------------------ *)
(* Dependence graph (immediate edges only; counters do the rest)       *)
(* ------------------------------------------------------------------ *)

(* Blocks are numbered s * tp + t.  [block_edges] enumerates every
   immediate happens-before edge of the model; the pool and the
   distributed runtime both consume exactly this list, so a schedule
   slice executed by a remote worker waits on the same predecessors a
   domain would. *)
let block_edges model ~sp ~tp : (int * int) list =
  let id s t = (s * tp) + t in
  let edges = ref [] in
  let edge src dst = edges := (src, dst) :: !edges in
  (match model with
  | M_1d -> ()
  | M_2d_ordered ->
      for s = 0 to sp - 1 do
        for t = 0 to tp - 1 do
          if s > 0 then edge (id (s - 1) t) (id s t);
          if t > 0 then edge (id s (t - 1)) (id s t)
        done
      done
  | M_2d_unordered { depth } ->
      (* per-space-partition chain in pipeline-step order *)
      for s = 0 to sp - 1 do
        for step = 0 to tp - 2 do
          edge
            (id s (((s * depth) + step) mod tp))
            (id s (((s * depth) + step + 1) mod tp))
        done
      done;
      (* rotation: after (s, t) runs at step k, time partition t is
         shipped onward and next used at step k+depth.  Chaining each
         time partition's blocks in (step, s) order yields exactly the
         rotation edges (s, t) -> (s-1 mod sp, t) in the canonical
         tp = sp*depth layout, and stays acyclic (steps never decrease
         along an edge) when the iteration space yields fewer time
         partitions than sp*depth — where the naive mod-sp rotation
         would wrap into an earlier step and deadlock the pool. *)
      let step_of s t = (((t - (s * depth)) mod tp) + tp) mod tp in
      for t = 0 to tp - 1 do
        let blocks = Array.init sp (fun s -> (step_of s t, s)) in
        Array.sort compare blocks;
        for i = 0 to sp - 2 do
          let _, s1 = blocks.(i) and _, s2 = blocks.(i + 1) in
          edge (id s1 t) (id s2 t)
        done
      done
  | M_time_major ->
      (* barrier between consecutive time partitions *)
      for t = 1 to tp - 1 do
        for s1 = 0 to sp - 1 do
          for s2 = 0 to sp - 1 do
            edge (id s1 (t - 1)) (id s2 t)
          done
        done
      done);
  List.rev !edges

let build_graph model ~sp ~tp =
  let n = sp * tp in
  let succs = Array.make n [] in
  let pending = Array.make n 0 in
  List.iter
    (fun (src, dst) ->
      succs.(src) <- dst :: succs.(src);
      pending.(dst) <- pending.(dst) + 1)
    (block_edges model ~sp ~tp);
  (succs, pending)

(* The crew: helper domains, parked between calls of [parallel].
   Helper [i] runs the job in its slot and leaves the outcome there.  On
   OCaml 5.1 heap is kept after each spawn and join: a domain per
   shard load raised perfbench's [mf-dist] peak RSS from 43 MB to
   73-77 MB over 45 s (an empty domain as much), while one parked
   domain kept it level.  So a helper is never joined.  [lock] guards
   the slots; [moved] tells helpers of a job and the caller of an
   outcome. *)
type slot =
  | Job of (unit -> unit)
  | Done of (exn * Printexc.raw_backtrace) option

let callers = Mutex.create ()
let lock = Mutex.create ()
let moved = Condition.create ()
let slots = ref [||]

let outcome f x =
  match f x with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

(* under [lock]: wait until helper [i]'s slot holds what [pick] takes *)
let rec await i pick =
  match pick !slots.(i) with
  | Some v -> v
  | None ->
      Condition.wait moved lock;
      await i pick

let rec serve i =
  let job =
    Mutex.protect lock (fun () ->
        await i (function Job f -> Some f | _ -> None))
  in
  let o = outcome job () in
  Mutex.protect lock (fun () ->
      !slots.(i) <- Done o;
      Condition.broadcast moved);
  serve i

(* helpers follow the caller's backtrace setting, per domain on 5.1 *)
let parallel n f =
  let record = Printexc.backtrace_status () in
  let job i () =
    Printexc.record_backtrace record;
    f i
  in
  let outcomes =
    Mutex.protect callers @@ fun () ->
    Mutex.protect lock (fun () ->
        for i = Array.length !slots to n - 2 do
          ignore (Domain.spawn (fun () -> serve i));
          slots := Array.append !slots [| Done None |]
        done;
        for i = 0 to n - 2 do
          !slots.(i) <- Job (job (i + 1))
        done;
        if n > 1 then Condition.broadcast moved);
    let mine = outcome f 0 in
    Mutex.protect lock (fun () ->
        mine
        :: List.init (max 0 (n - 1)) (fun i ->
               await i (function Done o -> Some o | _ -> None)))
  in
  List.find_map Fun.id outcomes
  |> Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type stats = {
  domains : int;
  blocks_run : int;
  entries_run : int;
  steals : int;  (** ready blocks taken from another domain's stack *)
  wall_seconds : float;  (** real elapsed time of the parallel section *)
}

let run_schedule ?(telemetry = Orion_obs.Telemetry.disabled) ?(pass = 0)
    ~domains ~model (sched : 'v Schedule.t)
    ~(bodies : 'v Schedule.body array) : stats =
  let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
  let n = sp * tp in
  let domains = max 1 (min domains (Array.length bodies)) in
  let tel_on =
    Orion_obs.Telemetry.enabled telemetry
    && Orion_obs.Telemetry.workers telemetry >= domains
  in
  let tel_now () =
    if tel_on then Orion_obs.Telemetry.now telemetry else 0.0
  in
  let succs, pending0 = build_graph model ~sp ~tp in
  let pending = Array.map Atomic.make pending0 in
  let remaining = Atomic.make n in
  (* per-domain shards: each slot is written only by its own domain and
     summed after the join, so the per-entry hot loop touches no shared
     counter at all *)
  let entries_run = Array.make domains 0 in
  let steals = ref 0 (* only touched under [m] *) in
  (* shared pool state: per-domain LIFO stacks of ready block ids, all
     guarded by one mutex (blocks are coarse, contention is negligible
     at this granularity) *)
  let m = Mutex.create () in
  let cv = Condition.create () in
  let stacks = Array.make domains [] in
  let failed = ref false in
  let push_ready ~who ids =
    if ids <> [] then begin
      Mutex.lock m;
      stacks.(who) <- ids @ stacks.(who);
      Condition.broadcast cv;
      Mutex.unlock m
    end
  in
  let finished () = Atomic.get remaining = 0 in
  (* take own work first (LIFO), then steal from the other stacks; the
     flag says whether the block was stolen (for the wait-span label) *)
  let take who =
    match stacks.(who) with
    | id :: rest ->
        stacks.(who) <- rest;
        Some (id, false)
    | [] ->
        let found = ref None in
        let d = ref 1 in
        while !found = None && !d < domains do
          let v = (who + !d) mod domains in
          (match stacks.(v) with
          | id :: rest ->
              stacks.(v) <- rest;
              incr steals;
              found := Some (id, true)
          | [] -> ());
          incr d
        done;
        !found
  in
  (* Pop or steal the next ready block, blocking on the pool while
     empty.  The whole acquisition is one telemetry wait span on the
     calling domain's shard: Idle (labeled "steal" when it ended by
     taking another domain's work) when a block arrives, Barrier_wait
     "join" when the pass is over and the domain just waited for the
     stragglers. *)
  let next who =
    let wait_start = tel_now () in
    Mutex.lock m;
    let rec loop () =
      if !failed || finished () then None
      else
        match take who with
        | Some r -> Some r
        | None ->
            Condition.wait cv m;
            loop ()
    in
    let r = loop () in
    Mutex.unlock m;
    if tel_on then begin
      let finish = tel_now () in
      match r with
      | Some (_, stolen) ->
          Orion_obs.Telemetry.span telemetry ~shard:who ~worker:who
            ~category:Orion_obs.Trace.Idle
            ?label:(if stolen then Some "steal" else None)
            ~start:wait_start ~finish
      | None ->
          Orion_obs.Telemetry.span telemetry ~shard:who ~worker:who
            ~category:Orion_obs.Trace.Barrier_wait ~label:"join"
            ~start:wait_start ~finish
    end;
    Option.map fst r
  in
  (* Run one block and return the successors it made ready.  The
     entry loop accounts into the domain's private shard (one add per
     block, no shared counter), and the successor decrements are
     batched into a single filter pass over the edge list. *)
  let run_block who id =
    let space = id / tp and time = id mod tp in
    let b = Schedule.block sched ~space ~time in
    let body = bodies.(who) in
    let n = Schedule.length b in
    let block_start = tel_now () in
    Schedule.run_block body b;
    if tel_on then
      Orion_obs.Telemetry.block telemetry ~shard:who ~worker:who ~pass ~space
        ~time ~start:block_start ~finish:(tel_now ()) ~entries:n;
    entries_run.(who) <- entries_run.(who) + n;
    let ready =
      List.filter
        (fun succ -> Atomic.fetch_and_add pending.(succ) (-1) = 1)
        succs.(id)
    in
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      (* last block: wake everyone up to exit *)
      Mutex.lock m;
      Condition.broadcast cv;
      Mutex.unlock m
    end;
    ready
  in
  let worker who =
    (* Chain directly into the first successor each block unlocks —
       the common case in 2D schedules, where a block's completion
       readies exactly its chain successor — and publish only the
       surplus to the shared pool.  A long chain then costs zero
       mutex round-trips instead of one per block. *)
    let rec drain id =
      match run_block who id with
      | [] -> ()
      | next_id :: rest ->
          push_ready ~who rest;
          drain next_id
    in
    let rec loop () =
      match next who with
      | None -> ()
      | Some id ->
          (match drain id with
          | () -> ()
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.protect m (fun () ->
                  failed := true;
                  Condition.broadcast cv);
              Printexc.raise_with_backtrace e bt);
          loop ()
    in
    loop ()
  in
  (* seed the pool with every block that has no predecessors,
     round-robin across domains *)
  let seeds = Array.make domains [] in
  for id = n - 1 downto 0 do
    if Atomic.get pending.(id) = 0 then
      seeds.(id mod domains) <- id :: seeds.(id mod domains)
  done;
  Array.iteri (fun d ids -> stacks.(d) <- ids) seeds;
  let t0 = Orion_obs.Clock.now () in
  (* the calling domain is worker 0; a body's exception ends its
     worker and cancels the pass, and [parallel] re-raises it *)
  parallel domains worker;
  let wall = Orion_obs.Clock.elapsed t0 in
  {
    domains;
    blocks_run = n;
    entries_run = Array.fold_left ( + ) 0 entries_run;
    steals = !steals;
    wall_seconds = wall;
  }
