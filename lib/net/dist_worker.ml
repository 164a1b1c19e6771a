(** The distributed worker runtime ([orion-worker]): one OS process per
    space partition, executing its slice of the compiled schedule under
    the {e same} happens-before edges the domain pool and the race
    checker model ({!Orion_runtime.Domain_exec.block_edges}).

    A worker never receives code: it rebuilds the app instance
    deterministically from the registry ([materialize]) — host builtins
    are closures and cannot travel over the wire — while the master
    compiles the schedule.  It builds that instance from shapes only
    and reads no dataset record, unless a host builtin closes over the
    records; it takes the master's plan from the {!Wire.Plan} message
    instead of analysing the loop itself.  It never compiles the
    schedule either: its row arrives as its blocks' entries, keys and
    values ({!Wire.Schedule_row}, then the row's payload, decoded in
    place), so it runs exactly the master's blocks.  Float-valued
    blocks stay unboxed from the wire to the kernel, which it compiles
    while its row is still in flight.  DistArray {e contents} do
    travel: every placed non-buffered array is zeroed locally and
    refilled from the wire (regions in the row's payload for
    local/rotated/replicated placements, a bulk prefetch for
    server-hosted ones), so the shipping path is load-bearing, not
    decorative.

    Every written, non-buffered DistArray is kept consistent in one of
    two ways, chosen from its placement under the execution model
    ({!sharing}):

    - {e Owner-exclusive} placements move as whole regions.  A
      locally-partitioned array under a 1D or 2D model belongs to the
      space-partition owner, and its region never leaves that worker
      during a pass.  A rotated array under a 2D model belongs to
      whoever holds the time partition: every cross-worker
      happens-before edge [src → dst] of {!Domain_exec.block_edges}
      hands over one time partition [t], so its {!Wire.Rotation_token}
      carries the rotated arrays' slice for [t], and the receiver
      installs it just before running [dst].  A pass ends with an
      all-to-all {!Wire.Pass_sync} broadcasting the slices each rank
      held last.  No access hook is installed for these arrays, so
      when every written array is exclusive the compiled kernel runs
      its unboxed, hook-free path.
    - Everything else (time-major models, written server-hosted
      arrays) is {e journaled}: every element write is recorded via
      the interpreter's access hook, in execution order, and each
      token carries {e all} block write logs this worker knows and the
      destination has not seen — its own and relayed ones — so a
      receiver learns everything that happens-before the sending
      block, even transitively through ranks that never touched the
      data.  Incoming writes are applied last-writer-wins by (pass,
      natural-order position of the writing block): all writers of one
      element are happens-before-ordered and natural order linearizes
      happens-before, so this is exact no matter how tokens from
      different peers interleave.  The pass sync flushes the rest.

    Blocks that wrote nothing still send tokens — edge satisfaction is
    tracked by token arrival, not by payload content.  The final
    {!Wire.Block_report} ships each rank's owned regions and last-held
    slices (plus its own journal), which the master sets as they are.

    Buffered arrays get a local zero shadow (exactly the domain pool's
    per-domain shadows); the nonzero entries are flushed to the master
    at the end and merged in rank order. *)

open Orion_lang
module Dist_array = Orion_dsm.Dist_array
module Plan = Orion_analysis.Plan
module Domain_exec = Orion_runtime.Domain_exec
module Schedule = Orion_runtime.Schedule
module Telemetry = Orion_obs.Telemetry

(** Build app [name]'s instance on a worker: from shapes, reading no
    dataset record its host builtins do not need (the entries it runs
    arrive in its schedule row). *)
type materialize =
  string ->
  scale:float ->
  num_machines:int ->
  workers_per_machine:int ->
  Orion.App.instance option

exception Worker_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Worker_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Environment knobs                                                   *)
(* ------------------------------------------------------------------ *)

let timeout_env = "ORION_DIST_TIMEOUT"
let abort_rank_env = "ORION_DIST_ABORT_RANK"
let abort_after_env = "ORION_DIST_ABORT_AFTER"

(** The [ORION_DIST_TIMEOUT] deadline in seconds, else [default] (also
    when the variable is empty).  A malformed, non-finite or
    non-positive value is a {!Orion.Engine.Distributed_error} naming
    the variable: a past deadline would misreport a "timed out", and
    [nan] would disable the deadline altogether. *)
let timeout_seconds ~default =
  match Sys.getenv_opt timeout_env with
  | None | Some "" -> default
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some f when Float.is_finite f && f > 0.0 -> f
      | _ ->
          raise
            (Orion.Engine.Distributed_error
               {
                 de_rank = None;
                 de_reason =
                   Printf.sprintf
                     "%s=%S: expected a positive, finite number of seconds"
                     timeout_env s;
               }))

(** Fault injection for the failure-path tests: the designated rank
    calls [Unix._exit 13] just before executing its [n]-th block. *)
let abort_spec () =
  match Sys.getenv_opt abort_rank_env with
  | None -> None
  | Some r -> (
      match int_of_string_opt r with
      | None -> None
      | Some rank ->
          let after =
            match Sys.getenv_opt abort_after_env with
            | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
            | None -> 1
          in
          Some (rank, after))

let abort_exit_code = 13

(* ------------------------------------------------------------------ *)
(* Deadline-bounded blocking receives                                  *)
(* ------------------------------------------------------------------ *)

let rec wait_readable fd ~deadline ~what =
  let timeout = deadline -. Unix.gettimeofday () in
  if timeout <= 0.0 then fail "timed out waiting for %s" what;
  match Unix.select [ fd ] [] [] (Float.min timeout 0.5) with
  | [], _, _ -> wait_readable fd ~deadline ~what
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable fd ~deadline ~what

let recv_frame_with_deadline (c : Transport.conn) ~deadline ~what : bytes =
  wait_readable (Transport.fd c) ~deadline ~what;
  match Transport.recv_frame c with
  | Some payload -> payload
  | None -> fail "connection closed while waiting for %s" what

let recv_with_deadline c ~deadline ~what : Wire.msg =
  Wire.of_bytes (recv_frame_with_deadline c ~deadline ~what)

let accept_with_deadline (l : Transport.listener) ~deadline ~what :
    Transport.conn =
  wait_readable l.Transport.lfd ~deadline ~what;
  Transport.accept l

(* ------------------------------------------------------------------ *)
(* Owner-exclusive placements vs journaled ones                        *)
(* ------------------------------------------------------------------ *)

(** How the wire keeps one non-buffered DistArray consistent. *)
type sharing =
  | Local of int
      (** exclusive to the space-partition owner: the region along
          this array dimension that the space cut gives a rank *)
  | Rotating of int
      (** exclusive to the holder of a time partition: the slice along
          this array dimension that the time cut gives partition [t]
          moves whole along every same-[t] happens-before edge *)
  | Journaled  (** written with no single owner: every write journaled *)
  | Unwritten  (** never written by the loop: nothing travels back *)

(** [name]'s sharing, from its placement in [plan] under [model]. *)
let sharing (plan : Plan.t) (model : Domain_exec.model) name =
  let written =
    List.exists
      (fun (r : Orion_analysis.Refs.ref_info) -> r.array = name && r.is_write)
      plan.Plan.loop.Orion_analysis.Refs.refs
  in
  match (List.assoc_opt name plan.Plan.placements, model) with
  | _ when not written -> Unwritten
  | ( Some (Plan.Local_partitioned { array_dim }),
      (Domain_exec.M_1d | M_2d_ordered | M_2d_unordered _) ) ->
      Local array_dim
  | Some (Plan.Rotated { array_dim }), (M_2d_ordered | M_2d_unordered _) ->
      Rotating array_dim
  | _ -> Journaled

(** The index range [\[lo, hi)] of partition [p] of a cut along a
    dimension of [size] — the inverse of
    {!Orion_dsm.Partitioner.part_of}, whose first and last partitions
    absorb indices outside the boundaries. *)
let part_range (b : Orion_dsm.Partitioner.boundaries) p ~size =
  let last = Array.length b - 2 in
  ((if p = 0 then 0 else b.(p)), if p = last then size else b.(p + 1))

(* ------------------------------------------------------------------ *)
(* The worker protocol                                                 *)
(* ------------------------------------------------------------------ *)

(** The master sent [Shutdown] instead of a schedule row: the space cut
    has fewer partitions than workers were spawned, and this rank has
    no blocks. *)
exception No_row

(** Fail unless [iter] can run [row]: it must have the dims of the
    master's iteration space (keys are delinearized against them), and
    when it holds records of its own — which the app's host builtins
    read — exactly the master's entries, by count and by digest. *)
let check_space (iter : Value.t Dist_array.t) (row : Wire.row) =
  let name = Dist_array.name iter in
  let dims d = String.concat "x" (Array.to_list (Array.map string_of_int d)) in
  if Dist_array.dims iter <> row.Wire.sr_dims then
    fail "iteration space %S has dims %s, the master's has %s" name
      (dims (Dist_array.dims iter))
      (dims row.Wire.sr_dims);
  let count = Dist_array.count iter in
  if count > 0 then begin
    if count <> row.Wire.sr_entries then
      fail "iteration space %S has %d entries, the master's has %d" name count
        row.Wire.sr_entries;
    if Wire.space_digest iter <> row.Wire.sr_digest then
      fail "iteration space %S holds other entries than the master's" name
  end

(** The blocks of [row], decoded in place from its [payload] once at
    install, so that a malformed row fails there, not mid-pass.  They
    are all a worker keeps of its iteration space: every pass runs them
    as the pool runs its own. *)
let decode_blocks ~tp (row : Wire.row) payload =
  if Array.length row.Wire.sr_blocks <> tp then
    fail "schedule row has %d blocks, expected %d"
      (Array.length row.Wire.sr_blocks)
      tp;
  Wire.decode_row row payload

let serve (master : Transport.conn) ~(materialize : materialize) ~rank
    ~(listener : Transport.listener) : unit =
  let deadline = Unix.gettimeofday () +. timeout_seconds ~default:300.0 in
  let recv_master what = recv_with_deadline master ~deadline ~what in
  (* -- plan ------------------------------------------------------- *)
  let p =
    match recv_master "plan" with
    | Wire.Plan p -> p
    | m -> fail "expected plan, got %s" (Wire.tag m)
  in
  if p.p_rank <> rank then fail "plan for rank %d sent to rank %d" p.p_rank rank;
  if rank < 0 || rank >= p.p_procs then
    fail "rank %d out of range (%d workers)" rank p.p_procs;
  (* -- telemetry ----------------------------------------------------
     One local shard (this process is one worker).  Spans are recorded
     on this process's monotonic clock and drained to the master after
     every pass — the start-up spans with pass 0's — together with the
     absolute epoch that lets the master align them onto its own
     timeline. *)
  let tel = Telemetry.create ~enabled:p.p_telemetry ~workers:1 () in
  let tel_on = p.p_telemetry in
  let tel_now () = if tel_on then Telemetry.now tel else 0.0 in
  let tel_span ~category ~label ~bytes ~start =
    if tel_on then
      Telemetry.span tel ~shard:0 ~worker:rank ~category ~label ~bytes ~start
        ~finish:(tel_now ())
  in
  (* -- start-up: everything that needs only the plan ------------------
     Building the instance from shapes runs while the master compiles
     the schedule; the schedule itself arrives afterwards as this
     rank's row, with the entries the kernel is compiled for. *)
  let start = tel_now () in
  let inst =
    match
      materialize p.p_app ~scale:p.p_scale ~num_machines:p.p_num_machines
        ~workers_per_machine:p.p_workers_per_machine
    with
    | Some i -> i
    | None -> fail "unknown app %S" p.p_app
  in
  tel_span ~category:Orion_obs.Trace.Compute ~label:"materialize" ~bytes:0.0
    ~start;
  let plan = p.p_plan in
  let arrays = inst.Orion.App.inst_arrays in
  let buffered = inst.Orion.App.inst_buffered in
  (* -- shadows for buffered arrays, as every backend makes them ----- *)
  let env = inst.Orion.App.inst_env in
  let shadows = Orion.Engine.make_shadows inst env in
  let shadow_parts () =
    List.map (fun (_, shadow) -> Orion.Engine.shadow_part shadow) shadows
  in
  let packed parts =
    List.map (fun p -> fst (Orion_dsm.Codec.encode_part p)) parts
  in
  let placement name = List.assoc_opt name plan.Plan.placements in
  (* arrays whose contents the wire is responsible for *)
  let managed name =
    (not (List.mem name buffered)) && placement name <> None
  in
  (* -- announce: own listener + prefetch request ---------------------
     Both need only the plan, so they go out before the row arrives:
     the master then sends the row, the prefetch response and the peers
     table back to back, with no round trip in between.  The listener
     announcement also says whether this instance holds records, the
     only case in which the row carries a digest to check them by. *)
  Transport.send master
    (Wire.Listening
       {
         l_addr = Transport.addr_to_string listener.Transport.laddr;
         l_records = Dist_array.count inst.Orion.App.inst_iter > 0;
       });
  let prefetch_names =
    List.filter_map
      (fun (n, _) ->
        if managed n && placement n = Some Plan.Server then Some n else None)
      arrays
  in
  (* always sent, possibly empty, so the master's serving path is
     exercised every run *)
  Transport.send master
    (Wire.Prefetch_request { pr_arrays = prefetch_names });
  (* zero every managed array before its contents arrive: they must
     come over the wire, which makes the start-up shipment
     load-bearing.  Done after the announcement, while the master
     still encodes the row. *)
  List.iter
    (fun (n, a) ->
      if managed n then
        Array.iter
          (fun lin -> Dist_array.set_lin a lin 0.0)
          (Dist_array.sorted_keys a))
    arrays;
  (* -- the compiled kernel, while the row is in flight -----------------
     Compiled after the shadow rebinding above (the kernel captures
     env's current array bindings), for the iteration space's kind
     alone: a float space's kernel takes the row's float blocks
     unboxed.  The write-journal hook, installed below only when some
     array is journaled, is checked dynamically inside the kernel: while
     it is attached every DistArray access routes through the boxed,
     hook-calling path, so the journal sees exactly what it would see
     under the interpreter.  Without it the kernel runs the same
     unboxed path as the domain pool. *)
  let start = tel_now () in
  let kernel, body = Orion.Engine.loop_body inst env in
  tel_span ~category:Orion_obs.Trace.Compute ~label:"kernel compile"
    ~bytes:0.0 ~start;
  let arr_tbl : (string, float Dist_array.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (n, a) -> Hashtbl.replace arr_tbl n a) arrays;
  let apply_region ?pos ?len what payload =
    let p = Orion_dsm.Codec.decode_part ?pos ?len payload in
    match Hashtbl.find_opt arr_tbl p.pt_array with
    | Some a -> Dist_array.apply_partition a p
    | None -> fail "%s for unknown array %S" what p.pt_array
  in
  (* -- schedule row ----------------------------------------------------
     Check the row's header against this instance, then decode its
     payload in place: the blocks, and the regions that fill this
     rank's local, rotated and replicated arrays. *)
  let iter = inst.Orion.App.inst_iter in
  let row =
    match recv_master "schedule row" with
    | Wire.Schedule_row row -> row
    | Wire.Shutdown -> raise No_row
    | m -> fail "expected schedule-row, got %s" (Wire.tag m)
  in
  let sp = row.Wire.sr_sp and tp = row.Wire.sr_tp in
  let model = row.Wire.sr_model in
  if sp > p.p_procs || rank >= sp then
    fail "schedule row for rank %d of %d space partitions (%d workers)" rank
      sp p.p_procs;
  check_space iter row;
  let payload =
    recv_frame_with_deadline master ~deadline ~what:"schedule row payload"
  in
  let start = tel_now () in
  let blocks = decode_blocks ~tp row payload in
  Array.iter
    (fun { Wire.sp_off; sp_len } ->
      apply_region ~pos:sp_off ~len:sp_len "schedule row" payload)
    row.Wire.sr_regions;
  tel_span ~category:Orion_obs.Trace.Marshal ~label:"row install"
    ~bytes:(float_of_int (Bytes.length payload))
    ~start;
  (match recv_master "prefetch response" with
  | Wire.Prefetch_response parts ->
      List.iter (apply_region "prefetch response") parts
  | m -> fail "expected prefetch-response, got %s" (Wire.tag m));
  let peer_addrs =
    match recv_master "peers" with
    | Wire.Peers a -> a
    | m -> fail "expected peers, got %s" (Wire.tag m)
  in
  if Array.length peer_addrs <> sp then
    fail "peers table has %d entries, expected %d" (Array.length peer_addrs) sp;
  (* -- peer mesh: rank a connects to rank b iff a < b ----------------
     Every hello is answered, and a rank starts its first pass only once
     each higher rank has answered: a rank's listener is up from the
     start, so without the answer a rank could start its passes while a
     peer still installs its row.  Every rank thus waits for every
     other rank's start-up, with no round trip to the master. *)
  let peers : Transport.conn option array = Array.make sp None in
  let peer q =
    match peers.(q) with
    | Some c -> c
    | None -> fail "no connection to peer %d" q
  in
  let hello c =
    Transport.send c
      (Wire.Peer_hello { ph_rank = rank; ph_version = Wire.version })
  in
  let hello_from c ~what =
    match recv_with_deadline c ~deadline ~what with
    | Wire.Peer_hello { ph_rank = a; ph_version } ->
        if ph_version <> Wire.version then
          fail
            "peer %d speaks wire protocol version %d, this worker speaks %d \
             (mixed builds?)"
            a ph_version Wire.version;
        a
    | m -> fail "expected peer-hello, got %s" (Wire.tag m)
  in
  let loop = Event_loop.create () in
  for b = rank + 1 to sp - 1 do
    let c = Transport.connect (Transport.addr_of_string peer_addrs.(b)) in
    hello c;
    peers.(b) <- Some c;
    Event_loop.add loop b c
  done;
  for _ = 1 to rank do
    let c = accept_with_deadline listener ~deadline ~what:"peer mesh" in
    let a = hello_from c ~what:"peer hello" in
    if a < 0 || a >= rank || peers.(a) <> None then
      fail "peer hello from rank %d at rank %d" a rank;
    hello c;
    peers.(a) <- Some c;
    Event_loop.add loop a c
  done;
  for b = rank + 1 to sp - 1 do
    let a = hello_from (peer b) ~what:"peer hello answer" in
    if a <> b then fail "peer %d answered for rank %d" b a
  done;
  let classified =
    List.filter_map
      (fun (n, a) ->
        if managed n then Some (n, a, sharing plan model n) else None)
      arrays
  in
  let locals =
    List.filter_map
      (function n, a, Local d -> Some (n, a, d) | _ -> None)
      classified
  and rotating =
    List.filter_map
      (function n, a, Rotating d -> Some (n, a, d) | _ -> None)
      classified
  and journaled =
    List.filter_map (function n, _, Journaled -> Some n | _ -> None) classified
  in
  (* -- write journal (arrays with no single owner) ------------------ *)
  let order = Domain_exec.natural_order model ~sp ~tp in
  let natpos : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun i (s, t) -> Hashtbl.replace natpos ((s * tp) + t) i) order;
  let pos blk = try Hashtbl.find natpos blk with Not_found -> max_int in
  (* Version of the last write applied to each element, as
     (pass, natural-order position of the writing block).  The analysis
     guarantees all writers of one element are happens-before-ordered,
     and natural order linearizes happens-before, so last-writer-wins by
     version applies remote writes correctly regardless of the order
     tokens from different peers arrive in. *)
  let versions : (string * int array, int * int) Hashtbl.t =
    Hashtbl.create 256
  in
  let apply_write ~version (w : Wire.write) =
    match Hashtbl.find_opt arr_tbl w.w_array with
    | None -> ()
    | Some arr ->
        let stale =
          match Hashtbl.find_opt versions (w.w_array, w.w_key) with
          | Some v -> v > version
          | None -> false
        in
        if not stale then begin
          Hashtbl.replace versions (w.w_array, w.w_key) version;
          Dist_array.set arr w.w_key w.w_value
        end
  in
  let cur_version = ref (0, 0) in
  let current : Wire.write list ref = ref [] (* newest first *) in
  if journaled <> [] then
    env.Interp.on_array_access <-
      Some
        (fun ex ~write subs ->
          if write && List.mem ex.Value.ex_name journaled then
            match Hashtbl.find_opt arr_tbl ex.Value.ex_name with
            | Some arr ->
                (* the hook fires after the write: [get] reads the
                   just-written value *)
                List.iter
                  (fun key ->
                    Hashtbl.replace versions (ex.Value.ex_name, key)
                      !cur_version;
                    current :=
                      {
                        Wire.w_array = ex.Value.ex_name;
                        w_key = key;
                        w_value = Dist_array.get arr key;
                      }
                      :: !current)
                  (Value.keys_of_subs ex.Value.ex_dims subs)
            | None -> ());
  (* -- happens-before bookkeeping ----------------------------------- *)
  let owner blk = blk / tp in
  let incoming : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let outgoing : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (src, dst) ->
      if owner src <> owner dst then begin
        if owner dst = rank then
          Hashtbl.replace incoming dst
            (src :: Option.value (Hashtbl.find_opt incoming dst) ~default:[]);
        if owner src = rank then
          Hashtbl.replace outgoing src
            (dst :: Option.value (Hashtbl.find_opt outgoing src) ~default:[])
      end)
    (Domain_exec.block_edges model ~sp ~tp);
  (* arrived tokens, keyed (pass, src, dst): the sending rank and its
     slices, installed when [dst] is about to run; arrived syncs, keyed
     (pass, rank), installed at the pass barrier.  Applying slices at
     consumption, not on arrival, keeps a faster peer's next-pass
     slices from being overwritten by this pass's barrier state. *)
  let tokens : (int * int * int, int * Wire.part_payload list) Hashtbl.t =
    Hashtbl.create 64
  in
  let syncs : (int * int, Wire.part_payload list) Hashtbl.t =
    Hashtbl.create 16
  in
  (* journal payloads in arrival order, applied at the same points
     (last-writer-wins makes early application harmless) *)
  let journal_in : (int * Wire.entries_payload) Queue.t = Queue.create () in
  let known : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Every journaled block this worker knows (own blocks and received
     ones), in the order learned.  Tokens relay the whole unseen
     suffix, not just own writes: a receiver thereby learns everything
     that happens-before the sending block, even transitively through
     ranks that never touched the data ([known] dedups the echoes). *)
  let own : Wire.block_writes list ref = ref [] (* newest first *) in
  let known_log : Wire.block_writes list ref = ref [] (* newest first *) in
  let klen = ref 0 in
  let learn (bw : Wire.block_writes) =
    if not (Hashtbl.mem known (bw.bw_pass, bw.bw_block)) then begin
      Hashtbl.replace known (bw.bw_pass, bw.bw_block) ();
      known_log := bw :: !known_log;
      incr klen
    end;
    (* apply unconditionally, not only on first sight: a block can
       arrive again from another peer, and a deduplicated payload may
       have carried only some of its writes; last-writer-wins
       application is idempotent, so re-applying is always safe *)
    let version = (bw.bw_pass, pos bw.bw_block) in
    Array.iter (apply_write ~version) bw.bw_writes
  in
  (* -- wire encoding ------------------------------------------------- *)
  let linearize name key =
    match Hashtbl.find_opt arr_tbl name with
    | Some a -> Dist_array.linearize a key
    | None -> fail "journaled write to unknown array %S" name
  in
  let delinearize name lin =
    match Hashtbl.find_opt arr_tbl name with
    | Some a -> Dist_array.delinearize a lin
    | None -> fail "packed payload for unknown array %S" name
  in
  let sender = Policy.sender ~linearize ~pos in
  (* bytes shipped to peers per array as encoded, and in all as the
     raw layout, for the final stats *)
  let bytes_by_array : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let bytes_full = ref 0.0 in
  let account (name, actual) =
    Hashtbl.replace bytes_by_array name
      (actual +. Option.value (Hashtbl.find_opt bytes_by_array name) ~default:0.0)
  in
  (* -- owner-exclusive regions -------------------------------------- *)
  (* the rank holding each time partition last in a pass: the owner of
     its final block in natural order, which linearizes the same-[t]
     chain of happens-before edges *)
  let last_holder = Array.make tp 0 in
  Array.iter (fun (s, t) -> last_holder.(t) <- s) order;
  (* [arr]'s entries in partition [p] of a cut along its dimension
     [dim] *)
  let region (_, arr, dim) ~boundaries p =
    let lo, hi = part_range boundaries p ~size:(Dist_array.dims arr).(dim) in
    (arr, Dist_array.region arr ~dim ~lo ~hi)
  in
  (* the rotated arrays' slices of time partition [t] *)
  let slices t =
    match (rotating, row.Wire.sr_time_boundaries) with
    | [], _ -> []
    | _, Some boundaries -> List.map (fun r -> region r ~boundaries t) rotating
    | (name, _, _) :: _, None ->
        fail "rotated array %S under a schedule with no time cut" name
  in
  let held_last () =
    List.concat_map
      (fun t -> if last_holder.(t) = rank then slices t else [])
      (List.init tp Fun.id)
  in
  let pack (arr, (keys, values)) =
    Policy.encode_region sender arr keys values
  in
  (* a packed region with its (array, bytes) account *)
  let pack_accounted ((arr, (keys, _)) as r) =
    let b = pack r in
    bytes_full := !bytes_full +. Policy.raw_bytes (Array.length keys);
    (b, (arr.Dist_array.name, float_of_int (Bytes.length b)))
  in
  (* what this rank owns at a pass boundary: its local regions under
     the current space cut and the slices it held last *)
  let owned_regions () =
    List.map pack
      (List.map
         (fun r -> region r ~boundaries:row.Wire.sr_space_boundaries rank)
         locals
      @ held_last ())
  in
  let apply_slices what q payloads =
    if payloads <> [] then begin
      let start = tel_now () in
      List.iter (apply_region what) payloads;
      tel_span ~category:Orion_obs.Trace.Marshal
        ~label:(Printf.sprintf "decode<-%d" q)
        ~bytes:
          (List.fold_left
             (fun acc b -> acc +. float_of_int (Bytes.length b))
             0.0 payloads)
        ~start
    end
  in
  let drain_journal () =
    while not (Queue.is_empty journal_in) do
      let q, payload = Queue.pop journal_in in
      let start = tel_now () in
      List.iter learn (Policy.decode_entries ~delinearize payload);
      tel_span ~category:Orion_obs.Trace.Marshal
        ~label:(Printf.sprintf "decode<-%d" q)
        ~bytes:(float_of_int (Bytes.length payload))
        ~start
    done
  in
  let handle = function
    | Event_loop.Message
        ( q,
          Wire.Rotation_token
            { rt_pass; rt_src; rt_dst; rt_slices; rt_entries } ) ->
        if journaled <> [] then Queue.push (q, rt_entries) journal_in;
        Hashtbl.replace tokens (rt_pass, rt_src, rt_dst) (q, rt_slices)
    | Event_loop.Message
        (q, Wire.Pass_sync { ps_pass; ps_rank; ps_slices; ps_entries }) ->
        if journaled <> [] then Queue.push (q, ps_entries) journal_in;
        Hashtbl.replace syncs (ps_pass, ps_rank) ps_slices
    | Event_loop.Message (q, m) ->
        fail "unexpected %s from peer %d" (Wire.tag m) q
    | Event_loop.Closed q -> fail "peer %d closed its connection mid-run" q
  in
  let wait_for pred what =
    let rec go () =
      if not (pred ()) then begin
        if Unix.gettimeofday () > deadline then
          fail "timed out waiting for %s" what;
        List.iter handle (Event_loop.poll loop ~timeout:0.1);
        go ()
      end
    in
    go ()
  in
  (* Peer sends must drain while writing: two peers pushing multi-MB
     frames at each other with both socket buffers full would block in
     plain [Transport.send] forever.  [handle] never sends, so pumping
     the event loop from inside a send cannot reenter. *)
  let send_peer q m =
    Transport.send_draining (peer q) m ~drain:(fun () ->
        if Unix.gettimeofday () > deadline then
          fail "timed out sending %s to peer %d" (Wire.tag m) q;
        List.iter handle (Event_loop.poll loop ~timeout:0.05))
  in
  (* per-peer cursor into [known_log]; entries the peer authored itself
     are filtered out of the payload (it has them by construction) *)
  let sent_upto = Array.make sp 0 in
  let fresh_entries q =
    let n = !klen - sent_upto.(q) in
    sent_upto.(q) <- !klen;
    let rec take k l =
      if k = 0 then []
      else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
    in
    List.filter
      (fun (bw : Wire.block_writes) -> owner bw.bw_block <> q)
      (List.rev (take n !known_log))
  in
  (* Encode what goes to peer [q] next — the [regions] it hands over
     plus the journal suffix it has not seen — inside one encode span,
     account it, and return the payloads with their total bytes (which
     label the Transfer span around the send). *)
  let encode_for q regions =
    let start = tel_now () in
    let regions = List.map pack_accounted (regions ()) in
    let journal = fresh_entries q in
    let entries, accounts = Policy.prepare sender journal in
    List.iter
      (fun (bw : Wire.block_writes) ->
        bytes_full :=
          !bytes_full +. Policy.raw_bytes (Array.length bw.bw_writes))
      journal;
    let accounts = List.map snd regions @ accounts in
    List.iter account accounts;
    let bytes = List.fold_left (fun acc (_, b) -> acc +. b) 0.0 accounts in
    tel_span ~category:Orion_obs.Trace.Marshal
      ~label:(Printf.sprintf "encode->%d" q)
      ~bytes ~start;
    (List.map fst regions, entries, bytes)
  in
  (* -- execute ------------------------------------------------------ *)
  let abort = abort_spec () in
  let blocks_done = ref 0 and entries_done = ref 0 in
  for pass = 0 to p.p_passes - 1 do
    let pass_start = tel_now () in
    Array.iter
      (fun (s, t) ->
        if s = rank then begin
          let blk = (s * tp) + t in
          (match abort with
          | Some (r, after) when r = rank && !blocks_done >= after ->
              (* injected fault: die abruptly, skipping all cleanup but
                 the listener's socket file *)
              Transport.close_listener listener;
              Unix._exit abort_exit_code
          | _ -> ());
          let need =
            Option.value (Hashtbl.find_opt incoming blk) ~default:[]
          in
          let wait_start = tel_now () in
          wait_for
            (fun () ->
              List.for_all
                (fun src -> Hashtbl.mem tokens (pass, src, blk))
                need)
            (Printf.sprintf "tokens for block %d of pass %d" blk pass);
          tel_span ~category:Orion_obs.Trace.Idle ~label:"wait-tokens"
            ~bytes:0.0 ~start:wait_start;
          List.iter
            (fun src ->
              let q, payloads = Hashtbl.find tokens (pass, src, blk) in
              Hashtbl.remove tokens (pass, src, blk);
              apply_slices "rotation token" q payloads)
            need;
          drain_journal ();
          current := [];
          cur_version := (pass, pos blk);
          let blk_start = tel_now () in
          let b = blocks.(t) in
          Schedule.run_block body b;
          let n = Schedule.length b in
          entries_done := !entries_done + n;
          if tel_on then
            Telemetry.block tel ~shard:0 ~worker:rank ~pass ~space:s ~time:t
              ~start:blk_start ~finish:(tel_now ()) ~entries:n;
          incr blocks_done;
          if !current <> [] then begin
            let bw =
              {
                Wire.bw_pass = pass;
                bw_block = blk;
                bw_writes = Array.of_list (List.rev !current);
              }
            in
            Hashtbl.replace known (pass, blk) ();
            own := bw :: !own;
            known_log := bw :: !known_log;
            incr klen
          end;
          match Hashtbl.find_opt outgoing blk with
          | None -> ()
          | Some dsts ->
              (* every cross-worker edge hands over time partition [t] *)
              List.iter
                (fun dst ->
                  let q = owner dst in
                  let handed, entries, bytes =
                    encode_for q (fun () -> slices t)
                  in
                  let send_start = tel_now () in
                  send_peer q
                    (Wire.Rotation_token
                       {
                         rt_pass = pass;
                         rt_src = blk;
                         rt_dst = dst;
                         rt_slices = handed;
                         rt_entries = entries;
                       });
                  tel_span ~category:Orion_obs.Trace.Transfer
                    ~label:(Printf.sprintf "token->%d" q)
                    ~bytes ~start:send_start)
                (List.sort_uniq compare dsts)
        end)
      order;
    (* pass barrier: broadcast the slices this rank held last and flush
       the journal all-to-all, so pass + 1 starts from globally
       consistent DistArray state *)
    for q = 0 to sp - 1 do
      if q <> rank then begin
        let held, entries, bytes = encode_for q held_last in
        let send_start = tel_now () in
        send_peer q
          (Wire.Pass_sync
             {
               ps_pass = pass;
               ps_rank = rank;
               ps_slices = held;
               ps_entries = entries;
             });
        tel_span ~category:Orion_obs.Trace.Transfer
          ~label:(Printf.sprintf "sync->%d" q)
          ~bytes ~start:send_start
      end
    done;
    let barrier_start = tel_now () in
    wait_for
      (fun () ->
        let ok = ref true in
        for q = 0 to sp - 1 do
          if q <> rank && not (Hashtbl.mem syncs (pass, q)) then ok := false
        done;
        !ok)
      (Printf.sprintf "pass %d barrier" pass);
    tel_span ~category:Orion_obs.Trace.Barrier_wait ~label:"pass-sync"
      ~bytes:0.0 ~start:barrier_start;
    for q = 0 to sp - 1 do
      if q <> rank then begin
        apply_slices "pass sync" q (Hashtbl.find syncs (pass, q));
        Hashtbl.remove syncs (pass, q)
      end
    done;
    drain_journal ();
    (* ship this pass's telemetry shard to the master: spans on the
       worker's clock plus the absolute epoch the master aligns with *)
    if tel_on then begin
      let spans, costs, dropped = Telemetry.drain tel ~shard:0 in
      Transport.send master
        (Wire.Pass_telemetry
           {
             pt_pass = pass;
             pt_epoch = Telemetry.epoch tel;
             pt_window = (pass_start, tel_now ());
             pt_dropped = dropped;
             pt_spans = spans;
             pt_costs = costs;
           })
    end;
    (* ship the pass-boundary state for master-side checkpoints: the
       owned regions, this pass's own journal and the cumulative
       buffered shadows *)
    if p.p_report_passes then begin
      let entries =
        List.filter
          (fun (bw : Wire.block_writes) -> bw.bw_pass = pass)
          (List.rev !own)
      in
      Transport.send master
        (Wire.Pass_report
           {
             pp_pass = pass;
             pp_regions = owned_regions ();
             pp_entries = entries;
             pp_buffered = packed (shadow_parts ());
           })
    end;
  done;
  (* leak loop locals back into the env, as the interpreter would *)
  Option.iter Orion.Compile.flush_locals kernel;
  (* -- final reports ------------------------------------------------ *)
  Transport.send master
    (Wire.Block_report
       { br_regions = owned_regions (); br_entries = List.rev !own });
  let parts = shadow_parts () in
  Transport.send master
    (Wire.Buffer_flush
       {
         bf_parts = packed parts;
         (* each shadow's total, summed in entry order as the master
            re-sums it *)
         bf_totals =
           List.map
             (fun (p : Dist_array.partition) ->
               (p.pt_array, Array.fold_left ( +. ) 0.0 p.pt_values))
             parts;
       });
  let sorted_bindings tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Transport.send master
    (Wire.Done
       {
         ws_entries = !entries_done;
         ws_bytes_by_array = sorted_bindings bytes_by_array;
         ws_bytes_full = !bytes_full;
         ws_policy_by_array = Policy.decisions sender;
       });
  (* keep peer connections open until the master confirms every worker
     is done — closing earlier would surface as a peer failure there *)
  (match recv_master "shutdown" with
  | Wire.Shutdown -> ()
  | m -> fail "expected shutdown, got %s" (Wire.tag m));
  Array.iter (function Some c -> Transport.close_conn c | None -> ()) peers

(** Connect to the master, run the whole worker protocol, and return on
    a clean shutdown.  Any failure is reported to the master as a
    {!Wire.Fatal} before re-raising. *)
let connect_and_serve ~(materialize : materialize) ~rank ~master_addr : unit =
  (* a dead peer must surface as an EPIPE exception (and so the guarded
     Fatal path below), not kill the worker silently via SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let like = Transport.addr_of_string master_addr in
  let master = Transport.connect like in
  Transport.send master
    (Wire.Hello
       { h_rank = rank; h_pid = Unix.getpid (); h_version = Wire.version });
  (* this worker's peer listener, removed however the worker ends *)
  let listener = Transport.listen (Transport.fresh_addr ~like) in
  Fun.protect ~finally:(fun () -> Transport.close_listener listener)
  @@ fun () ->
  match serve master ~materialize ~rank ~listener with
  | () | (exception No_row) -> Transport.close_conn master
  | exception e ->
      let reason =
        match e with
        | Worker_error s -> s
        | Orion.Engine.Distributed_error { de_reason; _ } -> de_reason
        | e -> Printexc.to_string e
      in
      (try Transport.send master (Wire.Fatal { f_reason = reason })
       with _ -> ());
      Transport.close_conn master;
      raise e
