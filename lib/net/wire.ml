(** The typed master ↔ worker / worker ↔ worker protocol.  Messages are
    plain (closure-free) OCaml values encoded with [Marshal] inside a
    {!Frame}; both ends are always the same binary built from the same
    sources, which is the one regime where [Marshal] is sound.  A
    [version] field in the handshake catches accidental mixes.  The
    iteration-space entries a schedule row carries are the exception:
    they travel in this module's own tagged value codec
    ({!encode_block}), whose decoder names the byte offset of any fault.

    Protocol outline (master-centric):

    {v
    worker → master   Hello
    master → worker   Plan                 (app, scale, shape, rank, flags,
                                            the master's loop plan)
                      ... the master compiles the schedule while the
                      workers build their instances from shapes ...
    master → worker   Schedule_row         (the rank's blocks, as entries)
                    | Shutdown             (rank beyond the space cut)
    worker → master   Listening            (the worker's own peer addr)
    worker → master   Prefetch_request     (Server-placed arrays)
    master → worker   Partition_ship       (local / rotated / replicated)
    master → worker   Prefetch_response
    master → worker   Peers                (addr per rank)
    worker ↔ worker   Peer_hello, Rotation_token, Pass_sync
    worker → master   Pass_telemetry       (per-pass spans + block costs)
    worker → master   Block_report, Buffer_flush, Acc_merge, Done
    master → worker   Shutdown
    any    → master   Fatal
    v} *)

(* v2: plan carries [p_telemetry]; workers ship [Pass_telemetry]
   v3: plan carries [p_report_passes]; workers ship [Pass_report] after
       each pass barrier so the master can checkpoint pass boundaries
   v4: selectable communication policies — plan names the policy;
       rotation tokens, pass syncs, partition ships and prefetch
       responses carry policy-encoded payload variants; [Peer_hello]
       carries the protocol version so peers negotiate explicitly
   v5: profile-guided re-planning — adaptive workers gate each pass
       boundary on a master directive that may re-balance the space
       cut from measured block costs, migrating locally-partitioned
       array regions peer-to-peer (withdrawn in v10)
   v6: one lossless encoding — the plan no longer names a policy;
       journal payloads and shipped partitions are always
       {!Policy}-packed bytes (no [Marshal]ed write logs or
       partitions inside them)
   v7: owner-exclusive data plane — rotation tokens and pass syncs
       carry the rotated arrays' time-partition slices, and block and
       pass reports carry each rank's owned regions, all as packed
       parts; write journals travel only for arrays whose placement
       has no single owner under the execution model
   v8: workers stop compiling the schedule — the plan goes out before
       the master compiles and carries no schedule shape, pipeline
       depth or fingerprint; a [Schedule_row] after the compile ships
       each rank the shape, the execution model and its blocks' keys,
       which the worker looks up in its own iteration space
   v9: workers start without the dataset — the plan carries the
       master's loop plan (workers no longer analyze), a schedule row
       carries its blocks' entries (keys and values, in the tagged
       value codec) plus the master's iteration-space dims, entry count
       and digest (no worker-side rebuild, no fingerprint)
   v10: plan once — the plan loses its adaptive flag, and the pass
       boundary directives and partition migration messages are gone:
       a worker installs exactly one schedule row per run *)
let version = 10

(** One journaled DistArray element write, in execution order (only
    arrays with no single owner are journaled). *)
type write = { w_array : string; w_key : int array; w_value : float }

(** The write log of one executed schedule block.  [bw_block] is the
    block id [s * tp + t] — the same ids {!Orion_runtime.Domain_exec}
    uses for its happens-before edges. *)
type block_writes = {
  bw_pass : int;
  bw_block : int;
  bw_writes : write array;
}

(** Journal entries as they travel: the {!Policy} codec (deduplicated,
    sparse index/value, varint/RLE). *)
type entries_payload = bytes

type worker_stats = {
  ws_rank : int;
  ws_blocks : int;
  ws_entries : int;
  ws_wall_seconds : float;
  ws_bytes_sent : float;  (** wire bytes this worker sent to peers *)
  ws_bytes_by_array : (string * float) list;
      (** slice and journal bytes shipped to peers, per DistArray, as
          encoded *)
  ws_bytes_full_by_array : (string * float) list;
      (** what the same traffic costs unpacked (a [Marshal]ed partition
          per slice, a [Marshal]ed record per journaled write) — the
          before side of the bytes-saved accounting *)
  ws_policy_by_array : (string * string) list;
      (** the key mode of each DistArray's latest payload *)
}

type part = float Orion_dsm.Dist_array.partition

(** A shipped partition, or an owner-exclusive region, in the
    {!Policy} part layout. *)
type part_payload = bytes

(** What a worker needs to build its instance and classify its arrays,
    all known before the master compiles the schedule (a named record
    so workers can pass it around whole). *)
type plan = {
  p_app : string;
  p_scale : float;
  p_num_machines : int;
  p_workers_per_machine : int;
  p_rank : int;
  p_procs : int;
      (** workers spawned; the ranks at or beyond the schedule's space
          partitions get [Shutdown] instead of a row *)
  p_passes : int;
  p_telemetry : bool;
      (** record wall-clock telemetry and ship {!Pass_telemetry}
          messages after each pass *)
  p_report_passes : bool;
      (** ship a {!Pass_report} after each pass barrier so the master
          can assemble pass-boundary checkpoints *)
  p_plan : Orion_analysis.Plan.t;
      (** the master's analysis of the loop: workers take their array
          placements from it instead of re-analysing an instance whose
          iteration space may hold no records *)
}

(** One rank's row of the master's compiled schedule, with everything
    the worker checks its own instance against. *)
type row = {
  sr_sp : int;
  sr_tp : int;
  sr_model : Orion_runtime.Domain_exec.model;
  sr_space_boundaries : Orion_dsm.Partitioner.boundaries;
  sr_time_boundaries : Orion_dsm.Partitioner.boundaries option;
  sr_dims : int array;  (** dims of the master's iteration space *)
  sr_entries : int;  (** entries of the master's iteration space *)
  sr_digest : int;
      (** {!entry_digest} summed over the master's iteration space; a
          worker whose instance holds records must hold these *)
  sr_blocks : bytes array;
      (** per time partition, the receiving rank's block as its
          entries in scheduled order ({!encode_block}) *)
}

type msg =
  | Hello of { h_rank : int; h_pid : int; h_version : int }
  | Plan of plan
  | Schedule_row of row
      (** the receiving rank's row of the master's compiled schedule *)
  | Listening of { l_rank : int; l_addr : string }
  | Prefetch_request of { pr_rank : int; pr_arrays : string list }
  | Partition_ship of part_payload list
  | Prefetch_response of part_payload list
  | Peers of string array  (** peer address, indexed by rank *)
  | Peer_hello of { ph_rank : int; ph_version : int }
      (** the connecting worker's rank and protocol version; the
          accepting worker refuses a mismatched peer with a clear
          error instead of relying on implicit [Marshal]
          compatibility *)
  | Rotation_token of {
      rt_pass : int;
      rt_src : int;  (** source block id (just executed on the sender) *)
      rt_dst : int;  (** destination block id (waiting on the receiver) *)
      rt_slices : part_payload list;
          (** each rotated array's slice for the time partition the
              edge hands over (source and destination share it) *)
      rt_entries : entries_payload;
          (** the sender's journal entries this receiver has not seen
              yet (per-peer cursor; FIFO channels make the receiver's
              knowledge happens-before-closed), deduplicated and
              packed *)
    }
  | Pass_sync of {
      ps_pass : int;
      ps_rank : int;
      ps_slices : part_payload list;
          (** the rotated-array slices whose last holder this pass was
              the sender *)
      ps_entries : entries_payload;
    }
      (** all-to-all barrier at the end of each pass, broadcasting the
          slices each rank holds last and flushing the remaining
          journal entries (pass boundaries are globally consistent) *)
  | Pass_telemetry of {
      pt_rank : int;
      pt_pass : int;
      pt_epoch : float;
          (** the worker telemetry's absolute monotonic epoch; the
              master aligns shipped span timestamps onto its own clock
              with [offset = pt_epoch - master_epoch] (the monotonic
              origin is shared by all processes on one machine) *)
      pt_window : float * float;
          (** the pass's [(start, finish)] on the worker's clock *)
      pt_dropped : int;
      pt_spans : Orion_obs.Trace.span array;
      pt_costs : Orion_obs.Telemetry.block_cost list;
    }
      (** the worker's telemetry shard for one pass, drained and
          shipped to the master right after the pass barrier *)
  | Pass_report of {
      pp_rank : int;
      pp_pass : int;
      pp_regions : part_payload list;
          (** this worker's owned local regions and last-held rotated
              slices at the boundary (disjoint across ranks; the
              master sets them as they are) *)
      pp_entries : block_writes list;
          (** this worker's own-block write log of journaled arrays for
              the pass just finished (the master applies them in
              natural block order, so checkpoints match an
              uninterrupted run) *)
      pp_buffered : part list;
          (** the {e cumulative} nonzero entries of each buffered
              array's local shadow at this boundary (shadows persist
              across passes, so later reports supersede earlier) *)
    }
  | Block_report of {
      br_rank : int;
      br_regions : part_payload list;
          (** the final owned local regions and last-held rotated
              slices, as in {!Pass_report} *)
      br_entries : block_writes list;
          (** the complete own-block write log of journaled arrays, all
              passes *)
    }
  | Buffer_flush of { bf_rank : int; bf_parts : part list }
      (** nonzero entries of each buffered array's local shadow *)
  | Acc_merge of { am_rank : int; am_totals : (string * float) list }
      (** per buffered array, the sum of the flushed shadow entries —
          the master cross-checks them against the received partitions *)
  | Done of worker_stats
  | Fatal of { f_rank : int; f_reason : string }
  | Shutdown

let tag = function
  | Hello _ -> "hello"
  | Plan _ -> "plan"
  | Schedule_row _ -> "schedule-row"
  | Listening _ -> "listening"
  | Prefetch_request _ -> "prefetch-request"
  | Partition_ship _ -> "partition-ship"
  | Prefetch_response _ -> "prefetch-response"
  | Peers _ -> "peers"
  | Peer_hello _ -> "peer-hello"
  | Rotation_token _ -> "rotation-token"
  | Pass_sync _ -> "pass-sync"
  | Pass_telemetry _ -> "pass-telemetry"
  | Pass_report _ -> "pass-report"
  | Block_report _ -> "block-report"
  | Buffer_flush _ -> "buffer-flush"
  | Acc_merge _ -> "acc-merge"
  | Done _ -> "done"
  | Fatal _ -> "fatal"
  | Shutdown -> "shutdown"

let to_bytes (m : msg) = Marshal.to_bytes m []
let of_bytes (b : bytes) : msg = Marshal.from_bytes b 0

(* ------------------------------------------------------------------ *)
(* The value codec: schedule-row entries                               *)
(* ------------------------------------------------------------------ *)

(** A malformed codec payload: [offset] is the byte where decoding
    failed. *)
exception Decode_error of { offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Decode_error { offset; reason } ->
        Some (Printf.sprintf "wire decode error at byte %d: %s" offset reason)
    | _ -> None)

let decode_error offset fmt =
  Printf.ksprintf (fun reason -> raise (Decode_error { offset; reason })) fmt

module V = Orion_lang.Value

(* One tag byte, then the payload: 8-byte little-endian ints and float
   bits, 4-byte little-endian counts. *)
let tag_unit = 0
let tag_int = 1
let tag_float = 2
let tag_bool = 3
let tag_string = 4
let tag_vec = 5
let tag_tuple = 6
let tag_index = 7

(* nesting bound: a corrupt payload must not recurse without limit *)
let max_depth = 64

(* Encoding is two passes: the exact size, then the bytes. *)

let cannot_travel (ex : V.extern) =
  invalid_arg (Printf.sprintf "Wire: DistArray %S cannot travel" ex.V.ex_name)

let count_size n =
  if n > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Wire: %d elements do not fit a count" n);
  4

(** The encoded size of [v], in bytes.
    @raise Invalid_argument on a DistArray handle, which cannot travel *)
let rec value_size (v : V.t) =
  match v with
  | V.Vunit -> 1
  | V.Vint _ | V.Vfloat _ -> 9
  | V.Vbool _ -> 2
  | V.Vstring s -> 1 + count_size (String.length s) + String.length s
  | V.Vvec a -> 1 + count_size (Array.length a) + (8 * Array.length a)
  | V.Vindex a -> 1 + count_size (Array.length a) + (8 * Array.length a)
  | V.Vtuple l ->
      List.fold_left
        (fun acc v -> acc + value_size v)
        (1 + count_size (List.length l))
        l
  | V.Vextern ex -> cannot_travel ex

let set_count b pos n = Bytes.set_int32_le b pos (Int32.of_int n)
let set_int b pos n = Bytes.set_int64_le b pos (Int64.of_int n)
let set_float b pos f = Bytes.set_int64_le b pos (Int64.bits_of_float f)

(* write [v] at [pos] of [b], sized by {!value_size}; returns the byte
   after it *)
let rec write_value b pos (v : V.t) =
  match v with
  | V.Vfloat f ->
      Bytes.set_uint8 b pos tag_float;
      set_float b (pos + 1) f;
      pos + 9
  | V.Vint n ->
      Bytes.set_uint8 b pos tag_int;
      set_int b (pos + 1) n;
      pos + 9
  | V.Vunit ->
      Bytes.set_uint8 b pos tag_unit;
      pos + 1
  | V.Vbool x ->
      Bytes.set_uint8 b pos tag_bool;
      Bytes.set_uint8 b (pos + 1) (if x then 1 else 0);
      pos + 2
  | V.Vstring s ->
      Bytes.set_uint8 b pos tag_string;
      set_count b (pos + 1) (String.length s);
      Bytes.blit_string s 0 b (pos + 5) (String.length s);
      pos + 5 + String.length s
  | V.Vvec a ->
      Bytes.set_uint8 b pos tag_vec;
      set_count b (pos + 1) (Array.length a);
      Array.iteri (fun i f -> set_float b (pos + 5 + (8 * i)) f) a;
      pos + 5 + (8 * Array.length a)
  | V.Vindex a ->
      Bytes.set_uint8 b pos tag_index;
      set_count b (pos + 1) (Array.length a);
      Array.iteri (fun i n -> set_int b (pos + 5 + (8 * i)) n) a;
      pos + 5 + (8 * Array.length a)
  | V.Vtuple l ->
      Bytes.set_uint8 b pos tag_tuple;
      set_count b (pos + 1) (List.length l);
      List.fold_left (write_value b) (pos + 5) l
  | V.Vextern ex -> cannot_travel ex

(* [n] bytes of [what] must remain at [pos] *)
let need b pos n what =
  if n > Bytes.length b - pos then
    decode_error pos "truncated %s: %d bytes needed, %d left" what n
      (Bytes.length b - pos)

let get_count b pos what =
  need b pos 4 what;
  Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFF_FFFF

let get_int b pos = Int64.to_int (Bytes.get_int64_le b pos)
let get_float b pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* a read position in a payload *)
type cursor = { c_bytes : bytes; mutable c_pos : int }

(* The value at the cursor, which then moves past it.
   @raise Decode_error on a truncated value or an unknown tag *)
let rec read_value c depth : V.t =
  let b = c.c_bytes and pos = c.c_pos in
  need b pos 1 "value tag";
  let tag = Bytes.get_uint8 b pos in
  let p = pos + 1 in
  if tag = tag_float then begin
    need b p 8 "float";
    c.c_pos <- p + 8;
    V.Vfloat (get_float b p)
  end
  else if tag = tag_int then begin
    need b p 8 "int";
    c.c_pos <- p + 8;
    V.Vint (get_int b p)
  end
  else if tag = tag_unit then begin
    c.c_pos <- p;
    V.Vunit
  end
  else if tag = tag_bool then begin
    need b p 1 "bool";
    c.c_pos <- p + 1;
    match Bytes.get_uint8 b p with
    | 0 -> V.Vbool false
    | 1 -> V.Vbool true
    | x -> decode_error p "bool byte %d" x
  end
  else if tag = tag_string then begin
    let n = get_count b p "string length" in
    need b (p + 4) n "string";
    c.c_pos <- p + 4 + n;
    V.Vstring (Bytes.sub_string b (p + 4) n)
  end
  else if tag = tag_vec then begin
    let n = get_count b p "vector length" in
    need b (p + 4) (8 * n) "vector";
    c.c_pos <- p + 4 + (8 * n);
    V.Vvec (Array.init n (fun i -> get_float b (p + 4 + (8 * i))))
  end
  else if tag = tag_index then begin
    let n = get_count b p "index length" in
    need b (p + 4) (8 * n) "index";
    c.c_pos <- p + 4 + (8 * n);
    V.Vindex (Array.init n (fun i -> get_int b (p + 4 + (8 * i))))
  end
  else if tag = tag_tuple then begin
    if depth >= max_depth then
      decode_error pos "tuples nested deeper than %d" max_depth;
    let n = get_count b p "tuple length" in
    (* every element takes at least its tag byte *)
    need b (p + 4) n "tuple";
    c.c_pos <- p + 4;
    V.Vtuple (List.init n (fun _ -> read_value c (depth + 1)))
  end
  else decode_error pos "unknown value tag %d" tag

(* a 63-bit finalizer (splitmix-style), so summed entry hashes do not
   cancel for shifted keys or values *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3c79ac492ba7b653 in
  let x = (x lxor (x lsr 27)) * 0x1c69b3f74ac4ae35 in
  x lxor (x lsr 33)

let rec value_hash (v : V.t) =
  let combine h x = mix (h + x) in
  let floats h a =
    Array.fold_left (fun h f -> combine h (Int64.to_int (Int64.bits_of_float f))) h a
  in
  match v with
  | V.Vunit -> 1
  | V.Vint n -> combine 2 n
  | V.Vfloat f -> combine 3 (Int64.to_int (Int64.bits_of_float f))
  | V.Vbool b -> if b then 4 else 5
  | V.Vstring s -> combine 6 (Hashtbl.hash s)
  | V.Vvec a -> floats (combine 7 (Array.length a)) a
  | V.Vtuple l ->
      List.fold_left (fun h v -> combine h (value_hash v)) (combine 8 (List.length l)) l
  | V.Vindex a -> Array.fold_left combine (combine 9 (Array.length a)) a
  | V.Vextern _ -> 10

(** One iteration-space entry's share of a space digest.  Digests are
    sums of these, so they do not depend on the order entries are
    visited in: the master sums its schedule rows, a worker its own
    space, and the two agree exactly when both hold the same entries. *)
let entry_digest lin v = mix (mix lin + value_hash v)

(** {!entry_digest} summed over [iter]'s stored entries. *)
let space_digest (iter : V.t Orion_dsm.Dist_array.t) =
  Orion_dsm.Dist_array.fold
    (fun acc key v ->
      acc + entry_digest (Orion_dsm.Dist_array.linearize iter key) v)
    0 iter

(** A block's entries as one payload: a 4-byte count, then per entry
    its linearized key (8 bytes) and its value: a tag byte, then
    8-byte little-endian ints and float bits, 4-byte little-endian
    counts.
    Returns the payload and the entries' summed {!entry_digest}. *)
let encode_block ~linearize (entries : (int array * V.t) array) =
  let size =
    Array.fold_left
      (fun acc (_, v) -> acc + 8 + value_size v)
      (count_size (Array.length entries))
      entries
  in
  let b = Bytes.create size in
  set_count b 0 (Array.length entries);
  let digest = ref 0 and pos = ref 4 in
  Array.iter
    (fun (key, v) ->
      let lin = linearize key in
      set_int b !pos lin;
      pos := write_value b (!pos + 8) v;
      digest := !digest + entry_digest lin v)
    entries;
  (b, !digest)

(** [f] folded over a block's entries ({!encode_block}) in order, each
    decoded as it is reached: [f acc lin value].
    @raise Decode_error on a truncated or over-long payload *)
let fold_block f init b =
  let n = get_count b 0 "entry count" in
  (* every entry takes at least a key and a tag byte *)
  need b 4 (9 * n) "block";
  let c = { c_bytes = b; c_pos = 4 } in
  let acc = ref init in
  for _ = 1 to n do
    need b c.c_pos 8 "entry key";
    let lin = get_int b c.c_pos in
    c.c_pos <- c.c_pos + 8;
    acc := f !acc lin (read_value c 0)
  done;
  if c.c_pos <> Bytes.length b then
    decode_error c.c_pos "%d bytes after the last entry" (Bytes.length b - c.c_pos);
  !acc
