(** The typed master ↔ worker / worker ↔ worker protocol.  Messages are
    plain data — records, variants, numbers, strings and byte buffers,
    no closure and no analysed AST — encoded with [Marshal] inside a
    {!Frame}.  [orion] and [orion-worker] are two executables built from
    the same sources, so both ends share these types; the [version] in
    the handshake catches a mix of builds.  No DistArray state is
    marshalled: every slice inside a message (regions, journals,
    buffered shadows) is packed bytes of {!Orion_dsm.Codec}'s layout,
    and a schedule row's payload — the rank's blocks and initial array
    regions — follows its header as a raw frame of this module's own
    layout ({!row_frame}), which the master writes in one pass and the
    worker decodes in place.  Every decoder of those bytes names the
    byte offset of any fault.

    Each fact crosses the wire once, sent by the side that decides it:
    the master decides the schedule and where every array lives, and
    its plan carries both; a worker reports only what it computed.

    Protocol outline (master-centric):

    {v
                      ... the master compiles the schedule while the
                      worker processes start ...
    worker → master   Hello
    master → worker   Plan                 (app, scale, rank, flags, each
                                            managed array's sharing, the
                                            schedule's shape)
                      ... a rank beyond the space cut exits; the others
                      build their instances ...
    worker → master   Listening            (the worker's own peer addr,
                                            whether it holds records)
    master → worker   Schedule_row         (the row's header, then its
                                            payload as the next frame:
                                            blocks and regions)
    master → worker   Peers                (addr per rank)
    worker ↔ worker   Peer_hello (answered), Rotation_token, Pass_sync
    worker → master   Pass_telemetry       (per-pass spans + block costs)
    worker → master   Pass_report          (per pass, when checkpointing)
    worker → master   Done                 (final state, totals, stats)
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
       a worker installs exactly one schedule row per run
   v11: one frame per rank — a schedule row is a small header message
       followed by one raw payload frame holding the rank's blocks
       (float-valued blocks as keys and IEEE bits, the others in the
       tagged value codec) and its local, rotated and replicated
       arrays' regions; the partition ship is gone, workers announce
       their listener and prefetch request before the row, and a peer
       hello is answered, so the mesh waits for every rank's start-up
   v12: one byte layout for a slice — buffer flushes and pass reports
       carry buffered shadows as packed parts, not marshalled
       partitions; a flush carries its per-array totals (the separate
       accumulator message is gone); worker stats carry one raw-layout
       byte total; no message carries its sender's rank, which the
       master knows from the connection
   v13: a worker's announcement says whether its instance holds records
       of the iteration space, and only such a rank's row header
       carries the master's space digest; the row payload carries
       none
   v14: worker stats say whether the rank ran its compiled kernel (a
       rank that journals interprets its body)
   v15: a hello carries no pid: the master knows each worker's pid
       from starting it
   v16: each fact once — the plan carries each managed array's sharing
       and the schedule's shape in place of the analysed loop, so no
       AST crosses the wire and a rank beyond the space cut exits on
       its plan (the start-up [Shutdown] is gone); a row header keeps
       only its spans and digest; server-placed arrays ship whole in
       the row payload (the prefetch request and response are gone);
       one [Done] carries a rank's final state, shadow totals and
       stats (block reports and buffer flushes are gone); a pass sync
       carries no rank *)
let version = 16

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
  ws_entries : int;
  ws_compiled : bool;
      (** the rank ran its compiled kernel, not the interpreter *)
  ws_bytes_by_array : (string * float) list;
      (** slice and journal bytes shipped to peers, per DistArray, as
          encoded *)
  ws_bytes_full : float;
      (** what the same traffic costs in the raw layout, 16 bytes per
          slice entry or journaled write — the before side of the
          bytes-saved accounting *)
  ws_policy_by_array : (string * string) list;
      (** the key mode of each DistArray's latest payload *)
}

(** An array's region — owner-exclusive, or a whole array shipped at
    start-up — or a buffered shadow, as one packed part
    ({!Orion_dsm.Codec}). *)
type part_payload = bytes

(** How the wire keeps one non-buffered DistArray consistent, decided
    by the master from the array's placement under the execution
    model. *)
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

(** What a worker needs to build its instance and run its share of the
    master's compiled schedule, except its row (a named record so
    workers can pass it around whole). *)
type plan = {
  p_app : string;
  p_scale : float;
  p_num_machines : int;
  p_workers_per_machine : int;
  p_rank : int;
  p_procs : int;
      (** workers spawned; the ranks at or beyond [p_sp] exit on their
          plan *)
  p_passes : int;
  p_telemetry : bool;
      (** record wall-clock telemetry and ship {!Pass_telemetry}
          messages after each pass *)
  p_report_passes : bool;
      (** ship a {!Pass_report} after each pass barrier so the master
          can assemble pass-boundary checkpoints *)
  p_sharing : (string * sharing) list;
      (** every array whose contents the wire carries (placed, not
          buffered), with its sharing *)
  p_sp : int;
  p_tp : int;
  p_model : Orion_runtime.Domain_exec.model;
  p_space_boundaries : Orion_dsm.Partitioner.boundaries;
  p_time_boundaries : Orion_dsm.Partitioner.boundaries option;
  p_dims : int array;  (** dims of the master's iteration space *)
  p_entries : int;  (** entries of the master's iteration space *)
}

(** A byte range of a row's payload: [sp_off] from the payload's
    first byte, [sp_len] bytes long. *)
type span = { sp_off : int; sp_len : int }

(** The header of one rank's row of the master's compiled schedule.
    The row's payload ({!row_frame}) follows it as the next frame. *)
type row = {
  sr_digest : int;
      (** {!space_digest} of the master's iteration space, for a rank
          that announced records of its own, which must be these; 0 for
          any other rank, which checks none *)
  sr_blocks : span array;
      (** per time partition, the receiving rank's block: its entries
          in scheduled order *)
  sr_regions : span array;
      (** the receiving rank's initial contents of its managed arrays
          (its region of a locally-partitioned one; whole rotated,
          replicated and server-placed ones), each a {!Policy}-packed
          region *)
}

(** A rank's DistArray state, at a pass boundary or at the end. *)
type report = {
  r_regions : part_payload list;
      (** the owned local regions and last-held rotated slices
          (disjoint across ranks; the master sets them as they are) *)
  r_entries : block_writes list;
      (** the rank's own-block write log of journaled arrays: the
          pass's at a boundary, every pass's at the end (the master
          applies them in natural block order) *)
  r_buffered : part_payload list;
      (** the {e cumulative} nonzero entries of each buffered array's
          local shadow (shadows persist across passes, so a later
          report supersedes an earlier one) *)
}

(** A rank's last message. *)
type final = {
  d_report : report;  (** the rank's final state *)
  d_totals : (string * float) list;
      (** each buffered shadow's values summed in entry order, which the
          master checks against the parts it decodes *)
  d_stats : worker_stats;
}

type msg =
  | Hello of { h_rank : int; h_version : int }
  | Plan of plan
  | Schedule_row of row
      (** the header of the receiving rank's row of the master's
          compiled schedule; the row's payload is the next frame *)
  | Listening of { l_addr : string; l_records : bool }
      (** the worker's own peer address, and whether its instance holds
          records of the iteration space (which it checks against the
          row's digest) *)
  | Peers of string array  (** peer address, indexed by rank *)
  | Peer_hello of { ph_rank : int; ph_version : int }
      (** the sender's rank and protocol version: the connecting worker
          sends it, and the accepting worker answers with its own once
          its start-up is done; each side refuses a mismatched peer
          with a clear error instead of relying on implicit [Marshal]
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
      ps_slices : part_payload list;
          (** the rotated-array slices whose last holder this pass was
              the sender *)
      ps_entries : entries_payload;
    }
      (** all-to-all barrier at the end of each pass, broadcasting the
          slices each rank holds last and flushing the remaining
          journal entries (pass boundaries are globally consistent) *)
  | Pass_telemetry of {
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
  | Pass_report of { pp_pass : int; pp_report : report }
      (** the rank's state at a pass barrier, for the master's
          checkpoints *)
  | Done of final
  | Fatal of { f_reason : string }
  | Shutdown

let tag = function
  | Hello _ -> "hello"
  | Plan _ -> "plan"
  | Schedule_row _ -> "schedule-row"
  | Listening _ -> "listening"
  | Peers _ -> "peers"
  | Peer_hello _ -> "peer-hello"
  | Rotation_token _ -> "rotation-token"
  | Pass_sync _ -> "pass-sync"
  | Pass_telemetry _ -> "pass-telemetry"
  | Pass_report _ -> "pass-report"
  | Done _ -> "done"
  | Fatal _ -> "fatal"
  | Shutdown -> "shutdown"

let to_bytes (m : msg) = Marshal.to_bytes m []
let of_bytes (b : bytes) : msg = Marshal.from_bytes b 0

(* ------------------------------------------------------------------ *)
(* The value codec: schedule-row entries                               *)
(* ------------------------------------------------------------------ *)

(* malformed payloads raise [Orion_dsm.Codec.Decode_error], naming the
   byte where decoding failed *)
let decode_error = Orion_dsm.Codec.decode_error

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

type cursor = Orion_dsm.Codec.cursor =
  { c_bytes : bytes; mutable c_pos : int; c_end : int }

let need = Orion_dsm.Codec.need

let get_count c pos what =
  need c pos 4 what;
  Int32.to_int (Bytes.get_int32_le c.c_bytes pos) land 0xFFFF_FFFF

let get_int b pos = Int64.to_int (Bytes.get_int64_le b pos)
let get_float b pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* The value at the cursor, which then moves past it.
   @raise Decode_error on a truncated value or an unknown tag *)
let rec read_value c depth : V.t =
  let b = c.c_bytes and pos = c.c_pos in
  need c pos 1 "value tag";
  let tag = Bytes.get_uint8 b pos in
  let p = pos + 1 in
  if tag = tag_float then begin
    need c p 8 "float";
    c.c_pos <- p + 8;
    V.Vfloat (get_float b p)
  end
  else if tag = tag_int then begin
    need c p 8 "int";
    c.c_pos <- p + 8;
    V.Vint (get_int b p)
  end
  else if tag = tag_unit then begin
    c.c_pos <- p;
    V.Vunit
  end
  else if tag = tag_bool then begin
    need c p 1 "bool";
    c.c_pos <- p + 1;
    match Bytes.get_uint8 b p with
    | 0 -> V.Vbool false
    | 1 -> V.Vbool true
    | x -> decode_error p "bool byte %d" x
  end
  else if tag = tag_string then begin
    let n = get_count c p "string length" in
    need c (p + 4) n "string";
    c.c_pos <- p + 4 + n;
    V.Vstring (Bytes.sub_string b (p + 4) n)
  end
  else if tag = tag_vec then begin
    let n = get_count c p "vector length" in
    need c (p + 4) (8 * n) "vector";
    c.c_pos <- p + 4 + (8 * n);
    V.Vvec (Array.init n (fun i -> get_float b (p + 4 + (8 * i))))
  end
  else if tag = tag_index then begin
    let n = get_count c p "index length" in
    need c (p + 4) (8 * n) "index";
    c.c_pos <- p + 4 + (8 * n);
    V.Vindex (Array.init n (fun i -> get_int b (p + 4 + (8 * i))))
  end
  else if tag = tag_tuple then begin
    if depth >= max_depth then
      decode_error pos "tuples nested deeper than %d" max_depth;
    let n = get_count c p "tuple length" in
    (* every element takes at least its tag byte *)
    need c (p + 4) n "tuple";
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
    visited in: the master and a worker each sum their own space, and
    the two agree exactly when both hold the same entries. *)
let entry_digest lin v = mix (mix lin + value_hash v)

(** [entry_digest lin (Vfloat f)], with no value boxed. *)
let[@inline] float_entry_digest lin f =
  mix (mix lin + mix (3 + Int64.to_int (Int64.bits_of_float f)))

(** {!entry_digest} summed over [iter]'s stored entries; a float view
    ({!Orion_dsm.Dist_array.float_view}) is summed unboxed. *)
let space_digest (iter : V.t Orion_dsm.Dist_array.t) =
  let module D = Orion_dsm.Dist_array in
  match D.floats_of_view iter with
  | Some src ->
      D.fold
        (fun acc key f -> acc + float_entry_digest (D.linearize src key) f)
        0 src
  | None ->
      D.fold (fun acc key v -> acc + entry_digest (D.linearize iter key) v) 0 iter

(* Entries in the tagged codec: per entry its linearized key (8 bytes)
   and its value. *)
let tagged_size blk =
  let size = ref 0 in
  Orion_runtime.Schedule.iter_lin
    (fun _ v -> size := !size + 8 + value_size v)
    blk;
  !size

(* write [blk]'s entries at [pos] of [b]; returns their summed
   {!entry_digest} *)
let write_tagged b pos blk =
  let digest = ref 0 and pos = ref pos in
  Orion_runtime.Schedule.iter_lin
    (fun lin v ->
      set_int b !pos lin;
      pos := write_value b (!pos + 8) v;
      digest := !digest + entry_digest lin v)
    blk;
  !digest

(* [n] tagged entries from the cursor, which must then be at its end *)
let read_tagged c ~n =
  (* every entry takes at least a key and a tag byte *)
  need c c.c_pos (9 * n) "block";
  let b = c.c_bytes in
  let keys = Array.make n 0 and values = Array.make n V.Vunit in
  for i = 0 to n - 1 do
    need c c.c_pos 8 "entry key";
    keys.(i) <- get_int b c.c_pos;
    c.c_pos <- c.c_pos + 8;
    values.(i) <- read_value c 0
  done;
  if c.c_pos <> c.c_end then
    decode_error c.c_pos "%d bytes after the last entry" (c.c_end - c.c_pos);
  (keys, values)

(* ------------------------------------------------------------------ *)
(* Row payloads: one frame of blocks and regions                       *)
(* ------------------------------------------------------------------ *)

(* A row block's span: a 4-byte count, a kind byte, then the entries.
   A float block ({!Schedule.float_values}) holds [count] 8-byte keys
   and then [count] values' IEEE bits, with no tag per entry, written
   straight from its arrays; any other block holds its entries in the
   tagged codec. *)
let kind_float = 0
let kind_tagged = 1

(** One rank's row payload, built in one buffer: {!Frame.header_bytes}
    free for the transport's length prefix, then [blocks] in order,
    then the packed [regions] appended as they are.  Returns the
    buffer (for {!Transport.start_send_frame}) and the blocks' and the
    regions' spans in the payload.
    @raise Invalid_argument on a DistArray handle, which cannot travel *)
let row_frame (blocks : V.t Orion_runtime.Schedule.block array)
    (regions : bytes list) =
  let module S = Orion_runtime.Schedule in
  let block_len blk =
    let n = S.length blk in
    count_size n + 1
    + match S.float_values blk with Some _ -> 16 * n | None -> tagged_size blk
  in
  let block_lens = Array.map block_len blocks in
  let region_lens = List.map Bytes.length regions in
  let payload =
    Array.fold_left ( + ) 0 block_lens + List.fold_left ( + ) 0 region_lens
  in
  let h = Frame.header_bytes in
  let b = Bytes.create (h + payload) in
  let pos = ref h in
  let block_spans =
    Array.mapi
      (fun i blk ->
        let p = !pos and n = S.length blk in
        set_count b p n;
        (match S.float_values blk with
        | Some values ->
            Bytes.set_uint8 b (p + 4) kind_float;
            let keys = S.keys blk and kpos = p + 5 and vpos = p + 5 + (8 * n) in
            for j = 0 to n - 1 do
              set_int b (kpos + (8 * j)) (Array.unsafe_get keys j);
              set_float b (vpos + (8 * j)) (Array.unsafe_get values j)
            done
        | None ->
            Bytes.set_uint8 b (p + 4) kind_tagged;
            ignore (write_tagged b (p + 5) blk));
        pos := p + block_lens.(i);
        { sp_off = p - h; sp_len = block_lens.(i) })
      blocks
  in
  let region_spans =
    List.map
      (fun r ->
        let p = !pos and len = Bytes.length r in
        Bytes.blit r 0 b p len;
        pos := p + len;
        { sp_off = p - h; sp_len = len })
      regions
  in
  (b, block_spans, Array.of_list region_spans)

(* Fail unless [spans] tile [payload] exactly: each inside it, none
   overlapping another, no byte outside all of them. *)
let check_spans (spans : span array) payload =
  let len = Bytes.length payload in
  Array.iter
    (fun { sp_off; sp_len } ->
      if sp_off < 0 || sp_len < 0 then
        decode_error 0 "span at %d of %d bytes" sp_off sp_len;
      if sp_off > len - sp_len then
        decode_error len "span [%d, %d) ends past the payload's %d bytes"
          sp_off (sp_off + sp_len) len)
    spans;
  let sorted = Array.copy spans in
  Array.sort compare sorted;
  let last =
    Array.fold_left
      (fun prev { sp_off; sp_len } ->
        if sp_off < prev then
          decode_error sp_off "span [%d, %d) overlaps the span ending at %d"
            sp_off (sp_off + sp_len) prev;
        if sp_off > prev then
          decode_error prev "%d bytes between spans" (sp_off - prev);
        sp_off + sp_len)
      0 sorted
  in
  if last < len then
    decode_error last "%d bytes after the last span" (len - last)

let decode_row_block ~dims payload { sp_off; sp_len } =
  let c = { c_bytes = payload; c_pos = sp_off + 5; c_end = sp_off + sp_len } in
  let n = get_count c sp_off "entry count" in
  need c (sp_off + 4) 1 "block kind";
  let kind = Bytes.get_uint8 payload (sp_off + 4) in
  if kind = kind_float then begin
    if sp_len <> 5 + (16 * n) then
      decode_error sp_off "float block of %d entries in %d bytes, expected %d" n
        sp_len
        (5 + (16 * n));
    let keys = Array.make n 0 and values = Array.create_float n in
    let bits = c.c_pos + (8 * n) in
    for i = 0 to n - 1 do
      keys.(i) <- get_int payload (c.c_pos + (8 * i));
      values.(i) <- get_float payload (bits + (8 * i))
    done;
    Orion_runtime.Schedule.make_float_block ~dims keys values
  end
  else if kind = kind_tagged then begin
    let keys, values = read_tagged c ~n in
    Orion_runtime.Schedule.make_block ~dims keys values
  end
  else decode_error (sp_off + 4) "unknown block kind %d" kind

(** The blocks of [row] from its [payload], decoded in place against
    the iteration space's [dims], after checking that the row's block
    and region spans tile the payload.
    @raise Decode_error on a span outside the payload, overlapping
    spans, stray bytes, or a malformed block *)
let decode_row ~dims (row : row) payload =
  check_spans (Array.append row.sr_blocks row.sr_regions) payload;
  Array.map (decode_row_block ~dims payload) row.sr_blocks
