(** The typed master ↔ worker / worker ↔ worker protocol.  Messages are
    plain (closure-free) OCaml values encoded with [Marshal] inside a
    {!Frame}; both ends are always the same binary built from the same
    sources, which is the one regime where [Marshal] is sound.  A
    [version] field in the handshake catches accidental mixes.

    Protocol outline (master-centric):

    {v
    worker → master   Hello
    master → worker   Plan                 (app, scale, shape, rank, flags)
                      ... the master compiles the schedule while the
                      workers rebuild their instances ...
    master → worker   Schedule_row         (the rank's blocks, as keys)
                    | Shutdown             (rank beyond the space cut)
    worker → master   Listening            (the worker's own peer addr)
    worker → master   Prefetch_request     (Server-placed arrays)
    master → worker   Partition_ship       (local / rotated / replicated)
    master → worker   Prefetch_response
    master → worker   Peers                (addr per rank)
    worker ↔ worker   Peer_hello, Rotation_token, Pass_sync
    worker → master   Pass_telemetry       (per-pass spans + block costs)
    master → worker   Continue | Repartition   (adaptive runs, per pass)
    worker ↔ worker   Repart_ship          (migrating partitions)
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
   v5: profile-guided re-planning — plan carries [p_adapt]; adaptive
       workers gate each pass boundary on a master directive
       ([Continue] or [Repartition]); a [Repartition] re-balances the
       space cut from measured block costs, workers migrating
       locally-partitioned array regions peer-to-peer ([Repart_ship])
       and re-verifying the rebuilt schedule by fingerprint
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
       which the worker looks up in its own iteration space *)
let version = 8

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

(** What a worker needs to rebuild its instance, all known before the
    master plans (a named record so workers can pass it around whole). *)
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
  p_adapt : bool;
      (** adaptive re-planning: after every pass but the last, wait at
          the barrier for the master's [Continue] / [Repartition]
          directive instead of free-running (implies [p_telemetry] —
          the re-planner feeds on shipped block costs) *)
}

type msg =
  | Hello of { h_rank : int; h_pid : int; h_version : int }
  | Plan of plan
  | Schedule_row of {
      sr_sp : int;
      sr_tp : int;
      sr_model : Orion_runtime.Domain_exec.model;
      sr_space_boundaries : Orion_dsm.Partitioner.boundaries;
      sr_time_boundaries : Orion_dsm.Partitioner.boundaries option;
      sr_entries : int;
          (** entries of the master's iteration space; the worker's
              must have as many *)
      sr_blocks : bytes array;
          (** per time partition, the receiving rank's block as its
              linearized iteration-space keys in scheduled order
              ({!pack_keys}) *)
    }
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
  | Continue of { c_pass : int }
      (** adaptive runs: the master saw every rank's pass-[c_pass]
          telemetry and keeps the current schedule — proceed *)
  | Repartition of {
      rp_pass : int;  (** the pass just finished *)
      rp_boundaries : int array;
          (** the new space cut (same number of partitions; re-balanced
              from measured per-block seconds) *)
      rp_fingerprint : int;
          (** {!Orion_runtime.Schedule.fingerprint} of the master's
              rebuilt schedule; every worker must rebuild an identical
              one before executing another pass *)
    }
      (** adaptive runs: adopt a re-balanced space cut for the
          remaining passes.  Workers migrate the locally-partitioned
          array regions whose ownership moves ({!Repart_ship},
          all-to-all), rebuild their schedules under the new
          boundaries, and re-verify by fingerprint *)
  | Repart_ship of {
      rs_pass : int;
      rs_rank : int;  (** sending rank *)
      rs_parts : part list;
          (** entries of each locally-partitioned array moving from the
              sender's old region into the receiver's new region (may
              be empty — arrival itself is the synchronization) *)
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
  | Continue _ -> "continue"
  | Repartition _ -> "repartition"
  | Repart_ship _ -> "repart-ship"
  | Block_report _ -> "block-report"
  | Buffer_flush _ -> "buffer-flush"
  | Acc_merge _ -> "acc-merge"
  | Done _ -> "done"
  | Fatal _ -> "fatal"
  | Shutdown -> "shutdown"

let to_bytes (m : msg) = Marshal.to_bytes m []
let of_bytes (b : bytes) : msg = Marshal.from_bytes b 0

(** Keys as 8-byte little-endian ints. *)
let pack_keys (keys : int array) =
  let b = Bytes.create (8 * Array.length keys) in
  Array.iteri (fun i k -> Bytes.set_int64_le b (8 * i) (Int64.of_int k)) keys;
  b

(** The inverse of {!pack_keys}.
    @raise Invalid_argument on a trailing partial key. *)
let unpack_keys (b : bytes) =
  if Bytes.length b mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf "Wire.unpack_keys: %d bytes are not whole keys"
         (Bytes.length b));
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.to_int (Bytes.get_int64_le b (8 * i)))
