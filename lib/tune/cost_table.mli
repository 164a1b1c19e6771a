(** The measurement side of [orion explain --measured]: fold one pass's
    {!Orion.Telemetry.block_costs} into a calibrated per-space-partition
    cost table — observed seconds, entries, and seconds-per-entry
    replace the planner's static per-op weights. *)

type partition_cost = {
  pc_space : int;  (** space-partition index *)
  pc_seconds : float;  (** measured compute seconds, summed over time blocks *)
  pc_entries : int;
  pc_sec_per_entry : float;
      (** [pc_seconds / pc_entries]; the table-wide rate when the
          partition executed no entries *)
}

type t = {
  ct_pass : int;
  ct_parts : partition_cost array;  (** indexed by space partition *)
  ct_total_seconds : float;
  ct_max_seconds : float;
  ct_mean_seconds : float;
  ct_straggler : float;  (** max / mean partition seconds (1.0 if idle) *)
  ct_sec_per_entry : float;  (** total seconds / total entries *)
}

(** Aggregate the block costs measured during [pass] into [sp]
    per-space-partition rows (entries outside [pass] are ignored).
    [None] when nothing was measured — e.g. under [`Sim], which has no
    wall clock. *)
val of_costs : sp:int -> pass:int -> Orion.Telemetry.block_cost list -> t option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Orion.Report.json
