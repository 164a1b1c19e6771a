(** Dynamic dependence validation and schedule race detection: the
    library behind [orion verify]. *)

module Depvec = Orion_analysis.Depvec

(** {1 Serial observation} *)

(** Execute the loop serially in ascending key order with the access
    log attached (mutates the instance's arrays: afterwards they hold
    the canonical serial result). *)
val observe : Orion.App.instance -> Access_log.t

(** {1 Soundness} *)

val covers_elt : Depvec.elt -> int -> bool

(** Does a static dependence vector cover an observed distance? *)
val covers : Depvec.t -> int array -> bool

type miss = {
  m_array : string;
  m_kind : Depobserve.kind;
  m_distance : int array;
  m_edge : Depobserve.edge;  (** the offending iteration pair *)
  m_static : Depvec.t list;  (** the static vectors that failed to cover *)
}

val miss_to_string : miss -> string

(** Every observed distance vector not covered by any static vector of
    its array. *)
val soundness_misses :
  static:(string * Depvec.t list) list -> Depobserve.edge list -> miss list

(** {1 Reports} *)

type app_report = {
  r_app : string;
  r_strategy : string;
  r_model : string;
  r_ordered : bool;
  r_workers : int;
  r_space_parts : int;
  r_time_parts : int;
  r_events : int;
  r_edges : int;
  r_observed : (string * int array list) list;
  r_static : (string * string list) list;
  r_misses : miss list;
  r_violations : Race.violation list;
  r_diff : Orion_dsm.Dist_array.diff_result list;
      (** scheduled vs adversarial witness *)
  r_serial_diff : Orion_dsm.Dist_array.diff_result list;
      (** scheduled vs serial ascending *)
  r_tolerance : float option;
  r_passed : bool;
}

val report_to_string : app_report -> string

(** The report as an {!Orion.Report} payload / versioned JSON envelope
    (kind ["verify"]). *)
val report_payload : app_report -> Orion.Report.json

val report_to_json : app_report -> string

(** {1 The differential runner} *)

type schedule_override = Force_1d | Force_2d_ordered | Force_2d_unordered

val override_to_string : schedule_override -> string

(** Verify one built-in app (mf | slr | lda | gbt) end to end: serial
    observation + soundness check, scheduled execution + race check,
    adversarial-witness differential.  [schedule_override] replaces the
    planner's schedule with a forced one (to demonstrate race detection
    on wrong schedules). *)
val verify_app :
  ?num_machines:int ->
  ?workers_per_machine:int ->
  ?pipeline_depth:int ->
  ?scale:float ->
  ?schedule_override:schedule_override ->
  string ->
  (app_report, string) result
