(** Schedule race detection: replay a schedule's happens-before order
    against observed dependence edges. *)

(** The happens-before model is {!Orion_runtime.Domain_exec}'s: the same
    order drives real multicore execution. *)
type t = {
  model : Orion_runtime.Domain_exec.model;
  workers : int;
  sp : int;
  tp : int;
  block_of : (string, int * int * int) Hashtbl.t;
      (** iteration key -> (space, time, position within block) *)
  hb : bool array array;  (** strict happens-before, transitively closed *)
  natural : (int * int) array;  (** the executor's block execution sequence *)
}

val build :
  Orion_runtime.Domain_exec.model ->
  workers:int ->
  'v Orion_runtime.Schedule.t ->
  t

val happens_before : t -> int * int -> int * int -> bool

type violation = {
  v_edge : Depobserve.edge;
  v_src_block : int * int;
  v_dst_block : int * int;
  v_why : [ `Concurrent | `Reversed | `Unscheduled ];
}

val why_to_string : [ `Concurrent | `Reversed | `Unscheduled ] -> string

(** Check observed dependence edges against the schedule.  Endpoints in
    happens-before-unrelated blocks race; for [ordered] loops, reversed
    execution order is also a violation. *)
val check : t -> ordered:bool -> Depobserve.edge list -> violation list

val violation_to_string : violation -> string

(** A block total order consistent with happens-before: the executor's
    own order ([adversarial:false]) or a maximally reordered witness
    ([adversarial:true]) for the differential runner. *)
val linearize : t -> adversarial:bool -> (int * int) array
