(** Element-granularity DistArray access log.

    The dynamic dependence validator runs a parallel loop's body
    serially, one iteration at a time, with {!Orion_lang.Interp}'s
    [on_array_access] hook pointed at {!record}.  Every element touched
    is logged with the full iteration vector that touched it; range and
    whole-dimension subscripts are expanded to the individual elements
    they cover, so the log is the ground truth the observed dependence
    edges are reconstructed from. *)

open Orion_lang

type event = {
  ev_array : string;
  ev_key : int array;  (** element key, 0-based *)
  ev_write : bool;
  ev_iter : int array;  (** iteration vector of the accessing iteration *)
  ev_seq : int;  (** position in serial execution order *)
}

type t = {
  mutable rev_events : event list;  (** newest first *)
  mutable seq : int;
  mutable current_iter : int array;
}
(** A log is SINGLE-WRITER: recording takes no lock, so it must only be
    attached to one interpreter environment (= one domain) at a time.
    A parallel pass gives each domain its own shard and combines them
    afterwards with {!merge} (dependence reconstruction still needs the
    serial observation pass, which is single-domain by construction). *)

let create () = { rev_events = []; seq = 0; current_iter = [||] }

(** Set the iteration vector that subsequent accesses belong to (called
    once per iteration by the serial observation pass). *)
let set_iter t iter = t.current_iter <- Array.copy iter

let record_key t ~array ~write key =
  t.rev_events <-
    {
      ev_array = array;
      ev_key = key;
      ev_write = write;
      ev_iter = t.current_iter;
      ev_seq = t.seq;
    }
    :: t.rev_events;
  t.seq <- t.seq + 1

(** Record one access with concrete subscripts, expanding ranges and
    whole-dimension subscripts against [dims] to element keys. *)
let record t ~array ~(dims : int array) ~write
    (subs : Value.concrete_sub array) =
  List.iter (record_key t ~array ~write) (Value.keys_of_subs dims subs)

(** [merge ~into src] appends [src]'s events after [into]'s, re-stamping
    [ev_seq] to continue [into]'s sequence.  Merging domain shards in
    domain order is deterministic; cross-domain event order carries no
    happens-before meaning. *)
let merge ~into src =
  List.rev src.rev_events
  |> List.iter (fun ev ->
         into.rev_events <- { ev with ev_seq = into.seq } :: into.rev_events;
         into.seq <- into.seq + 1)

(** Events in serial execution order. *)
let events t = Array.of_list (List.rev t.rev_events)

let length t = t.seq

(** Install this log as [env]'s access hook.  [skip] names arrays to
    leave out of the log (e.g. the iteration-space array itself). *)
let attach t ?(skip = []) (env : Interp.env) =
  env.Interp.on_array_access <-
    Some
      (fun ex ~write csubs ->
        if not (List.mem ex.Value.ex_name skip) then
          record t ~array:ex.Value.ex_name ~dims:ex.Value.ex_dims ~write csubs)

let detach (env : Interp.env) = env.Interp.on_array_access <- None
