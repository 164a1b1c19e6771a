(** A small poll-style readiness loop over framed connections, shared
    by the master (tags = worker ranks) and the workers (tags = peer
    ranks).  Each {!poll} waits for readability with [Unix.select],
    then reads at most one message per ready connection; a peer close
    surfaces as {!Closed} and drops the connection from the set. *)

type 'a t = { mutable items : ('a * Transport.conn) list }

type 'a event =
  | Message of 'a * Wire.msg
  | Closed of 'a  (** EOF or a read error; the conn has been removed *)

let create () = { items = [] }
let add t tag conn = t.items <- t.items @ [ (tag, conn) ]

let remove t conn =
  t.items <- List.filter (fun (_, c) -> c != conn) t.items

let conns t = t.items

(** Wait up to [timeout] seconds, then drain one message from every
    readable connection.  Returns [[]] on timeout or an empty set.  The
    wait also ends when one of [writing] turns writable, so a caller
    with frames in flight can push them on as soon as there is room. *)
let poll ?(writing = []) (t : 'a t) ~(timeout : float) : 'a event list =
  match t.items with
  | [] when writing = [] ->
      if timeout > 0.0 then Unix.sleepf timeout;
      []
  | items ->
      let fds = List.map (fun (_, c) -> Transport.fd c) items in
      let readable =
        match Unix.select fds writing [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.concat_map
        (fun (tag, c) ->
          if not (List.mem (Transport.fd c) readable) then []
          else
            (* recv_step, not a blocking recv: a large frame may span
               many polls, and blocking here mid-frame can deadlock
               against a peer that is itself draining mid-send *)
            match Transport.recv_step c with
            | `Msg m -> [ Message (tag, m) ]
            | `Pending -> []
            | `Eof | (exception _) ->
                remove t c;
                Transport.close_conn c;
                [ Closed tag ])
        items
