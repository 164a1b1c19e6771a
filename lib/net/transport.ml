(** Socket transport for the distributed runtime: Unix-domain or
    loopback TCP, framed {!Wire} messages, per-connection byte
    counters.  Addresses print as ["unix:/path"] / ["tcp:host:port"] so
    they can travel inside protocol messages and CLI flags. *)

type addr = [ `Unix of string | `Tcp of string * int ]

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s : addr =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      `Unix (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          `Tcp (host, int_of_string port)
      | None -> invalid_arg ("bad tcp address: " ^ s))
  | _ -> invalid_arg ("bad transport address: " ^ s)

type conn = {
  fd : Unix.file_descr;
  mutable closed : bool;
  (* incremental read state ({!recv_step}): the frame header or payload
     being filled, how much of it has arrived, and which of the two it
     is.  Lets the event loop make partial progress on a large frame
     without blocking — required to break symmetric send deadlocks. *)
  mutable rbuf : bytes;
  mutable rgot : int;
  mutable rhdr : bool;
  (* current O_NONBLOCK state, tracked here because Unix exposes no
     getter; {!send_draining} and {!recv_step} toggle it cooperatively *)
  mutable nb : bool;
}

type listener = { lfd : Unix.file_descr; laddr : addr }

let fd c = c.fd

let sockaddr_of_addr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let wrap fd =
  {
    fd;
    closed = false;
    rbuf = Bytes.create Frame.header_bytes;
    rgot = 0;
    rhdr = true;
    nb = false;
  }

let set_nb c b =
  if c.nb <> b then begin
    (try (if b then Unix.set_nonblock else Unix.clear_nonblock) c.fd
     with Unix.Unix_error _ -> ());
    c.nb <- b
  end

let listen (addr : addr) : listener =
  let domain =
    match addr with `Unix _ -> Unix.PF_UNIX | `Tcp _ -> Unix.PF_INET
  in
  (* close-on-exec, as every socket here: an exec'd worker must not
     inherit its master's listener or connections *)
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | `Unix _ -> ()
  | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of_addr addr);
  (* backlog ≥ any worker count we spawn: the full mesh parks pending
     connects here while peers finish their own handshakes *)
  Unix.listen fd 64;
  let laddr =
    match addr with
    | `Unix _ -> addr
    | `Tcp (host, _) -> (
        (* recover the kernel-chosen port when binding port 0 *)
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> `Tcp (host, port)
        | _ -> addr)
  in
  { lfd = fd; laddr }

let accept (l : listener) : conn =
  let rec go () =
    match Unix.accept ~cloexec:true l.lfd with
    | fd, _ -> wrap fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(** Connect, retrying while the listener is not up yet (the master
    spawns workers before they listen, and peers mesh-connect in
    arbitrary order). *)
let connect ?(retries = 200) ?(retry_delay = 0.025) (addr : addr) : conn =
  let domain =
    match addr with `Unix _ -> Unix.PF_UNIX | `Tcp _ -> Unix.PF_INET
  in
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of_addr addr) with
    | () -> wrap fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EINTR), _, _)
      when attempt < retries ->
        Unix.close fd;
        Unix.sleepf retry_delay;
        go (attempt + 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  go 0

(* Wait until [fd] is readable ([`Read]) or writable ([`Write]). *)
let rec wait_for fd dir =
  match
    match dir with
    | `Read -> Unix.select [ fd ] [] [] (-1.0)
    | `Write -> Unix.select [] [ fd ] [] (-1.0)
  with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_for fd dir

(** The one frame writer.  Start writing [segments] — buffer, offset,
    length, in order — to [c] without blocking.  The returned [push]
    writes as much as the kernel buffer takes and tells whether all of
    it is out; call it again, once the socket is writable, until it
    does.  Lets one caller feed several peers at once, so a peer that
    is slow to read holds up only its own frame. *)
let start_write (c : conn) (segments : (bytes * int * int) list) :
    unit -> bool =
  let rest = ref segments in
  fun () ->
    if !rest <> [] then begin
      set_nb c true;
      Fun.protect
        ~finally:(fun () -> set_nb c false)
        (fun () ->
          try
            while !rest <> [] do
              match !rest with
              | [] -> ()
              | (buf, ofs, len) :: tl ->
                  (* single_write, not write: Unix.write loops over
                     internal chunks and on EAGAIN loses how many it
                     already sent, which would desync the frame stream
                     on retry *)
                  let n = Unix.single_write c.fd buf ofs len in
                  rest := if n = len then tl else (buf, ofs + n, len - n) :: tl
            done
          with
          | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
          ->
            ())
    end;
    !rest = []

(** Start writing [m] as one frame: its length prefix and its
    [Marshal]ed payload, each from its own buffer (see {!start_write}). *)
let start_send (c : conn) (m : Wire.msg) : unit -> bool =
  let payload = Wire.to_bytes m in
  let len = Bytes.length payload in
  start_write c [ (Frame.header len, 0, Frame.header_bytes); (payload, 0, len) ]

(* the largest send buffer a frame asks for; the kernel caps it lower
   still where its own limit is lower *)
let max_frame_sndbuf = 1 lsl 20

(** Start writing [frame], a buffer built with {!Frame.header_bytes}
    free at its start and the payload after them, as one frame: the
    length prefix is filled in place, so the payload is never copied.
    The socket's send buffer is first raised to hold the frame whole
    (up to {!max_frame_sndbuf}), so that the writer queues it in one go
    and need not run again while the reader drains it. *)
let start_send_frame (c : conn) (frame : bytes) : unit -> bool =
  Frame.seal frame;
  let want = min (Bytes.length frame) max_frame_sndbuf in
  (try
     if Unix.getsockopt_int c.fd Unix.SO_SNDBUF < want then
       Unix.setsockopt_int c.fd Unix.SO_SNDBUF want
   with Unix.Unix_error _ -> ());
  start_write c [ (frame, 0, Bytes.length frame) ]

let push_blocking push fd =
  while not (push ()) do
    wait_for fd `Write
  done

let send (c : conn) (m : Wire.msg) = push_blocking (start_send c m) c.fd

(** [send] for symmetric mesh traffic: write non-blocking and call
    [drain] whenever the kernel buffer is full.  Two peers blocking in
    plain [send] to each other with both socket buffers full deadlock —
    neither ever reads; [drain] (which should pump the caller's event
    loop) lets the opposite direction empty so both writes complete. *)
let send_draining (c : conn) (m : Wire.msg) ~(drain : unit -> unit) =
  let push = start_send c m in
  while not (push ()) do
    drain ()
  done

(** One non-blocking receive step: consume whatever bytes the kernel
    has buffered, return [`Frame payload] once a whole frame has
    accumulated (across any number of calls), [`Pending] when more
    bytes are still in flight, [`Eof] on a clean close at a frame
    boundary.  An EOF mid-frame raises {!Frame.Frame_error}.  This is
    what lets an event loop stay responsive while a peer trickles a
    multi-megabyte frame — and, symmetrically, what lets
    {!send_draining}'s drain callback free the peer's send buffer
    without committing to a full blocking frame read.  The payload is
    the buffer the bytes were read into, handed over as it is. *)
let recv_frame_step (c : conn) : [ `Frame of bytes | `Pending | `Eof ] =
  let was = c.nb in
  set_nb c true;
  Fun.protect
    ~finally:(fun () -> set_nb c was)
    (fun () ->
      let rec fill () =
        let want = Bytes.length c.rbuf - c.rgot in
        if want = 0 then complete ()
        else
          match Unix.read c.fd c.rbuf c.rgot want with
          | 0 ->
              if c.rhdr && c.rgot = 0 then `Eof
              else raise (Frame.Frame_error "unexpected EOF inside a frame")
          | n ->
              c.rgot <- c.rgot + n;
              fill ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
          | exception
              Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
              `Pending
      and complete () =
        if c.rhdr then begin
          let len = Frame.length c.rbuf in
          c.rhdr <- false;
          c.rbuf <- Bytes.create len;
          c.rgot <- 0;
          complete_or_fill ()
        end
        else begin
          let payload = c.rbuf in
          c.rhdr <- true;
          c.rbuf <- Bytes.create Frame.header_bytes;
          c.rgot <- 0;
          `Frame payload
        end
      and complete_or_fill () =
        if Bytes.length c.rbuf = c.rgot then complete () else fill ()
      in
      fill ())

(** {!recv_frame_step}, with the payload decoded as a {!Wire.msg}. *)
let recv_step (c : conn) : [ `Msg of Wire.msg | `Pending | `Eof ] =
  match recv_frame_step c with
  | `Frame payload -> `Msg (Wire.of_bytes payload)
  | (`Pending | `Eof) as r -> r

(** The next whole frame's payload; [None] on a clean EOF (peer closed
    the connection).  Blocking, but built on the same incremental state
    as {!recv_step} so the two can interleave on one connection. *)
let recv_frame (c : conn) : bytes option =
  let rec go () =
    match recv_frame_step c with
    | `Frame payload -> Some payload
    | `Eof -> None
    | `Pending ->
        wait_for c.fd `Read;
        go ()
  in
  go ()

(** {!recv_frame}, decoded as a {!Wire.msg}. *)
let recv (c : conn) : Wire.msg option = Option.map Wire.of_bytes (recv_frame c)

let close_conn (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close_listener (l : listener) =
  (try Unix.close l.lfd with Unix.Unix_error _ -> ());
  match l.laddr with
  | `Unix path -> ( try Sys.remove path with Sys_error _ -> ())
  | `Tcp _ -> ()

(* the temp-dir socket files of process [pid] are named
   [orion-<pid>-<hex>.sock] *)
let socket_prefix pid = Printf.sprintf "orion-%d-" pid

(** A fresh address of the same kind as [like], for a new listener:
    a unique temp-dir socket path, or loopback TCP with a
    kernel-chosen port. *)
let fresh_addr ~(like : addr) : addr =
  match like with
  | `Tcp _ -> `Tcp ("127.0.0.1", 0)
  | `Unix _ ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "%s%x.sock"
             (socket_prefix (Unix.getpid ()))
             (Hashtbl.hash (Unix.gettimeofday ())))
      in
      (try Sys.remove path with Sys_error _ -> ());
      `Unix path

(** Remove the temp-dir socket files {!fresh_addr} made in process
    [pid], for a process killed before it could close its listeners. *)
let remove_sockets_of ~pid =
  let dir = Filename.get_temp_dir_name () and prefix = socket_prefix pid in
  match Sys.readdir dir with
  | names ->
      Array.iter
        (fun name ->
          if
            String.starts_with ~prefix name
            && Filename.check_suffix name ".sock"
          then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ()
