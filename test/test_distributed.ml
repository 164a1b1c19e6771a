(* Tests for the multi-process distributed runtime (lib/net): partition
   serialization, wire framing, happens-before acyclicity, end-to-end
   equivalence of [`Distributed] runs against the simulated executor
   for every registered app, transport/spawn variants, determinism, and
   the structured failure path under fault injection. *)

open Orion_dsm
open Orion_runtime
module Verify = Orion_verify.Verify

let tc = Alcotest.test_case
let qc = QCheck_alcotest.to_alcotest
let () = Orion_apps.Registry.ensure ()

(* keep the suite hermetic: in-process fork workers, bounded waits *)
let () = Unix.putenv Orion_net.Dist_master.spawn_env "fork"
let () = Unix.putenv Orion_net.Dist_worker.timeout_env "60"

(* ------------------------------------------------------------------ *)
(* Partitions and their packed layout (shared by lib/net and           *)
(* checkpointing)                                                      *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* payload bits a decimal round trip would lose: -0.0 and NaNs with
   payloads, mixed with ordinary values *)
let arb_stored_value =
  QCheck.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl
          [
            -0.0;
            Float.nan;
            Int64.float_of_bits 0x7ff0_0000_0000_0001L;
            Int64.float_of_bits 0xfff8_dead_beef_0001L;
          ];
      ])

(* a sparse or dense array of 1-3 small dims, with seeded entries *)
let arb_seeded_array =
  QCheck.(
    triple bool
      (list_of_size (Gen.int_range 1 3) (int_range 1 5))
      (small_list (pair small_nat arb_stored_value)))

let seeded_array ~name (sparse, dims_l, seeds) =
  let dims = Array.of_list dims_l in
  let a =
    if sparse then Dist_array.create_sparse ~name ~dims ~default:0.0
    else Dist_array.fill_dense ~name ~dims 0.0
  in
  List.iter
    (fun (kseed, v) ->
      let key = Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims in
      Dist_array.set a key v)
    seeds;
  a

(* a partition round-trips through its byte form with the key mode the
   codec picks (the name dates from the Marshal form this replaced):
   bitwise, and so does the array rebuilt from it *)
let qcheck_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"partition marshal round-trip"
    arb_seeded_array (fun ((sparse, _, _) as seeded) ->
      let a = seeded_array ~name:"rt" seeded in
      let part = Dist_array.to_partition a in
      let part' = Codec.decode_part (fst (Codec.encode_part part)) in
      part'.pt_array = part.pt_array
      && part'.pt_dims = part.pt_dims
      && part'.pt_sparse = part.pt_sparse
      && bits part'.pt_default = bits part.pt_default
      && part'.pt_keys = part.pt_keys
      && Array.for_all2
           (fun v v' -> bits v = bits v')
           part.pt_values part'.pt_values
      &&
      let b = Dist_array.of_partition part' in
      Dist_array.is_sparse b = sparse
      && Dist_array.fold
           (fun ok key v -> ok && bits (Dist_array.get b key) = bits v)
           true a)

(* the packed part layout, in either key mode, gives back the
   partition bitwise, and the array rebuilt from it *)
let qcheck_packed_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"packed partition codec round-trip"
    arb_seeded_array (fun ((sparse, _, _) as seeded) ->
      let a = seeded_array ~name:"pk" seeded in
      let part = Dist_array.to_partition a in
      List.for_all
        (fun mode ->
          let b, written = Codec.encode_part ~mode part in
          let part' = Codec.decode_part b in
          written = (if part.pt_keys = [||] then None else Some mode)
          && part'.pt_array = part.pt_array
          && part'.pt_dims = part.pt_dims
          && part'.pt_sparse = part.pt_sparse
          && bits part'.pt_default = bits part.pt_default
          && part'.pt_keys = part.pt_keys
          && Array.for_all2
               (fun v v' -> bits v = bits v')
               part.pt_values part'.pt_values
          &&
          let b = Dist_array.of_partition part' in
          Dist_array.is_sparse b = sparse
          && Dist_array.fold
               (fun ok key v -> ok && bits (Dist_array.get b key) = bits v)
               true a)
        [ `Sparse; `Dense ])

let qcheck_partition_select =
  QCheck.Test.make ~count:100 ~name:"partition select filters entries"
    QCheck.(small_list (pair (int_range 0 11) (float_range (-10.0) 10.0)))
    (fun seeds ->
      let a = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      List.iter (fun (k, v) -> Dist_array.set a [| k |] v) seeds;
      let part = Dist_array.to_partition ~select:(fun lin _ -> lin < 6) a in
      Array.for_all (fun lin -> lin < 6) part.pt_keys
      &&
      (* applying onto zeros reproduces exactly the selected half *)
      let b = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      Dist_array.apply_partition b part;
      Dist_array.fold
        (fun ok key v ->
          ok
          && bits (Dist_array.get b key)
             = bits (if key.(0) < 6 then v else 0.0))
        true a)

(* ------------------------------------------------------------------ *)
(* Happens-before edge sets are acyclic for every model and shape      *)
(* ------------------------------------------------------------------ *)

let gen_model =
  QCheck.Gen.(
    oneof
      [
        return Domain_exec.M_1d;
        return Domain_exec.M_2d_ordered;
        map (fun d -> Domain_exec.M_2d_unordered { depth = d }) (int_range 1 3);
        return Domain_exec.M_time_major;
      ])

let arb_model =
  QCheck.make gen_model ~print:(fun m -> Domain_exec.model_to_string m)

let qcheck_block_edges_acyclic =
  QCheck.Test.make ~count:300 ~name:"block_edges acyclic (toposort completes)"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let n = sp * tp in
      let edges = Domain_exec.block_edges model ~sp ~tp in
      List.for_all (fun (s, d) -> s >= 0 && s < n && d >= 0 && d < n) edges
      &&
      (* Kahn's algorithm must consume every block *)
      let succs = Array.make n [] and pending = Array.make n 0 in
      List.iter
        (fun (s, d) ->
          succs.(s) <- d :: succs.(s);
          pending.(d) <- pending.(d) + 1)
        edges;
      let ready = ref [] in
      for b = n - 1 downto 0 do
        if pending.(b) = 0 then ready := b :: !ready
      done;
      let visited = ref 0 in
      let rec drain () =
        match !ready with
        | [] -> ()
        | b :: rest ->
            ready := rest;
            incr visited;
            List.iter
              (fun d ->
                pending.(d) <- pending.(d) - 1;
                if pending.(d) = 0 then ready := d :: !ready)
              succs.(b);
            drain ()
      in
      drain ();
      !visited = n)

(* natural_order is one valid linearization of the edge set *)
let qcheck_natural_order_linearizes =
  QCheck.Test.make ~count:300 ~name:"natural_order respects block_edges"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let pos = Hashtbl.create 16 in
      Array.iteri
        (fun i (s, t) -> Hashtbl.replace pos ((s * tp) + t) i)
        (Domain_exec.natural_order model ~sp ~tp);
      List.for_all
        (fun (src, dst) -> Hashtbl.find pos src < Hashtbl.find pos dst)
        (Domain_exec.block_edges model ~sp ~tp))

(* ------------------------------------------------------------------ *)
(* Frame + wire round-trip over a real socketpair                      *)
(* ------------------------------------------------------------------ *)

module Wire = Orion_net.Wire

let row_dims = [| max_int |]

(* a row header over a payload's spans *)
let row_of ?(digest = 0) blocks regions =
  {
    Wire.sr_sp = 2;
    sr_tp = Array.length blocks;
    sr_model = Domain_exec.M_2d_unordered { depth = 2 };
    sr_space_boundaries = [| 0; 3; 6 |];
    sr_time_boundaries = Some [| 0; 1; 2; 4; 5 |];
    sr_dims = row_dims;
    sr_entries = 9;
    sr_digest = digest;
    sr_blocks = blocks;
    sr_regions = regions;
  }

(* a decoded row block's entries as (linearized key, boxed value) *)
let row_entries (blk : Orion.Value.t Schedule.block) =
  let out = ref [] in
  Schedule.iter_lin (fun lin v -> out := (lin, v) :: !out) blk;
  Array.of_list (List.rev !out)

(* [entries] as the payload of a row frame holding them in one block of
   the tagged value codec: the count (4 bytes), the kind byte, then per
   entry its linearized key (8 bytes) and its value *)
let encode_block entries =
  let frame, _, _ =
    Wire.row_frame
      [|
        Schedule.make_block ~dims:row_dims (Array.map fst entries)
          (Array.map snd entries);
      |]
      []
  in
  let h = Orion_net.Frame.header_bytes in
  Bytes.sub frame h (Bytes.length frame - h)

(* such a payload (or a cut or padded one) decoded as the one block of a
   row spanning it whole, as (linearized key, value) in order *)
let decode_block b =
  let row = row_of [| { Wire.sp_off = 0; sp_len = Bytes.length b } |] [||] in
  Array.to_list (row_entries (Wire.decode_row row b).(0))

let test_addr_roundtrip () =
  List.iter
    (fun addr ->
      Alcotest.(check string)
        "addr round-trips"
        (Orion_net.Transport.addr_to_string addr)
        (Orion_net.Transport.addr_to_string
           (Orion_net.Transport.addr_of_string
              (Orion_net.Transport.addr_to_string addr))))
    [ `Unix "/tmp/x.sock"; `Tcp ("127.0.0.1", 8080) ]

(* ------------------------------------------------------------------ *)
(* The value codec schedule rows carry entries in                      *)
(* ------------------------------------------------------------------ *)

module V = Orion.Value

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* bitwise equality: floats by their bits, so NaN payloads and the
   sign of zero count *)
let rec same_bits (a : V.t) (b : V.t) =
  match (a, b) with
  | V.Vfloat x, V.Vfloat y -> Int64.equal (bits x) (bits y)
  | V.Vvec x, V.Vvec y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) x y
  | V.Vtuple x, V.Vtuple y ->
      List.length x = List.length y && List.for_all2 same_bits x y
  | _ -> a = b

let gen_float =
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl [ nan; -0.0; 0.0; infinity; neg_infinity; Float.min_float ];
        (* NaNs with arbitrary payloads and either sign *)
        map
          (fun (payload, neg) ->
            Int64.float_of_bits
              (Int64.logor
                 (if neg then Int64.min_int else 0L)
                 (Int64.logor 0x7FF0_0000_0000_0000L
                    (Int64.logor 1L (Int64.of_int (payload land 0xF_FFFF_FFFF))))))
          (pair nat bool);
      ])

let gen_int = QCheck.Gen.(oneof [ int; oneofl [ max_int; min_int; 0; -1 ] ])

let gen_value =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaves =
             [
               return V.Vunit;
               map (fun n -> V.Vint n) gen_int;
               map (fun f -> V.Vfloat f) gen_float;
               map (fun b -> V.Vbool b) bool;
               map (fun s -> V.Vstring s) (string_size (int_bound 8));
               map (fun a -> V.Vvec a) (array_size (int_bound 5) gen_float);
               map (fun a -> V.Vindex a) (array_size (int_bound 4) gen_int);
             ]
           in
           if depth = 0 then oneof (map (fun l -> V.Vtuple l) (return []) :: leaves)
           else
             oneof
               (map
                  (fun l -> V.Vtuple l)
                  (list_size (int_bound 4) (self (depth - 1)))
               :: leaves)))

let arb_value =
  QCheck.make gen_value ~print:(fun v -> Format.asprintf "%a" V.pp v)

(* [v] as a one-entry tagged block: the count (4 bytes), the kind (1),
   the key (8), then the value, whose tag byte is at offset 13 *)
let value_block v = encode_block [| (0, v) |]

let block_value b =
  match decode_block b with
  | [ (_, v) ] -> v
  | l -> Alcotest.failf "%d values in a one-entry block" (List.length l)

let qcheck_value_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"value codec round-trip is bitwise"
    arb_value (fun v -> same_bits v (block_value (value_block v)))

(* [f ()] raises a decode error naming a byte offset within [0, len] *)
let positioned_error ~len f =
  match f () with
  | _ -> false
  | exception (Codec.Decode_error { offset; _ } as e) ->
      offset >= 0 && offset <= len
      && contains (Printexc.to_string e) (Printf.sprintf "at byte %d" offset)

let qcheck_value_codec_faults =
  QCheck.Test.make ~count:500
    ~name:"value codec: truncated, over-long and unknown-tag payloads"
    QCheck.(triple arb_value small_nat (int_range 8 255))
    (fun (v, cut, tag) ->
      let b = value_block v in
      let len = Bytes.length b in
      let truncated = Bytes.sub b 0 (cut mod len) in
      let over_long = Bytes.cat b (Bytes.make (1 + (cut mod 3)) '\000') in
      let unknown = Bytes.copy b in
      Bytes.set_uint8 unknown 13 tag;
      positioned_error ~len (fun () -> block_value truncated)
      && positioned_error ~len:(len + 3) (fun () -> block_value over_long)
      && positioned_error ~len (fun () -> block_value unknown))

(* [b] with its entry count (at [off], [len] bytes) replaced by [n] *)
let recount b ~off ~len n =
  let buf = Stdlib.Buffer.create (Bytes.length b + 10) in
  Stdlib.Buffer.add_subbytes buf b 0 off;
  Codec.put_varint buf n;
  Stdlib.Buffer.add_subbytes buf b (off + len) (Bytes.length b - off - len);
  Stdlib.Buffer.to_bytes buf

(* the offset and length of a packed part's entry count *)
let count_span (p : Dist_array.partition) =
  let buf = Stdlib.Buffer.create 32 in
  Codec.put_string buf p.pt_array;
  Codec.put_varint buf (Array.length p.pt_dims);
  Array.iter (Codec.put_varint buf) p.pt_dims;
  Codec.put_float buf p.pt_default;
  Stdlib.Buffer.add_char buf '\000';
  let off = Stdlib.Buffer.length buf in
  Codec.put_varint buf (Array.length p.pt_keys);
  (off, Stdlib.Buffer.length buf - off)

(* a packed part cut at any offset, or claiming more entries than its
   dims hold (or, in dense mode, than its key runs hold), is a
   positioned decode error and never another exception *)
let qcheck_part_faults =
  QCheck.Test.make ~count:200 ~name:"part codec: truncated and over-counted parts"
    QCheck.(triple arb_seeded_array bool small_nat)
    (fun (seeded, dense, extra) ->
      let p = Dist_array.to_partition (seeded_array ~name:"pf" seeded) in
      let mode = if dense then `Dense else `Sparse in
      let b = fst (Codec.encode_part ~mode p) in
      let len = Bytes.length b in
      let off, clen = count_span p in
      let n = Array.length p.pt_keys in
      let cells = Array.fold_left ( * ) 1 p.pt_dims in
      let fails b =
        positioned_error ~len:(Bytes.length b) (fun () -> Codec.decode_part b)
      in
      List.for_all (fun cut -> fails (Bytes.sub b 0 cut)) (List.init len Fun.id)
      && fails (recount b ~off ~len:clen (cells + 1 + extra))
      && ((not dense) || fails (recount b ~off ~len:clen (n + 1 + extra))))

(* a schedule-row block round-trips its entries, and a cut one is a
   positioned decode error *)
let qcheck_block_codec =
  QCheck.Test.make ~count:200 ~name:"row block codec round-trip and faults"
    QCheck.(pair (small_list (pair small_nat arb_value)) small_nat)
    (fun (entries, cut) ->
      let entries = Array.of_list entries in
      let b = encode_block entries in
      let back = Array.of_list (decode_block b) in
      Array.length back = Array.length entries
      && Array.for_all2
           (fun (k, v) (k', v') -> k = k' && same_bits v v')
           entries back
      && positioned_error ~len:(Bytes.length b) (fun () ->
             decode_block (Bytes.sub b 0 (cut mod Bytes.length b))))

(* ------------------------------------------------------------------ *)
(* Row frames: a rank's blocks and regions as one raw payload          *)
(* ------------------------------------------------------------------ *)

(* float-only entries as a float block, as a float iteration space's
   schedule holds them; any others boxed *)
let row_block entries =
  let keys = Array.map fst entries in
  if Array.for_all (function _, V.Vfloat _ -> true | _ -> false) entries then
    Schedule.make_float_block ~dims:row_dims keys
      (Array.map (function _, V.Vfloat f -> f | _ -> assert false) entries)
  else Schedule.make_block ~dims:row_dims keys (Array.map snd entries)

let same_entries a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (k, v) (k', v') -> k = k' && same_bits v v') a b

let entries_digest entries =
  Array.fold_left (fun acc (lin, v) -> acc + Wire.entry_digest lin v) 0 entries

(* what the transport hands the receiver: the frame, sealed as the
   transport seals it, past its length prefix, which must announce
   exactly that much *)
let payload_of frame =
  Orion_net.Frame.seal frame;
  let h = Orion_net.Frame.header_bytes in
  let payload = Bytes.sub frame h (Bytes.length frame - h) in
  Alcotest.(check int)
    "length prefix" (Bytes.length payload)
    (Orion_net.Frame.length (Bytes.sub frame 0 h));
  payload

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Orion_net.Transport.wrap a and cb = Orion_net.Transport.wrap b in
  let mf =
    (Option.get (Orion.App.find "mf")).Orion.App.app_make ~num_machines:3
      ~workers_per_machine:1 ()
  in
  let entries =
    [|
      [| (5, Orion.Value.Vfloat 1.5); (0, Orion.Value.Vint 2) |];
      [||];
      [| (1 lsl 40, Orion.Value.Vtuple []) |];
      [| (7, Orion.Value.Vvec [| -0.0 |]) |];
      [|
        (3, Orion.Value.Vfloat nan);
        ((1 lsl 41) - 1, Orion.Value.Vfloat (-0.0));
      |];
    |]
  in
  let frame, blocks, regions =
    Wire.row_frame (Array.map row_block entries) [ Bytes.of_string "\002H\001" ]
  in
  let row = row_of ~digest:(-17) blocks regions in
  let msgs =
    [
      Orion_net.Wire.Hello
        { h_rank = 3; h_pid = 42; h_version = Orion_net.Wire.version };
      Orion_net.Wire.Plan
        {
          p_app = "mf";
          p_scale = 0.5;
          p_num_machines = 3;
          p_workers_per_machine = 1;
          p_rank = 2;
          p_procs = 3;
          p_passes = 2;
          p_telemetry = true;
          p_report_passes = false;
          p_plan =
            Orion.analyze_loop mf.Orion.App.inst_session
              mf.Orion.App.inst_loop;
        };
      Orion_net.Wire.Schedule_row row;
      Orion_net.Wire.Peers [| "unix:/tmp/w0"; "tcp:127.0.0.1:9999" |];
      Orion_net.Wire.Peer_hello
        { ph_rank = 1; ph_version = Orion_net.Wire.version };
      Orion_net.Wire.Rotation_token
        {
          rt_pass = 1;
          rt_src = 5;
          rt_dst = 6;
          rt_slices = [ Bytes.of_string "\002H\001" ];
          rt_entries = Bytes.of_string "\001\000abc";
        };
      Orion_net.Wire.Pass_sync
        {
          ps_pass = 0;
          ps_rank = 1;
          ps_slices = [];
          ps_entries = Bytes.of_string "xyz";
        };
      Orion_net.Wire.Shutdown;
    ]
  in
  List.iter (fun m -> Orion_net.Transport.send ca m) msgs;
  List.iter
    (fun sent ->
      match Orion_net.Transport.recv cb with
      | Some got ->
          Alcotest.(check string)
            "same message kind" (Orion_net.Wire.tag sent)
            (Orion_net.Wire.tag got);
          Alcotest.(check bool) "same payload" true (got = sent)
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  (* the row's payload follows as a raw frame *)
  let send_frame frame =
    let push = Orion_net.Transport.start_send_frame ca frame in
    while not (push ()) do
      ignore (Unix.select [] [ a ] [] 1.0)
    done
  in
  send_frame frame;
  (match Orion_net.Transport.recv_frame cb with
  | Some payload ->
      let back = Wire.decode_row row payload in
      Alcotest.(check int) "blocks" (Array.length entries) (Array.length back);
      Array.iteri
        (fun i e ->
          Alcotest.(check bool)
            (Printf.sprintf "block %d bitwise" i)
            true
            (same_entries e (row_entries back.(i))))
        entries;
      let { Wire.sp_off; sp_len } = regions.(0) in
      Alcotest.(check string) "region bytes" "\002H\001"
        (Bytes.sub_string payload sp_off sp_len)
  | None -> Alcotest.fail "unexpected EOF");
  (* A multi-megabyte row, larger than the socket buffer: the
     non-blocking writer pushes it as far as the kernel takes while the
     receiver reads it step by step, as every row travels. *)
  let n = 300_000 in
  let big =
    Array.init n (fun i ->
        ( (i * 7919) + (i land 3),
          Orion.Value.Vfloat
            (Int64.float_of_bits
               (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)) ))
  in
  let frame, blocks, regions =
    Wire.row_frame [| row_block big; row_block entries.(0) |] []
  in
  Alcotest.(check bool)
    "frame over 4 MB" true
    (Bytes.length frame >= 4_000_000);
  let push = Orion_net.Transport.start_send_frame ca frame in
  let sent = ref false and got = ref None and steps = ref 0 in
  while not (!sent && !got <> None) do
    if not !sent then sent := push ();
    (match Orion_net.Transport.recv_frame_step cb with
    | `Frame payload -> got := Some payload
    | `Pending -> incr steps
    | `Eof -> Alcotest.fail "unexpected EOF")
  done;
  Alcotest.(check bool) "the frame took several steps" true (!steps > 0);
  let back = Wire.decode_row (row_of blocks regions) (Option.get !got) in
  if Schedule.float_values back.(0) = None then
    Alcotest.fail "a float block decoded boxed";
  Alcotest.(check bool)
    "big block bitwise" true
    (same_entries big (row_entries back.(0)));
  Alcotest.(check bool) "mixed block bitwise" true
    (same_entries entries.(0) (row_entries back.(1)));
  (* the master digests its space only for a worker holding records:
     a float view's unboxed sum is the boxed one *)
  let space = Dist_array.create_sparse ~name:"s" ~dims:row_dims ~default:0.0 in
  let boxed =
    Dist_array.create_sparse ~name:"s" ~dims:row_dims ~default:(V.Vfloat 0.0)
  in
  Array.iter
    (fun (lin, v) ->
      Dist_array.set space [| lin |] (V.to_float v);
      Dist_array.set boxed [| lin |] v)
    big;
  Alcotest.(check int) "space digest" (entries_digest big)
    (Wire.space_digest boxed);
  Alcotest.(check int) "float view digest" (entries_digest big)
    (Wire.space_digest (Dist_array.float_view ~name:"s" space));
  Unix.close a;
  (match Orion_net.Transport.recv cb with
  | None -> ()
  | Some _ -> Alcotest.fail "expected EOF after close");
  Unix.close b

(* A float row block, decoded from its frame, through the worker's
   block loop ([Schedule.run_block]) with a no-op unboxed body, which
   takes the block whole: nothing is allocated per entry, up to a
   fixed allowance. *)
let test_row_block_loop_allocation () =
  let n = 60_000 and dims = [| 400; 300 |] in
  let keys = Array.init n (fun i -> (i * 7) mod (400 * 300)) in
  let values = Array.init n (fun i -> float_of_int i *. 0.25) in
  let frame, spans, regions =
    Wire.row_frame [| Schedule.make_float_block ~dims keys values |] []
  in
  let row = { (row_of spans regions) with Wire.sr_dims = dims } in
  let blk = (Wire.decode_row row (payload_of frame)).(0) in
  let body =
    {
      Schedule.boxed =
        (fun ~key:_ ~value:_ -> Alcotest.fail "a value was boxed");
      unboxed = Some (fun ~dims:_ ~strides:_ _ _ -> ());
    }
  in
  Schedule.run_block body blk;
  let before = Gc.minor_words () in
  Schedule.run_block body blk;
  let words = Gc.minor_words () -. before in
  if words > 256.0 then
    Alcotest.failf "the block loop allocated %.0f minor words for %d entries"
      words n

(* float-only, mixed and empty blocks *)
let gen_row_block =
  QCheck.Gen.(
    map Array.of_list
      (oneof
         [
           small_list (pair int (map (fun f -> V.Vfloat f) gen_float));
           small_list (pair int gen_value);
           return [];
         ]))

let qcheck_row_frame =
  QCheck.Test.make ~count:300 ~name:"row frame codec round-trip and faults"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 4) gen_row_block)
           (small_list (list_size (int_bound 6) gen_float))
           (pair small_nat (int_range 2 255))))
    (fun (entries, region_values, (cut, kind)) ->
      let entries = Array.of_list entries in
      let arrays =
        List.mapi
          (fun i vs ->
            let a =
              Dist_array.fill_dense ~name:(Printf.sprintf "r%d" i)
                ~dims:[| List.length vs + 1 |] 0.0
            in
            List.iteri (fun j v -> Dist_array.set a [| j |] v) vs;
            a)
          region_values
      in
      let sender =
        Orion_net.Policy.sender ~linearize:(fun _ key -> key.(0)) ~pos:Fun.id
      in
      let regions =
        List.map
          (fun a ->
            let keys, values = Dist_array.region a ~dim:0 ~lo:0 ~hi:max_int in
            ( a,
              keys,
              values,
              Orion_net.Policy.encode_region sender a keys values ))
          arrays
      in
      let frame, bspans, rspans =
        Wire.row_frame (Array.map row_block entries)
          (List.map (fun (_, _, _, b) -> b) regions)
      in
      let row = row_of bspans rspans in
      let payload = payload_of frame in
      let len = Bytes.length payload in
      let back = Wire.decode_row row payload in
      let roundtrip =
        Array.length back = Array.length entries
        && Array.for_all2
             (fun e b -> same_entries e (row_entries b))
             entries back
        && List.for_all2
             (fun (a, keys, values, _) { Wire.sp_off; sp_len } ->
               let p = Codec.decode_part ~pos:sp_off ~len:sp_len payload in
               p.pt_array = Dist_array.name a
               && p.pt_dims = Dist_array.dims a
               && p.pt_keys = keys
               && Array.for_all2 (fun v v' -> bits v = bits v') values p.pt_values)
             regions (Array.to_list rspans)
      in
      let fails ?(len = len) row payload =
        positioned_error ~len (fun () -> Wire.decode_row row payload)
      in
      let first = bspans.(0) in
      let with_block0 span =
        let blocks = Array.copy bspans in
        blocks.(0) <- span;
        { row with Wire.sr_blocks = blocks }
      in
      let patched f =
        let p = Bytes.copy payload in
        f p;
        p
      in
      let float_block =
        List.find_opt
          (fun { Wire.sp_off; _ } -> Bytes.get_uint8 payload (sp_off + 4) = 0)
          (Array.to_list bspans)
      in
      roundtrip
      (* a truncated frame *)
      && fails row (Bytes.sub payload 0 (cut mod len))
      (* a span past the end *)
      && fails
           (with_block0
              { first with Wire.sp_off = len - first.Wire.sp_len + 1 + cut })
           payload
      (* overlapping spans *)
      && fails
           { row with Wire.sr_regions = Array.append [| first |] rspans }
           payload
      (* a float block whose length disagrees with its count *)
      && (match float_block with
         | None -> true
         | Some { Wire.sp_off; _ } ->
             fails row
               (patched (fun p ->
                    Bytes.set_int32_le p sp_off
                      (Int32.succ (Bytes.get_int32_le p sp_off)))))
      (* an unknown kind byte *)
      && fails row
           (patched (fun p -> Bytes.set_uint8 p (first.Wire.sp_off + 4) kind))
      (* trailing bytes *)
      && fails ~len:(len + 3) row
           (Bytes.cat payload (Bytes.make (1 + (cut mod 3)) '\000')))

(* ------------------------------------------------------------------ *)
(* Wire encoding: codec round-trips                                    *)
(* ------------------------------------------------------------------ *)

module Policy = Orion_net.Policy

(* a fixed two-array model for the sender/receiver properties *)
let pol_dims = [ ("W", [| 4; 5 |]); ("h", [| 16 |]) ]

let pol_lin name (key : int array) =
  let dims = List.assoc name pol_dims in
  let lin = ref 0 in
  Array.iteri (fun i _ -> lin := (!lin * dims.(i)) + key.(i)) dims;
  !lin

let pol_delin name lin =
  let dims = List.assoc name pol_dims in
  let n = Array.length dims in
  let key = Array.make n 0 in
  let rem = ref lin in
  for i = n - 1 downto 0 do
    key.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  key

(* random journal: writes chunked into blocks 0, 1, ... of pass 0 *)
let mk_entries seeds : Orion_net.Wire.block_writes list =
  let writes =
    List.map
      (fun (w, kseed, v) ->
        let name = if w then "W" else "h" in
        let key = pol_delin name (kseed mod 20) in
        { Orion_net.Wire.w_array = name; w_key = key; w_value = v })
      seeds
  in
  let rec chunk b = function
    | [] -> []
    | ws ->
        let n = min 3 (List.length ws) in
        let head = List.filteri (fun i _ -> i < n) ws
        and tail = List.filteri (fun i _ -> i >= n) ws in
        { Orion_net.Wire.bw_pass = 0; bw_block = b; bw_writes = Array.of_list head }
        :: chunk (b + 1) tail
  in
  chunk 0 writes

(* last-writer-wins state of a journal, keyed (array, key) *)
let lww_state (entries : Orion_net.Wire.block_writes list) =
  let st = Hashtbl.create 32 in
  List.iter
    (fun (bw : Orion_net.Wire.block_writes) ->
      Array.iter
        (fun (w : Orion_net.Wire.write) ->
          Hashtbl.replace st (w.w_array, Array.to_list w.w_key) (bits w.w_value))
        bw.bw_writes)
    entries;
  st

let same_state a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

(* every decoded write is some journaled write, bitwise, in its own
   (pass, block) group *)
let subset_of entries decoded =
  List.for_all
    (fun (bw : Orion_net.Wire.block_writes) ->
      Array.for_all
        (fun (w : Orion_net.Wire.write) ->
          List.exists
            (fun (bw' : Orion_net.Wire.block_writes) ->
              bw'.bw_pass = bw.bw_pass
              && bw'.bw_block = bw.bw_block
              && Array.exists
                   (fun (w' : Orion_net.Wire.write) ->
                     w'.w_array = w.w_array && w'.w_key = w.w_key
                     && bits w'.w_value = bits w.w_value)
                   bw'.bw_writes)
            entries)
        bw.bw_writes)
    decoded

let gen_seeds =
  QCheck.(
    small_list (triple bool small_nat (float_range (-1e3) 1e3)))

(* one sender, one pass: a mid-pass token payload (a prefix of the
   journal's blocks) and then the pass-sync flush (the rest) each
   decode to exactly the newest writes they carried, and applying the
   two in order reproduces the journal's last-writer-wins state *)
let qcheck_policy_sync_roundtrip =
  QCheck.Test.make ~count:200 ~name:"policy sync flush round-trips LWW state"
    QCheck.(pair gen_seeds small_nat)
    (fun (seeds, cut) ->
      let entries = mk_entries seeds in
      let cut = cut mod (List.length entries + 1) in
      let token = List.filteri (fun i _ -> i < cut) entries
      and flush = List.filteri (fun i _ -> i >= cut) entries in
      let sender = Policy.sender ~linearize:pol_lin ~pos:(fun b -> b) in
      let roundtrip journal =
        let payload, accounts = Policy.prepare sender journal in
        let decoded = Policy.decode_entries ~delinearize:pol_delin payload in
        ( subset_of journal decoded
          && same_state (lww_state journal) (lww_state decoded)
          && List.for_all (fun (_, b) -> b >= 0.0) accounts,
          decoded )
      in
      let ok_token, dt = roundtrip token in
      let ok_flush, df = roundtrip flush in
      ok_token && ok_flush
      && same_state (lww_state entries) (lww_state (dt @ df)))

(* a region of a random array, packed and set onto a zeroed copy,
   reproduces exactly the entries whose index along [dim] is in range *)
let qcheck_region_roundtrip =
  QCheck.Test.make ~count:200 ~name:"region codec round-trip"
    QCheck.(
      quad bool
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (pair small_nat (pair small_nat small_nat))
        (small_list (pair small_nat (float_range (-1e6) 1e6))))
    (fun (sparse, dims_l, (dseed, (lo, width)), seeds) ->
      let dims = Array.of_list dims_l in
      let make () =
        if sparse then Dist_array.create_sparse ~name:"rg" ~dims ~default:0.0
        else Dist_array.fill_dense ~name:"rg" ~dims 0.0
      in
      let a = make () in
      List.iter
        (fun (kseed, v) ->
          Dist_array.set a
            (Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims)
            v)
        seeds;
      let dim = dseed mod Array.length dims in
      let lo = lo mod (dims.(dim) + 1) in
      let hi = lo + (width mod 4) in
      let keys, values = Dist_array.region a ~dim ~lo ~hi in
      let sender =
        Policy.sender ~linearize:(fun _ -> Dist_array.linearize a) ~pos:Fun.id
      in
      let { Dist_array.pt_array = name; pt_dims = dims'; pt_keys = keys';
            pt_values = values'; _ } =
        Codec.decode_part (Policy.encode_region sender a keys values)
      in
      let b = make () in
      Dist_array.set_region b keys' values';
      name = "rg" && dims' = dims && keys' = keys
      && Array.for_all2 (fun v v' -> bits v = bits v') values values'
      && Dist_array.fold
           (fun ok key v ->
             ok
             && bits (Dist_array.get b key)
                = bits (if key.(dim) >= lo && key.(dim) < hi then v else 0.0))
           true a)

(* ------------------------------------------------------------------ *)
(* End-to-end: distributed runs match the simulated executor           *)
(* ------------------------------------------------------------------ *)

let find_app name =
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.failf "app %s missing from registry" name

(* the reference instance must have the same cluster shape as the
   distributed one: schedule shape determines entry execution order,
   which order-sensitive apps (sgd mf, lda) are bitwise sensitive to *)
let run_sim ?pipeline_depth (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  ignore
    (Orion.Engine.run inst.Orion.App.inst_session inst ~mode:`Sim ~passes
       ?pipeline_depth ());
  inst.Orion.App.inst_outputs

let run_dist ?(transport = `Unix) ?pipeline_depth (app : Orion.App.t) ~procs
    ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  let report =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs; transport })
      ~passes ?pipeline_depth ()
  in
  (inst.Orion.App.inst_outputs, report)

let check_outputs ~what ~tolerance a b =
  List.iter2
    (fun (name_a, arr_a) (_, arr_b) ->
      let d = Orion_dsm.Dist_array.diff_arrays name_a arr_a arr_b in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equal (max abs %.3e, max rel %.3e)" what
           name_a d.Orion_dsm.Dist_array.d_max_abs d.Orion_dsm.Dist_array.d_max_rel)
        true
        (Orion_dsm.Dist_array.diff_ok ~tolerance d))
    a b

let distributed_matches_sim ?pipeline_depth name procs () =
  let app = find_app name in
  let sim = run_sim ?pipeline_depth app ~procs ~passes:2 in
  let dist, report = run_dist ?pipeline_depth app ~procs ~passes:2 in
  Option.iter
    (fun depth ->
      Alcotest.(check int)
        (Printf.sprintf "pipeline depth %d: tp = %d * sp" depth depth)
        (depth * report.Orion.Engine.ep_space_parts)
        report.Orion.Engine.ep_time_parts)
    pipeline_depth;
  check_outputs
    ~what:(Printf.sprintf "%s distributed(%d) vs sim" name procs)
    ~tolerance:app.Orion.App.app_tolerance sim dist;
  Alcotest.(check bool)
    "workers executed every entry twice" true
    (report.Orion.Engine.ep_entries > 0
    && report.Orion.Engine.ep_entries mod 2 = 0);
  Alcotest.(check bool)
    "some DistArray state travelled the wire" true
    (report.Orion.Engine.ep_bytes_shipped > 0.0
    && report.Orion.Engine.ep_bytes_by_array <> [])

(* the wire ships only the newest write per (array, key), packed
   ("delta"), yet the run ends exactly where applying every write
   ("full") ends — the simulated executor, bitwise or within slr's
   tolerance — and in fewer bytes than the raw layout, 16 bytes per
   entry or write (the full-equivalent count every sender keeps) *)
let delta_matches_full name () =
  let app = find_app name in
  let full = run_sim app ~procs:2 ~passes:2 in
  let delta, report = run_dist app ~procs:2 ~passes:2 in
  check_outputs
    ~what:(name ^ " delta vs full")
    ~tolerance:app.Orion.App.app_tolerance full delta;
  Alcotest.(check bool)
    (Printf.sprintf "packed bytes (%.0f) below raw-layout bytes (%.0f)"
       report.Orion.Engine.ep_bytes_shipped report.Orion.Engine.ep_bytes_full)
    true
    (report.Orion.Engine.ep_bytes_shipped < report.Orion.Engine.ep_bytes_full);
  Alcotest.(check bool)
    "report names a key mode per array" true
    (report.Orion.Engine.ep_policy_by_array <> []);
  (* mf's factor matrices are fully populated: run-length keys *)
  if name = "mf" then
    List.iter
      (fun arr ->
        Alcotest.(check (option string))
          (arr ^ " key mode") (Some "dense")
          (List.assoc_opt arr report.Orion.Engine.ep_policy_by_array))
      [ "W"; "H" ]

(* rank-order accumulator merge makes even buffered apps bitwise
   deterministic across distributed runs *)
let distributed_deterministic name () =
  let app = find_app name in
  let r1, _ = run_dist app ~procs:2 ~passes:2 in
  let r2, _ = run_dist app ~procs:2 ~passes:2 in
  check_outputs ~what:(name ^ " run1 vs run2") ~tolerance:None r1 r2

let tcp_smoke () =
  let app = find_app "mf" in
  let sim = run_sim app ~procs:2 ~passes:1 in
  let dist, _ = run_dist ~transport:`Tcp app ~procs:2 ~passes:1 in
  check_outputs ~what:"mf over tcp vs sim" ~tolerance:None sim dist

(* spawn through the real orion_worker executable (exec path) *)
let exec_spawn_smoke () =
  let exe =
    (* the test binary lives in _build/default/test; the worker is a
       declared dep one directory over *)
    let candidates =
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ()) "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ())
          "_build/default/bin/orion_worker.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
        Alcotest.failf "orion_worker.exe not found near %s"
          Sys.executable_name
  in
  Unix.putenv Orion_net.Dist_master.spawn_env ("exec:" ^ exe);
  Fun.protect
    ~finally:(fun () -> Unix.putenv Orion_net.Dist_master.spawn_env "fork")
    (fun () ->
      let app = find_app "mf" in
      let sim = run_sim app ~procs:2 ~passes:1 in
      let dist, _ = run_dist app ~procs:2 ~passes:1 in
      check_outputs ~what:"mf via exec'd workers vs sim" ~tolerance:None sim
        dist)

(* ------------------------------------------------------------------ *)
(* Test-side instances: the 2D-ordered mf script and the time-major    *)
(* stencil recurrence, whose written arrays are not owner-exclusive    *)
(* and so still travel as write journals                               *)
(* ------------------------------------------------------------------ *)

let parallel_loop script =
  match
    Orion.Refs.find_parallel_loops (Orion.Parser.parse_program script)
  with
  | stmt :: _ -> stmt
  | [] -> Alcotest.fail "script has no @parallel_for loop"

(* [inst] running [script]'s loop instead of its own *)
let with_loop (inst : Orion.App.instance) ~name script =
  let loop = parallel_loop script in
  match loop.Orion.Ast.sk with
  | Orion.Ast.For { kind = Orion.Ast.Each_loop { key; value; _ }; body; _ } ->
      {
        inst with
        Orion.App.inst_name = name;
        inst_loop = loop;
        inst_key_var = key;
        inst_value_var = value;
        inst_body = body;
      }
  | _ -> Alcotest.fail "not a parallel each-loop"

let mf_ordered_make ~num_machines ~workers_per_machine =
  with_loop ~name:"mf-ordered"
    ((find_app "mf").Orion.App.app_make ~num_machines ~workers_per_machine ())
    (Orion_apps.Sgd_mf.script_src ~ordered:true)

let stencil_make ~num_machines ~workers_per_machine =
  let rows = 12 and cols = 9 in
  let session = Orion.create_session ~num_machines ~workers_per_machine () in
  let grid = Orion_apps.Stencil.make_grid ~rows ~cols in
  let s = Dist_array.fill_dense ~name:"S" ~dims:[| rows; cols |] 0.0 in
  Orion.register session grid;
  Orion.register session s;
  let make_env () =
    let env = Orion.Interp.create_env ~seed:1 () in
    List.iter
      (fun (n, v) -> Orion.Interp.set_var env n (Orion.Value.Vfloat v))
      [ ("a_nw", 0.45); ("b_w", 0.35); ("c_in", 0.2) ];
    Orion.Interp.set_var env "cols" (Orion.Value.Vint cols);
    Orion.Interp.set_var env "S"
      (Orion.Value.Vextern (Dist_array.to_extern s));
    env
  in
  let loop = parallel_loop Orion_apps.Stencil.script in
  with_loop ~name:"stencil"
    {
      Orion.App.inst_name = "stencil";
      inst_session = session;
      inst_env = make_env ();
      inst_make_env = make_env;
      inst_loop = loop;
      inst_key_var = "";
      inst_value_var = "";
      inst_body = [];
      inst_iter = Dist_array.float_view ~name:"grid" grid;
      inst_iter_name = "grid";
      inst_outputs = [ ("S", s) ];
      inst_arrays = [ ("grid", grid); ("S", s) ];
      inst_buffered = [];
    }
    Orion_apps.Stencil.script

let renamed name (inst : Orion.App.instance) =
  { inst with Orion.App.inst_name = name }

let mf_make ?scale ~num_machines ~workers_per_machine () =
  (find_app "mf").Orion.App.app_make ?scale ~num_machines
    ~workers_per_machine ()

(* mf over 2 users and 2 items: fewer space indices than 3 workers *)
let mf_tiny_make ~num_machines ~workers_per_machine =
  renamed "mf-tiny" (mf_make ~scale:0.1 ~num_machines ~workers_per_machine ())

(* The worker side of the data-drift apps: the mf program over other
   data than the master's instance, which is plain mf — more ratings,
   or as many ratings at other keys (items shifted by one). *)
let drifted_make name ~num_machines ~workers_per_machine =
  match name with
  | "mf-drift-count" ->
      renamed name (mf_make ~scale:1.5 ~num_machines ~workers_per_machine ())
  | _ ->
      let inst = mf_make ~num_machines ~workers_per_machine () in
      let iter = inst.Orion.App.inst_iter in
      let dims = Dist_array.dims iter in
      let ratings = Option.get (Dist_array.floats_of_view iter) in
      let shifted =
        Dist_array.float_view ~name:(Dist_array.name iter)
          (Dist_array.of_entries ~name:(Dist_array.name ratings) ~dims
             ~default:ratings.Dist_array.default
             (List.map
                (fun (k, v) -> ([| k.(0); (k.(1) + 1) mod dims.(1) |], v))
                (Array.to_list (Dist_array.entries ratings))))
      in
      { (renamed name inst) with Orion.App.inst_iter = shifted }

(* workers rebuild these instances by name, as the registry's apps *)
let test_materialize name ~scale ~num_machines ~workers_per_machine =
  match name with
  | "mf-ordered" -> Some (mf_ordered_make ~num_machines ~workers_per_machine)
  | "stencil" -> Some (stencil_make ~num_machines ~workers_per_machine)
  | "mf-tiny" -> Some (mf_tiny_make ~num_machines ~workers_per_machine)
  | "mf-drift-count" | "mf-drift-keys" ->
      Some (drifted_make name ~num_machines ~workers_per_machine)
  | _ ->
      Orion_apps.Registry.materialize ~records:false name ~scale ~num_machines
        ~workers_per_machine

(* the distributed backend over [test_materialize] for one run, then
   the registry's again *)
let run_custom (inst : Orion.App.instance) ~procs ~passes =
  let installed = !Orion.Engine.distributed_runner in
  Orion_net.Dist_master.install ~materialize:test_materialize;
  Fun.protect
    ~finally:(fun () -> Orion.Engine.distributed_runner := installed)
    (fun () ->
      Orion.Engine.run inst.Orion.App.inst_session inst
        ~mode:(`Distributed { Orion.Engine.procs; transport = `Unix })
        ~passes ~telemetry:false ())

(* a test-side instance, distributed over [procs] workers, against
   [`Sim] on the same shape, bitwise *)
let custom_run make ~procs =
  let passes = 2 in
  let sim = make ~num_machines:procs ~workers_per_machine:1 in
  ignore
    (Orion.Engine.run sim.Orion.App.inst_session sim ~mode:`Sim ~passes ());
  let dist = make ~num_machines:procs ~workers_per_machine:1 in
  let report = run_custom dist ~procs ~passes in
  check_outputs
    ~what:(Printf.sprintf "%s distributed(%d) vs sim" dist.Orion.App.inst_name
             procs)
    ~tolerance:None sim.Orion.App.inst_outputs dist.Orion.App.inst_outputs;
  report

(* [model] pins the execution model the case exists to cover *)
let custom_matches_sim make ~model ~procs () =
  let report = custom_run make ~procs in
  Alcotest.(check string) "execution model" model report.Orion.Engine.ep_model

(* every worker this process spawned has been reaped *)
let no_children_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "a worker is still running"
  | pid, _ -> Alcotest.failf "worker %d was left unreaped" pid

(* the master spawns before it knows the space cut: a rank the cut
   leaves without blocks gets no row, exits cleanly and is reaped *)
let fewer_partitions_than_workers () =
  let procs = 3 in
  let report = custom_run mf_tiny_make ~procs in
  let sp = report.Orion.Engine.ep_space_parts in
  Alcotest.(check bool)
    (Printf.sprintf "%d space partitions, fewer than %d workers" sp procs)
    true (sp < procs);
  Alcotest.(check int) "workers counted: one per space partition" sp
    report.Orion.Engine.ep_domains;
  no_children_left ()

(* ------------------------------------------------------------------ *)
(* Telemetry: worker spans shipped over the wire merge into one        *)
(* clock-aligned multi-process timeline                                *)
(* ------------------------------------------------------------------ *)

let distributed_telemetry_merged_timeline () =
  let app = find_app "mf" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 ()
  in
  let passes = 2 in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes ~telemetry:true ()
  in
  match r.Orion.Engine.ep_telemetry with
  | None -> Alcotest.fail "distributed run produced no telemetry"
  | Some sm ->
      Alcotest.(check string) "mode" "distributed" sm.Orion.Telemetry.sm_mode;
      Alcotest.(check int) "one shard per worker" 2
        sm.Orion.Telemetry.sm_workers;
      let spans = Orion.Trace.spans sm.Orion.Telemetry.sm_trace in
      Alcotest.(check bool) "merged timeline is non-empty" true
        (Array.length spans > 0);
      (* each worker's spans are recorded sequentially, so after the
         master shifts them by the epoch offset they must still read as
         a monotone per-worker timeline on the master clock *)
      let last = Hashtbl.create 4 in
      let workers_seen = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          Hashtbl.replace workers_seen s.Orion.Trace.worker ();
          Alcotest.(check bool) "span start is on the master timeline" true
            (s.Orion.Trace.start_sec >= 0.0);
          (match Hashtbl.find_opt last s.Orion.Trace.worker with
          | Some prev ->
              Alcotest.(check bool)
                (Printf.sprintf "worker %d timeline is monotone"
                   s.Orion.Trace.worker)
                true
                (s.Orion.Trace.start_sec >= prev)
          | None -> ());
          Hashtbl.replace last s.Orion.Trace.worker
            s.Orion.Trace.start_sec)
        spans;
      Alcotest.(check int) "both workers contributed spans" 2
        (Hashtbl.length workers_seen);
      (* each worker's start-up is on the timeline, before pass 0 *)
      let pass0 =
        match sm.Orion.Telemetry.sm_pass_metrics with
        | (_, m) :: _ -> m.Orion.Metrics.window_start
        | [] -> Alcotest.fail "no pass metrics"
      in
      List.iter
        (fun label ->
          let startup =
            List.filter
              (fun s -> s.Orion.Trace.label = label)
              (Array.to_list spans)
          in
          Alcotest.(check int)
            (Printf.sprintf "one %S span per worker" label)
            2 (List.length startup);
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "%S ends before pass 0" label)
                true
                (s.Orion.Trace.start_sec +. s.Orion.Trace.duration_sec
                <= pass0))
            startup)
        [ "materialize"; "kernel compile"; "row install" ];
      Alcotest.(check int) "one metrics row per pass" passes
        (List.length sm.Orion.Telemetry.sm_pass_metrics);
      let overall = sm.Orion.Telemetry.sm_overall in
      Alcotest.(check bool) "nonzero compute time" true
        (overall.Orion.Metrics.compute_sec > 0.0);
      Alcotest.(check bool) "finite straggler ratio" true
        (Float.is_finite overall.Orion.Metrics.straggler_ratio);
      Alcotest.(check bool) "rotation traffic carries bytes" true
        (overall.Orion.Metrics.total_bytes > 0.0);
      Alcotest.(check bool) "per-block cost table is non-empty" true
        (sm.Orion.Telemetry.sm_block_costs <> [])

(* ------------------------------------------------------------------ *)
(* Failure path: a worker aborting mid-pass surfaces as a structured   *)
(* error within a bounded time, with no leftover workers               *)
(* ------------------------------------------------------------------ *)

let fault_injection () =
  Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
  Unix.putenv Orion_net.Dist_worker.timeout_env "30";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.timeout_env "60")
    (fun () ->
      let app = find_app "mf" in
      let t0 = Unix.gettimeofday () in
      (match run_dist app ~procs:2 ~passes:2 with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
          Alcotest.(check (option int)) "failing rank identified" (Some 1)
            de_rank;
          Alcotest.(check bool)
            (Printf.sprintf "reason names the abort: %S" de_reason)
            true
            (de_reason <> ""));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "failed fast (%.1fs)" elapsed)
        true (elapsed < 25.0))

(* workers that rebuild other data than the master's instance cannot
   run the master's blocks: the run ends in a structured error naming a
   rank, within the deadline — never a hang or a silently different
   result *)
let worker_data_drift name () =
  Unix.putenv Orion_net.Dist_worker.timeout_env "30";
  Fun.protect
    ~finally:(fun () -> Unix.putenv Orion_net.Dist_worker.timeout_env "60")
    (fun () ->
      let inst =
        renamed name (mf_make ~num_machines:2 ~workers_per_machine:1 ())
      in
      let t0 = Unix.gettimeofday () in
      (match run_custom inst ~procs:2 ~passes:2 with
      | _ -> Alcotest.fail "workers over other data ran to completion"
      | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
          Alcotest.(check bool)
            (Printf.sprintf "a rank is named (%s)"
               (Option.fold ~none:"none" ~some:string_of_int de_rank))
            true (de_rank <> None);
          Alcotest.(check bool)
            (Printf.sprintf "reason names the iteration space: %S" de_reason)
            true
            (contains de_reason "iteration space"));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "failed fast (%.1fs)" elapsed)
        true (elapsed < 25.0);
      no_children_left ())

(* ------------------------------------------------------------------ *)
(* Workers read no records: schedule rows carry the entries            *)
(* ------------------------------------------------------------------ *)

module Gen = Orion_store.Gen

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let shard_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "orion-dist-shards-%d-%s" (Unix.getpid ()) tag)

(* [f dir moved] with [spec]'s shards generated at [dir] and named by
   [env_var]; [moved] is where [f] may rename them *)
let with_shards ~env_var ~tag spec f =
  let dir = shard_dir tag in
  let moved = dir ^ "-moved" in
  rm_rf dir;
  rm_rf moved;
  ignore (Gen.generate ~dir ~seed:5 ~shards:2 spec);
  Unix.putenv env_var dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv env_var "";
      rm_rf dir;
      rm_rf moved)
    (fun () -> f dir moved)

(* [src]'s shards cut down to their front headers and footers, at
   [dst]: the dataset still describes itself, but reading any record
   fails (the body is gone, so the footer's count and CRC disagree) *)
let header_only_copy ~src ~dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let b =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      (* magic, version, header length, header; the footer is 16 bytes *)
      let front = 12 + Int32.to_int (String.get_int32_le b 8) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc (String.sub b 0 front);
          output_string oc (String.sub b (String.length b - 16) 16)))
    (Sys.readdir src)

(* The master's instance and a `Parallel 1 reference are built from the
   shards; then the shards move away and only their headers stay, so a
   worker that read a record would fail.  The distributed run must
   still end where the reference does — bitwise for mf, within slr's
   declared buffered-accumulation tolerance. *)
let workers_read_no_records name ~env_var spec () =
  with_shards ~env_var ~tag:name spec (fun dir moved ->
      let app = find_app name in
      let make () =
        app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 ()
      in
      let dist = make () and base = make () in
      Alcotest.(check bool)
        "the master's instance holds the shards' records" true
        (Dist_array.count dist.Orion.App.inst_iter > 0);
      Sys.rename dir moved;
      header_only_copy ~src:moved ~dst:dir;
      (match make () with
      | _ -> Alcotest.fail "records were read from header-only shards"
      | exception Orion_store.Shard.Corrupt _ -> ());
      ignore
        (Orion.Engine.run dist.Orion.App.inst_session dist
           ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
           ~passes:2 ());
      ignore
        (Orion.Engine.run base.Orion.App.inst_session base ~mode:(`Parallel 1)
           ~passes:2 ());
      check_outputs
        ~what:(name ^ " distributed(2) without shards vs parallel(1)")
        ~tolerance:app.Orion.App.app_tolerance base.Orion.App.inst_outputs
        dist.Orion.App.inst_outputs)

(* lda's [sample_topic] needs the corpus-wide topic totals, so its
   workers still load the corpus: with the shards gone the run ends in
   a structured error naming a rank and the missing directory *)
let lda_workers_need_the_corpus () =
  Unix.putenv Orion_net.Dist_worker.timeout_env "30";
  Fun.protect
    ~finally:(fun () -> Unix.putenv Orion_net.Dist_worker.timeout_env "60")
    (fun () ->
      with_shards ~env_var:Orion_apps.Registry.corpus_dir_env ~tag:"lda"
        (Gen.Corpus
           {
             num_docs = 16;
             vocab_size = 20;
             avg_doc_len = 12;
             num_topics = 4;
             skew = 1.05;
           })
        (fun dir moved ->
          let inst =
            (find_app "lda").Orion.App.app_make ~num_machines:2
              ~workers_per_machine:1 ()
          in
          Sys.rename dir moved;
          let t0 = Unix.gettimeofday () in
          (match
             Orion.Engine.run inst.Orion.App.inst_session inst
               ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
               ~passes:1 ()
           with
          | _ -> Alcotest.fail "lda workers ran without their corpus"
          | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
              Alcotest.(check bool)
                (Printf.sprintf "a rank is named (%s)"
                   (Option.fold ~none:"none" ~some:string_of_int de_rank))
                true (de_rank <> None);
              Alcotest.(check bool)
                (Printf.sprintf "reason names the directory: %S" de_reason)
                true (contains de_reason dir));
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "failed fast (%.1fs)" elapsed)
            true (elapsed < 25.0);
          no_children_left ()))

(* a deadline that is already past would misreport "timed out", and
   [nan] would disable it altogether: both, and any malformed value,
   are a structured error naming the variable, before any worker is
   spawned *)
let timeout_validation () =
  let env = Orion_net.Dist_worker.timeout_env in
  Fun.protect
    ~finally:(fun () -> Unix.putenv env "60")
    (fun () ->
      let names_var what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s accepted" what env
        | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
            Alcotest.(check (option int)) (what ^ ": no rank") None de_rank;
            Alcotest.(check bool)
              (Printf.sprintf "%s: reason names %s: %S" what env de_reason)
              true
              (String.starts_with ~prefix:env de_reason)
      in
      List.iter
        (fun v ->
          Unix.putenv env v;
          names_var v (fun () ->
              Orion_net.Dist_worker.timeout_seconds ~default:1.0))
        [ "-1"; "0"; "nan"; "inf"; "soon" ];
      Unix.putenv env "nan";
      names_var "distributed run" (fun () ->
          run_dist (find_app "gbt") ~procs:2 ~passes:1);
      Unix.putenv env "2.5";
      Alcotest.(check (float 0.0)) "valid value parsed" 2.5
        (Orion_net.Dist_worker.timeout_seconds ~default:1.0);
      Unix.putenv env "";
      Alcotest.(check (float 0.0)) "empty means default" 1.0
        (Orion_net.Dist_worker.timeout_seconds ~default:1.0))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume: a run checkpointed every pass and killed mid-pass  *)
(* by fault injection resumes from the newest checkpoint to the same   *)
(* final state as the uninterrupted run                                *)
(* ------------------------------------------------------------------ *)

module Checkpoint = Orion_store.Checkpoint

let dist_kill_and_resume name ~tolerance () =
  let app = find_app name in
  let procs = 2 and passes = 3 in
  let mode = `Distributed { Orion.Engine.procs; transport = `Unix } in
  let make () =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  (* truth: uninterrupted run; its report also tells us how many blocks
     one rank executes per pass (ep_time_parts), which positions the
     fault injection at the start of pass 2 *)
  let truth = make () in
  let report =
    Orion.Engine.run truth.Orion.App.inst_session truth ~mode ~passes ()
  in
  let blocks_per_pass = report.Orion.Engine.ep_time_parts in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orion-dist-resume-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "")
    (fun () ->
      (* killed run: rank 1 exits just before its first block of pass 2,
         after its pass-0 and pass-1 reports reached the master *)
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
      Unix.putenv Orion_net.Dist_worker.abort_after_env
        (string_of_int (2 * blocks_per_pass));
      let inst1 = make () in
      let sink ~pass_done arrays =
        ignore
          (Checkpoint.save ~dir
             (Checkpoint.snapshot ~app:name ~scale:1.0 ~pass:pass_done
                ~total_passes:passes
                ~rng:
                  (Orion.Interp.Rng.state
                     inst1.Orion.App.inst_env.Orion.Interp.rng)
                arrays))
      in
      (match
         Orion.Engine.run inst1.Orion.App.inst_session inst1 ~mode ~passes
           ~checkpoint:(1, sink) ()
       with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error _ -> ());
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "";
      (* resume from whatever the master managed to checkpoint before
         the crash surfaced (at least pass 1) *)
      match Checkpoint.latest dir with
      | None -> Alcotest.fail "killed run left no checkpoint"
      | Some (_, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "checkpoint is mid-run (pass %d)"
               s.Checkpoint.ck_pass)
            true
            (s.Checkpoint.ck_pass >= 1 && s.Checkpoint.ck_pass < passes);
          let inst2 = make () in
          Checkpoint.restore s inst2.Orion.App.inst_arrays;
          Orion.Interp.Rng.set_state
            inst2.Orion.App.inst_env.Orion.Interp.rng s.Checkpoint.ck_rng;
          ignore
            (Orion.Engine.run inst2.Orion.App.inst_session inst2 ~mode
               ~passes:(passes - s.Checkpoint.ck_pass) ());
          check_outputs
            ~what:(Printf.sprintf "%s killed-and-resumed vs uninterrupted"
                     name)
            ~tolerance truth.Orion.App.inst_outputs
            inst2.Orion.App.inst_outputs)

(* ------------------------------------------------------------------ *)
(* Socket files: a killed or aborted worker leaves none behind         *)
(* ------------------------------------------------------------------ *)

(* [f] with the temp dir, for this process and every worker it starts,
   set to a fresh private directory, so that no other process's sockets
   are counted: as many orion-*.sock files must be there after [f] as
   before it. *)
let no_socket_left f () =
  let dir = Filename.temp_dir "orion-sockets" "" in
  let sockets () =
    List.length
      (List.filter
         (fun n ->
           String.starts_with ~prefix:"orion-" n
           && Filename.check_suffix n ".sock")
         (Array.to_list (Sys.readdir dir)))
  in
  let saved = Filename.get_temp_dir_name () in
  let use d =
    Filename.set_temp_dir_name d;
    Unix.putenv "TMPDIR" d
  in
  use dir;
  Fun.protect
    ~finally:(fun () ->
      use saved;
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let before = sockets () in
      f ();
      Alcotest.(check int) "orion-*.sock files in the temp dir" before
        (sockets ()))

let tc_sockets name speed f = tc name speed (no_socket_left f)

let () =
  Alcotest.run "distributed"
    [
      ( "serialization",
        [
          qc qcheck_partition_roundtrip;
          qc qcheck_partition_select;
          tc "wire round-trip over socketpair" `Quick test_wire_roundtrip;
          qc qcheck_value_codec_roundtrip;
          qc qcheck_value_codec_faults;
          qc qcheck_part_faults;
          qc qcheck_block_codec;
          qc qcheck_row_frame;
          tc "float row block loop allocates only the key" `Quick
            test_row_block_loop_allocation;
          tc "address strings round-trip" `Quick test_addr_roundtrip;
        ] );
      ( "happens_before",
        [ qc qcheck_block_edges_acyclic; qc qcheck_natural_order_linearizes ]
      );
      ( "comms_policies",
        [
          qc qcheck_policy_sync_roundtrip;
          qc qcheck_packed_partition_roundtrip;
          qc qcheck_region_roundtrip;
          tc "mf delta == full" `Slow (delta_matches_full "mf");
          tc "slr delta == full" `Slow (delta_matches_full "slr");
          tc "lda delta == full" `Slow (delta_matches_full "lda");
          tc "gbt delta == full" `Slow (delta_matches_full "gbt");
        ] );
      ( "equivalence",
        [
          tc "mf procs=2" `Slow (distributed_matches_sim "mf" 2);
          tc "mf procs=4" `Slow (distributed_matches_sim "mf" 4);
          tc "slr procs=2" `Slow (distributed_matches_sim "slr" 2);
          tc "slr procs=4" `Slow (distributed_matches_sim "slr" 4);
          tc "lda procs=2" `Slow (distributed_matches_sim "lda" 2);
          tc "lda procs=4" `Slow (distributed_matches_sim "lda" 4);
          tc "gbt procs=2" `Quick (distributed_matches_sim "gbt" 2);
          tc "gbt procs=4" `Slow (distributed_matches_sim "gbt" 4);
          tc "mf procs=3" `Slow (distributed_matches_sim "mf" 3);
          tc "lda procs=3" `Slow (distributed_matches_sim "lda" 3);
          tc "mf procs=2 pipeline depth 2" `Slow
            (distributed_matches_sim ~pipeline_depth:2 "mf" 2);
          tc "mf 2d-ordered procs=2" `Slow
            (custom_matches_sim mf_ordered_make ~model:"2d-ordered" ~procs:2);
          tc "stencil time-major procs=2 (journal)" `Quick
            (custom_matches_sim stencil_make ~model:"time-major" ~procs:2);
          tc "fewer space partitions than workers" `Quick
            fewer_partitions_than_workers;
        ] );
      ( "determinism",
        [
          tc "mf" `Slow (distributed_deterministic "mf");
          tc "slr" `Slow (distributed_deterministic "slr");
        ] );
      ( "transports",
        [
          tc "mf over tcp" `Slow tcp_smoke;
          tc "mf via exec'd workers" `Slow exec_spawn_smoke;
        ] );
      ( "telemetry",
        [
          tc "2-proc merged timeline is clock-aligned" `Quick
            distributed_telemetry_merged_timeline;
        ] );
      ( "failure",
        [
          tc_sockets "worker abort mid-pass" `Quick fault_injection;
          tc_sockets "ORION_DIST_TIMEOUT is validated" `Quick
            timeout_validation;
          tc_sockets "worker data drift: entry count" `Quick
            (worker_data_drift "mf-drift-count");
          tc_sockets "worker data drift: keys" `Quick
            (worker_data_drift "mf-drift-keys");
          tc_sockets "lda workers need the corpus" `Quick
            lda_workers_need_the_corpus;
        ] );
      ( "worker_shards",
        [
          tc "mf from shards" `Quick
            (workers_read_no_records "mf"
               ~env_var:Orion_apps.Registry.ratings_dir_env
               (Gen.Ratings
                  {
                    num_users = 40;
                    num_items = 30;
                    num_ratings = 600;
                    skew = 1.1;
                    rank = 4;
                    noise = 0.1;
                  }));
          tc "slr from shards (tuple values)" `Quick
            (workers_read_no_records "slr"
               ~env_var:Orion_apps.Registry.features_dir_env
               (Gen.Features
                  {
                    num_samples = 90;
                    num_features = 40;
                    nnz_per_sample = 5;
                    skew = 1.1;
                    noise = 0.05;
                  }));
        ] );
      ( "kill_and_resume",
        [
          tc_sockets "mf" `Quick (dist_kill_and_resume "mf" ~tolerance:None);
          tc_sockets "lda" `Quick (dist_kill_and_resume "lda" ~tolerance:None);
          tc_sockets "gbt" `Quick (dist_kill_and_resume "gbt" ~tolerance:None);
          tc_sockets "slr" `Quick
            (dist_kill_and_resume "slr" ~tolerance:(Some 1e-9));
        ] );
    ]
