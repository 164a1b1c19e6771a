(** The wire encoding of DistArray state: see [policy.mli] for the
    model.

    Layout of the packed codecs (all integers are unsigned LEB128
    varints, float values are 8 little-endian bytes of IEEE-754 bits,
    so round trips are bitwise):

    {v
    entries  := ngroups group*
    group    := namelen name pass block nwrites keymode keys valmode values
    part     := namelen name ndims dim* default sparse nentries
                keymode keys valmode values    (partitions and regions)
    keys     := k0 delta*                     (keymode 0: sparse)
              | nruns (gap len)*              (keymode 1: dense runs)
    values   := bits*                         (valmode 0: raw)
              | nruns (count bits)*           (valmode 1: RLE)
    v}

    Keys are ascending linearized (row-major) element indices; both
    ends rebuild identical arrays from the same registry, so indices
    agree across processes. *)

module Dist_array = Orion_dsm.Dist_array

(* ------------------------------------------------------------------ *)
(* Varints and float bits                                              *)
(* ------------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Policy: negative varint";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max 0 n) 1

let get_varint bytes pos =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length bytes then failwith "Policy: truncated varint";
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !n

let put_float buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let get_float bytes pos =
  if !pos + 8 > Bytes.length bytes then failwith "Policy: truncated float";
  let v = Int64.float_of_bits (Bytes.get_int64_le bytes !pos) in
  pos := !pos + 8;
  v

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string bytes pos =
  let n = get_varint bytes pos in
  if !pos + n > Bytes.length bytes then failwith "Policy: truncated string";
  let s = Bytes.sub_string bytes !pos n in
  pos := !pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Key and value sections                                              *)
(* ------------------------------------------------------------------ *)

type key_mode = [ `Sparse | `Dense ]

let mode_label = function `Sparse -> "sparse" | `Dense -> "dense"

(* [keys] ascending and distinct, as varint deltas (sparse) or as runs
   of consecutive keys (dense): [mode] when given, else whichever is
   smaller.  Returns the mode written. *)
let put_keys buf ?mode (keys : int array) : key_mode =
  let n = Array.length keys in
  let delta i = if i = 0 then keys.(0) else keys.(i) - keys.(i - 1) - 1 in
  let run_end i =
    let j = ref (i + 1) in
    while !j < n && keys.(!j) = keys.(!j - 1) + 1 do
      incr j
    done;
    !j
  in
  (* runs as (gap from the previous run's end, length) *)
  let iter_runs f =
    let prev_end = ref (-1) and i = ref 0 in
    while !i < n do
      let j = run_end !i in
      f (keys.(!i) - !prev_end - 1) (j - !i);
      prev_end := keys.(j - 1);
      i := j
    done
  in
  let mode =
    match mode with
    | Some m -> m
    | None ->
        let sparse = ref 0 in
        for i = 0 to n - 1 do
          sparse := !sparse + varint_len (delta i)
        done;
        let dense = ref 0 and nruns = ref 0 in
        iter_runs (fun gap len ->
            incr nruns;
            dense := !dense + varint_len gap + varint_len len);
        if varint_len !nruns + !dense < !sparse then `Dense else `Sparse
  in
  (match mode with
  | `Sparse ->
      Buffer.add_char buf '\000';
      for i = 0 to n - 1 do
        put_varint buf (delta i)
      done
  | `Dense ->
      Buffer.add_char buf '\001';
      let nruns = ref 0 in
      iter_runs (fun _ _ -> incr nruns);
      put_varint buf !nruns;
      iter_runs (fun gap len ->
          put_varint buf gap;
          put_varint buf len));
  mode

let get_keys bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      let keys = Array.make n 0 in
      let prev = ref (-1) in
      for i = 0 to n - 1 do
        let d = get_varint bytes pos in
        keys.(i) <- (if i = 0 then d else !prev + 1 + d);
        prev := keys.(i)
      done;
      keys
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let keys = Array.make n 0 in
      let i = ref 0 and prev_end = ref (-1) in
      for _ = 1 to nruns do
        let gap = get_varint bytes pos in
        let len = get_varint bytes pos in
        let start = !prev_end + 1 + gap in
        for j = 0 to len - 1 do
          if !i >= n then failwith "Policy: key runs overflow count";
          keys.(!i) <- start + j;
          incr i
        done;
        prev_end := start + len - 1
      done;
      if !i <> n then failwith "Policy: key runs underflow count";
      keys
  | _ -> failwith "Policy: bad key mode"

(* Raw or RLE, whichever is smaller for these values: one pass sizes
   the runs, a second writes them only when they win. *)
let put_values buf (values : float array) =
  let n = Array.length values in
  let same i j =
    Int64.equal
      (Int64.bits_of_float values.(i))
      (Int64.bits_of_float values.(j))
  in
  let run_end i =
    let j = ref (i + 1) in
    while !j < n && same i !j do
      incr j
    done;
    !j
  in
  let nruns = ref 0 and rle_size = ref 0 and i = ref 0 in
  while !i < n do
    let j = run_end !i in
    incr nruns;
    rle_size := !rle_size + varint_len (j - !i) + 8;
    i := j
  done;
  if varint_len !nruns + !rle_size < n * 8 then begin
    Buffer.add_char buf '\001';
    put_varint buf !nruns;
    let i = ref 0 in
    while !i < n do
      let j = run_end !i in
      put_varint buf (j - !i);
      put_float buf values.(!i);
      i := j
    done
  end
  else begin
    Buffer.add_char buf '\000';
    Array.iter (put_float buf) values
  end

let get_values bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      Array.init n (fun _ -> get_float bytes pos)
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let values = Array.make n 0.0 in
      let i = ref 0 in
      for _ = 1 to nruns do
        let c = get_varint bytes pos in
        let v = get_float bytes pos in
        for _ = 1 to c do
          if !i >= n then failwith "Policy: value runs overflow count";
          values.(!i) <- v;
          incr i
        done
      done;
      if !i <> n then failwith "Policy: value runs underflow count";
      values
  | _ -> failwith "Policy: bad value mode"

(* ------------------------------------------------------------------ *)
(* Partition codec                                                     *)
(* ------------------------------------------------------------------ *)

(* The part layout over separate key and value arrays, shared by
   whole partitions and by regions. *)
let put_part ?mode ~name ~dims ~default ~sparse (keys : int array)
    (values : float array) : bytes * key_mode option =
  let buf = Buffer.create (64 + (9 * Array.length values)) in
  put_string buf name;
  put_varint buf (Array.length dims);
  Array.iter (put_varint buf) dims;
  put_float buf default;
  Buffer.add_char buf (if sparse then '\001' else '\000');
  let n = Array.length keys in
  put_varint buf n;
  let mode =
    if n = 0 then None
    else begin
      let mode = put_keys buf ?mode keys in
      put_values buf values;
      Some mode
    end
  in
  (Buffer.to_bytes buf, mode)

type unpacked = {
  u_name : string;
  u_dims : int array;
  u_default : float;
  u_sparse : bool;
  u_keys : int array;
  u_values : float array;
}

(* the part at [!pos] of [b], leaving [pos] after it *)
let get_part (b : bytes) pos : unpacked =
  let u_name = get_string b pos in
  let ndims = get_varint b pos in
  let u_dims = Array.init ndims (fun _ -> get_varint b pos) in
  let u_default = get_float b pos in
  let u_sparse = Char.code (Bytes.get b !pos) = 1 in
  incr pos;
  let n = get_varint b pos in
  let u_keys, u_values =
    if n = 0 then ([||], [||])
    else
      let keys = get_keys b pos ~n in
      (keys, get_values b pos ~n)
  in
  { u_name; u_dims; u_default; u_sparse; u_keys; u_values }

let encode_part ?mode (p : Wire.part) =
  put_part ?mode ~name:p.Dist_array.pt_array ~dims:p.Dist_array.pt_dims
    ~default:p.Dist_array.pt_default ~sparse:p.Dist_array.pt_sparse
    (Array.map fst p.Dist_array.pt_entries)
    (Array.map snd p.Dist_array.pt_entries)

let decode_part (b : bytes) : Wire.part =
  let u = get_part b (ref 0) in
  {
    Dist_array.pt_array = u.u_name;
    pt_dims = u.u_dims;
    pt_default = u.u_default;
    pt_sparse = u.u_sparse;
    pt_entries = Array.mapi (fun i k -> (k, u.u_values.(i))) u.u_keys;
  }

let decode_region ?(pos = 0) ?len (b : bytes) =
  let len = Option.value len ~default:(Bytes.length b - pos) in
  let p = ref pos in
  let u = get_part b p in
  if !p <> pos + len then
    failwith
      (Printf.sprintf "Policy: a %d-byte region decoded as %d bytes" len
         (!p - pos));
  (u.u_name, u.u_dims, u.u_keys, u.u_values)

(* ------------------------------------------------------------------ *)
(* Journal-entry codec                                                 *)
(* ------------------------------------------------------------------ *)

(* One encode group: the deduplicated writes of one (pass, block) to
   one array, ascending by linearized key. *)
type group = {
  g_array : string;
  g_pass : int;
  g_block : int;
  g_keys : int array;  (** linearized, ascending *)
  g_values : float array;
}

let encode_groups ~(note : string -> key_mode -> unit) (groups : group list)
    : bytes * (string * float) list =
  let buf = Buffer.create 512 in
  put_varint buf (List.length groups);
  let per_array = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let before = Buffer.length buf in
      put_string buf g.g_array;
      put_varint buf g.g_pass;
      put_varint buf g.g_block;
      put_varint buf (Array.length g.g_keys);
      note g.g_array (put_keys buf g.g_keys);
      put_values buf g.g_values;
      let sz = float_of_int (Buffer.length buf - before) in
      Hashtbl.replace per_array g.g_array
        (sz +. Option.value (Hashtbl.find_opt per_array g.g_array) ~default:0.0))
    groups;
  ( Buffer.to_bytes buf,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_array []) )

let decode_groups ~(delinearize : string -> int -> int array) (b : bytes) :
    Wire.block_writes list =
  let pos = ref 0 in
  let ngroups = get_varint b pos in
  let groups =
    List.init ngroups (fun _ ->
        let name = get_string b pos in
        let pass = get_varint b pos in
        let block = get_varint b pos in
        let n = get_varint b pos in
        let keys = if n = 0 then [||] else get_keys b pos ~n in
        let values = if n = 0 then [||] else get_values b pos ~n in
        let writes =
          Array.init n (fun i ->
              {
                Wire.w_array = name;
                w_key = delinearize name keys.(i);
                w_value = values.(i);
              })
        in
        (pass, block, writes))
  in
  (* merge adjacent groups of the same (pass, block) — the encoder
     emits one group per array, but the receiver must see one
     [block_writes] per block so relay (keyed by block) stays whole *)
  List.fold_left
    (fun acc (pass, block, writes) ->
      match acc with
      | { Wire.bw_pass; bw_block; bw_writes } :: tl
        when bw_pass = pass && bw_block = block ->
          { Wire.bw_pass; bw_block; bw_writes = Array.append bw_writes writes }
          :: tl
      | _ -> { Wire.bw_pass = pass; bw_block = block; bw_writes = writes } :: acc)
    [] groups
  |> List.rev

let decode_entries = decode_groups

(* ------------------------------------------------------------------ *)
(* The sender: dedup to the newest write, per-array key modes          *)
(* ------------------------------------------------------------------ *)

(* A deduplicated write. *)
type cand = {
  c_array : string;
  c_lin : int;
  c_value : float;
  c_pass : int;
  c_block : int;
  c_vpos : int;  (** natural-order position of [c_block] *)
}

type sender = {
  s_linearize : string -> int array -> int;
  s_pos : int -> int;
  s_modes : (string, key_mode) Hashtbl.t;
      (** the key mode each array's latest payload used *)
}

let sender ~linearize ~pos =
  { s_linearize = linearize; s_pos = pos; s_modes = Hashtbl.create 8 }

let note s name mode = Hashtbl.replace s.s_modes name mode

let decisions s =
  Hashtbl.fold (fun name mode acc -> (name, mode_label mode) :: acc) s.s_modes []
  |> List.sort compare

(* The cost of one write in the per-write [Marshal] framing the v3
   runtime used: the before side of the bytes-saved accounting. *)
let full_write_bytes (w : Wire.write) =
  float_of_int (Bytes.length (Marshal.to_bytes (w.w_key, w.w_value) []))

let full_bytes_by_array (entries : Wire.block_writes list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (bw : Wire.block_writes) ->
      Array.iter
        (fun (w : Wire.write) ->
          Hashtbl.replace tbl w.Wire.w_array
            (full_write_bytes w
            +. Option.value (Hashtbl.find_opt tbl w.Wire.w_array) ~default:0.0))
        bw.bw_writes)
    entries;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let prepare s (entries : Wire.block_writes list) :
    Wire.entries_payload * (string * float * float) list =
  let full = full_bytes_by_array entries in
  (* -- dedup to the newest write per (array, element) --------------- *)
  let cands : (string * int, cand) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (bw : Wire.block_writes) ->
      Array.iter
        (fun (w : Wire.write) ->
          let lin = s.s_linearize w.Wire.w_array w.Wire.w_key in
          let c =
            {
              c_array = w.Wire.w_array;
              c_lin = lin;
              c_value = w.Wire.w_value;
              c_pass = bw.bw_pass;
              c_block = bw.bw_block;
              c_vpos = s.s_pos bw.bw_block;
            }
          in
          match Hashtbl.find_opt cands (c.c_array, lin) with
          | Some prev when (prev.c_pass, prev.c_vpos) > (c.c_pass, c.c_vpos) ->
              ()
          | _ -> Hashtbl.replace cands (c.c_array, lin) c)
        bw.bw_writes)
    entries;
  (* -- group by (pass, block, array), ascending --------------------- *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.c_pass, a.c_vpos, a.c_array, a.c_lin)
          (b.c_pass, b.c_vpos, b.c_array, b.c_lin))
      (Hashtbl.fold (fun _ c acc -> c :: acc) cands [])
  in
  let groups =
    List.fold_left
      (fun acc c ->
        match acc with
        | (p, blk, name, cs) :: tl
          when p = c.c_pass && blk = c.c_block && name = c.c_array ->
            (p, blk, name, c :: cs) :: tl
        | _ -> (c.c_pass, c.c_block, c.c_array, [ c ]) :: acc)
      [] sorted
    |> List.rev_map (fun (p, blk, name, cs) ->
           let cs = Array.of_list (List.rev cs) in
           {
             g_array = name;
             g_pass = p;
             g_block = blk;
             g_keys = Array.map (fun c -> c.c_lin) cs;
             g_values = Array.map (fun c -> c.c_value) cs;
           })
    |> List.rev
  in
  let bytes, per_array = encode_groups ~note:(note s) groups in
  (* dedup never drops an array outright, so [full] names every array
     that had traffic *)
  let accounts =
    List.map
      (fun (n, f) ->
        (n, Option.value (List.assoc_opt n per_array) ~default:0.0, f))
      full
  in
  (bytes, accounts)

(* ------------------------------------------------------------------ *)
(* Regions of owner-exclusive arrays                                   *)
(* ------------------------------------------------------------------ *)

let encode_region s (arr : float Dist_array.t) keys values =
  let b, mode =
    put_part ~name:arr.Dist_array.name ~dims:arr.Dist_array.dims
      ~default:arr.Dist_array.default ~sparse:(Dist_array.is_sparse arr) keys
      values
  in
  Option.iter (note s arr.Dist_array.name) mode;
  b

let region_full_bytes (arr : float Dist_array.t) keys values =
  float_of_int
    (Dist_array.partition_size_bytes
       {
         Dist_array.pt_array = arr.Dist_array.name;
         pt_dims = arr.Dist_array.dims;
         pt_default = arr.Dist_array.default;
         pt_sparse = Dist_array.is_sparse arr;
         pt_entries = Array.mapi (fun i k -> (k, values.(i))) keys;
       })
