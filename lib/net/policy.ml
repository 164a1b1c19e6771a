(* Regions are packed parts ([Orion_dsm.Codec]); a journal payload is
   groups of the same key and value sections:

   {v
   entries  := ngroups group*
   group    := namelen name pass block nwrites keymode keys valmode values
   v} *)

module Dist_array = Orion_dsm.Dist_array
module Codec = Orion_dsm.Codec

type key_mode = Codec.key_mode

let mode_label = function `Sparse -> "sparse" | `Dense -> "dense"

let raw_bytes n = float_of_int (16 * n)

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
  Codec.put_varint buf (List.length groups);
  let per_array = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let before = Buffer.length buf in
      Codec.put_string buf g.g_array;
      Codec.put_varint buf g.g_pass;
      Codec.put_varint buf g.g_block;
      Codec.put_varint buf (Array.length g.g_keys);
      note g.g_array (Codec.put_keys buf g.g_keys);
      Codec.put_values buf g.g_values;
      let sz = float_of_int (Buffer.length buf - before) in
      Hashtbl.replace per_array g.g_array
        (sz +. Option.value (Hashtbl.find_opt per_array g.g_array) ~default:0.0))
    groups;
  ( Buffer.to_bytes buf,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_array []) )

let decode_entries ~(delinearize : string -> int -> int array) (b : bytes) :
    Wire.block_writes list =
  let c = Codec.cursor b in
  let ngroups = Codec.get_varint c in
  (* every group takes at least a byte *)
  Codec.need c c.Codec.c_pos ngroups "groups";
  let groups =
    List.init ngroups (fun _ ->
        let name = Codec.get_string c in
        let pass = Codec.get_varint c in
        let block = Codec.get_varint c in
        let n = Codec.get_varint c in
        let keys = Codec.get_keys c ~n ~cells:max_int in
        let values = Codec.get_values c ~n in
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
  if c.c_pos <> c.c_end then
    Codec.decode_error c.c_pos "%d bytes after the last group"
      (c.c_end - c.c_pos);
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

let prepare s (entries : Wire.block_writes list) :
    Wire.entries_payload * (string * float) list =
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
  encode_groups ~note:(note s) groups

(* ------------------------------------------------------------------ *)
(* Regions of owner-exclusive arrays                                   *)
(* ------------------------------------------------------------------ *)

let encode_region s (arr : float Dist_array.t) keys values =
  let b, mode =
    Codec.encode_part
      {
        Dist_array.pt_array = arr.Dist_array.name;
        pt_dims = arr.Dist_array.dims;
        pt_default = arr.Dist_array.default;
        pt_sparse = Dist_array.is_sparse arr;
        pt_keys = keys;
        pt_values = values;
      }
  in
  Option.iter (note s arr.Dist_array.name) mode;
  b
