(* Checkpoint files: the snapshot's fields and one packed part per
   array, in [Orion_dsm.Codec]'s layout, behind a CRC-checked header.
   Float bits are written as they are, never through a decimal
   printer. *)

module Dist_array = Orion_dsm.Dist_array
module Codec = Orion_dsm.Codec

let version = 2
let extension = ".orck"
let magic = "ORCK"

exception Corrupt of { path : string; reason : string }

let corrupt path fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { path; reason })) fmt

type snapshot = {
  ck_app : string;
  ck_scale : float;
  ck_pass : int;
  ck_total_passes : int;
  ck_rng : int64;
  ck_arrays : Dist_array.partition list;
}

let snapshot ~app ~scale ~pass ~total_passes ~rng arrays =
  {
    ck_app = app;
    ck_scale = scale;
    ck_pass = pass;
    ck_total_passes = total_passes;
    ck_rng = rng;
    ck_arrays = List.map (fun (_, arr) -> Dist_array.to_partition arr) arrays;
  }

(* payload := app scale pass total_passes rng narrays part* *)
let encode s =
  let b = Buffer.create 4096 in
  Codec.put_string b s.ck_app;
  Codec.put_float b s.ck_scale;
  Codec.put_varint b s.ck_pass;
  Codec.put_varint b s.ck_total_passes;
  Codec.put_int64 b s.ck_rng;
  Codec.put_varint b (List.length s.ck_arrays);
  List.iter (fun p -> ignore (Codec.put_part b p)) s.ck_arrays;
  Buffer.to_bytes b

let decode payload =
  let c = Codec.cursor payload in
  let ck_app = Codec.get_string c in
  let ck_scale = Codec.get_float c in
  let ck_pass = Codec.get_varint c in
  let ck_total_passes = Codec.get_varint c in
  let ck_rng = Codec.get_int64 c in
  let narrays = Codec.get_varint c in
  (* every part takes at least a byte *)
  Codec.need c c.c_pos narrays "parts";
  let ck_arrays = List.init narrays (fun _ -> Codec.get_part c) in
  if c.c_pos <> c.c_end then
    Codec.decode_error c.c_pos "%d bytes after the last part" (c.c_end - c.c_pos);
  { ck_app; ck_scale; ck_pass; ck_total_passes; ck_rng; ck_arrays }

let path_of_pass ~dir pass =
  Filename.concat dir (Printf.sprintf "pass-%04d%s" pass extension)

let save ~dir s =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = path_of_pass ~dir s.ck_pass in
  let payload = encode s in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      let b = Buffer.create 8 in
      Buffer.add_int32_le b (Int32.of_int version);
      Buffer.add_int32_le b (Crc32.digest payload);
      output_string oc (Buffer.contents b);
      output_bytes oc payload);
  Sys.rename tmp path;
  path

let load path =
  let ic = try open_in_bin path with Sys_error e -> corrupt path "%s" e in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 12 then corrupt path "too short to be a checkpoint";
      let head = Bytes.create 12 in
      (try really_input ic head 0 12
       with End_of_file -> corrupt path "truncated frame");
      if Bytes.sub_string head 0 4 <> magic then
        corrupt path "bad magic (not a checkpoint file)";
      let v = Int32.to_int (Bytes.get_int32_le head 4) in
      if v <> version then
        corrupt path "unsupported checkpoint version %d (expected %d)" v version;
      let want_crc = Bytes.get_int32_le head 8 in
      let payload = Bytes.create (len - 12) in
      (try really_input ic payload 0 (len - 12)
       with End_of_file -> corrupt path "truncated payload");
      if Crc32.digest payload <> want_crc then
        corrupt path "CRC mismatch (damaged checkpoint)";
      try decode payload
      with Codec.Decode_error { offset; reason } ->
        corrupt path "malformed payload at byte %d: %s" offset reason)

let latest dir =
  if not (Sys.file_exists dir) then None
  else
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f extension)
      |> List.sort compare
    in
    match List.rev files with
    | [] -> None
    | f :: _ ->
        let path = Filename.concat dir f in
        Some (path, load path)

let restore s arrays =
  List.iter
    (fun (p : Dist_array.partition) ->
      let name = p.pt_array in
      match List.assoc_opt name arrays with
      | Some arr -> Dist_array.apply_partition arr p
      | None ->
          corrupt ("checkpoint:" ^ s.ck_app)
            "snapshot array %S has no matching array in the instance" name)
    s.ck_arrays
