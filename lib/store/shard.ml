(* The versioned binary shard container; see shard.mli for the layout.
   Everything little-endian; the CRC covers every byte before the
   footer so header corruption is caught too. *)

let version = 1
let extension = ".orshard"
let magic = "ORSH"
let footer_magic = "OREN"
let footer_len = 4 + 8 + 4

(* a record length beyond this is framing garbage, not data *)
let max_record_len = 1 lsl 30

exception Corrupt of { path : string; offset : int; reason : string }

let corrupt path offset fmt =
  Printf.ksprintf (fun reason -> raise (Corrupt { path; offset; reason })) fmt

type header = {
  h_schema : string;
  h_shard : int;
  h_num_shards : int;
  h_seed : int;
  h_count : int;
  h_meta : (string * string) list;
}

let shard_path ~dir i = Filename.concat dir (Printf.sprintf "shard-%04d%s" i extension)

let list_shards dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f extension)
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* Primitive encoders (into a Buffer)                                  *)
(* ------------------------------------------------------------------ *)

let buf_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Shard: u32 out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let buf_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let buf_str b s =
  buf_u32 b (String.length s);
  Buffer.add_string b s

let encode_header ~schema ~shard ~num_shards ~seed ~meta =
  let b = Buffer.create 128 in
  buf_str b schema;
  buf_u32 b shard;
  buf_u32 b num_shards;
  buf_i64 b seed;
  buf_u32 b (List.length meta);
  List.iter
    (fun (k, v) ->
      buf_str b k;
      buf_str b v)
    meta;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  w_path : string;
  w_tmp : string;
  w_oc : out_channel;
  w_crc : Crc32.t;
  mutable w_count : int;
  mutable w_open : bool;
  w_header : header;  (* h_count patched at close *)
}

let create_writer ~path ~schema ~shard ~num_shards ~seed ?(meta = []) () =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let crc = Crc32.create () in
  let put s =
    output_string oc s;
    Crc32.update_string crc s
  in
  put magic;
  let b = Buffer.create 16 in
  buf_u32 b version;
  let hdr = encode_header ~schema ~shard ~num_shards ~seed ~meta in
  buf_u32 b (String.length hdr);
  put (Buffer.contents b);
  put hdr;
  {
    w_path = path;
    w_tmp = tmp;
    w_oc = oc;
    w_crc = crc;
    w_count = 0;
    w_open = true;
    w_header =
      {
        h_schema = schema;
        h_shard = shard;
        h_num_shards = num_shards;
        h_seed = seed;
        h_count = 0;
        h_meta = meta;
      };
  }

let write_record w (payload : bytes) =
  if not w.w_open then invalid_arg "Shard.write_record: writer is closed";
  if Bytes.length payload > max_record_len then
    invalid_arg "Shard.write_record: record too large";
  let b = Buffer.create 4 in
  buf_u32 b (Bytes.length payload);
  let len = Buffer.contents b in
  output_string w.w_oc len;
  Crc32.update_string w.w_crc len;
  output_bytes w.w_oc payload;
  Crc32.update w.w_crc payload ~pos:0 ~len:(Bytes.length payload);
  w.w_count <- w.w_count + 1

let close_writer w =
  if not w.w_open then invalid_arg "Shard.close_writer: writer is closed";
  w.w_open <- false;
  (* footer is outside the CRC (it contains the CRC) *)
  let b = Buffer.create footer_len in
  Buffer.add_string b footer_magic;
  buf_i64 b w.w_count;
  Buffer.add_int32_le b (Crc32.value w.w_crc);
  output_string w.w_oc (Buffer.contents b);
  close_out w.w_oc;
  Sys.rename w.w_tmp w.w_path;
  { w.w_header with h_count = w.w_count }

let discard_writer w =
  if w.w_open then begin
    w.w_open <- false;
    close_out_noerr w.w_oc;
    try Sys.remove w.w_tmp with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = { c_path : string; c_ic : in_channel; mutable c_off : int }

let read_exact c n what =
  let b = Bytes.create n in
  (try really_input c.c_ic b 0 n
   with End_of_file ->
     corrupt c.c_path c.c_off "truncated while reading %s (wanted %d bytes)"
       what n);
  c.c_off <- c.c_off + n;
  b

let get_i64 c what = Int64.to_int (Bytes.get_int64_le (read_exact c 8 what) 0)

(* parse magic + version + header; leaves the cursor at the first
   record.  [crc] (when given) accumulates the raw bytes read. *)
let parse_front ?crc c =
  let feed b =
    match crc with
    | Some t -> Crc32.update t b ~pos:0 ~len:(Bytes.length b)
    | None -> ()
  in
  let m = read_exact c 4 "magic" in
  feed m;
  if Bytes.to_string m <> magic then
    corrupt c.c_path 0 "bad magic %S (not a shard file)" (Bytes.to_string m);
  let vb = read_exact c 4 "version" in
  feed vb;
  let v = Int32.to_int (Bytes.get_int32_le vb 0) in
  if v <> version then
    corrupt c.c_path 4 "unsupported container version %d (expected %d)" v
      version;
  let lb = read_exact c 4 "header length" in
  feed lb;
  let hlen = Int32.to_int (Bytes.get_int32_le lb 0) in
  if hlen < 0 || hlen > max_record_len then
    corrupt c.c_path 8 "implausible header length %d" hlen;
  let hdr_bytes = read_exact c hlen "header" in
  feed hdr_bytes;
  (* decode the header payload from its own mini-cursor *)
  let off = ref 0 in
  let base = c.c_off - hlen in
  let take n what =
    if !off + n > hlen then
      corrupt c.c_path (base + !off) "truncated header while reading %s" what;
    let p = !off in
    off := !off + n;
    p
  in
  let u32 what =
    let p = take 4 what in
    Int32.to_int (Bytes.get_int32_le hdr_bytes p) land 0xFFFFFFFF
  in
  let i64 what =
    let p = take 8 what in
    Int64.to_int (Bytes.get_int64_le hdr_bytes p)
  in
  let str what =
    let n = u32 what in
    let p = take n what in
    Bytes.sub_string hdr_bytes p n
  in
  let schema = str "schema" in
  let shard = u32 "shard index" in
  let num_shards = u32 "shard count" in
  let seed = i64 "seed" in
  let nmeta = u32 "metadata count" in
  (* explicit lets: tuple components evaluate right-to-left, which
     would read the value bytes before the key bytes *)
  let meta =
    List.init nmeta (fun _ ->
        let k = str "metadata key" in
        let v = str "metadata value" in
        (k, v))
  in
  {
    h_schema = schema;
    h_shard = shard;
    h_num_shards = num_shards;
    h_seed = seed;
    h_count = 0;
    h_meta = meta;
  }

let open_shard path =
  try open_in_bin path with Sys_error e -> corrupt path 0 "%s" e

let with_file path f =
  let ic = open_shard path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_footer path ic =
  let len = in_channel_length ic in
  if len < footer_len then corrupt path len "file too short for a footer";
  seek_in ic (len - footer_len);
  let c = { c_path = path; c_ic = ic; c_off = len - footer_len } in
  let m = read_exact c 4 "footer magic" in
  if Bytes.to_string m <> footer_magic then
    corrupt path (len - footer_len)
      "bad footer magic %S (shard truncated or still being written)"
      (Bytes.to_string m);
  let count = get_i64 c "footer record count" in
  let crc = Bytes.get_int32_le (read_exact c 4 "footer CRC") 0 in
  (count, crc, len - footer_len)

let read_header path =
  with_file path (fun ic ->
      let c = { c_path = path; c_ic = ic; c_off = 0 } in
      let h = parse_front c in
      let count, _crc, _ = parse_footer path ic in
      { h with h_count = count })

(* the record body is read in chunks of this many bytes *)
let chunk_len = 65536

(* [f offset buf ~pos ~len]: the record is [buf.[pos, pos + len)],
   [offset] its file offset; [buf] is reused once [f] returns *)
let iter_channel path ic chunk ~f =
  let count, want_crc, body_end = parse_footer path ic in
  seek_in ic 0;
  let c = { c_path = path; c_ic = ic; c_off = 0 } in
  let crc = Crc32.create () in
  let _h = parse_front ~crc c in
  (* The record body is read in chunks up to the footer, each chunk
     folded into the CRC as it arrives.  [buf.[0, hi)] holds the
     body from file offset [base]; the records before [lo] are
     done.  The inner loop hands over every record that [buf] holds
     whole, then a refill keeps the unconsumed tail and reads on. *)
  let buf = ref chunk in
  let base = ref c.c_off and lo = ref 0 and hi = ref 0 in
  let seen = ref 0 in
  while !base + !lo < body_end do
    let b = !buf in
    (* bytes the record at [lo] needs, or 0 once it has been handed
       over *)
    let need = ref 0 in
    while !need = 0 && !base + !lo < body_end do
      let p = !lo in
      let off0 = !base + p in
      if off0 + 4 > body_end then
        corrupt path off0
          "truncated while reading record length (%d bytes before the \
           footer)"
          (body_end - off0);
      if p + 4 > !hi then need := 4
      else begin
        let n = Int32.to_int (Bytes.get_int32_le b p) land 0xFFFFFFFF in
        if n > max_record_len then
          corrupt path off0 "implausible record length %d" n;
        if off0 + 4 + n > body_end then
          corrupt path off0
            "record of %d bytes runs past the footer (truncated shard?)" n;
        if p + 4 + n > !hi then need := 4 + n
        else begin
          f off0 b ~pos:(p + 4) ~len:n;
          lo := p + 4 + n;
          incr seen
        end
      end
    done;
    if !need > 0 then begin
      let have = !hi - !lo in
      let dst =
        if !need > Bytes.length b then
          Bytes.create (max !need (2 * Bytes.length b))
        else b
      in
      Bytes.blit b !lo dst 0 have;
      base := !base + !lo;
      let want = min (Bytes.length dst - have) (body_end - !base - have) in
      (try really_input ic dst have want
       with End_of_file ->
         corrupt path (!base + have) "truncated record body");
      Crc32.update crc dst ~pos:have ~len:want;
      buf := dst;
      lo := 0;
      hi := have + want
    end
  done;
  if !seen <> count then
    corrupt path body_end "footer promises %d records, found %d" count
      !seen;
  let got = Crc32.value crc in
  if got <> want_crc then
    corrupt path body_end "CRC mismatch (stored %08lx, computed %08lx)"
      want_crc got

let iter path ~f =
  with_file path (fun ic -> iter_channel path ic (Bytes.create chunk_len) ~f)

let dataset_headers dir =
  let paths = list_shards dir in
  if paths = [] then corrupt dir 0 "no %s shards in directory" extension;
  let headers = List.map read_header paths in
  let h0 = List.hd headers in
  List.iteri
    (fun i h ->
      if h.h_shard <> i then
        corrupt dir 0 "expected shard index %d, found %d (missing shard?)" i
          h.h_shard;
      if h.h_num_shards <> List.length headers then
        corrupt dir 0 "shard %d expects %d shards, directory has %d" i
          h.h_num_shards (List.length headers);
      if h.h_schema <> h0.h_schema then
        corrupt dir 0 "shard %d schema %S disagrees with shard 0's %S" i
          h.h_schema h0.h_schema;
      if h.h_seed <> h0.h_seed then
        corrupt dir 0 "shard %d seed %d disagrees with shard 0's %d" i h.h_seed
          h0.h_seed)
    headers;
  headers
