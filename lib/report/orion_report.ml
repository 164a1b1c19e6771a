(** One versioned JSON envelope for every machine-readable report Orion
    emits ([orion explain --json], [orion verify --json], executor
    metrics, [orion bench --mode speedup]).

    Downstream tooling parses a single shape:

    {v {"schema_version": 2, "kind": "<emitter>", "payload": {...}} v}

    and dispatches on [kind].  [schema_version] is bumped whenever any
    payload changes incompatibly, so consumers can fail fast instead of
    mis-parsing.  The [json] type here is the one JSON builder shared by
    all emitters (this library sits below every other Orion library).
    Version 2: every [bench-*] payload is the run parameters plus one
    ["rows"] list (the per-suite [apps[].runs[]] and [results[]] of
    version 1 are gone, except [bench-tune]'s [results]). *)

let schema_version = 2

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec to_buf b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      (* integer-valued floats keep a ".0" so they stay visibly floats;
         non-finite floats are not valid JSON numbers, so encode them as
         strings *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else if Float.is_finite f then
        Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b (Printf.sprintf "\"%s\"" (Float.to_string f))
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buf b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buf b (Str k);
          Buffer.add_char b ':';
          to_buf b v)
        fields;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 1024 in
  to_buf b j;
  Buffer.contents b

(* convenience constructors used by several emitters *)
let ints a = List (List.map (fun i -> Int i) (Array.to_list a))
let strs l = List (List.map (fun s -> Str s) l)

(** Wrap a payload in the versioned envelope. *)
let envelope ~kind payload =
  Obj
    [
      ("schema_version", Int schema_version);
      ("kind", Str kind);
      ("payload", payload);
    ]

(** [envelope] rendered to a string — what the [--json] flags print. *)
let emit ~kind payload = json_to_string (envelope ~kind payload)
