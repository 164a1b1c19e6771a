(** Streaming synthetic dataset generators at MovieLens/Netflix scale.

    Each generator writes a dataset as binary shards ({!Shard}) in
    bounded memory: records stream straight from the RNG to the shard
    writer, and the only O(dataset) state is the Zipf CDF over
    users/items/features — never the records themselves, so a 10M+
    rating dataset generates in a few dozen MB of heap.

    Generation is deterministic per (seed, shard): shard [k]'s record
    stream is drawn from [Orion_data.Rng.split ~seed ~index:k], so
    generating shard [k] alone produces bit-identical records to
    generating the whole dataset — shards can be (re)built
    independently, in any order, on any machine. *)

(** What to generate.  Sizes are in records / samples / documents;
    [skew] is the Zipf exponent driving the popularity imbalance that
    stresses the histogram-balanced partitioner. *)
type spec =
  | Ratings of {
      num_users : int;
      num_items : int;
      num_ratings : int;
      skew : float;
      rank : int;  (** planted low-rank structure (stateless factors) *)
      noise : float;
    }
  | Features of {
      num_samples : int;
      num_features : int;
      nnz_per_sample : int;
      skew : float;
      noise : float;
    }
  | Corpus of {
      num_docs : int;
      vocab_size : int;
      avg_doc_len : int;
      num_topics : int;
      skew : float;
    }

(** MovieLens-10M-shaped default: ~10M Zipf-skewed ratings over ~70k
    users x ~10k items, scaled by [scale]. *)
val movielens_spec : ?scale:float -> unit -> spec

val kdd_spec : ?scale:float -> unit -> spec
val nytimes_spec : ?scale:float -> unit -> spec

(** The shard schema string a spec writes ("ratings-v1", "features-v1",
    "corpus-v1"). *)
val schema_of_spec : spec -> string

val spec_kind : spec -> string

(** {1 Record codecs} (fixed little-endian layouts, bitwise stable).
    A reader takes the record [b.\[pos, pos + len)] and raises
    {!Shard.Corrupt} at [offset], the record's byte offset in [path],
    when it is not well-formed. *)

type rating = { r_user : int; r_item : int; r_value : float }

val encode_rating : rating -> bytes

type sample = {
  fs_index : int;  (** global sample index *)
  fs_label : float;
  fs_features : int array;  (** ascending *)
  fs_values : float array;
}

val encode_sample : sample -> bytes

val decode_sample :
  path:string -> offset:int -> bytes -> pos:int -> len:int -> sample

type token = { tk_doc : int; tk_word : int; tk_count : float }

val encode_token : token -> bytes

(** {2 Ratings and tokens, read in place}

    A rating and a token are one 16-byte layout: two u32 key components
    (user and item, or doc and word), then the f64 value. *)

(** A batch of (linearized key, value) pairs, 4,096 of each. *)
type batch = { keys : int array; values : float array }

(** The pairs a batch holds (4,096). *)
val batch_len : int

(** A fresh batch. *)
val batch : unit -> batch

(** [read_pairs shards ~chunk ~what ~first ~second ~rows ~cols b
    ~flush] reads the rating or token records of [shards] (each a path
    and a channel open on it, from {!Shard.open_shard}), in order,
    through the buffer [chunk] ({!Shard.iter_channel}).  Each record's
    key components, named [first] and [second] (e.g. ["user"] and
    ["item"]), must lie in [\[0, rows)] and [\[0, cols)]; its
    linearized key and its value are staged, with no record built and
    no float boxed, in [b].  [flush b n] takes the [n] pairs staged in
    [b], in record order, when [b] is full and once at the end (when
    any are staged), and returns the batch the next pairs go to.  A
    batch can span shards.  On an error the pairs staged since the
    last flush are not flushed.  Returns the sum of the values' integer
    parts (a corpus' token count).
    @raise Shard.Corrupt at a record's offset when it is not 16 bytes
    ([what] names the record) or a key component lies outside the dims,
    and as {!Shard.iter} raises on a damaged shard *)
val read_pairs :
  (string * in_channel) list ->
  chunk:bytes ->
  what:string ->
  first:string ->
  second:string ->
  rows:int ->
  cols:int ->
  batch ->
  flush:(batch -> int -> batch) ->
  int

(** [check_key ~path ~offset what i size] accepts a record's key
    component [i] in [\[0, size)].
    @raise Shard.Corrupt at [offset] naming [what] otherwise *)
val check_key : path:string -> offset:int -> string -> int -> int -> unit

(** {1 Generation} *)

(** Generate the [shard]-th of [shards] shards of [spec] into [dir]
    (created if missing), streaming; returns the sealed header. *)
val generate_shard :
  dir:string -> seed:int -> shards:int -> shard:int -> spec -> Shard.header

(** All shards, in order; returns the headers. *)
val generate : dir:string -> seed:int -> shards:int -> spec -> Shard.header list
