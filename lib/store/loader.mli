(** Feed shard directories into the in-memory dataset types that the
    apps train on, without ever materializing the record stream: each
    record goes from the shard reader straight into the target
    [Dist_array] (sparse inserts / sample slots), so peak memory is the
    final array, not array + records.

    Each loader checks the directory's schema ({!Gen.schema_of_spec})
    and reads the dataset dimensions from the shard metadata, so a
    directory is self-describing — callers pass only the path.  Every
    shard must carry the same integer dimensions, every record's key
    must lie inside them, and a duplicate key keeps the last record's
    value; anything else raises {!Shard.Corrupt} naming the shard. *)

(** [ratings dir] loads a ["ratings-v1"] dataset into
    {!Orion_data.Ratings.t}.
    @raise Shard.Corrupt on schema mismatch or damaged shards *)
val ratings : string -> Orion_data.Ratings.t

(** [features dir] loads a ["features-v1"] dataset into
    {!Orion_data.Sparse_features.t}. *)
val features : string -> Orion_data.Sparse_features.t

(** [corpus dir] loads a ["corpus-v1"] dataset into
    {!Orion_data.Corpus.t}. *)
val corpus : string -> Orion_data.Corpus.t

(** Total record count across a dataset directory (headers only, O(1)
    per shard). *)
val dataset_count : string -> int
