(** Synthetic high-dimensional sparse classification data (the
    "kdd_like" proxy for SLR): a planted sparse weight vector, Zipf
    feature popularity, labels from the noisy margin sign. *)

type sample = {
  label : float;  (** 0.0 or 1.0 *)
  features : int array;  (** active feature indices, ascending *)
  values : float array;
}

type t = {
  samples : sample Orion_dsm.Dist_array.t;  (** 1-D, one entry per sample *)
  num_samples : int;
  num_features : int;
  avg_nnz : float;
}

val generate :
  ?seed:int ->
  num_samples:int ->
  num_features:int ->
  nnz_per_sample:int ->
  ?feature_skew:float ->
  ?noise:float ->
  unit ->
  t

(** Length-skewed variant: per-sample nnz decays Zipf-like with the
    sample's {e rank fraction}, [max_nnz / (1 + 19 s/n)^alpha] (clamped
    to [4, num_features - 1]), so the head of the sample range is up to
    [20^alpha] times denser than the tail at {e every} dataset scale.
    Entry counts stay one per sample, so count-balanced space
    partitions over samples are even in entries but skewed in work —
    the workload [orion explain --measured] calibrates against. *)
val generate_skewed :
  ?seed:int ->
  num_samples:int ->
  num_features:int ->
  max_nnz:int ->
  ?alpha:float ->
  ?feature_skew:float ->
  ?noise:float ->
  unit ->
  t

val kdd_like : ?scale:float -> unit -> t

(** Interpreter value [(label, 1-based indices, values)] for the SLR
    OrionScript program. *)
val sample_to_value : sample -> Orion_lang.Value.t
