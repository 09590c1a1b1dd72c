(** Small statistics helpers for benchmark reporting. *)

val mean : float list -> float
val stddev : float list -> float
(** Sample standard deviation; 0 for fewer than two points. *)

val percentile : float -> float list -> float
(** Nearest-rank percentile, [p] in [0, 100]; [nan] on an empty
    sample list. *)

val percentiles : float array -> float array -> float array
(** [percentiles ps xs]: the nearest-rank percentile of [xs] for each
    [p] in [ps], from one sort of a copy of [xs] (not modified) — the
    same values {!percentile} gives, [nan]s on an empty sample. *)

val median : float list -> float

val cv : float list -> float
(** Coefficient of variation (0 when the mean is 0); quantifies the
    red-black forest's transaction-length variance. *)

val histogram : buckets:int -> lo:float -> hi:float -> float list -> int array
(** Equal-width buckets over the closed range [[lo, hi]]; a sample
    exactly at [hi] counts in the last bucket.  Samples outside the
    range are dropped. *)
