(** Cheap counters and log{_2}-bucket histograms.

    The observability layer needs distribution summaries (pause times,
    lines examined per hole search, failure-buffer occupancy) that are
    deterministic, mergeable across trials, and cheap enough to update on
    allocator hot paths.  A histogram here is 64 power-of-two buckets
    plus exact count/sum/min/max: [observe] is a handful of arithmetic
    operations and one array increment, with no allocation.

    Zero-allocation contract: [observe] and [bucket_of] allocate no
    minor-heap words.  Sum, min and max live in an unboxed [float array]
    (a mutable [float] field of a mixed record would box every store),
    [bucket_of] reads the IEEE exponent instead of calling
    [Float.frexp] (whose tuple result allocates), and both are inlined,
    so the observed value is never boxed to cross the call — in an
    optimizing build, which the default [strict] profile is (dev's
    [-opaque] blocks the inlining).  The "zero-allocation step" tests in
    [test_hotpath.ml] enforce it, and [make bench-check] gates the
    [stats_observe] kernel's minor words per call exactly.

    Histograms are plain mutable records (no closures), so structural
    equality — used by the engine's [-j 1] = [-j N] determinism tests —
    works on any record embedding them. *)

(** {1 Counters} *)

(** A mutable event counter. *)
type counter

val counter : unit -> counter
(** A fresh counter at zero. *)

val incr : counter -> unit
(** Add one. *)

val add : counter -> int -> unit
(** Add [k]. *)

val value : counter -> int
(** Current count. *)

(** {1 Histograms} *)

val nbuckets : int
(** Number of buckets (64). *)

(** A log{_2}-bucket histogram.  Bucket [b] counts observations in
    [\[2{^b-1}, 2{^b})]; bucket 0 holds everything below 1 (including
    zero, negatives, NaN and infinity).  The fields are exposed so
    consumers can fold histograms into structurally comparable records. *)
type hist = {
  mutable count : int;
  acc : float array;
      (** [[|sum; min; max|]], unboxed; min is [infinity] and max
          [neg_infinity] while empty *)
  buckets : int array;
}

val hist : unit -> hist
(** A fresh, empty histogram. *)

val bucket_of : float -> int
(** The bucket index a value falls into: the exponent [Float.frexp]
    reports for values [>= 1] (clamped to the last bucket), 0 for
    everything else and for infinity. *)

val observe : hist -> float -> unit
(** Record one observation.  O(1), allocation-free. *)

val count : hist -> int
(** Number of observations. *)

val total : hist -> float
(** Sum of all observations. *)

val mean : hist -> float
(** Mean observation (0 when empty). *)

val min_value : hist -> float
(** Smallest observation (0 when empty). *)

val max_value : hist -> float
(** Largest observation (0 when empty). *)

val quantile : ?interp:bool -> hist -> float -> float
(** [quantile h q] estimates the [q]-quantile ([q] clamped to [\[0,1\]])
    as the upper bound of the bucket holding the [q]-th observation,
    clamped to the observed [min]/[max].  Precision is one power of two
    — adequate for pause-time p50/p99 reporting.

    With [~interp:true] the estimate is refined by sub-bucket linear
    interpolation: the target rank is placed proportionally between the
    bucket's edges, which are themselves anchored by the exact observed
    extremes, so [quantile ~interp:true h 1.0] returns the exact
    maximum.  Log{_2} buckets alone are too coarse to state a
    pause-time SLO (a p999 answer of "somewhere below 2{^21} ns" spans
    a factor of two); interpolation brings the error well under one
    bucket width for smooth distributions.  The default ([false])
    preserves the historical estimator bit-for-bit. *)

val merge : hist -> hist -> unit
(** [merge into src] folds [src]'s observations into [into]. *)

val merged : hist list -> hist
(** A fresh histogram holding the union of the inputs. *)

val copy : hist -> hist
(** An independent copy. *)

val to_fields : prefix:string -> hist -> (string * float) list
(** Flat key/value summary ([_count], [_mean], [_p50], [_p99], [_max]),
    ready for the engine's JSONL sink. *)

val summary_string : hist -> string
(** One-line human-readable summary. *)

(** {2 Running moments}

    A constant-space accumulator for dispersion statistics — used for
    the wear coefficient-of-variation over a device's per-line write
    counts, where a histogram's power-of-two quantiles are too coarse. *)

type moments

val moments : unit -> moments
(** A fresh, empty accumulator. *)

val accumulate : moments -> float -> unit
(** Fold one observation in. *)

val moments_mean : moments -> float
(** Mean observation (0 when empty). *)

val moments_stddev : moments -> float
(** Population standard deviation (0 when empty). *)

val cov : moments -> float
(** Coefficient of variation: stddev / mean, 0 when the mean is 0 —
    the "how level is the wear" scalar of the Sec. 7.2 ablation. *)
