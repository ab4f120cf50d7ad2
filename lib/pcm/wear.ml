(** Per-line wear and error-correction exhaustion model.

    PCM cells wear out after ~1e8 writes on average (paper Sec. 2.2),
    with process variation making endurance non-uniform across cells.
    Tracking all 512 cells of a 64 B line is needlessly expensive; we
    model wear at line granularity: each line draws an endurance budget
    from a lognormal distribution (the accepted model for process
    variation), and an ECP-style corrector (Schechter et al., ISCA 2010 —
    cited as [22]) provides [ecp_entries] additional correction events,
    each extending the line's life by a further endurance draw scaled by
    [ecp_extension].  When the budget and all ECP entries are exhausted,
    the next write fails permanently: the line has a hole. *)

type params = {
  mean_endurance : float;  (** mean writes to first uncorrectable cell failure *)
  sigma : float;  (** lognormal shape parameter for process variation *)
  ecp_entries : int;  (** correction entries per line (ECP-6 by default) *)
  ecp_extension : float;  (** life extension fraction granted per ECP entry *)
}

let default_params =
  { mean_endurance = 1.0e8; sigma = 0.25; ecp_entries = 6; ecp_extension = 0.12 }

(** Scaled-down parameters for simulations that must wear memory out
    within a test run. *)
let fast_params = { default_params with mean_endurance = 2000.0 }

(* lognormal with the requested arithmetic mean: mean = exp(mu + sigma^2/2) *)
let draw_endurance (rng : Holes_stdx.Xrng.t) (p : params) : int =
  let mu = log p.mean_endurance -. (p.sigma *. p.sigma /. 2.0) in
  let e = Holes_stdx.Dist.lognormal rng ~mu ~sigma:p.sigma in
  Int.max 1 (int_of_float e)

(** The wear state of a module's lines, in flat arrays indexed by
    physical line: no record per line, so creating a device allocates a
    handful of arrays (off the minor heap once they are large) whatever
    its size, and a write touches only unboxed ints. *)
type t = {
  writes : int array;  (** total writes performed on each line *)
  budget : int array;  (** writes remaining before the line's next cell failure *)
  ecp_used : int array;  (** correction entries consumed *)
  failed : Holes_stdx.Bitset.t;  (** lines whose correction is exhausted *)
}

(** [create rng p n] draws the endurance budgets of lines [0 .. n-1], in
    that order, from [rng]. *)
let create (rng : Holes_stdx.Xrng.t) (p : params) (n : int) : t =
  let budget = Array.make n 0 in
  for i = 0 to n - 1 do
    budget.(i) <- draw_endurance rng p
  done;
  {
    writes = Array.make n 0;
    budget;
    ecp_used = Array.make n 0;
    failed = Holes_stdx.Bitset.create n;
  }

let is_failed (t : t) (i : int) : bool = Holes_stdx.Bitset.get t.failed i

(** Mark line [i] failed without a write (a manufacturing-time failure). *)
let mark_failed (t : t) (i : int) : unit = Holes_stdx.Bitset.set t.failed i

type write_outcome =
  | Ok  (** the write stored correctly *)
  | Corrected  (** a cell failed but an ECP entry absorbed it *)
  | Failed  (** correction exhausted: the line has permanently failed *)

(** [write rng p t i] performs one write on line [i], advancing the wear
    process; an ECP correction draws the extension's endurance from
    [rng].  Writes to an already-failed line report [Failed] without
    further state change (real hardware would never see them: the OS
    unmaps failed lines). *)
let write (rng : Holes_stdx.Xrng.t) (p : params) (t : t) (i : int) : write_outcome =
  if is_failed t i then Failed
  else begin
    t.writes.(i) <- t.writes.(i) + 1;
    let budget = t.budget.(i) - 1 in
    t.budget.(i) <- budget;
    if budget > 0 then Ok
    else if t.ecp_used.(i) < p.ecp_entries then begin
      t.ecp_used.(i) <- t.ecp_used.(i) + 1;
      t.budget.(i) <-
        Int.max 1 (int_of_float (float_of_int (draw_endurance rng p) *. p.ecp_extension));
      Corrected
    end
    else begin
      mark_failed t i;
      Failed
    end
  end

(** {2 Endurance variation shapes}

    The paper models process variation as lognormal endurance; SoftWear-style
    weak-cell studies use a (truncated) Gaussian instead.  Both are exposed
    here parameterized by the coefficient of variation (CoV = sigma/mean) so
    failure models can be specified in distribution-independent terms. *)

type shape =
  | Lognormal  (** the paper's model: multiplicative process variation *)
  | Gaussian  (** additive weak-cell variation, truncated at (almost) zero *)

(** Lognormal shape parameter whose distribution has the given CoV:
    CoV² = exp(sigma²) − 1, so sigma = sqrt(log(1 + CoV²)). *)
let lognormal_sigma ~(cov : float) : float =
  if cov < 0.0 then invalid_arg "Wear.lognormal_sigma: negative CoV";
  sqrt (log (1.0 +. (cov *. cov)))

(** [draw_factor rng ~shape ~cov] draws a mean-1 endurance scale factor
    with coefficient of variation [cov].  Lognormal uses
    mu = −sigma²/2 so the arithmetic mean is exactly 1; Gaussian draws
    N(1, cov) truncated just above zero (a cell cannot have negative
    endurance — the truncation is negligible for CoV ≲ 0.3). *)
let draw_factor (rng : Holes_stdx.Xrng.t) ~(shape : shape) ~(cov : float) : float =
  match shape with
  | Lognormal ->
      let sigma = lognormal_sigma ~cov in
      Holes_stdx.Dist.lognormal rng ~mu:(-.(sigma *. sigma) /. 2.0) ~sigma
  | Gaussian -> Float.max 1e-6 (Holes_stdx.Dist.normal rng ~mu:1.0 ~sigma:cov)

(** Wear parameters whose lognormal endurance draw has the given CoV
    (keeps [base]'s mean and ECP settings). *)
let params_of_cov ?(base = default_params) ~(cov : float) () : params =
  { base with sigma = lognormal_sigma ~cov }
