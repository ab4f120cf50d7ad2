(** Probability distributions used by the workload generator and the PCM
    wear model.  All samplers take an explicit {!Xrng.t} so results are
    reproducible.

    The uniform draw feeding [log] is clamped away from 0 with {!clamp_tiny}
    rather than [Stdlib.max]: the polymorphic [max] takes its float
    arguments boxed, so it would allocate on every sample. *)

(** [clamp_tiny u] is [Stdlib.max 1e-300 u], returning the same value
    for every [u] (NaN included), with a float compare instead of the
    polymorphic one. *)
let[@inline] clamp_tiny (u : float) : float = if 1e-300 >= u then 1e-300 else u

(** Standard normal via Box–Muller (one value per call; we do not cache the
    second value to keep the sampler stateless w.r.t. the distribution). *)
let[@inline] normal (rng : Xrng.t) ~(mu : float) ~(sigma : float) : float =
  let u1 = clamp_tiny (Xrng.float rng) in
  let u2 = Xrng.float rng in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(** Lognormal: [exp (normal mu sigma)].  Used for PCM cell endurance
    process variation (the paper cites ~1e8 writes per cell average). *)
let[@inline] lognormal (rng : Xrng.t) ~(mu : float) ~(sigma : float) : float =
  exp (normal rng ~mu ~sigma)

(** Exponential with mean [mean]. *)
let[@inline] exponential (rng : Xrng.t) ~(mean : float) : float =
  let u = clamp_tiny (Xrng.float rng) in
  -.mean *. log u

(** Geometric on {1, 2, ...} with success probability [p]. *)
let geometric (rng : Xrng.t) ~(p : float) : int =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p out of (0,1]";
  if p >= 1.0 then 1
  else
    let u = clamp_tiny (Xrng.float rng) in
    1 + int_of_float (log u /. log (1.0 -. p))

(** Bounded Pareto on [lo, hi] with shape [alpha].  Heavy-tailed object
    lifetimes (the weak generational hypothesis: most objects die young,
    a few live very long) are modeled with this. *)
let bounded_pareto (rng : Xrng.t) ~(alpha : float) ~(lo : float) ~(hi : float) : float =
  if lo <= 0.0 || hi <= lo then invalid_arg "Dist.bounded_pareto: need 0 < lo < hi";
  let u = Xrng.float rng in
  let la = lo ** alpha and ha = hi ** alpha in
  let x = -.((u *. ha) -. (u *. la) -. ha) /. (ha *. la) in
  x ** (-1.0 /. alpha)

(** Zipf over {1..n} with exponent [s], via inverse-CDF on a precomputed
    table.  Returns a sampler function to amortize the table. *)
let zipf_sampler ~(n : int) ~(s : float) : Xrng.t -> int =
  if n <= 0 then invalid_arg "Dist.zipf_sampler: n must be positive";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Xrng.float rng *. total in
    (* binary search for first cdf.(i) >= u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1

(** A discrete distribution over weighted choices.  [make] normalizes the
    weights; [sample] is O(log n) by binary search. *)
module Discrete = struct
  type 'a t = { items : 'a array; cum : float array }

  let make (pairs : (float * 'a) list) : 'a t =
    if pairs = [] then invalid_arg "Dist.Discrete.make: empty";
    List.iter (fun (w, _) -> if w < 0.0 then invalid_arg "Dist.Discrete.make: negative weight") pairs;
    let items = Array.of_list (List.map snd pairs) in
    let cum = Array.make (Array.length items) 0.0 in
    let acc = ref 0.0 in
    List.iteri
      (fun i (w, _) ->
        acc := !acc +. w;
        cum.(i) <- !acc)
      pairs;
    if !acc <= 0.0 then invalid_arg "Dist.Discrete.make: total weight zero";
    { items; cum }

  let[@inline] sample (t : 'a t) (rng : Xrng.t) : 'a =
    let total = t.cum.(Array.length t.cum - 1) in
    let u = Xrng.float rng *. total in
    let lo = ref 0 and hi = ref (Array.length t.cum - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    t.items.(!lo)
end
