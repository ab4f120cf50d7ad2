(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component in the reproduction (failure-map generation,
    workload object sizes and lifetimes, wear process variation) draws from
    one of these generators so that experiments are exactly reproducible
    from a seed.  The implementation is SplitMix64 (Steele et al., OOPSLA
    2014) for stream derivation plus xoshiro256** (Blackman & Vigna, 2018)
    for the bulk stream.

    Representation: the four 64-bit xoshiro words are stored as pairs of
    32-bit native-int halves.  OCaml boxes every [Int64] intermediate and
    every mutable [int64] record store (this build has no flambda), which
    made the previous [Int64]-based stepper allocate ~7 boxed words per
    draw — enough to dominate failure-map generation, which draws once
    per sampled line.  xoshiro256** needs only xors, shifts, rotations
    and multiplications by 5 and 9, all exactly expressible in 32-bit
    halves with native-int arithmetic, so the hot stepper now allocates
    nothing.  The cold paths ([of_seed], [split]) keep the original
    SplitMix64 over [Int64] — bit-for-bit the same streams as before (a
    test in [test_stdx.ml] pins this against an [Int64] reference
    stepper).

    Zero-allocation contract: [step], [bits53], [float], [int] and
    [bool] allocate no minor-heap words.  [bits53] and [float] are
    [[@inline]], so a float draw is never boxed on its way out; that
    holds in an optimizing build (the default [strict] profile, see
    [dune-workspace]), where cross-module inlining is on.  The
    "zero-allocation step" tests in [test_hotpath.ml] enforce it. *)

type t = {
  mutable s0l : int;
  mutable s0h : int;
  mutable s1l : int;
  mutable s1h : int;
  mutable s2l : int;
  mutable s2h : int;
  mutable s3l : int;
  mutable s3h : int;
  mutable rl : int;  (** low half of the last result *)
  mutable rh : int;  (** high half of the last result *)
}

let m32 = 0xFFFFFFFF

let golden = 0x9E3779B97F4A7C15L

(* SplitMix64 step: used for seeding and for [split] (cold paths). *)
let splitmix_next (state : int64 ref) : int64 =
  state := Int64.add !state golden;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let lo32 (x : int64) : int = Int64.to_int (Int64.logand x 0xFFFFFFFFL)
let hi32 (x : int64) : int = Int64.to_int (Int64.shift_right_logical x 32)

let of_words (s0 : int64) (s1 : int64) (s2 : int64) (s3 : int64) : t =
  {
    s0l = lo32 s0;
    s0h = hi32 s0;
    s1l = lo32 s1;
    s1h = hi32 s1;
    s2l = lo32 s2;
    s2h = hi32 s2;
    s3l = lo32 s3;
    s3h = hi32 s3;
    rl = 0;
    rh = 0;
  }

let of_seed (seed : int) : t =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not be seeded with all zeros; seed 0 through splitmix is
     fine, but guard anyway. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  of_words s0 s1 s2 s3

(* xoshiro256** next, over 32-bit halves.  The result lands in
   [t.rl]/[t.rh] (immediate-int stores: no allocation, no write
   barrier). *)
let step (t : t) : unit =
  (* x = s1 * 5: the half-products are < 5 * 2^32, inside a native int *)
  let al = t.s1l * 5 in
  let xh = ((t.s1h * 5) + (al lsr 32)) land m32 in
  let xl = al land m32 in
  (* r = rotl (x, 7) *)
  let rl = ((xl lsl 7) lor (xh lsr 25)) land m32 in
  let rh = ((xh lsl 7) lor (xl lsr 25)) land m32 in
  (* result = r * 9 *)
  let bl = rl * 9 in
  t.rh <- ((rh * 9) + (bl lsr 32)) land m32;
  t.rl <- bl land m32;
  (* t17 = s1 lsl 17 *)
  let t17l = (t.s1l lsl 17) land m32 in
  let t17h = ((t.s1h lsl 17) lor (t.s1l lsr 15)) land m32 in
  (* the xor cascade *)
  let s2l = t.s2l lxor t.s0l and s2h = t.s2h lxor t.s0h in
  let s3l = t.s3l lxor t.s1l and s3h = t.s3h lxor t.s1h in
  let s1l = t.s1l lxor s2l and s1h = t.s1h lxor s2h in
  let s0l = t.s0l lxor s3l and s0h = t.s0h lxor s3h in
  let s2l = s2l lxor t17l and s2h = s2h lxor t17h in
  t.s0l <- s0l;
  t.s0h <- s0h;
  t.s1l <- s1l;
  t.s1h <- s1h;
  t.s2l <- s2l;
  t.s2h <- s2h;
  (* s3 = rotl (s3, 45): swap halves (rotl 32), then rotl 13 *)
  t.s3l <- ((s3h lsl 13) lor (s3l lsr 19)) land m32;
  t.s3h <- ((s3l lsl 13) lor (s3h lsr 19)) land m32

(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each benchmark trial / page / component its own stream. *)
let split (t : t) : t =
  step t;
  let result = Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl) in
  let st = ref result in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  of_words s0 s1 s2 s3

(** [bits53 t] returns a non-negative int uniform in [0, 2^53) — the top
    53 bits of the 64-bit xoshiro result, exactly the [Int64] stepper's
    [result lsr 11]. *)
let[@inline] bits53 (t : t) : int =
  step t;
  (t.rh lsl 21) lor (t.rl lsr 11)

(** [float t] is uniform in [0, 1).  Inlined, so the result stays
    unboxed in the caller: a draw allocates nothing (see the
    zero-allocation contract above). *)
let[@inline] float (t : t) : float = Stdlib.float_of_int (bits53 t) *. 0x1p-53

(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] on a
    non-positive bound. *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Xrng.int: bound must be positive";
  (* Rejection-free for our purposes: bias is negligible for bound << 2^53. *)
  bits53 t mod bound

(** [bool t] is a fair coin flip. *)
let bool (t : t) : bool =
  step t;
  t.rl land 1 = 1

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
let range (t : t) (lo : int) (hi : int) : int =
  if hi < lo then invalid_arg "Xrng.range: hi < lo";
  lo + int t (hi - lo + 1)

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
let shuffle (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
