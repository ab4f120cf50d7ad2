(* Cheap counters and log2-bucket histograms.  See stats.mli. *)

type counter = { mutable n : int }

let counter () : counter = { n = 0 }
let incr (c : counter) : unit = c.n <- c.n + 1
let add (c : counter) (k : int) : unit = c.n <- c.n + k
let value (c : counter) : int = c.n

let nbuckets = 64

type hist = {
  mutable count : int;
  acc : float array;  (* [|sum; min; max|], unboxed *)
  buckets : int array;  (* buckets.(b) counts values in [2^(b-1), 2^b); b=0 holds v < 1 *)
}

let i_sum = 0
let i_min = 1
let i_max = 2

let hist () : hist =
  { count = 0; acc = [| 0.0; infinity; neg_infinity |]; buckets = Array.make nbuckets 0 }

(* Bucket of a value: for v >= 1, v = 1.m * 2^(E-1023) with E the IEEE
   biased exponent, so 2^(e-1) <= v < 2^e for e = E - 1022 — the
   exponent [Float.frexp] reports, read straight from the bits instead
   of through frexp's (float * int) tuple.  Values below 1 (including 0,
   negatives and NaN) land in bucket 0; so does infinity (E = 2047),
   for which frexp reports 0. *)
let[@inline] bucket_of (v : float) : int =
  if not (v >= 1.0) then 0
  else
    let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) - 1022 in
    if e = 1025 then 0 else if e >= nbuckets then nbuckets - 1 else e

let[@inline] observe (h : hist) (v : float) : unit =
  h.count <- h.count + 1;
  let acc = h.acc in
  Array.unsafe_set acc i_sum (Array.unsafe_get acc i_sum +. v);
  if v < Array.unsafe_get acc i_min then Array.unsafe_set acc i_min v;
  if v > Array.unsafe_get acc i_max then Array.unsafe_set acc i_max v;
  let b = bucket_of v in
  Array.unsafe_set h.buckets b (Array.unsafe_get h.buckets b + 1)

let count (h : hist) : int = h.count
let total (h : hist) : float = h.acc.(i_sum)
let mean (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(i_sum) /. float_of_int h.count
let max_value (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(i_max)
let min_value (h : hist) : float = if h.count = 0 then 0.0 else h.acc.(i_min)

(* Upper bound of bucket [b]: 2^b (bucket 0 covers [0, 1)). *)
let bucket_upper (b : int) : float = Float.ldexp 1.0 b

let quantile ?(interp = false) (h : hist) (q : float) : float =
  if h.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    (* bucket holding the target rank, plus the rank count before it *)
    let rec find b acc =
      if b >= nbuckets - 1 then (b, acc)
      else
        let acc' = acc + h.buckets.(b) in
        if acc' >= target then (b, acc) else find (b + 1) acc'
    in
    let b, before = find 0 0 in
    if not interp then
      (* clamp the bucket bound by the actually observed extremes *)
      Float.max h.acc.(i_min) (Float.min (bucket_upper b) h.acc.(i_max))
    else begin
      (* sub-bucket linear interpolation: place the target rank
         proportionally between the bucket's edges, with the edges
         themselves anchored by the exact observed extremes — so
         [quantile ~interp:true h 1.0] is the exact maximum *)
      let inb = max 1 h.buckets.(b) in
      let lo = if b = 0 then 0.0 else Float.ldexp 1.0 (b - 1) in
      let hi = bucket_upper b in
      let lo = Float.max lo h.acc.(i_min) in
      let hi = Float.max lo (Float.min hi h.acc.(i_max)) in
      let frac = float_of_int (target - before) /. float_of_int inb in
      lo +. (frac *. (hi -. lo))
    end
  end

let merge (into : hist) (src : hist) : unit =
  into.count <- into.count + src.count;
  into.acc.(i_sum) <- into.acc.(i_sum) +. src.acc.(i_sum);
  if src.count > 0 then begin
    if src.acc.(i_min) < into.acc.(i_min) then into.acc.(i_min) <- src.acc.(i_min);
    if src.acc.(i_max) > into.acc.(i_max) then into.acc.(i_max) <- src.acc.(i_max)
  end;
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets

let merged (hs : hist list) : hist =
  let h = hist () in
  List.iter (merge h) hs;
  h

let copy (h : hist) : hist =
  { count = h.count; acc = Array.copy h.acc; buckets = Array.copy h.buckets }

let to_fields ~(prefix : string) (h : hist) : (string * float) list =
  [
    (prefix ^ "_count", float_of_int h.count);
    (prefix ^ "_mean", mean h);
    (prefix ^ "_p50", quantile h 0.50);
    (prefix ^ "_p99", quantile h 0.99);
    (prefix ^ "_max", max_value h);
  ]

let summary_string (h : hist) : string =
  Printf.sprintf "n=%d mean=%.1f p50=%.0f p99=%.0f max=%.1f" h.count (mean h) (quantile h 0.5)
    (quantile h 0.99) (max_value h)

(* running moments: count / sum / sum of squares *)

type moments = { mutable m_count : int; mutable m_sum : float; mutable m_sumsq : float }

let moments () : moments = { m_count = 0; m_sum = 0.0; m_sumsq = 0.0 }

let accumulate (m : moments) (v : float) : unit =
  m.m_count <- m.m_count + 1;
  m.m_sum <- m.m_sum +. v;
  m.m_sumsq <- m.m_sumsq +. (v *. v)

let moments_mean (m : moments) : float =
  if m.m_count = 0 then 0.0 else m.m_sum /. float_of_int m.m_count

let moments_stddev (m : moments) : float =
  if m.m_count = 0 then 0.0
  else
    let n = float_of_int m.m_count in
    let mean = m.m_sum /. n in
    sqrt (Float.max 0.0 ((m.m_sumsq /. n) -. (mean *. mean)))

let cov (m : moments) : float =
  let mean = moments_mean m in
  if mean <= 0.0 then 0.0 else moments_stddev m /. mean
