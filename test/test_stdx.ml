(* Unit and property tests for the stdx utility substrate. *)

open Holes_stdx

let check = Alcotest.check
let fl = Alcotest.float 1e-9

(* ------------------------- Xrng ------------------------- *)

let test_rng_deterministic () =
  let a = Xrng.of_seed 42 and b = Xrng.of_seed 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Xrng.bits53 a) (Xrng.bits53 b)
  done

let test_rng_seed_sensitivity () =
  let a = Xrng.of_seed 1 and b = Xrng.of_seed 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xrng.bits53 a = Xrng.bits53 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Xrng.of_seed 9 in
  let b = Xrng.split a in
  let xs = List.init 50 (fun _ -> Xrng.bits53 a) in
  let ys = List.init 50 (fun _ -> Xrng.bits53 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_float_range () =
  let r = Xrng.of_seed 5 in
  for _ = 1 to 1000 do
    let f = Xrng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_bounds () =
  let r = Xrng.of_seed 6 in
  for _ = 1 to 1000 do
    let v = Xrng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Xrng.int: bound must be positive")
    (fun () -> ignore (Xrng.int r 0))

let test_rng_range () =
  let r = Xrng.of_seed 10 in
  for _ = 1 to 200 do
    let v = Xrng.range r 3 9 in
    Alcotest.(check bool) "in [3,9]" true (v >= 3 && v <= 9)
  done

let test_rng_mean () =
  let r = Xrng.of_seed 3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Xrng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_shuffle_permutation () =
  let r = Xrng.of_seed 12 in
  let a = Array.init 100 Fun.id in
  Xrng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "still a permutation" (Array.init 100 Fun.id) sorted

(* ------------------------- Dist ------------------------- *)

let test_lognormal_mean () =
  let r = Xrng.of_seed 21 in
  (* mean of lognormal(mu, sigma) = exp(mu + sigma^2/2) *)
  let mu = 1.0 and sigma = 0.5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.lognormal r ~mu ~sigma
  done;
  let mean = !sum /. float_of_int n in
  let expect = exp (mu +. (sigma *. sigma /. 2.0)) in
  Alcotest.(check bool) "lognormal mean" true (abs_float (mean -. expect) /. expect < 0.05)

let test_exponential_mean () =
  let r = Xrng.of_seed 22 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential r ~mean:42.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean" true (abs_float (mean -. 42.0) < 1.5)

let test_geometric_support () =
  let r = Xrng.of_seed 23 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "geometric >= 1" true (Dist.geometric r ~p:0.3 >= 1)
  done;
  check Alcotest.int "p=1 degenerate" 1 (Dist.geometric r ~p:1.0)

let test_zipf_skew () =
  let r = Xrng.of_seed 24 in
  let sample = Dist.zipf_sampler ~n:100 ~s:1.1 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let k = sample r in
    Alcotest.(check bool) "in support" true (k >= 1 && k <= 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 50" true (counts.(1) > counts.(50))

let test_discrete_weights () =
  let r = Xrng.of_seed 25 in
  let d = Dist.Discrete.make [ (0.9, `A); (0.1, `B) ] in
  let a = ref 0 in
  for _ = 1 to 10_000 do
    if Dist.Discrete.sample d r = `A then incr a
  done;
  Alcotest.(check bool) "A dominates per weight" true (!a > 8500 && !a < 9500)

let test_discrete_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.Discrete.make: empty") (fun () ->
      ignore (Dist.Discrete.make []))

(* The generator pinned against a plain-Int64 reference implementation
   of SplitMix64 seeding + xoshiro256**.  [Xrng] runs the same
   algorithm over 32-bit native-int halves to stay allocation-free on
   the hot path; any drift in the bit-twiddling would silently change
   every failure map and workload in the repo, so the equivalence is
   asserted draw by draw, across seeds and through [split]. *)
module Rng_ref = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let splitmix_next (s : int64 ref) : int64 =
    s := Int64.add !s golden;
    let z = !s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let of_seed (seed : int) : t =
    let s = ref (Int64.of_int seed) in
    let s0 = splitmix_next s in
    let s1 = splitmix_next s in
    let s2 = splitmix_next s in
    let s3 = splitmix_next s in
    let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
    { s0; s1; s2; s3 }

  let rotl (x : int64) (k : int) : int64 =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next (t : t) : int64 =
    let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
    let tt = Int64.shift_left t.s1 17 in
    t.s2 <- Int64.logxor t.s2 t.s0;
    t.s3 <- Int64.logxor t.s3 t.s1;
    t.s1 <- Int64.logxor t.s1 t.s2;
    t.s0 <- Int64.logxor t.s0 t.s3;
    t.s2 <- Int64.logxor t.s2 tt;
    t.s3 <- rotl t.s3 45;
    result

  let bits53 (t : t) : int = Int64.to_int (Int64.shift_right_logical (next t) 11)
  let bool (t : t) : bool = Int64.logand (next t) 1L = 1L

  let split (t : t) : t =
    let s = ref (next t) in
    let s0 = splitmix_next s in
    let s1 = splitmix_next s in
    let s2 = splitmix_next s in
    let s3 = splitmix_next s in
    let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
    { s0; s1; s2; s3 }
end

let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let x = Xrng.of_seed seed in
      let r = Rng_ref.of_seed seed in
      for _ = 1 to 2000 do
        check Alcotest.int "bits53" (Rng_ref.bits53 r) (Xrng.bits53 x);
        Alcotest.(check bool) "bool" (Rng_ref.bool r) (Xrng.bool x)
      done;
      let x' = Xrng.split x in
      let r' = Rng_ref.split r in
      for _ = 1 to 200 do
        check Alcotest.int "bits53 after split (child)" (Rng_ref.bits53 r') (Xrng.bits53 x');
        check Alcotest.int "bits53 after split (parent)" (Rng_ref.bits53 r) (Xrng.bits53 x)
      done)
    [ 0; 1; 42; 7; 123456789; -3 ]

(* ------------------------- Bitset ------------------------- *)

let test_bitset_basic () =
  let b = Bitset.create 130 in
  check Alcotest.int "initially empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 64;
  Bitset.set b 129;
  check Alcotest.int "three set" 3 (Bitset.count b);
  Alcotest.(check bool) "get 64" true (Bitset.get b 64);
  Bitset.clear b 64;
  Alcotest.(check bool) "cleared" false (Bitset.get b 64);
  check Alcotest.int "two left" 2 (Bitset.count b)

let test_bitset_fill () =
  let b = Bitset.create 10 in
  Bitset.fill b true;
  check Alcotest.int "all set" 10 (Bitset.count b);
  Bitset.fill b false;
  check Alcotest.int "all clear" 0 (Bitset.count b)

let test_bitset_subset () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.set a 3;
  Bitset.set b 3;
  Bitset.set b 9;
  Alcotest.(check bool) "a subset b" true (Bitset.subset a b);
  Alcotest.(check bool) "b not subset a" false (Bitset.subset b a)

let test_bitset_next () =
  let b = Bitset.create 16 in
  Bitset.set b 5;
  check (Alcotest.option Alcotest.int) "next_set" (Some 5) (Bitset.next_set b 0);
  check (Alcotest.option Alcotest.int) "next_clear skips" (Some 6) (Bitset.next_clear b 5);
  check (Alcotest.option Alcotest.int) "none past end" None (Bitset.next_set b 6)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_bool_array/to_bool_array roundtrip" ~count:200
    QCheck.(array_of_size (Gen.int_range 0 200) bool)
    (fun a -> Bitset.to_bool_array (Bitset.of_bool_array a) = a)

let prop_bitset_count =
  QCheck.Test.make ~name:"bitset count matches bool array" ~count:200
    QCheck.(array_of_size (Gen.int_range 0 200) bool)
    (fun a ->
      Bitset.count (Bitset.of_bool_array a)
      = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 a)

(* Word-level Bitset primitives added for the hot-path work, each
   checked against a naive bool-array reference over lengths straddling
   the 63-bit word boundary. *)

let naive_longest_run (a : bool array) : int =
  let best = ref 0 and cur = ref 0 in
  Array.iter
    (fun v ->
      if v then begin
        incr cur;
        if !cur > !best then best := !cur
      end
      else cur := 0)
    a;
  !best

let random_bools (rng : Xrng.t) (n : int) ~(density : int) : bool array =
  Array.init n (fun _ -> Xrng.int rng 100 < density)

let boundary_lengths = [ 0; 1; 5; 62; 63; 64; 125; 126; 127; 189; 200 ]

let test_bitset_longest_run_vs_naive () =
  let rng = Xrng.of_seed 2024 in
  List.iter
    (fun n ->
      List.iter
        (fun density ->
          for _ = 1 to 20 do
            let a = random_bools rng n ~density in
            check Alcotest.int
              (Printf.sprintf "longest_run n=%d d=%d" n density)
              (naive_longest_run a)
              (Bitset.longest_run (Bitset.of_bool_array a))
          done)
        [ 0; 30; 70; 100 ])
    boundary_lengths

let test_bitset_sub_vs_naive () =
  let rng = Xrng.of_seed 7 in
  for _ = 1 to 400 do
    let n = 1 + Xrng.int rng 200 in
    let a = random_bools rng n ~density:50 in
    let pos = Xrng.int rng (n + 1) in
    let len = Xrng.int rng (n - pos + 1) in
    let got = Bitset.to_bool_array (Bitset.sub (Bitset.of_bool_array a) ~pos ~len) in
    if got <> Array.sub a pos len then
      Alcotest.failf "sub mismatch n=%d pos=%d len=%d" n pos len
  done;
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bitset.sub: range out of bounds")
    (fun () -> ignore (Bitset.sub (Bitset.create 10) ~pos:5 ~len:6))

let test_bitset_group_mask_vs_naive () =
  let rng = Xrng.of_seed 99 in
  List.iter
    (fun shift ->
      for _ = 1 to 100 do
        let n = 1 + Xrng.int rng (63 lsl shift) in
        let a = random_bools rng n ~density:20 in
        let expect = ref 0 in
        Array.iteri (fun i v -> if v then expect := !expect lor (1 lsl (i lsr shift))) a;
        check Alcotest.int
          (Printf.sprintf "group_mask n=%d shift=%d" n shift)
          !expect
          (Bitset.group_mask (Bitset.of_bool_array a) ~shift)
      done)
    [ 1; 2; 3 ];
  Alcotest.check_raises "groups too wide"
    (Invalid_argument "Bitset.group_mask: groups do not fit one word") (fun () ->
      ignore (Bitset.group_mask (Bitset.create 200) ~shift:1))

(* ------------------------- Rle ------------------------- *)

let prop_rle_roundtrip =
  QCheck.Test.make ~name:"rle encode/decode roundtrip" ~count:300
    QCheck.(array_of_size (Gen.int_range 0 300) bool)
    (fun a -> Rle.decode (Rle.encode a) = a)

let test_rle_compression_sparse () =
  (* sparse failure maps compress well *)
  let bits = Array.make 4096 false in
  bits.(17) <- true;
  bits.(900) <- true;
  Alcotest.(check bool) "sparse compresses > 10x" true (Rle.compression_ratio bits > 10.0)

let test_rle_runs () =
  let runs = Rle.encode [| true; true; false; true |] in
  check Alcotest.int "three runs" 3 (List.length runs)

(* ------------------------- Stats ------------------------- *)

let test_stats_mean_geomean () =
  check fl "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check fl "geomean of equal" 5.0 (Stats.geomean [ 5.0; 5.0; 5.0 ]);
  let g = Stats.geomean [ 1.0; 4.0 ] in
  Alcotest.(check bool) "geomean 1,4 = 2" true (abs_float (g -. 2.0) < 1e-9)

let test_stats_percentile () =
  check fl "median" 2.0 (Stats.percentile 50.0 [ 1.0; 2.0; 3.0 ]);
  check fl "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  check fl "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ])

let test_stats_ci () =
  check fl "ci of singleton" 0.0 (Stats.ci95 [ 1.0 ]);
  Alcotest.(check bool) "ci positive" true (Stats.ci95 [ 1.0; 2.0; 3.0 ] > 0.0)

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []));
  Alcotest.check_raises "geomean non-positive"
    (Invalid_argument "Stats.geomean: non-positive") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* ------------------------- Heapq ------------------------- *)

let test_heapq_order () =
  let h = Heapq.create ~dummy:(-1) in
  List.iter (fun k -> Heapq.push h ~key:k k) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heapq.pop h with
    | Some (k, _) ->
        out := k :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "sorted ascending" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !out)

let prop_heapq_sorts =
  QCheck.Test.make ~name:"heapq drains in sorted order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) small_int)
    (fun keys ->
      let h = Heapq.create ~dummy:0 in
      List.iter (fun k -> Heapq.push h ~key:k k) keys;
      let rec drain acc =
        match Heapq.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* The non-option accessors against [min_key]/[pop] on twin heaps fed
   the same interleaving of pushes (Some key) and pops (None): every
   peek and pop agrees, ties included (the value records push order). *)
let prop_heapq_accessors =
  QCheck.Test.make ~name:"heapq min_key_or/pop_value agree with min_key/pop" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 200) (option small_int))
    (fun ops ->
      let a = Heapq.create ~dummy:(-1) and b = Heapq.create ~dummy:(-1) in
      List.for_all
        (fun (i, op) ->
          (match op with
          | Some k ->
              Heapq.push a ~key:k i;
              Heapq.push b ~key:k i
          | None -> ());
          let peek_ok =
            match Heapq.min_key a with
            | Some k -> Heapq.min_key_or b ~default:(-1) = k
            | None -> Heapq.min_key_or b ~default:(-1) = -1
          in
          peek_ok
          &&
          match op with
          | Some _ -> true
          | None -> (
              match Heapq.pop a with
              | Some (_, v) -> Heapq.pop_value b = v
              | None -> Heapq.pop_value b = -1 && Heapq.is_empty b))
        (List.mapi (fun i op -> (i, op)) ops))

(* ------------------------- Intvec ------------------------- *)

let test_intvec_push_get () =
  let v = Intvec.create () in
  for i = 0 to 99 do
    Intvec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Intvec.length v);
  check Alcotest.int "get 7" 49 (Intvec.get v 7)

let test_intvec_filter () =
  let v = Intvec.create () in
  for i = 0 to 9 do
    Intvec.push v i
  done;
  Intvec.filter_in_place v (fun x -> x mod 2 = 0);
  check (Alcotest.list Alcotest.int) "evens kept" [ 0; 2; 4; 6; 8 ] (Intvec.to_list v)

let test_intvec_pop_or () =
  let v = Intvec.create ~capacity:2 () in
  check Alcotest.int "empty yields default" (-7) (Intvec.pop_or v ~default:(-7));
  for i = 1 to 5 do
    Intvec.push v i
  done;
  (* LIFO, same order [pop] would give, but without the option box *)
  check Alcotest.int "pop 5" 5 (Intvec.pop_or v ~default:(-1));
  check Alcotest.int "pop 4" 4 (Intvec.pop_or v ~default:(-1));
  check Alcotest.int "unsafe_get" 3 (Intvec.unsafe_get v 2);
  check Alcotest.int "length shrank" 3 (Intvec.length v);
  Intvec.clear v;
  check Alcotest.int "default after clear" 0 (Intvec.pop_or v ~default:0)

(* ------------------------- Table ------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "b" ] () in
  Table.add_row t [ "1"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "== T");
  Alcotest.check_raises "wrong arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only-one" ])

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng range", `Quick, test_rng_range);
    ("rng mean", `Quick, test_rng_mean);
    ("shuffle permutation", `Quick, test_shuffle_permutation);
    ("lognormal mean", `Quick, test_lognormal_mean);
    ("exponential mean", `Quick, test_exponential_mean);
    ("geometric support", `Quick, test_geometric_support);
    ("zipf skew", `Quick, test_zipf_skew);
    ("discrete weights", `Quick, test_discrete_weights);
    ("discrete invalid", `Quick, test_discrete_invalid);
    ("rng matches int64 reference", `Quick, test_rng_matches_int64_reference);
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset fill", `Quick, test_bitset_fill);
    ("bitset subset", `Quick, test_bitset_subset);
    ("bitset next", `Quick, test_bitset_next);
    ("bitset longest_run vs naive", `Quick, test_bitset_longest_run_vs_naive);
    ("bitset sub vs naive", `Quick, test_bitset_sub_vs_naive);
    ("bitset group_mask vs naive", `Quick, test_bitset_group_mask_vs_naive);
    ("rle sparse compression", `Quick, test_rle_compression_sparse);
    ("rle runs", `Quick, test_rle_runs);
    ("stats mean/geomean", `Quick, test_stats_mean_geomean);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats ci", `Quick, test_stats_ci);
    ("stats errors", `Quick, test_stats_errors);
    ("heapq order", `Quick, test_heapq_order);
    ("intvec push/get", `Quick, test_intvec_push_get);
    ("intvec filter", `Quick, test_intvec_filter);
    ("intvec pop_or", `Quick, test_intvec_pop_or);
    ("table render", `Quick, test_table_render);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_bitset_roundtrip;
        prop_bitset_count;
        prop_rle_roundtrip;
        prop_heapq_sorts;
        prop_heapq_accessors;
      ]
