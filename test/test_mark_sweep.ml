(* Tests for the Mark-Sweep / Sticky Mark-Sweep baselines. *)

module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module OT = Holes_heap.Object_table
module MS = Holes.Mark_sweep
module Cost = Holes.Cost
module Xrng = Holes_stdx.Xrng
module Intvec = Holes_stdx.Intvec

let check = Alcotest.check

let mk ?(collector = Cfg.Mark_sweep) ?(heap = 1 lsl 20) () =
  Vm.create ~cfg:{ Cfg.default with Cfg.collector } ~min_heap_bytes:heap ()

let test_size_classes () =
  check (Alcotest.option Alcotest.int) "16B -> class 0" (Some 0) (MS.class_of_size 16);
  check (Alcotest.option Alcotest.int) "17B -> class 1" (Some 1) (MS.class_of_size 17);
  check (Alcotest.option Alcotest.int) "8KB -> last" (Some 18) (MS.class_of_size 8192);
  check (Alcotest.option Alcotest.int) "LOS above classes" None (MS.class_of_size 8193)

let test_rejects_failures () =
  Alcotest.check_raises "free-list baselines need perfect memory"
    (Invalid_argument "Mark_sweep.create: the free-list baselines run only without failures")
    (fun () ->
      ignore
        (Vm.create
           ~cfg:{ Cfg.default with Cfg.collector = Cfg.Mark_sweep; failure_rate = 0.1 }
           ~min_heap_bytes:(1 lsl 20) ()))

let test_alloc_and_collect () =
  let vm = mk () in
  let keep = List.init 100 (fun _ -> Vm.alloc vm ~size:48 ()) in
  let dead = List.init 100 (fun _ -> Vm.alloc vm ~size:48 ()) in
  List.iter (Vm.kill vm) dead;
  Vm.collect vm ~full:true;
  List.iter
    (fun id -> Alcotest.(check bool) "survivor" true (OT.is_alive (Vm.objects vm) id))
    keep;
  check Alcotest.int "live count" 100 (OT.live_count (Vm.objects vm))

let test_cells_recycled () =
  let vm = mk ~heap:(1 lsl 19) () in
  (* dead cells must be recycled so the heap never grows past budget *)
  let prev = ref None in
  for _ = 1 to 20_000 do
    (match !prev with Some p -> Vm.kill vm p | None -> ());
    prev := Some (Vm.alloc vm ~size:100 ())
  done;
  Alcotest.(check bool) "collections bounded the heap" true
    ((Vm.metrics vm).Metrics.full_gcs >= 1)

let test_distinct_cells () =
  let vm = mk () in
  let a = Vm.alloc vm ~size:100 () in
  let b = Vm.alloc vm ~size:100 () in
  let oa = OT.addr (Vm.objects vm) a and ob = OT.addr (Vm.objects vm) b in
  Alcotest.(check bool) "cells do not overlap" true (abs (oa - ob) >= 128)

let test_mixed_size_classes () =
  let vm = mk () in
  let ids = List.map (fun s -> (s, Vm.alloc vm ~size:s ())) [ 16; 100; 1000; 4000; 8000 ] in
  Vm.collect vm ~full:true;
  List.iter
    (fun (s, id) ->
      Alcotest.(check bool)
        (Printf.sprintf "size %d survives" s)
        true
        (OT.is_alive (Vm.objects vm) id))
    ids

let test_los_via_ms () =
  let vm = mk () in
  let big = Vm.alloc vm ~size:50_000 () in
  Alcotest.(check bool) "LOS object" true (OT.is_los (Vm.objects vm) big);
  Vm.kill vm big;
  Vm.collect vm ~full:true;
  let big2 = Vm.alloc vm ~size:50_000 () in
  Alcotest.(check bool) "LOS pages reused" true (OT.is_alive (Vm.objects vm) big2)

let test_sticky_ms_nursery () =
  let vm = mk ~collector:Cfg.Sticky_ms ~heap:(1 lsl 19) () in
  let prev = ref None in
  for _ = 1 to 20_000 do
    (match !prev with Some p -> Vm.kill vm p | None -> ());
    prev := Some (Vm.alloc vm ~size:100 ())
  done;
  let m = Vm.metrics vm in
  Alcotest.(check bool) "nursery collections" true (m.Metrics.nursery_gcs >= 1)

let test_sticky_ms_survivors () =
  let vm = mk ~collector:Cfg.Sticky_ms () in
  let id = Vm.alloc vm ~size:64 () in
  Vm.collect vm ~full:false;
  Alcotest.(check bool) "old after nursery" false (OT.is_nursery (Vm.objects vm) id);
  Alcotest.(check bool) "alive" true (OT.is_alive (Vm.objects vm) id)

let test_oom () =
  let vm = mk ~heap:(1 lsl 18) () in
  Alcotest.check_raises "OOM" Vm.Out_of_memory (fun () ->
      for _ = 1 to (4 * (1 lsl 18)) / 128 do
        ignore (Vm.alloc vm ~size:128 ())
      done)

(* Stop-the-world and sliced full collections are one function whose
   brackets close only under a budget: from the same heap they must end
   in the same state (free lists, cell map, object table), charge
   bit-identical collector time, and the sliced pauses must sum to the
   stop-the-world pause. *)
let test_sliced_matches_stw () =
  let build gc_slice =
    let cfg = { Cfg.default with Cfg.collector = Cfg.Mark_sweep; gc_slice } in
    let vm = Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
    let rng = Xrng.of_seed 0x5115 in
    let ids =
      Array.init 3000 (fun i ->
          let size = if i mod 500 = 0 then 20_000 else 16 + (8 * Xrng.int rng 60) in
          Vm.alloc vm ~size ())
    in
    Array.iteri
      (fun i id -> if i > 0 then Vm.write_ref vm ~src:id ~dst:ids.(Xrng.int rng i))
      ids;
    Array.iter (fun id -> if Xrng.int rng 10 < 6 then Vm.kill vm id) ids;
    vm
  in
  let stw = build 0 and sliced = build 64 in
  check Alcotest.int "no collection while building" 0
    ((Vm.metrics stw).Metrics.full_gcs + (Vm.metrics sliced).Metrics.full_gcs);
  Vm.collect stw ~full:true;
  Vm.collect sliced ~full:true;
  let ms vm = match vm.Vm.space with Vm.Ms s -> s | Vm.Ix _ -> Alcotest.fail "expected MS" in
  let free_lists vm = Array.map (fun v -> List.init (Intvec.length v) (Intvec.get v)) (ms vm).MS.free_lists in
  check Alcotest.(array (list int)) "free lists" (free_lists stw) (free_lists sliced);
  let cells vm =
    Hashtbl.fold (fun bi b acc -> (bi, b.MS.free_cells, Array.to_list b.MS.cells) :: acc)
      (ms vm).MS.blocks []
    |> List.sort compare
  in
  check Alcotest.(list (triple int int (list int))) "cell map" (cells stw) (cells sliced);
  let slots vm =
    let o = Vm.objects vm and acc = ref [] in
    OT.iter_slots o (fun id ->
        acc := (id, OT.addr o id, OT.size o id, OT.is_alive o id) :: !acc);
    !acc
  in
  Alcotest.(check bool) "object table" true (slots stw = slots sliced);
  check Alcotest.int64 "gc_ns bit-identical"
    (Int64.bits_of_float (Cost.gc_ns (Vm.cost stw)))
    (Int64.bits_of_float (Cost.gc_ns (Vm.cost sliced)));
  let pauses vm = (Vm.metrics vm).Metrics.pauses_ns in
  (match pauses stw with
  | [ p ] ->
      let n = List.length (pauses sliced) in
      if n < 3 then Alcotest.failf "sliced collection recorded only %d pauses" n;
      check Alcotest.int "one increment per sliced pause" n
        (Vm.metrics sliced).Metrics.gc_increments;
      let sum = List.fold_left ( +. ) 0.0 (pauses sliced) in
      if Float.abs (sum -. p) > 1e-9 *. p then
        Alcotest.failf "sliced pauses sum to %.17g ns, stop-the-world paused %.17g ns" sum p
  | ps -> Alcotest.failf "stop-the-world recorded %d pauses" (List.length ps));
  check Alcotest.int "stop-the-world records no increments" 0
    (Vm.metrics stw).Metrics.gc_increments

let suite =
  [
    ("size classes", `Quick, test_size_classes);
    ("rejects failure configs", `Quick, test_rejects_failures);
    ("alloc and collect", `Quick, test_alloc_and_collect);
    ("cells recycled", `Quick, test_cells_recycled);
    ("distinct cells", `Quick, test_distinct_cells);
    ("mixed size classes", `Quick, test_mixed_size_classes);
    ("LOS via MS", `Quick, test_los_via_ms);
    ("sticky MS nursery", `Quick, test_sticky_ms_nursery);
    ("sticky MS survivors become old", `Quick, test_sticky_ms_survivors);
    ("MS OOM", `Quick, test_oom);
    ("sliced collection matches stop-the-world", `Quick, test_sliced_matches_stw);
  ]
