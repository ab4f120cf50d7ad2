(* A golden of simulated outcomes on the collector paths the grid
   goldens (determinism.jsonl, fleet.jsonl: Sticky Immix, stop-the-world)
   never reach:

   - forced defragmentation ([Vm.request_defrag] before every full
     collection) at 0%, 25% uniform and 25% 2-page-clustered failures;
   - static-backend [Vm.dynamic_failure_at] on lines holding live, dead
     and pinned objects, stop-the-world and incremental;
   - the free-list baselines MS and S-MS, stop-the-world and sliced;
   - incremental Sticky Immix ([gc_slice = 256]) on the static and the
     device backends.

   Each record carries the full metrics snapshot, the exact cost
   accumulators and a digest of the final heap (every object's address
   and liveness, every block's line map or every free list), so a change
   to any collector path that moves a single object shows here.

   To regenerate after an intentional results change:

     HOLES_UPDATE_GOLDEN_PATHS=$PWD/test/golden/paths.jsonl \
       dune runtest --force *)

open Holes_stdx
module Cfg = Holes.Config
module Vm = Holes.Vm
module Cost = Holes.Cost
module Metrics = Holes.Metrics
module Immix = Holes.Immix
module MS = Holes.Mark_sweep
module OT = Holes_heap.Object_table
module Block = Holes_heap.Block
module Runner = Holes_exp.Runner

let check = Alcotest.check

(* ---- one record per scenario ------------------------------------------ *)

let heap_digest (vm : Vm.t) : string =
  let b = Buffer.create 4096 in
  let objects = Vm.objects vm in
  OT.iter_slots objects (fun id ->
      Printf.bprintf b "%d:%d:%d:%b:%b;" id (OT.addr objects id) (OT.size objects id)
        (OT.is_alive objects id) (OT.is_pinned objects id));
  (match vm.Vm.space with
  | Vm.Ix s ->
      Immix.iter_blocks s (fun blk ->
          Printf.bprintf b "B%d:%d:%d:%s;" blk.Block.index (Block.free_lines blk)
            (Block.failed_lines blk)
            (String.concat "," (Array.to_list (Array.map string_of_int blk.Block.live))))
  | Vm.Ms s ->
      Array.iteri
        (fun k fl ->
          Printf.bprintf b "F%d:" k;
          Intvec.iter fl (fun v -> Printf.bprintf b "%d," v))
        s.MS.free_lists;
      let ids = Hashtbl.fold (fun bi _ acc -> bi :: acc) s.MS.blocks [] in
      List.iter
        (fun bi ->
          let blk = Hashtbl.find s.MS.blocks bi in
          Printf.bprintf b "C%d:%d:%s;" bi blk.MS.free_cells
            (String.concat "," (Array.to_list (Array.map string_of_int blk.MS.cells))))
        (List.sort compare ids));
  Digest.to_hex (Digest.string (Buffer.contents b))

let record ~(case : string) ~(cfg : Cfg.t) ~(outcome : string) (vm : Vm.t) : string =
  let m = Vm.metrics vm in
  let cost = Vm.cost vm in
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) (Metrics.to_fields m)
  in
  Printf.sprintf
    "{\"case\":%S,\"config\":%S,\"outcome\":%S,\"mutator_ns\":%.17g,\"gc_ns\":%.17g,\"pauses\":%d,\"pause_sum_ns\":%.17g,\"gc_increments\":%d,\"heap\":%S,\"metrics\":{%s}}"
    case (Cfg.name cfg) outcome (Cost.mutator_ns cost) (Cost.gc_ns cost)
    (List.length m.Metrics.pauses_ns)
    (List.fold_left ( +. ) 0.0 m.Metrics.pauses_ns)
    m.Metrics.gc_increments (heap_digest vm) (String.concat "," fields)

(* run [script] on a fresh VM; an Out_of_memory is a legitimate outcome *)
let scenario ~(case : string) ~(cfg : Cfg.t) ~(min_heap_bytes : int) (script : Vm.t -> unit) :
    string =
  let vm = Vm.create ~cfg ~min_heap_bytes () in
  let outcome = match script vm with () -> "ok" | exception Vm.Out_of_memory -> "oom" in
  record ~case ~cfg ~outcome vm

(* ---- scripted mutators -------------------------------------------------- *)

(* A live pool with O(1) random removal. *)
type pool = { ids : int array; mutable n : int }

let pool () = { ids = Array.make 65536 0; n = 0 }

let push p id =
  p.ids.(p.n) <- id;
  p.n <- p.n + 1

let take p rng =
  let i = Xrng.int rng p.n in
  let id = p.ids.(i) in
  p.n <- p.n - 1;
  p.ids.(i) <- p.ids.(p.n);
  id

(* Allocate [n] objects — mostly small, one in eight medium, one in
   forty pinned — each referencing a random survivor. *)
let churn (vm : Vm.t) (live : pool) (rng : Xrng.t) ~(n : int) : unit =
  for _ = 1 to n do
    let size =
      if Xrng.int rng 8 = 0 then 300 + Xrng.int rng 900 else 16 + (8 * Xrng.int rng 10)
    in
    let pinned = Xrng.int rng 40 = 0 in
    let id = Vm.alloc vm ~pinned ~size () in
    if live.n > 0 then Vm.write_ref vm ~src:id ~dst:live.ids.(Xrng.int rng live.n);
    push live id
  done

let kill_fraction (vm : Vm.t) (live : pool) (rng : Xrng.t) ~(percent : int) : unit =
  let k = live.n * percent / 100 in
  for _ = 1 to k do
    Vm.kill vm (take live rng)
  done

(* Forced defragmentation: every full collection is asked to defragment. *)
let defrag_script (vm : Vm.t) : unit =
  let rng = Xrng.of_seed 0xDEF4A6 in
  let live = pool () in
  for _round = 1 to 10 do
    churn vm live rng ~n:700;
    kill_fraction vm live rng ~percent:55;
    Vm.request_defrag vm;
    Vm.collect vm ~full:true
  done

(* Direct dynamic failures on lines holding live, dead (killed, not yet
   collected) and pinned objects, interleaved with allocation so an
   incremental cycle advances between them. *)
let dynfail_script (vm : Vm.t) : unit =
  let rng = Xrng.of_seed 0xFA11ED in
  let live = pool () in
  let objects = Vm.objects vm in
  for _round = 1 to 6 do
    churn vm live rng ~n:600;
    let dead = Array.init 12 (fun _ -> take live rng) in
    Array.iter (Vm.kill vm) dead;
    for k = 0 to 11 do
      (* a dead object's line *)
      let d = dead.(k) in
      if OT.addr objects d >= 0 && not (OT.is_los objects d) then
        Vm.dynamic_failure_at vm ~addr:(OT.addr objects d);
      (* a live object's line (pinned ones are masked by the OS) *)
      let id = live.ids.(Xrng.int rng live.n) in
      if OT.is_alive objects id && not (OT.is_los objects id) then
        Vm.dynamic_failure_at vm ~addr:(OT.addr objects id);
      churn vm live rng ~n:20
    done;
    (* every pinned survivor's line *)
    for i = 0 to live.n - 1 do
      let id = live.ids.(i) in
      if OT.is_pinned objects id && Xrng.int rng 3 = 0 then
        Vm.dynamic_failure_at vm ~addr:(OT.addr objects id)
    done;
    kill_fraction vm live rng ~percent:40
  done;
  Vm.collect vm ~full:true

let scripted () : string list =
  let fa ?(collector = Cfg.Immix) ?(line_size = 256) ?(gc_slice = 0) rate dist =
    {
      Cfg.default with
      Cfg.collector;
      line_size;
      failure_rate = rate;
      failure_dist = dist;
      gc_slice;
      seed = 17;
    }
  in
  let defrag =
    List.map
      (fun (case, cfg) -> scenario ~case ~cfg ~min_heap_bytes:(384 * 1024) defrag_script)
      [
        ("defrag-0", fa 0.0 Cfg.Uniform);
        ("defrag-25-uniform", fa 0.25 Cfg.Uniform);
        ("defrag-25-2cl", fa 0.25 (Cfg.Hw_cluster 2));
        ("defrag-25-uniform-L64", fa ~line_size:64 0.25 Cfg.Uniform);
        ("defrag-25-uniform-inc", fa ~collector:Cfg.Sticky_immix ~gc_slice:256 0.25 Cfg.Uniform);
      ]
  in
  let dynfail =
    List.map
      (fun (case, cfg, heap) -> scenario ~case ~cfg ~min_heap_bytes:heap dynfail_script)
      [
        ("dynfail-stw", fa ~collector:Cfg.Sticky_immix 0.10 Cfg.Uniform, 512 * 1024);
        ("dynfail-stw-L64-tight", fa ~line_size:64 0.25 Cfg.Uniform, 160 * 1024);
        ("dynfail-inc", fa ~collector:Cfg.Sticky_immix ~gc_slice:256 0.10 Cfg.Uniform, 512 * 1024);
      ]
  in
  defrag @ dynfail

(* ---- workload trials ---------------------------------------------------- *)

let trial_line ~(case : string) ~(cfg : Cfg.t) ~(profile : Holes_workload.Profile.t) : string =
  let t = Runner.run_trial ~cfg ~profile ~scale:0.1 ~seed:5 () in
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) (Runner.sink_metrics t)
  in
  Printf.sprintf "{\"case\":%S,\"config\":%S,\"profile\":%S,\"outcome\":%S,\"metrics\":{%s}}" case
    (Cfg.name cfg) profile.Holes_workload.Profile.name (Runner.sink_outcome t)
    (String.concat "," fields)

let trials () : string list =
  let d = Cfg.default_device in
  let device =
    Cfg.Device { d with Cfg.wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 2.0 } }
  in
  let ms collector gc_slice = { Cfg.default with Cfg.collector; gc_slice; heap_factor = 1.4 } in
  let cfgs =
    [
      ("ms", ms Cfg.Mark_sweep 0);
      ("ms-sliced", ms Cfg.Mark_sweep 256);
      ("sms", ms Cfg.Sticky_ms 0);
      ("sms-sliced", ms Cfg.Sticky_ms 256);
      ("six-inc-static-0", { Cfg.default with Cfg.gc_slice = 256 });
      ("six-inc-static-25", { Cfg.default with Cfg.gc_slice = 256; failure_rate = 0.25 });
      ("six-inc-device", { Cfg.default with Cfg.gc_slice = 256; backend = device });
      ("six-stw-device", { Cfg.default with Cfg.backend = device });
      ("ix-stw-25-2cl", { Cfg.default with Cfg.collector = Cfg.Immix; failure_rate = 0.25;
                          failure_dist = Cfg.Hw_cluster 2 });
    ]
  in
  List.concat_map
    (fun (case, cfg) ->
      List.map
        (fun profile -> trial_line ~case ~cfg ~profile)
        [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.pmd ])
    cfgs

(* ---- the golden --------------------------------------------------------- *)

let read_lines (path : string) : string list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let golden_path = "golden/paths.jsonl"

let test_golden () =
  let lines = scripted () @ trials () in
  match Sys.getenv_opt "HOLES_UPDATE_GOLDEN_PATHS" with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      Printf.printf "(wrote %s)\n" out
  | None ->
      let golden = read_lines golden_path in
      check Alcotest.int "record count" (List.length golden) (List.length lines);
      List.iter2 (fun g l -> check Alcotest.string "matches committed golden" g l) golden lines

let suite = [ ("collector paths match golden", `Quick, test_golden) ]
