(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) and wall-clock-benchmarks the core operations via
   Bechamel.

   Usage:
     main.exe                 regenerate everything (quick parameters)
     main.exe --full          paper-grade trial counts / workload scale
     main.exe -j N            run trials on N worker domains (N = "max"
                              for one per spare core); tables are
                              bit-identical at any -j
     main.exe --out F.jsonl   stream one JSONL record per trial to F
     main.exe --trace F.json  write a Chrome trace_event JSON of every
                              executed trial (Perfetto-loadable; virtual
                              timestamps, bit-identical at any -j)
     main.exe --verify        run the paranoid heap verifier after every
                              GC phase of every trial (slower; changes
                              no serialized result)
     main.exe fig3 … fig10    a single figure
     main.exe pauses          the Sec. 4.2 pause-time table
     main.exe headline        the Sec. 8 headline overheads
     main.exe wearlevel       the Sec. 7.2 wear-leveling ablation
     main.exe wearlife        device-backend wear-lifetime sweep
     main.exe fleet           the fleet-serving tail-latency figure
     main.exe hybrid          the DRAM/PCM tiering absorption figure
     main.exe figures-quick   reduced CI grid (fig4 + headline +
                              wearlevel + fleet + hybrid, the last
                              three to their own sink files)
     main.exe speedup         wall-clock of the quick grid, -j 1 vs -j max
     main.exe pause-slo IN OUT
                              the fleet figure's pause-SLO gate over the
                              sink records IN (results-fleet.jsonl):
                              writes the pause-histogram artifact OUT,
                              exits 1 when the incremental row's worst
                              stall breaks Fleet_figure.pause_slo_ms
     main.exe hybrid-gate IN  the hybrid figure's absorption gate over the
                              sink records IN (results-hybrid.jsonl):
                              exits 1 unless a migrate+caram cell absorbs
                              Hybrid_figure.absorption_threshold of the
                              charged line writes
     main.exe micro           Bechamel microbenchmarks (one per
                              operation family underlying the figures) *)

open Bechamel
open Toolkit

let figures : (string * (params:Holes_exp.Runner.params -> Holes_stdx.Table.t)) list =
  [
    ("fig3", fun ~params -> Holes_exp.Figures.fig3 ~params ());
    ("fig4", fun ~params -> Holes_exp.Figures.fig4 ~params ());
    ("fig5", fun ~params -> Holes_exp.Figures.fig5 ~params ());
    ("fig6a", fun ~params -> Holes_exp.Figures.fig6a ~params ());
    ("fig6b", fun ~params -> Holes_exp.Figures.fig6b ~params ());
    ("fig7", fun ~params -> Holes_exp.Figures.fig7 ~params ());
    ("fig8", fun ~params -> Holes_exp.Figures.fig8 ~params ());
    ("fig9a", fun ~params -> Holes_exp.Figures.fig9a ~params ());
    ("fig9b", fun ~params -> Holes_exp.Figures.fig9b ~params ());
    ("fig10", fun ~params -> Holes_exp.Figures.fig10 ~params ());
    ("pauses", fun ~params -> Holes_exp.Figures.pauses ~params ());
    ("headline", fun ~params -> Holes_exp.Figures.headline ~params ());
    ("sensitivity", fun ~params -> Holes_exp.Figures.sensitivity ~params ());
    ("wearlevel", fun ~params -> Holes_exp.Wear_policies.table ~params ());
    ("wearlife", fun ~params -> Holes_exp.Wear_lifetime.table ~params ());
    ("fleet", fun ~params -> Holes_exp.Fleet_figure.table ~params ());
    ("hybrid", fun ~params -> Holes_exp.Hybrid_figure.table ~params ());
    ("ablation", fun ~params -> Holes_exp.Figures.ablation ~params ());
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the operation families whose costs the
   figures are built from.                                             *)
(* ------------------------------------------------------------------ *)

let mk_vm ?(cfg = Holes.Config.default) () =
  Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) ()

let bench_alloc_small =
  (* fig3/fig6a driver: the bump-pointer fast path *)
  Test.make ~name:"alloc-small-bump" (Staged.stage (fun () ->
      let vm = mk_vm () in
      for _ = 1 to 2000 do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done))

let bench_alloc_holes =
  (* fig4/fig5 driver: allocation that must skip failed lines *)
  let cfg =
    { Holes.Config.default with Holes.Config.failure_rate = 0.25; failure_dist = Holes.Config.Uniform }
  in
  Test.make ~name:"alloc-small-skip-holes" (Staged.stage (fun () ->
      let vm = mk_vm ~cfg () in
      for _ = 1 to 2000 do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done))

let bench_alloc_medium =
  (* fig7/fig9 driver: medium-object overflow allocation under failures *)
  let cfg =
    { Holes.Config.default with Holes.Config.failure_rate = 0.25; failure_dist = Holes.Config.Hw_cluster 2 }
  in
  Test.make ~name:"alloc-medium-overflow" (Staged.stage (fun () ->
      let vm = mk_vm ~cfg () in
      for _ = 1 to 300 do
        let id = Holes.Vm.alloc vm ~size:2048 () in
        Holes.Vm.kill vm id
      done))

let bench_full_gc =
  (* pause-table driver: a full-heap trace and sweep *)
  Test.make ~name:"full-collection" (Staged.stage (fun () ->
      let vm = mk_vm () in
      let ids = Array.init 3000 (fun _ -> Holes.Vm.alloc vm ~size:64 ()) in
      Array.iteri (fun i id -> if i mod 2 = 0 then Holes.Vm.kill vm id) ids;
      Holes.Vm.collect vm ~full:true))

let bench_cluster_transform =
  (* fig8/fig9 driver: the hardware clustering map transform *)
  let rng = Holes_stdx.Xrng.of_seed 3 in
  let map = Holes_pcm.Failure_map.uniform rng ~nlines:(256 * 64) ~rate:0.25 in
  Test.make ~name:"cluster-transform-1MB" (Staged.stage (fun () ->
      ignore (Holes_pcm.Failure_map.cluster_transform map ~region_pages:2)))

let bench_redirect =
  (* Sec. 3.1.2 hardware: redirection-map failure recording + lookups *)
  Test.make ~name:"redirect-record+translate" (Staged.stage (fun () ->
      let r = Holes_pcm.Redirect.create ~region_pages:2 ~region_index:0 () in
      for p = 0 to 63 do
        ignore (Holes_pcm.Redirect.record_failure r ~physical:(p * 2))
      done;
      let acc = ref 0 in
      for l = 0 to Holes_pcm.Redirect.nlines r - 1 do
        acc := !acc + Holes_pcm.Redirect.translate r l
      done;
      ignore !acc))

let bench_failure_buffer =
  (* Sec. 3.1.1 hardware: failure-buffer insert/forward/clear *)
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 'x' in
  Test.make ~name:"failure-buffer-cycle" (Staged.stage (fun () ->
      let fb = Holes_pcm.Failure_buffer.create ~capacity:32 () in
      for a = 0 to 19 do
        ignore (Holes_pcm.Failure_buffer.insert fb ~addr:a ~data:payload)
      done;
      for a = 0 to 19 do
        ignore (Holes_pcm.Failure_buffer.forward fb ~addr:a);
        ignore (Holes_pcm.Failure_buffer.clear fb ~addr:a)
      done))

let bench_wear =
  (* Sec. 2.2 wear model: writes to exhaustion *)
  Test.make ~name:"wear-line-to-failure" (Staged.stage (fun () ->
      let rng = Holes_stdx.Xrng.of_seed 11 in
      let p = Holes_pcm.Wear.fast_params in
      let l = Holes_pcm.Wear.fresh_line rng p in
      let rec go () =
        match Holes_pcm.Wear.write rng p l with
        | Holes_pcm.Wear.Failed -> ()
        | _ -> go ()
      in
      go ()))

let micro_tests =
  Test.make_grouped ~name:"holes" ~fmt:"%s %s"
    [
      bench_alloc_small; bench_alloc_holes; bench_alloc_medium; bench_full_gc;
      bench_cluster_transform; bench_redirect; bench_failure_buffer; bench_wear;
    ]

let run_micro () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let raw_results = Benchmark.all cfg instances micro_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  print_endline "== Bechamel microbenchmarks (monotonic clock) ==";
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Printf.printf "%-34s %12.1f ns/run\n" name est
            | _ -> Printf.printf "%-34s (no estimate)\n" name)
          tbl)
    results

(* ------------------------------------------------------------------ *)
(* The reduced grid used by `figures-quick` (CI) and `speedup`: two
   substantial figures at a small scale, enough trials to exercise the
   engine without paper-grade wall-clock.                              *)

let quick_grid_params ~jobs = { Holes_exp.Runner.scale = 0.1; seeds = 2; jobs }

(* The wearlevel ablation and the fleet figure joined the CI grid later
   than the original figures; their trials stream to *separate* sink
   files (results-wearlevel.jsonl / results-fleet.jsonl next to --out)
   so the long-standing results.jsonl stream stays record-for-record
   comparable across releases. *)
let run_quick_grid ~params ~out =
  Holes_stdx.Table.print (Holes_exp.Figures.fig4 ~params ());
  Holes_stdx.Table.print (Holes_exp.Figures.headline ~params ());
  let saved = Holes_exp.Runner.current_sink () in
  let derived_path tag =
    Option.map
      (fun p ->
        let ext = Filename.extension p in
        Filename.remove_extension p ^ "-" ^ tag ^ ext)
      out
  in
  let print_to_own_sink tag table =
    let path = derived_path tag in
    let sink =
      if path <> None || params.Holes_exp.Runner.jobs > 1 then
        Some (Holes_engine.Sink.create ?path ())
      else None
    in
    Holes_exp.Runner.set_sink sink;
    Fun.protect
      ~finally:(fun () ->
        (match sink with Some s -> Holes_engine.Sink.close s | None -> ());
        Holes_exp.Runner.set_sink saved)
      (fun () -> Holes_stdx.Table.print (table ()))
  in
  print_to_own_sink "wearlevel" (fun () -> Holes_exp.Wear_policies.table ~params ());
  print_to_own_sink "fleet" (fun () -> Holes_exp.Fleet_figure.table ~params ());
  print_to_own_sink "hybrid" (fun () -> Holes_exp.Hybrid_figure.table ~params ())

(* `pause-slo`: the CI gate on the fleet figure's incremental row, with
   its threshold read from Fleet_figure so the gate, the figure and the
   test suite share one SLO. *)
let run_pause_slo ~(records : string) ~(artifact : string) =
  let ic = open_in records in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let json, verdict = Holes_exp.Fleet_figure.pause_slo_gate lines in
  Out_channel.with_open_text artifact (fun oc -> output_string oc json);
  match verdict with
  | Ok summary -> print_endline summary
  | Error e ->
      prerr_endline ("pause-SLO gate: " ^ e);
      exit 1

(* `hybrid-gate`: the CI gate on the hybrid figure's migrate+caram row,
   threshold read from Hybrid_figure like the pause-SLO gate's. *)
let run_hybrid_gate ~(records : string) =
  let lines = In_channel.with_open_text records In_channel.input_all |> String.split_on_char '\n' in
  match Holes_exp.Hybrid_figure.absorption_gate lines with
  | Ok summary -> print_endline summary
  | Error e ->
      prerr_endline ("hybrid absorption gate: " ^ e);
      exit 1

(* `speedup`: measure the parallelism win instead of asserting it — the
   same reduced grid, wall-clocked at -j 1 and -j max from a cold memo
   cache each time. *)
let run_speedup () =
  let time_with jobs =
    Holes_exp.Runner.clear_cache ();
    let params = quick_grid_params ~jobs in
    let t0 = Unix.gettimeofday () in
    ignore (Holes_exp.Figures.fig4 ~params ());
    ignore (Holes_exp.Figures.headline ~params ());
    Unix.gettimeofday () -. t0
  in
  let jmax = Holes_engine.Engine.default_jobs () in
  let t1 = time_with 1 in
  let tn = time_with jmax in
  Printf.printf
    "quick figure grid wall-clock: -j 1 = %.2f s, -j %d = %.2f s, speedup %.2fx (%d cores)\n"
    t1 jmax tn (t1 /. tn)
    (Domain.recommended_domain_count ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (jobs, out, trace, fullp, verify, names) = function
    | [] -> (jobs, out, trace, fullp, verify, List.rev names)
    | "--full" :: rest -> parse (jobs, out, trace, true, verify, names) rest
    | "--verify" :: rest -> parse (jobs, out, trace, fullp, true, names) rest
    | ("-j" | "--jobs") :: n :: rest ->
        let j =
          if n = "max" then Holes_engine.Engine.default_jobs ()
          else
            match int_of_string_opt n with
            | Some j when j >= 1 -> j
            | _ -> failwith (Printf.sprintf "bad -j value %S (positive integer or \"max\")" n)
        in
        parse (j, out, trace, fullp, verify, names) rest
    | "--out" :: path :: rest -> parse (jobs, Some path, trace, fullp, verify, names) rest
    | "--trace" :: path :: rest -> parse (jobs, out, Some path, fullp, verify, names) rest
    | name :: rest -> parse (jobs, out, trace, fullp, verify, name :: names) rest
  in
  let jobs, out, trace, fullp, verify, args = parse (1, None, None, false, false, []) args in
  Holes_exp.Runner.set_verify verify;
  let params =
    let p = if fullp then Holes_exp.Runner.full else Holes_exp.Runner.quick in
    { p with Holes_exp.Runner.jobs }
  in
  (* stream trials to --out; show live progress whenever domains run *)
  let sink =
    if out <> None || jobs > 1 then Some (Holes_engine.Sink.create ?path:out ())
    else None
  in
  Holes_exp.Runner.set_sink sink;
  let tracer = Option.map (fun _ -> Holes_obs.Trace.create ()) trace in
  Holes_exp.Runner.set_tracer tracer;
  let finish () =
    (match (tracer, trace) with
    | Some tr, Some path ->
        Holes_obs.Trace.write tr path;
        Printf.printf "(trace: %s, %d events%s)\n" path
          (List.length (Holes_obs.Trace.events tr))
          (let d = Holes_obs.Trace.dropped tr in
           if d = 0 then "" else Printf.sprintf ", %d dropped" d)
    | _ -> ());
    Holes_exp.Runner.set_tracer None;
    (match sink with Some s -> Holes_engine.Sink.close s | None -> ());
    Holes_exp.Runner.set_sink None
  in
  Fun.protect ~finally:finish (fun () ->
      let print_one name =
        match List.assoc_opt name figures with
        | Some f ->
            let t0 = Unix.gettimeofday () in
            Holes_stdx.Table.print (f ~params);
            Printf.printf "(%s generated in %.1f s)\n\n%!" name (Unix.gettimeofday () -. t0)
        | None -> Printf.eprintf "unknown target %s\n" name
      in
      match args with
      | [] ->
          Printf.printf "Regenerating all paper tables/figures (%s parameters, -j %d)\n\n%!"
            (if fullp then "full" else "quick")
            jobs;
          List.iter (fun (n, _) -> print_one n) figures;
          run_micro ()
      | [ "micro" ] -> run_micro ()
      | [ "figures-quick" ] -> run_quick_grid ~params:(quick_grid_params ~jobs) ~out
      | [ "speedup" ] -> run_speedup ()
      | [ "pause-slo"; records; artifact ] -> run_pause_slo ~records ~artifact
      | [ "hybrid-gate"; records ] -> run_hybrid_gate ~records
      | names -> List.iter print_one names)
