(* perfbench: one workload of the end-to-end benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs a warm-up pass of the workload (its simulated outcome is the
   reference), then timed passes until S seconds have passed (at least
   three).  Every pass must reproduce the reference outcome exactly.
   With --trace 1 untraced and traced passes alternate; the traced ones
   time every call the drivers make and give the per-layer metrics,
   and the spans are written to .perfbench-out/ when the run ends.

   Human-readable lines come first; the last line of standard output is
   the JSON result. *)

module W = Pbench.Workloads
module Probe = Pbench.Probe
module Clock = Pbench.Clock

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = { workload : W.t; seed : int; seconds : float; trace : bool }

let parse_args () : args =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME dacapo-static | wear-aging | fleet-storm");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "perfbench.exe [options]";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all))
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if not (!seconds > 0.0) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* host peak resident set, MB (VmHWM) *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let unit_of (name : string) : string =
  let ends s = String.ends_with ~suffix:s name in
  if name = "work_per_s" then "1/s"
  else if ends "_s" then "s"
  else if ends "_ms" || ends ".ms_p50" || ends ".ms_tail" || name = "sim.ms_per_round" then "ms"
  else if ends ".ns_p50" || ends ".ns_tail" then "ns"
  else if ends "minor_words_per_call" then "words"
  else if ends "lines_per_search" then "lines"
  else if
    List.exists ends
      [ "_frac"; "_cov"; "efficiency"; "imbalance"; "overhead"; "goodput" ]
  then "ratio"
  else "count"

(* shortest decimal that reads back as the same float *)
let num (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let () =
  let a = parse_args () in
  let w = a.workload in
  let fingerprint =
    Printf.sprintf "nproc=%d ocaml=%s profile=%s" (Domain.recommended_domain_count ())
      Sys.ocaml_version Pbench.Build_info.profile
  in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.W.name a.seed
    a.seconds (if a.trace then 1 else 0);
  Printf.printf "# host: %s\n" fingerprint;
  print_endline
    "# model: unvalidated - the repository holds no real-hardware reference, so no error \
     figure is given";
  let traced = Probe.make ~on:true in
  let untraced = Probe.off () in
  let reference = w.W.run_pass untraced ~seed:a.seed in
  let runs = ref [] (* (traced?, pass), newest first *) in
  let count tr = List.length (List.filter (fun (t, _) -> t = tr) !runs) in
  let min_passes = 3 in
  let start = Clock.now () in
  let more () =
    Clock.s_of_ns (Clock.now () - start) < a.seconds
    || count false < min_passes
    || (a.trace && count true < min_passes)
  in
  while more () do
    let tr = a.trace && count true < count false in
    let pass () = w.W.run_pass (if tr then traced else untraced) ~seed:a.seed in
    runs := (tr, if tr then Probe.span traced ~trial:(-1) "pass" pass else pass ()) :: !runs
  done;
  let runs = List.rev !runs in
  let all = (false, reference) :: runs in
  let violations =
    List.concat
      (List.mapi
         (fun i (tr, (p : W.pass)) ->
           let tag = Printf.sprintf "pass %d%s" i (if tr then " (traced)" else "") in
           List.map (fun v -> tag ^ ": " ^ v) p.W.violations
           @
           if p.W.digest <> reference.W.digest then
             [ tag ^ ": simulated outcome differs from the first pass" ]
           else [])
         all)
  in
  let attempted = List.fold_left (fun n (_, (p : W.pass)) -> n + p.W.attempted) 0 all in
  let failed = List.length violations in
  let timed tr = List.filter_map (fun (t, p) -> if t = tr then Some p else None) runs in
  let med tr f = Holes_stdx.Stats.percentile 50.0 (List.map f (timed tr)) in
  (* Host seconds of one pass, from the fastest repetition of each
     set-up call and each timing unit across the timed passes.  Units
     that run side by side count as their slowest, and groups are
     summed.  The host is shared, and contention only ever adds time:
     the fastest of many repetitions is far steadier run to run than
     their median. *)
  let fastest (xs : int list) : float =
    match xs with
    | [] -> 0.0
    | x :: rest -> Clock.s_of_ns (List.fold_left min x rest)
  in
  let nth_or a i empty = if i < Array.length a then a.(i) else empty in
  let sum = Array.fold_left ( +. ) 0.0 in
  let setup_s tr =
    match timed tr with
    | [] -> 0.0
    | p0 :: _ as ps ->
        let call c = fastest (List.concat_map (fun (p : W.pass) -> nth_or p.W.setup_ns c []) ps) in
        sum (Array.init (Array.length p0.W.setup_ns) call)
  in
  let work_s tr =
    match timed tr with
    | [] -> 0.0
    | p0 :: _ as ps ->
        let unit_ g u =
          fastest (List.map (fun (p : W.pass) -> nth_or (nth_or p.W.work_ns g [||]) u 0) ps)
        in
        let slowest g units = Array.fold_left Float.max 0.0 (Array.mapi (fun u _ -> unit_ g u) units) in
        sum (Array.mapi slowest p0.W.work_ns)
  in
  let sim k = Option.value ~default:0.0 (List.assoc_opt k reference.W.sim) in
  let work_rate = reference.W.work /. work_s false in
  let e2e =
    [
      ("setup_s", setup_s false, "s");
      ("minor_words_per_work", reference.W.words /. reference.W.work, "words");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("sim_pause_ms_tail", sim "sim_pause_ms_tail", "ms");
      ("sim_ms_per_work", sim "sim_ms_per_work", "ms");
    ]
  in
  Printf.printf "# passes: %d timed (+1 warm-up), %s per pass: %s\n" (List.length runs)
    w.W.work_unit
    (num reference.W.work);
  List.iter (fun (k, v, u) -> Printf.printf "# %s = %s %s\n" k (num v) u) e2e;
  Printf.printf "# work_per_s = %s 1/s (%s)\n" (num work_rate)
    (if w.W.work_unit = "MB" then "sim_mb_per_s" else "requests_per_s");
  Printf.printf "# failed_frac = %s (%d of %d)\n"
    (num (float_of_int failed /. float_of_int (max 1 attempted)))
    failed attempted;
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"sim." k then
        Printf.printf "# %s = %s %s\n" k (num v) (unit_of k))
    reference.W.sim;
  List.iter (fun n -> Printf.printf "# note: %s\n" n) reference.W.notes;
  List.iter
    (fun v ->
      Printf.printf
        "REPLAY: python3 perfbench/run.py --workload %s --seed %d --seconds %g --trace %d  # %s\n"
        w.W.name a.seed a.seconds (if a.trace then 1 else 0) v)
    violations;
  let metrics =
    if not a.trace then e2e
    else begin
      let passes = count true in
      let host k = med true (fun p -> Option.value ~default:0.0 (List.assoc_opt k p.W.host)) in
      let probe = Probe.metrics traced ~passes in
      let value k =
        match List.assoc_opt k probe with
        | Some v -> v
        | None ->
            if k = "trace_overhead" then work_s true /. work_s false
            else if k = "work_per_s" then work_rate
            else if List.mem_assoc k reference.W.sim then sim k
            else host k
      in
      List.iter (fun n -> Printf.printf "# note: %s\n" n) (Probe.tail_notes traced);
      let dir = ".perfbench-out" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir w.W.name a.seed in
      Probe.write_spans traced
        ~header:
          (Printf.sprintf "{\"workload\":%S,\"seed\":%d,\"host\":%S,\"traced_passes\":%d}"
             w.W.name a.seed fingerprint passes)
        path;
      Printf.printf "# spans: %d written to %s\n" (List.length traced.Probe.spans) path;
      List.map (fun k -> (k, value k, unit_of k)) W.per_layer_names
    end
  in
  List.iter
    (fun (k, v, u) -> if a.trace then Printf.printf "# %s = %s %s\n" k (num v) u)
    metrics;
  let nonfinite = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  let failed = failed + List.length nonfinite in
  List.iter (fun (k, _, _) -> Printf.printf "# metric %s is not finite\n" k) nonfinite;
  let body =
    String.concat ", "
      (List.map
         (fun (k, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
             (num (if Float.is_finite v then v else 0.0))
             u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body
