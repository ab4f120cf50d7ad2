(* Driver fidelity: the benchmark issues the simulator's calls itself so
   it can time them, and must reproduce the library's own drivers
   exactly for a fixed seed — traced or not. *)

open Holes_stdx
module Cfg = Holes.Config
module Vm = Holes.Vm
module Generator = Holes_workload.Generator
module Profile = Holes_workload.Profile
module Drive = Pbench.Drive
module Probe = Pbench.Probe
module W = Pbench.Workloads

let fields_eq (a : (string * float) list) (b : (string * float) list) : bool =
  List.length a = List.length b
  && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && Float.equal va vb) a b

let outcome_eq (a : Generator.result) (b : Generator.result) : bool =
  let fa, pa, na = W.vm_outcome a and fb, pb, nb = W.vm_outcome b in
  fields_eq fa fb && pa = pb && na = nb

(* one VM per run, built the way Runner.run_trial builds it *)
let trial_vm ~(cfg : Cfg.t) ~(profile : Profile.t) : Vm.t =
  Vm.create ~cfg ~min_heap_bytes:(Profile.min_heap profile) ()

let generator_case (label : string) (cfg : Cfg.t) (profile : Profile.t) () =
  let profile = Profile.scaled profile 0.06 in
  let rng () = Xrng.of_seed (cfg.Cfg.seed lxor 0x5eed) in
  let lib = Generator.run ~rng:(rng ()) (trial_vm ~cfg ~profile) profile in
  let off = Drive.run_profile (Probe.off ()) ~rng:(rng ()) (trial_vm ~cfg ~profile) profile in
  let traced = Probe.make ~on:true in
  let on = Drive.run_profile traced ~rng:(rng ()) (trial_vm ~cfg ~profile) profile in
  Alcotest.(check bool) (label ^ ": untraced driver = Generator.run") true (outcome_eq lib off);
  Alcotest.(check bool) (label ^ ": traced driver = Generator.run") true (outcome_eq lib on);
  Alcotest.(check bool) (label ^ ": the probe saw every allocation") true
    (traced.Probe.alloc_calls + traced.Probe.gc_calls
    = lib.Generator.metrics.Holes.Metrics.objects_allocated)

let static_cases =
  List.map
    (fun (name, cfg) ->
      Alcotest.test_case name `Quick
        (generator_case name { cfg with Cfg.seed = 11 } Holes_workload.Dacapo.pmd))
    W.dacapo_cfgs

let device_case =
  Alcotest.test_case "wear config (device backend)" `Quick
    (generator_case "wear" (W.wear_cfg ~seed:5) Holes_workload.Dacapo.pmd)

let lifetime_case () =
  let cfg = W.wear_cfg ~seed:3 in
  let scale = 0.03 and max_rounds = 150 in
  let lib =
    Holes_exp.Wear_policies.lifetime_run ~cfg ~profile:Holes_workload.Dacapo.pmd ~scale
      ~max_rounds
  in
  let profile = Profile.scaled Holes_workload.Dacapo.pmd scale in
  let run probe ~checks =
    Drive.lifetime probe ~cfg (trial_vm ~cfg ~profile) ~profile ~max_rounds ~checks
  in
  List.iter
    (fun (label, probe, checks) ->
      let l = run probe ~checks in
      Alcotest.(check int) (label ^ ": rounds") lib.Holes_exp.Wear_policies.rounds l.Drive.rounds;
      Alcotest.(check bool) (label ^ ": metrics") true
        (fields_eq
           (Holes.Metrics.to_fields lib.Holes_exp.Wear_policies.m)
           (Holes.Metrics.to_fields (Vm.metrics l.Drive.vm)));
      Alcotest.(check (list string)) (label ^ ": checks clean") [] l.Drive.violations)
    [
      ("untraced", Probe.off (), false);
      ("untraced, checked", Probe.off (), true);
      ("traced, checked", Probe.make ~on:true, true);
    ];
  Alcotest.(check bool) "the device wore out inside the cap" true
    (lib.Holes_exp.Wear_policies.rounds < max_rounds)

let fleet_case () =
  let p = { (W.fleet_params ~seed:9) with Holes_fleet.Sim.duration_ms = 300.0 } in
  let lib = Holes_fleet.Sim.run ~jobs:2 p in
  let ours = (Drive.fleet ~jobs:2 p).Drive.report in
  let module R = Holes_fleet.Report in
  Alcotest.(check bool) "report fields" true (fields_eq (R.fields lib) (R.fields ours));
  Alcotest.(check bool) "latency and pause histograms" true
    (lib.R.latency = ours.R.latency && lib.R.gc_pause = ours.R.gc_pause
    && lib.R.epoch = ours.R.epoch);
  Alcotest.(check bool) "requests were served" true (ours.R.completed > 0)

let () =
  Alcotest.run "perfbench"
    [
      ("generator", static_cases @ [ device_case ]);
      ("wear", [ Alcotest.test_case "rounds match lifetime_run" `Quick lifetime_case ]);
      ("fleet", [ Alcotest.test_case "shards merge to Sim.run" `Quick fleet_case ]);
    ]
