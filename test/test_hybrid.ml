(* Hybrid DRAM/PCM tiering tests (lib/osal/tier.ml + lib/pcm/caram.ml +
   the backend wiring, DESIGN.md §17):

   - tiering-policy CLI round-trips and rejections;
   - content-store round-trip: deduplicated and pattern-compressed
     lines read back bit-exact, survive a flush through the cells, and
     keep the store internally consistent;
   - the hybrid figure cells are bit-identical at -j 1 and -j 4
     (engine determinism through the tier and the content store);
   - the paranoid verifier catches a corrupted residency map
     ([Tier.unsafe_poke]) and a corrupted content-store refcount
     ([Caram.unsafe_poke]);
   - the CI absorption gate passes on the figure's quick-scale sink and
     fails on an under-threshold record or an empty sink;
   - [hybrid = none] leaves the serialized record shape untouched: no
     hyb_* metric fields, no -hyb name tag.  (The committed goldens —
     test/golden/determinism.jsonl and test/golden/fleet.jsonl — are
     all hybrid-off configs, so the golden suites in test_hotpath.ml
     and test_fleet.ml gate the none path bit-for-bit.) *)

open Alcotest
module Pcm = Holes_pcm
module Hy = Pcm.Hybrid
module Cfg = Holes.Config
module Vm = Holes.Vm

(* ---- CLI ------------------------------------------------------------- *)

let test_cli_roundtrip () =
  List.iter
    (fun p ->
      match Hy.of_cli (Hy.to_cli p) with
      | Ok p' -> check bool (Hy.to_cli p) true (p = p')
      | Error e -> fail e)
    [
      Hy.none;
      { Hy.migrate_epoch = Some 512; caram_ways = None };
      { Hy.migrate_epoch = None; caram_ways = Some 4 };
      { Hy.migrate_epoch = Some 512; caram_ways = Some 4 };
    ];
  (match Hy.of_cli "MIGRATE" with
  | Ok { Hy.migrate_epoch = Some e; caram_ways = None } ->
      check int "default epoch" Hy.default_epoch e
  | _ -> fail "case-insensitive migrate with default epoch");
  (match Hy.of_cli "caram:4+migrate:512" with
  | Ok { Hy.migrate_epoch = Some 512; caram_ways = Some 4 } -> ()
  | _ -> fail "combined form is order-insensitive");
  check string "short names" "none,mig512,car4,mig512car4"
    (String.concat ","
       (List.map Hy.short_name
          [
            Hy.none;
            { Hy.migrate_epoch = Some 512; caram_ways = None };
            { Hy.migrate_epoch = None; caram_ways = Some 4 };
            { Hy.migrate_epoch = Some 512; caram_ways = Some 4 };
          ]))

let test_cli_rejects () =
  List.iter
    (fun s ->
      match Hy.of_cli s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S should not parse" s))
    [
      "bogus"; "migrate:0"; "migrate:-3"; "caram:x"; "migrate:2:3"; "none:5";
      "migrate+migrate"; "caram:4+caram:4"; "";
    ]

(* ---- content-store round-trip ----------------------------------------- *)

(* Write a mix of duplicated, all-same-byte and unique payloads through
   a content-aware device: every line must read back bit-exact, the
   store must report dedup hits and compressions, its internal
   consistency check must stay clean, and tearing the store down must
   flush the bound lines through the cells without losing data. *)
let test_caram_roundtrip () =
  let config =
    { Pcm.Device.default_config with Pcm.Device.pages = 4; caram = Some 4 }
  in
  let dev = Pcm.Device.create ~config ~seed:42 () in
  let line_bytes = Pcm.Geometry.line_bytes in
  let shared = Bytes.init line_bytes (fun i -> Char.chr ((i * 7) land 0xff)) in
  let pattern = Bytes.make line_bytes '\xAB' in
  let expect = Hashtbl.create 64 in
  let put l payload =
    (match Pcm.Device.write dev l payload with
    | Pcm.Device.Stored -> ()
    | _ -> fail (Printf.sprintf "write to line %d did not store" l));
    Hashtbl.replace expect l (Bytes.copy payload)
  in
  (* lines 0..7 share one payload, 8..11 are the pattern, 12..19 unique *)
  for l = 0 to 7 do put l shared done;
  for l = 8 to 11 do put l pattern done;
  for l = 12 to 19 do
    put l (Bytes.init line_bytes (fun i -> Char.chr ((l + (i * 13)) land 0xff)))
  done;
  let check_contents tag =
    Hashtbl.iter
      (fun l payload ->
        check bool
          (Printf.sprintf "%s: line %d reads back bit-exact" tag l)
          true
          (Bytes.equal (Pcm.Device.read dev l) payload))
      expect
  in
  check_contents "store live";
  (match Pcm.Device.caram dev with
  | None -> fail "content store should be live"
  | Some c ->
      let s = Pcm.Caram.stats c in
      check bool "dedup hits recorded" true (s.Pcm.Caram.s_dedup_hits >= 7);
      check bool "compressions recorded" true (s.Pcm.Caram.s_compressed >= 3));
  check (list string) "store internally consistent" [] (Pcm.Device.caram_check dev);
  (* overwrite a deduplicated line with fresh content: the old binding's
     refcount must drop, and the new content must win *)
  let fresh = Bytes.make line_bytes 'f' in
  put 3 fresh;
  check_contents "after overwrite";
  check (list string) "consistent after overwrite" [] (Pcm.Device.caram_check dev);
  (* teardown flushes every bound line through the cells *)
  Pcm.Device.set_caram dev None;
  check bool "store torn down" true (Pcm.Device.caram dev = None);
  check_contents "after flush"

(* ---- engine determinism ----------------------------------------------- *)

(* Every hybrid-figure policy at the 8-frame provisioning, run through
   the engine at -j 1 and -j 4: the serialized outcome (including the
   hyb_* metric fields) must be bit-identical. *)
let test_engine_determinism () =
  let cells =
    List.map
      (fun (_, hybrid) -> Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8)
      Holes_exp.Hybrid_figure.policies
  in
  let profile = Holes_workload.Dacapo.pmd in
  let specs =
    Array.of_list
      (List.map
         (fun cfg -> { Holes_engine.Job.cfg; profile; scale = 0.04; seed_index = 0 })
         cells)
  in
  let run ~jobs =
    let results =
      Holes_engine.Engine.run ~jobs
        ~f:(fun spec ~seed:_ ->
          Holes_exp.Wear_policies.lifetime_run ~cfg:spec.Holes_engine.Job.cfg
            ~profile:spec.Holes_engine.Job.profile ~scale:spec.Holes_engine.Job.scale
            ~max_rounds:2)
        specs
    in
    Array.to_list results
    |> List.map (fun r ->
           match r.Holes_engine.Engine.outcome with
           | Holes_engine.Pool.Done (o : Holes_exp.Wear_policies.outcome) ->
               Printf.sprintf "%d|%d|%.6f|%s" o.Holes_exp.Wear_policies.rounds
                 o.Holes_exp.Wear_policies.dead_lines o.Holes_exp.Wear_policies.elapsed_ms
                 (String.concat ";"
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%h" k v)
                       (Holes.Metrics.to_fields o.Holes_exp.Wear_policies.m)))
           | Holes_engine.Pool.Failed { exn; _ } -> "failed: " ^ exn)
  in
  check (list string) "-j 4 bit-identical to -j 1" (run ~jobs:1) (run ~jobs:4)

(* ---- verifier mutation ------------------------------------------------ *)

let device_vm ~(hybrid : Hy.policy) : Vm.t =
  let d = Cfg.default_device in
  let cfg =
    {
      Cfg.default with
      Cfg.collector = Cfg.Sticky_immix;
      backend = Cfg.Device { d with Cfg.dram_pages = 8 };
      failure_rate = 0.0;
      hybrid;
    }
  in
  let vm = Vm.create ~cfg ~min_heap_bytes:(256 * 1024) () in
  for _ = 1 to 256 do
    let id = Vm.alloc vm ~size:64 () in
    Vm.kill vm id
  done;
  vm

(* Corrupt the residency map underneath a running VM: the per-phase
   residency check must report it. *)
let test_verifier_catches_tier_poke () =
  let vm = device_vm ~hybrid:{ Hy.migrate_epoch = Some 64; caram_ways = None } in
  let r = Vm.verify vm in
  check (list string) "clean before the poke" [] r.Holes.Verify.errors;
  let st = Option.get (Vm.device_state vm) in
  (match st.Holes.Memory_backend.node.Holes.Memory_backend.n_tier with
  | None -> fail "migration should bring up the tier"
  | Some tier -> Holes_osal.Tier.unsafe_poke tier);
  let r = Vm.verify vm in
  check bool "verifier reports the corrupted residency map" true
    (r.Holes.Verify.errors <> [])

(* Corrupt a content-store refcount: the verifier's caram consistency
   check must report it. *)
let test_verifier_catches_caram_poke () =
  let vm = device_vm ~hybrid:{ Hy.migrate_epoch = None; caram_ways = Some 4 } in
  let r = Vm.verify vm in
  check (list string) "clean before the poke" [] r.Holes.Verify.errors;
  let st = Option.get (Vm.device_state vm) in
  (match Pcm.Device.caram st.Holes.Memory_backend.device with
  | None -> fail "content store should be live"
  | Some c -> Pcm.Caram.unsafe_poke c);
  let r = Vm.verify vm in
  check bool "verifier reports the corrupted content store" true
    (r.Holes.Verify.errors <> [])

(* ---- hybrid=none leaves the record shape untouched -------------------- *)

(* The none policy must be invisible in every serialized surface: no
   hyb_* metric fields, no -hyb tag in the config name — so the
   committed goldens and the cross-PR JSONL trajectory stay comparable.
   With tiering on, the fields appear and the absorption accounting is
   a sane fraction. *)
let test_none_invisible () =
  let run ~hybrid =
    let cfg = Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8 in
    Holes_exp.Wear_policies.lifetime_run ~cfg ~profile:Holes_workload.Dacapo.pmd
      ~scale:0.04 ~max_rounds:1
  in
  let has_hyb m =
    List.exists
      (fun (k, _) -> String.length k >= 4 && String.sub k 0 4 = "hyb_")
      (Holes.Metrics.to_fields m)
  in
  let off = run ~hybrid:Hy.none in
  check bool "no hyb_* fields when off" false (has_hyb off.Holes_exp.Wear_policies.m);
  let name_off =
    Cfg.name (Holes_exp.Hybrid_figure.cell_cfg ~hybrid:Hy.none ~dram_pages:8)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check bool "no -hyb tag when off" false (contains name_off "hyb");
  let hybrid = { Hy.migrate_epoch = Some 512; caram_ways = Some 8 } in
  let on = run ~hybrid in
  check bool "hyb_* fields when on" true (has_hyb on.Holes_exp.Wear_policies.m);
  check bool "-hyb tag when on" true
    (contains (Cfg.name (Holes_exp.Hybrid_figure.cell_cfg ~hybrid ~dram_pages:8)) "hybmig512car8");
  let a = Holes_exp.Hybrid_figure.absorption on.Holes_exp.Wear_policies.m in
  check bool "absorption in (0,1]" true (a > 0.0 && a <= 1.0)

(* ---- the CI absorption gate ------------------------------------------ *)

(* The figures-quick job's gate ([bench/main.exe hybrid-gate]) over the
   hybrid figure's own quick-scale sink records passes; a forged
   migrate+caram record under the threshold, alone, and an empty sink
   both fail it. *)
let test_absorption_gate () =
  let module Hf = Holes_exp.Hybrid_figure in
  let path = Filename.temp_file "holes_hybrid_gate" ".jsonl" in
  let records =
    Fun.protect
      ~finally:(fun () ->
        Holes_exp.Runner.set_sink None;
        Sys.remove path)
      (fun () ->
        let sink = Holes_engine.Sink.create ~path ~progress:false () in
        Holes_exp.Runner.set_sink (Some sink);
        Fun.protect
          ~finally:(fun () -> Holes_engine.Sink.close sink)
          (fun () -> ignore (Hf.table ~params:{ Holes_exp.Runner.quick with jobs = 2 } ()));
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> ""))
  in
  (match Hf.absorption_gate records with
  | Ok _ -> ()
  | Error e -> failf "absorption gate failed on the figure's records: %s" e);
  let forged =
    Printf.sprintf "{\"config\":\"S-IX-L256%s\",\"metrics\":{\"hyb_absorption\":%g}}"
      Hf.migrate_caram_tag
      (Hf.absorption_threshold *. 0.99)
  in
  (match Hf.absorption_gate [ forged ] with
  | Ok _ -> fail "absorption gate passed a migrate+caram row under the threshold"
  | Error _ -> ());
  match Hf.absorption_gate [] with
  | Ok _ -> fail "absorption gate passed without migrate+caram rows"
  | Error _ -> ()

let suite =
  [
    ("hybrid policy CLI round-trips", `Quick, test_cli_roundtrip);
    ("hybrid policy CLI rejections", `Quick, test_cli_rejects);
    ("content store round-trips dedup/compressed lines", `Quick, test_caram_roundtrip);
    ("hybrid figure cells bit-identical at -j 1/-j 4", `Quick, test_engine_determinism);
    ("verifier catches a corrupted residency map", `Quick, test_verifier_catches_tier_poke);
    ("verifier catches a corrupted content store", `Quick, test_verifier_catches_caram_poke);
    ("hybrid=none leaves record shape and names untouched", `Quick, test_none_invisible);
    ("absorption gate: figure sink passes, under-threshold and empty fail", `Quick,
      test_absorption_gate);
  ]
