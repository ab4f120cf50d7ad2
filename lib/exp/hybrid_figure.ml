(** Hybrid DRAM/PCM tiering (DESIGN.md §17): what a small DRAM tier in
    front of the aging module buys, measured end to end on the device
    backend.

    The grid is {none, migrate, caram, migrate+caram} × DRAM
    provisioning {8, 32 frames}, at the same operating point as the
    wear-leveling ablation (S-IX L256, endurance 12, 10% boot failures,
    hardware clustering on) so the rows compose with that table.  Three
    signals per policy:

    - {b absorption} — the fraction of charged line writes that never
      wore a PCM cell: landed in a promoted DRAM frame
      ([hyb_dram_writes]), deduplicated against an identical resident
      line ([hyb_dedup_hits]), or compressed to a pattern binding
      ([hyb_compressed]);
    - {b write extension} — the modeled endurance stretch
      [1 / (1 - absorption)]: how much longer the module's write budget
      lasts when that traffic is absorbed (MigrantStore and CARAM both
      report in this currency);
    - {b lifetime rounds} — workload rounds survived before the device
      can no longer back the heap, the same end-of-life measure as the
      wear tables ([>=] marks the quick-mode round cap).

    The expected direction (and the CI gate on the streamed rows,
    {!absorption_gate}): migration alone absorbs the write-hot pages,
    caram alone absorbs the redundant content, and migrate+caram
    compounds — its absorption must clear {!absorption_threshold} (30%)
    in this scenario. *)

module Cfg = Holes.Config
module Hybrid = Holes_pcm.Hybrid

(* small epoch: at figure scale a workload round charges ~10^5 writes,
   so promotion/demotion must turn over well within one round *)
let migrate_epoch = 512
let caram_ways = 8

let policies : (string * Hybrid.policy) list =
  [
    ("none", Hybrid.none);
    ("migrate", { Hybrid.migrate_epoch = Some migrate_epoch; caram_ways = None });
    ("caram", { Hybrid.migrate_epoch = None; caram_ways = Some caram_ways });
    ( "migrate+caram",
      { Hybrid.migrate_epoch = Some migrate_epoch; caram_ways = Some caram_ways } );
  ]

let dram_levels : int list = [ 8; 32 ]

(** The headline deliverable's threshold: at this operating point the
    migrate+caram row must absorb at least this fraction of the charged
    line writes ({!absorption_gate}; CI's figures-quick job and
    [test_hybrid] both read it). *)
let absorption_threshold = 0.30

(* the config-name tag of the migrate+caram cells, e.g. "-hybmig512car8" *)
let migrate_caram_tag =
  "-hyb"
  ^ Hybrid.short_name { Hybrid.migrate_epoch = Some migrate_epoch; caram_ways = Some caram_ways }

(** The absorption gate over the figure's sink records (one JSON object
    per cell, as {!table} streams them): the migrate+caram cells —
    config names carrying {!migrate_caram_tag} and an [hyb_absorption]
    metric — must include one absorbing at least
    {!absorption_threshold} of the charged writes.  [Ok] carries one
    line per cell plus the verdict; [Error] when no such cell was
    recorded or the best falls short — the tiering path has then
    quietly stopped doing its job, even if the figure still renders. *)
let absorption_gate (records : string list) : (string, string) result =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rows =
    List.filter_map
      (fun line ->
        match
          ( Fleet_figure.record_field line "config",
            Option.bind (Fleet_figure.record_field line "hyb_absorption") float_of_string_opt )
        with
        | Some config, Some a when contains config migrate_caram_tag -> Some (config, a)
        | _ -> None)
      records
  in
  let best = List.fold_left (fun acc (_, a) -> Float.max acc a) 0.0 rows in
  let cells =
    String.concat "\n"
      (List.map (fun (config, a) -> Printf.sprintf "%s: absorption %.3f" config a) rows)
  in
  if rows = [] then Error "no migrate+caram rows in the sink records"
  else if best < absorption_threshold then
    Error
      (Printf.sprintf "%s\nmigrate+caram absorbed only %.1f%% of charged writes (< %.0f%% gate)"
         cells (100.0 *. best) (100.0 *. absorption_threshold))
  else
    Ok
      (Printf.sprintf "%s\ngate ok: best migrate+caram absorption %.1f%% (>= %.0f%%)" cells
         (100.0 *. best) (100.0 *. absorption_threshold))

let cell_cfg ~(hybrid : Hybrid.policy) ~(dram_pages : int) : Cfg.t =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 12.0 } in
  {
    Figures.base_six with
    Cfg.backend = Cfg.Device { d with Cfg.wear; clustering = Some 2; dram_pages };
    failure_rate = 0.10;
    hybrid;
  }

(* absorbed / charged, from a cell's synced metrics.  [device_writes]
   counts every write that reached the device (including the ones the
   content store then absorbed); DRAM-tier writes never reach it, so
   the charged total is their sum. *)
let absorption (m : Holes.Metrics.t) : float =
  let absorbed =
    m.Holes.Metrics.hyb_dram_writes + m.Holes.Metrics.hyb_dedup_hits
    + m.Holes.Metrics.hyb_compressed
  in
  let charged = m.Holes.Metrics.device_writes + m.Holes.Metrics.hyb_dram_writes in
  if charged = 0 then 0.0 else float_of_int absorbed /. float_of_int charged

(** One row per policy: lifetime rounds at each provisioning level,
    then absorption and the write-extension factor at the provisioned
    (32-frame) level.  One engine job per cell, each a pure function of
    its config — bit-identical at any [-j]. *)
let table ?(params = Runner.quick) () : Holes_stdx.Table.t =
  let t =
    Holes_stdx.Table.create
      ~title:
        "Hybrid DRAM/PCM tiering — write traffic absorbed and lifetime vs DRAM provisioning \
         (S-IX L256, device backend, clustering on, low endurance)"
      ~headers:[ "policy"; "8 frames"; "32 frames"; "absorbed"; "write ext"; "promotes" ]
      ~aligns:
        [
          Holes_stdx.Table.Left; Holes_stdx.Table.Right; Holes_stdx.Table.Right;
          Holes_stdx.Table.Right; Holes_stdx.Table.Right; Holes_stdx.Table.Right;
        ]
      ()
  in
  let profile = Holes_workload.Dacapo.pmd in
  let max_rounds = if Runner.is_full params then 40 else 8 in
  let grid =
    List.concat_map
      (fun (_, hybrid) -> List.map (fun dram -> (hybrid, dram)) dram_levels)
      policies
  in
  let specs =
    Array.of_list
      (List.map
         (fun (hybrid, dram_pages) ->
           {
             Holes_engine.Job.cfg = cell_cfg ~hybrid ~dram_pages;
             profile;
             (* fixed scale, like the wearlevel table: the wear operating
                point must match between quick and full runs *)
             scale = 0.125;
             seed_index = 0;
           })
         grid)
  in
  let results =
    Holes_engine.Engine.run ~jobs:params.Runner.jobs
      ?sink:(Runner.current_sink ())
      ~metrics:(fun (o : Wear_policies.outcome) ->
        [
          ("rounds", float_of_int o.Wear_policies.rounds);
          ("round_ms", o.Wear_policies.elapsed_ms);
          ("dead_lines", float_of_int o.Wear_policies.dead_lines);
          ("device_writes", float_of_int o.Wear_policies.m.Holes.Metrics.device_writes);
          ( "device_line_failures",
            float_of_int o.Wear_policies.m.Holes.Metrics.device_line_failures );
          ("hyb_promotes", float_of_int o.Wear_policies.m.Holes.Metrics.hyb_promotes);
          ("hyb_demotes", float_of_int o.Wear_policies.m.Holes.Metrics.hyb_demotes);
          ("hyb_dram_writes", float_of_int o.Wear_policies.m.Holes.Metrics.hyb_dram_writes);
          ("hyb_dedup_hits", float_of_int o.Wear_policies.m.Holes.Metrics.hyb_dedup_hits);
          ("hyb_compressed", float_of_int o.Wear_policies.m.Holes.Metrics.hyb_compressed);
          ("hyb_absorption", absorption o.Wear_policies.m);
        ])
      ~f:(fun spec ~seed:_ ->
        Wear_policies.lifetime_run ~cfg:spec.Holes_engine.Job.cfg
          ~profile:spec.Holes_engine.Job.profile ~scale:spec.Holes_engine.Job.scale
          ~max_rounds)
      specs
  in
  let cell_of i : Wear_policies.outcome option =
    match results.(i).Holes_engine.Engine.outcome with
    | Holes_engine.Pool.Done o -> Some o
    | Holes_engine.Pool.Failed _ -> None
  in
  let nlevels = List.length dram_levels in
  List.iteri
    (fun pi (pname, _) ->
      let fmt_rounds li =
        match cell_of ((pi * nlevels) + li) with
        | Some o when o.Wear_policies.rounds >= max_rounds ->
            Printf.sprintf ">=%d rd" o.Wear_policies.rounds
        | Some o -> Printf.sprintf "%d rd" o.Wear_policies.rounds
        | None -> "DNF"
      in
      (* absorption / extension / promotion activity at the provisioned
         (last) DRAM level *)
      let abs_s, ext_s, promotes_s =
        match cell_of ((pi * nlevels) + nlevels - 1) with
        | Some o ->
            let a = absorption o.Wear_policies.m in
            ( Printf.sprintf "%.1f%%" (100.0 *. a),
              (if a < 1.0 then Printf.sprintf "%.2fx" (1.0 /. (1.0 -. a)) else "inf"),
              string_of_int o.Wear_policies.m.Holes.Metrics.hyb_promotes )
        | None -> ("-", "-", "-")
      in
      Holes_stdx.Table.add_row t
        [ pname; fmt_rounds 0; fmt_rounds 1; abs_s; ext_s; promotes_s ])
    policies;
  t
