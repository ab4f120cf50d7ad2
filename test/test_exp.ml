(* Tests for the experiment harness: runner memoization, normalization,
   DNF handling, wear-ablation map synthesis, and one end-to-end figure
   smoke test. *)

module R = Holes_exp.Runner
module Cfg = Holes.Config
module Bitset = Holes_stdx.Bitset

let check = Alcotest.check

let tiny = { R.scale = 0.05; seeds = 2; jobs = 1 }

let test_runner_basic () =
  let o = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  check Alcotest.int "all trials ran" 2 o.R.trials;
  check Alcotest.int "all completed" 2 o.R.completed;
  match R.time_if_all_completed o with
  | Some t -> Alcotest.(check bool) "positive time" true (t > 0.0)
  | None -> Alcotest.fail "expected time"

let test_runner_memoizes () =
  let o1 = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  let o2 = R.run ~params:tiny ~cfg:Cfg.default ~profile:Holes_workload.Dacapo.luindex () in
  Alcotest.(check bool) "same cached outcome" true (o1 == o2)

(* [Config.name] shows the endurance only, so the cache key must spell
   out the correction budget: configs differing in ECP entries or in
   their extension must not share a memo entry *)
let test_runner_key_ecp () =
  let d = Cfg.default_device in
  let with_wear f = { Cfg.default with Cfg.backend = Cfg.Device { d with Cfg.wear = f d.Cfg.wear } } in
  let base = with_wear Fun.id in
  let fewer = with_wear (fun w -> { w with Holes_pcm.Wear.ecp_entries = 0 }) in
  let shorter = with_wear (fun w -> { w with Holes_pcm.Wear.ecp_extension = 0.5 }) in
  let profile = Holes_workload.Dacapo.luindex in
  check Alcotest.string "names stay the same" (Cfg.name base) (Cfg.name fewer);
  check Alcotest.string "names stay the same" (Cfg.name base) (Cfg.name shorter);
  let keys = List.map (fun c -> R.cache_key c profile tiny) [ base; fewer; shorter ] in
  check Alcotest.int "three distinct keys" 3 (List.length (List.sort_uniq compare keys))

let test_runner_seed_variation () =
  (* different seeds produce (at least slightly) different times *)
  let o = R.run ~params:{ R.scale = 0.05; seeds = 3; jobs = 1 } ~cfg:Cfg.default
      ~profile:Holes_workload.Dacapo.bloat () in
  match o.R.time_ms with
  | Some s -> Alcotest.(check bool) "variance across seeds" true (s.Holes_stdx.Stats.max > s.Holes_stdx.Stats.min)
  | None -> Alcotest.fail "expected summary"

let test_geomean_normalized_baseline_is_one () =
  let profiles = [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.avrora ] in
  match
    R.geomean_normalized ~params:tiny ~cfg:Cfg.default ~base:Cfg.default ~profiles ()
  with
  | Some g -> check (Alcotest.float 1e-9) "self-normalization = 1" 1.0 g
  | None -> Alcotest.fail "expected geomean"

let test_wear_map_properties () =
  let rng = Holes_stdx.Xrng.of_seed 1 in
  let nlines = 64 * 64 in
  let leveled = Holes_exp.Wear_ablation.wear_map rng ~nlines ~rate:0.2 ~leveled:true in
  let rng2 = Holes_stdx.Xrng.of_seed 1 in
  let unleveled = Holes_exp.Wear_ablation.wear_map rng2 ~nlines ~rate:0.2 ~leveled:false in
  check Alcotest.int "leveled exact count" (nlines / 5) (Bitset.count leveled);
  check Alcotest.int "unleveled exact count" (nlines / 5) (Bitset.count unleveled);
  (* concentrated wear leaves more perfect pages *)
  Alcotest.(check bool) "unleveled concentrates failures" true
    (Holes_pcm.Failure_map.perfect_pages unleveled > Holes_pcm.Failure_map.perfect_pages leveled)

let contains (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_headline_figure_smoke () =
  (* end-to-end: the headline table renders with plausible content *)
  let t = Holes_exp.Figures.headline ~params:tiny () in
  let s = Holes_stdx.Table.render t in
  Alcotest.(check bool) "mentions clustering" true (contains s "2-page clustering");
  Alcotest.(check bool) "has overhead or DNF cells" true
    (contains s "%" || contains s "DNF")

let test_pauses_figure_smoke () =
  let t = Holes_exp.Figures.pauses ~params:tiny () in
  let s = Holes_stdx.Table.render t in
  Alcotest.(check bool) "row per benchmark" true (contains s "hsqldb" && contains s "xalan")

let suite =
  [
    ("runner basic", `Quick, test_runner_basic);
    ("runner memoizes", `Quick, test_runner_memoizes);
    ("runner key spells out the ECP budget", `Quick, test_runner_key_ecp);
    ("runner seed variation", `Quick, test_runner_seed_variation);
    ("geomean self-normalization", `Quick, test_geomean_normalized_baseline_is_one);
    ("wear map properties", `Quick, test_wear_map_properties);
    ("headline figure smoke", `Slow, test_headline_figure_smoke);
    ("pauses figure smoke", `Slow, test_pauses_figure_smoke);
  ]
