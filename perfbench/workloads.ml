(** The benchmark's three workloads.

    A workload is run as repeated {e passes}: a fixed batch of
    simulator work whose inputs derive from the seed alone, so every
    pass of a run has the same simulated outcome (checked, through
    {!pass.digest}) and differs only in host time.  Host times come from
    each set-up call's and each timing unit's fastest repetition in the
    run; simulated metrics are the pass outcome, exact and
    host-independent.

    - [dacapo-static]: the paper's headline experiment — the DaCapo
      suite under Sticky Immix at 0% failures and failure-aware at 25%
      uniform and 25% 2-page-clustered failures, static backend,
      stop-the-world, trials inline.  Host time is all heap and core.
    - [wear-aging]: pmd in rounds on one device-backend VM (low
      endurance, 2-page clustering, 10% boot failures, random-remap
      leveling, migrate+caram tiering) until the device wears out.
      Host time is dominated by the pcm/osal write path.
    - [fleet-storm]: the fleet figure's "none + inc" row — 4 tenants
      over 2 devices, MMPP arrivals, failure storms, incremental GC —
      as 2 shards on 2 engine domains.  Device writes take the untiered
      path and collections are incremental. *)

open Holes_stdx
module Cfg = Holes.Config
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Generator = Holes_workload.Generator
module Profile = Holes_workload.Profile
module Engine = Holes_engine.Engine
module Job = Holes_engine.Job
module EPool = Holes_engine.Pool
module Report = Holes_fleet.Report
module Stats = Holes_obs.Stats

type pass = {
  setup_ns : int list array;
      (** host ns of each set-up call of the pass (a trial's
          [Vm.create], an [Engine.run]'s pool start): every repetition
          of the call the pass made, the one whose result was used
          among them.  The same calls in the same order every pass. *)
  work_ns : int array array;
      (** host ns of each timing unit of the work phase, in groups of
          units that run side by side: a trial or round alone, a
          fleet's shards together.  The same units in the same order
          every pass, so a run can compare each unit across passes. *)
  work : float;  (** work units done: simulated MB, or requests served *)
  words : float;
      (** OCaml minor-heap words the work phase allocated: exact for a
          seed and a build, whatever the host's speed *)
  sim : (string * float) list;  (** simulated results, exact for a seed *)
  digest : string;  (** every simulated outcome of the pass *)
  host : (string * float) list;  (** engine / shard host metrics *)
  attempted : int;  (** trials, rounds or shards run *)
  violations : string list;  (** one line per failed operation or check *)
  notes : string list;  (** how tail metrics were taken *)
}

type t = {
  name : string;
  work_unit : string;  (** what one unit of [work] is *)
  run_pass : Probe.t -> seed:int -> pass;
}

(** Every per-layer metric, in print order.  The traced run prints all
    of them for every workload; a layer a workload never reaches reads
    0.  The [sim.*] rows are the workload-specific simulated results
    (see README.md). *)
let per_layer_names : string list =
  [
    "core.create.busy_s"; "core.alloc.calls"; "core.alloc.busy_s"; "core.alloc.ns_p50";
    "core.alloc.ns_tail"; "core.alloc.minor_words_per_call"; "core.gc.calls";
    "core.gc.busy_s"; "core.gc.ms_p50"; "core.gc.ms_tail"; "core.kill.busy_s";
    "core.write_ref.busy_s"; "core.verify.busy_s"; "core.sim.mutator_ms"; "core.sim.gc_ms";
    "core.full_gcs"; "core.nursery_gcs"; "core.gc_increments"; "core.bytes_copied";
    "core.objects_evacuated"; "core.dynamic_failures"; "heap.hole_skips";
    "heap.lines_scanned"; "heap.lines_per_search"; "heap.blocks_assembled";
    "heap.overflow_allocs"; "heap.overflow_searches"; "heap.perfect_block_fallbacks";
    "heap.los_pages"; "heap.borrowed_pages"; "heap.perfect_requests"; "pcm.device_writes";
    "pcm.device_reads"; "pcm.line_failures"; "pcm.fbuf_peak"; "pcm.fbuf_stalls";
    "pcm.wl_remap_copies"; "pcm.wl_meta_writes"; "pcm.caram_dedup_hits";
    "pcm.caram_compressed"; "pcm.caram_meta_writes"; "pcm.wear_cov"; "pcm.absorb_frac";
    "osal.upcalls"; "osal.page_copies"; "osal.data_restores"; "osal.reverse_translations";
    "osal.swap_ins"; "osal.tier_promotes"; "osal.tier_demotes"; "osal.tier_dram_writes";
    "fleet.shard.busy_s"; "fleet.requests_arrived"; "fleet.requests_completed";
    "fleet.requests_failed"; "fleet.requests_dropped"; "fleet.evictions";
    "fleet.dead_tenants"; "fleet.sim.gc_ms"; "fleet.device_writes"; "fleet.device_failures";
    "engine.trials"; "engine.failed_trials"; "engine.busy_s"; "engine.wall_s";
    "engine.wait_s"; "engine.efficiency"; "engine.imbalance"; "work_per_s"; "sim.overhead";
    "sim.oom_frac"; "sim.rounds_to_wearout"; "sim.ms_per_round"; "sim.fleet_p50_ms";
    "sim.fleet_p99_ms"; "sim.fleet_goodput"; "trace_overhead";
  ]

(* ---- shared helpers ---- *)

let mb (bytes : int) : float = float_of_int bytes /. 1048576.0

(** The pause tail in ms, from [n] pauses (ns) and a quantile
    function over them: the highest ladder quantile with >= 10 pauses
    beyond it, and a note naming that quantile and the pause count.
    Every workload takes [sim_pause_ms_tail] through this.  Where a
    workload holds every pause the quantile is exact
    ({!pause_tail_of_list}); the fleet report keeps only a histogram,
    whose quantile interpolates inside a log2 bucket. *)
let pause_tail_ms ~(n : int) (quantile : float -> float) : float * string =
  match Probe.tail_q n with
  | None -> (0.0, Printf.sprintf "sim_pause_ms_tail = 0 (%d pauses, fewer than 10)" n)
  | Some q ->
      ( quantile q /. 1e6,
        Printf.sprintf "sim_pause_ms_tail = %s of %d pauses" (Probe.q_label q) n )

let pause_tail_of_list (pauses : float list) : float * string =
  pause_tail_ms ~n:(List.length pauses) (fun q ->
      Holes_stdx.Stats.percentile (q *. 100.0) pauses)

(* Accumulator for summed per-layer counts. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
  let addi (t : t) k v = add t k (float_of_int v)
  let max_ (t : t) k v = Hashtbl.replace t k (Float.max (get t k) v)
  let to_list (t : t) = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
end

(** Fold one VM's work counts into [acc], read through the layers'
    public accessors: [Vm.metrics] and [Vm.cost] (core, heap),
    [Page_stock.accounting] (heap), and on the device backend
    [Device.stats] with its [Caram.stats], [Tier.stats] and the
    interrupt/VMM counters synced into the metrics (pcm, osal). *)
let add_vm_counts (acc : Acc.t) (vm : Vm.t) : unit =
  Vm.sync_backend_stats vm;
  let m = Vm.metrics vm and c = Vm.cost vm in
  let a = Holes_heap.Page_stock.accounting (Vm.stock vm) in
  Acc.add acc "core.sim.mutator_ms" (Holes.Cost.mutator_ns c /. 1e6);
  Acc.add acc "core.sim.gc_ms" (Holes.Cost.gc_ns c /. 1e6);
  Acc.addi acc "core.full_gcs" m.Metrics.full_gcs;
  Acc.addi acc "core.nursery_gcs" m.Metrics.nursery_gcs;
  Acc.addi acc "core.gc_increments" m.Metrics.gc_increments;
  Acc.addi acc "core.bytes_copied" m.Metrics.bytes_copied;
  Acc.addi acc "core.objects_evacuated" m.Metrics.objects_evacuated;
  Acc.addi acc "core.dynamic_failures" m.Metrics.dynamic_failures;
  Acc.addi acc "heap.hole_skips" m.Metrics.hole_skips;
  Acc.addi acc "heap.lines_scanned" m.Metrics.lines_scanned;
  Acc.addi acc "heap.hole_searches" (Stats.count m.Metrics.hole_search_hist);
  Acc.addi acc "heap.blocks_assembled" m.Metrics.blocks_assembled;
  Acc.addi acc "heap.overflow_allocs" m.Metrics.overflow_allocs;
  Acc.addi acc "heap.overflow_searches" m.Metrics.overflow_searches;
  Acc.addi acc "heap.perfect_block_fallbacks" m.Metrics.perfect_block_fallbacks;
  Acc.addi acc "heap.los_pages" m.Metrics.los_pages;
  Acc.addi acc "heap.borrowed_pages" (Holes_osal.Accounting.total_borrowed a);
  Acc.addi acc "heap.perfect_requests" (Holes_osal.Accounting.perfect_requests a);
  match Vm.device_state vm with
  | None -> ()
  | Some st ->
      let d = Holes_pcm.Device.stats st.Holes.Memory_backend.device in
      Acc.addi acc "pcm.device_writes" d.Holes_pcm.Device.writes;
      Acc.addi acc "pcm.device_reads" d.Holes_pcm.Device.reads;
      Acc.addi acc "pcm.line_failures" d.Holes_pcm.Device.failures;
      let b = d.Holes_pcm.Device.buffer in
      Acc.max_ acc "pcm.fbuf_peak" (float_of_int b.Holes_pcm.Failure_buffer.max_occupancy);
      Acc.addi acc "pcm.fbuf_stalls" b.Holes_pcm.Failure_buffer.stall_events;
      (match d.Holes_pcm.Device.wl with
      | None -> ()
      | Some wl ->
          Acc.addi acc "pcm.wl_remap_copies" wl.Holes_pcm.Device.copies;
          Acc.addi acc "pcm.wl_meta_writes" wl.Holes_pcm.Device.meta_writes);
      (match d.Holes_pcm.Device.caram with
      | None -> ()
      | Some cs ->
          Acc.addi acc "pcm.caram_dedup_hits" cs.Holes_pcm.Caram.s_dedup_hits;
          Acc.addi acc "pcm.caram_compressed" cs.Holes_pcm.Caram.s_compressed;
          Acc.addi acc "pcm.caram_meta_writes" cs.Holes_pcm.Caram.s_meta_writes);
      Acc.max_ acc "pcm.wear_cov" (Holes_pcm.Device.wear_cov st.Holes.Memory_backend.device);
      Acc.addi acc "osal.upcalls" m.Metrics.os_upcalls;
      Acc.addi acc "osal.page_copies" m.Metrics.os_page_copies;
      Acc.addi acc "osal.data_restores" m.Metrics.os_data_restores;
      Acc.addi acc "osal.reverse_translations" m.Metrics.reverse_translations;
      Acc.addi acc "osal.swap_ins" m.Metrics.swap_ins;
      match st.Holes.Memory_backend.node.Holes.Memory_backend.n_tier with
      | None -> ()
      | Some tier ->
          let ts = Holes_osal.Tier.stats tier in
          Acc.addi acc "osal.tier_promotes" ts.Holes_osal.Tier.s_promotes;
          Acc.addi acc "osal.tier_demotes" ts.Holes_osal.Tier.s_demotes;
          Acc.addi acc "osal.tier_dram_writes" ts.Holes_osal.Tier.s_dram_writes

(* Derived per-layer ratios, from the summed counts. *)
let finish_counts (acc : Acc.t) : (string * float) list =
  let ratio num den = if den = 0.0 then 0.0 else num /. den in
  Hashtbl.replace acc "heap.lines_per_search"
    (ratio (Acc.get acc "heap.lines_scanned") (Acc.get acc "heap.hole_searches"));
  Hashtbl.remove acc "heap.hole_searches";
  let dram = Acc.get acc "osal.tier_dram_writes" in
  Hashtbl.replace acc "pcm.absorb_frac"
    (ratio
       (dram +. Acc.get acc "pcm.caram_dedup_hits" +. Acc.get acc "pcm.caram_compressed")
       (Acc.get acc "pcm.device_writes" +. dram));
  Acc.to_list acc

(* The whole simulated outcome of one VM run, for the pass digest. *)
let vm_outcome (res : Generator.result) : (string * float) list * float list * float list =
  ( ("time_ms", res.Generator.elapsed_ms)
    :: ("mutator_ms", res.Generator.mutator_ms)
    :: ("gc_ms", res.Generator.gc_ms)
    :: ("completed", if res.Generator.completed then 1.0 else 0.0)
    :: Metrics.to_fields res.Generator.metrics,
    res.Generator.metrics.Metrics.pauses_ns,
    res.Generator.metrics.Metrics.nursery_pauses_ns )

let digest (v : 'a) : string = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Engine host metrics over [Engine.run] calls given as (wall ns,
   trials): busy = summed job time, wait = idle domain time, imbalance
   = slowest job / mean job, averaged over the calls. *)
let engine_host ~(domains : int) (runs : (int * 'a Engine.trial array) list) :
    (string * float) list =
  let ns (t : 'a Engine.trial) = int_of_float (t.Engine.duration_s *. 1e9) in
  let all = List.concat_map (fun (_, ts) -> Array.to_list ts) runs in
  let busy = List.fold_left (fun a t -> a + ns t) 0 all in
  let wall = List.fold_left (fun a (w, _) -> a + w) 0 runs in
  let failed =
    List.length
      (List.filter
         (fun (t : 'a Engine.trial) ->
           match t.Engine.outcome with EPool.Done _ -> false | EPool.Failed _ -> true)
         all)
  in
  let imbalance (_, ts) =
    let d = Array.map ns ts in
    let sum = Array.fold_left ( + ) 0 d in
    if sum = 0 then 0.0
    else
      float_of_int (Array.fold_left max 0 d) *. float_of_int (Array.length d) /. float_of_int sum
  in
  let cap = domains * wall in
  [
    ("engine.trials", float_of_int (List.length all));
    ("engine.failed_trials", float_of_int failed);
    ("engine.busy_s", Clock.s_of_ns busy);
    ("engine.wall_s", Clock.s_of_ns wall);
    ("engine.wait_s", Clock.s_of_ns (max 0 (cap - busy)));
    ("engine.efficiency", if cap = 0 then 0.0 else float_of_int busy /. float_of_int cap);
    ( "engine.imbalance",
      match runs with
      | [] -> 0.0
      | _ ->
          List.fold_left (fun a r -> a +. imbalance r) 0.0 runs /. float_of_int (List.length runs)
    );
  ]

(* ---- dacapo-static ---- *)

let dacapo_scale = 0.25

let dacapo_cfgs : (string * Cfg.t) list =
  let base = Holes_exp.Figures.base_six in
  [
    ("S-IX 0%", base);
    ("FA 25% uniform", { base with Cfg.failure_rate = 0.25; failure_dist = Cfg.Uniform });
    ("FA 25% 2CL", { base with Cfg.failure_rate = 0.25; failure_dist = Cfg.Hw_cluster 2 });
  ]

(** How many times a pass makes each set-up call, so that every call
    has several timings per pass: a [dacapo-static] trial's
    [Vm.create] (the last VM is kept) and a [fleet-storm] fleet's
    engine pool start. *)
let setup_reps = 4

type dtrial = {
  d_setup_ns : int list;
  d_work_ns : int;
  d_words : float;
  d_bytes : int;
  d_completed : bool;
  d_time_ms : float;
  d_pauses : float list;  (** full + nursery, ns *)
  d_outcome : (string * float) list * float list * float list;
  d_violations : string list;
}

(** One dacapo-static trial, as [Holes_exp.Runner.run_trial] runs it:
    the config takes the job seed, the profile is scaled, and the
    allocation stream is seeded [seed lxor 0x5eed].  Its work counts
    are folded into [acc]. *)
let dacapo_trial (p : Probe.t) (acc : Acc.t) (spec : Job.spec) ~(seed : int) : dtrial =
  let cfg = { spec.Job.cfg with Cfg.seed } in
  let profile = Profile.scaled spec.Job.profile spec.Job.scale in
  let min_heap_bytes = Profile.min_heap profile in
  let reps = List.init (setup_reps - 1) (fun _ -> Drive.create_ns ~cfg ~min_heap_bytes) in
  let t0 = Clock.now () in
  let vm = Drive.create p ~cfg ~min_heap_bytes in
  let w0 = Clock.minor_words () in
  let t1 = Clock.now () in
  let res = Drive.run_profile p ~rng:(Xrng.of_seed (seed lxor 0x5eed)) vm profile in
  let t2 = Clock.now () in
  let words = Clock.minor_words () -. w0 in
  add_vm_counts acc vm;
  let m = res.Generator.metrics in
  let outcome = vm_outcome res in
  (* post-trial checks, outside the timed phase; the invariants hold
     right after a full collection, so settle the heap first *)
  let settled =
    res.Generator.completed
    && match Vm.collect vm ~full:true with () -> true | exception Vm.Out_of_memory -> false
  in
  {
    d_setup_ns = (t1 - t0) :: reps;
    d_work_ns = t2 - t1;
    d_words = words;
    d_bytes = m.Metrics.bytes_allocated;
    d_completed = res.Generator.completed;
    d_time_ms = res.Generator.elapsed_ms;
    d_pauses = m.Metrics.pauses_ns @ m.Metrics.nursery_pauses_ns;
    d_outcome = outcome;
    d_violations = Drive.check p vm ~invariants:settled;
  }

let dacapo_pass (p : Probe.t) ~(seed : int) : pass =
  let cfgs = List.map (fun (_, c) -> { c with Cfg.seed }) dacapo_cfgs in
  let specs =
    Engine.plan ~cfgs ~profiles:Holes_workload.Dacapo.suite ~scale:dacapo_scale ~seeds:1
  in
  (* trials run inline, in order, so they can share the index and the
     count accumulator *)
  let next = ref 0 and acc = Acc.create () in
  let f spec ~seed:tseed =
    let i = !next in
    incr next;
    Probe.span p ~trial:i "trial" (fun () -> dacapo_trial p acc spec ~seed:tseed)
  in
  let t0 = Clock.now () in
  let trials = Probe.span p "engine.run" (fun () -> Engine.run ~jobs:1 ~f specs) in
  let wall_ns = Clock.now () - t0 in
  let violations = ref [] and done_ = ref [] in
  Array.iteri
    (fun i (t : dtrial Engine.trial) ->
      let cell = Job.label t.Engine.spec in
      match t.Engine.outcome with
      | EPool.Failed { exn; _ } ->
          violations := Printf.sprintf "trial %d (%s) crashed: %s" i cell exn :: !violations
      | EPool.Done d ->
          List.iter
            (fun e -> violations := Printf.sprintf "trial %d (%s): %s" i cell e :: !violations)
            d.d_violations;
          done_ := (i, d) :: !done_)
    trials;
  let done_ = List.rev !done_ in
  let ds = List.map snd done_ in
  let sum f = List.fold_left (fun a d -> a + f d) 0 ds in
  let bytes = sum (fun d -> d.d_bytes) in
  (* sim_overhead: geomean over (profile, failure-aware config) pairs of
     time / the profile's 0% time, over pairs where both completed *)
  let ncfg = List.length dacapo_cfgs in
  let by_index = Hashtbl.create 64 in
  List.iter (fun (i, d) -> Hashtbl.replace by_index i d) done_;
  let nprof = Array.length specs / ncfg in
  let ratios = ref [] in
  for pi = 0 to nprof - 1 do
    match Hashtbl.find_opt by_index pi with
    | Some b when b.d_completed && b.d_time_ms > 0.0 ->
        for ci = 1 to ncfg - 1 do
          match Hashtbl.find_opt by_index ((ci * nprof) + pi) with
          | Some d when d.d_completed -> ratios := (d.d_time_ms /. b.d_time_ms) :: !ratios
          | _ -> ()
        done
    | _ -> ()
  done;
  let overhead = match !ratios with [] -> 0.0 | rs -> Holes_stdx.Stats.geomean rs in
  let ooms = List.length (List.filter (fun d -> not d.d_completed) ds) in
  let tail, tail_note = pause_tail_of_list (List.concat_map (fun d -> d.d_pauses) ds) in
  let time_ms = List.fold_left (fun a d -> a +. d.d_time_ms) 0.0 ds in
  {
    setup_ns =
      Array.map
        (fun (t : dtrial Engine.trial) ->
          match t.Engine.outcome with EPool.Done d -> d.d_setup_ns | EPool.Failed _ -> [])
        trials;
    work_ns =
      Array.map
        (fun (t : dtrial Engine.trial) ->
          match t.Engine.outcome with
          | EPool.Done d -> [| d.d_work_ns |]
          | EPool.Failed _ -> [| 0 |])
        trials;
    work = mb bytes;
    words = List.fold_left (fun a d -> a +. d.d_words) 0.0 ds;
    sim =
      [
        ("sim_pause_ms_tail", tail);
        ("sim_ms_per_work", if bytes = 0 then 0.0 else time_ms /. mb bytes);
        ("sim.overhead", overhead);
        ("sim.oom_frac", float_of_int ooms /. float_of_int (Array.length specs));
      ]
      @ finish_counts acc;
    digest = digest (List.map (fun d -> d.d_outcome) ds);
    host = engine_host ~domains:1 [ (wall_ns, trials) ];
    attempted = Array.length specs;
    violations = List.rev !violations;
    notes = [ tail_note ];
  }

(* ---- wear-aging ---- *)

let wear_scale = 0.125
let wear_max_rounds = 400

(** After every this many rounds the lifetime repeats its [Vm.create]
    once more, so the set-up call is timed many times, interleaved with
    the work. *)
let wear_setup_every = 4

(** The wearlevel figure's random-remap cell (endurance 12, 2-page
    clustering, 10% uniform boot failures) with migrate+caram tiering
    on top. *)
let wear_cfg ~(seed : int) : Cfg.t =
  let base =
    Holes_exp.Wear_policies.cell_cfg ~model:Cfg.From_dist
      ~policy:(Some (Holes_pcm.Wear_level.Random_remap { psi = Holes_exp.Wear_policies.psi }))
  in
  let hybrid =
    match Holes_pcm.Hybrid.of_cli "migrate+caram" with Ok h -> h | Error e -> invalid_arg e
  in
  { base with Cfg.hybrid; seed }

(* One device lifetime: the pass minus its engine metrics. *)
let wear_trial (p : Probe.t) (spec : Job.spec) : pass =
  let cfg = spec.Job.cfg in
  let profile = Profile.scaled spec.Job.profile spec.Job.scale in
  Probe.span p ~trial:0 "trial" (fun () ->
      let min_heap_bytes = Profile.min_heap profile in
      let t0 = Clock.now () in
      let vm = Drive.create p ~cfg ~min_heap_bytes in
      let setup = ref [ Clock.now () - t0 ] in
      let between r =
        if r mod wear_setup_every = 0 then
          setup := Drive.create_ns ~cfg ~min_heap_bytes :: !setup
      in
      let life =
        Drive.lifetime ~between p ~cfg vm ~profile ~max_rounds:wear_max_rounds ~checks:true
      in
      let m = Vm.metrics vm in
      let acc = Acc.create () in
      add_vm_counts acc vm;
      let tail, tail_note =
        pause_tail_of_list (m.Metrics.pauses_ns @ m.Metrics.nursery_pauses_ns)
      in
      let final = Drive.check p vm ~invariants:false in
      let rounds = life.Drive.rounds in
      let cell = Job.label spec in
      let violations =
        List.map (fun e -> Printf.sprintf "trial 0 (%s) %s" cell e) life.Drive.violations
        @ List.map (fun e -> Printf.sprintf "trial 0 (%s) end of life: %s" cell e) final
        @
        if rounds >= wear_max_rounds then
          [ Printf.sprintf "trial 0 (%s): no wear-out within %d rounds" cell wear_max_rounds ]
        else []
      in
      {
        setup_ns = [| !setup |];
        work_ns = Array.of_list (List.map (fun ns -> [| ns |]) life.Drive.round_ns);
        work = mb m.Metrics.bytes_allocated;
        words = life.Drive.words;
        sim =
          [
            ("sim_pause_ms_tail", tail);
            ("sim_ms_per_work", Vm.elapsed_ms vm /. mb m.Metrics.bytes_allocated);
            ("sim.rounds_to_wearout", float_of_int rounds);
            ( "sim.ms_per_round",
              if rounds = 0 then 0.0 else life.Drive.round_end_ms /. float_of_int rounds );
          ]
          @ finish_counts acc;
        digest =
          digest
            ( rounds,
              life.Drive.round_end_ms,
              Vm.elapsed_ms vm,
              Metrics.to_fields m,
              m.Metrics.pauses_ns,
              m.Metrics.nursery_pauses_ns );
        host = [];
        attempted = rounds + 1;
        violations;
        notes = [ tail_note ];
      })

let wear_pass (p : Probe.t) ~(seed : int) : pass =
  let spec =
    {
      Job.cfg = wear_cfg ~seed;
      profile = Holes_workload.Dacapo.pmd;
      scale = wear_scale;
      seed_index = 0;
    }
  in
  let t0 = Clock.now () in
  (* the round seeds come from cfg.seed, as in lifetime_run, not from
     the engine's derived seed *)
  let trials = Engine.run ~jobs:1 ~f:(fun spec ~seed:_ -> wear_trial p spec) [| spec |] in
  let host = engine_host ~domains:1 [ (Clock.now () - t0, trials) ] in
  match trials.(0).Engine.outcome with
  | EPool.Done pass -> { pass with host }
  | EPool.Failed { exn; _ } ->
      {
        setup_ns = [||];
        work_ns = [||];
        work = 0.0;
        words = 0.0;
        sim = [];
        digest = "";
        host;
        attempted = 1;
        violations = [ Printf.sprintf "trial 0 (%s) crashed: %s" (Job.label spec) exn ];
        notes = [];
      }

(* ---- fleet-storm ---- *)

let fleet_jobs = 2

(** The fleet figure's quick "none + inc" row. *)
let fleet_params ~(seed : int) : Holes_fleet.Sim.params =
  let p =
    Holes_exp.Fleet_figure.fleet_params ~tenants:4 ~devices:2 ~policy:None ~wear_aware:false
      ~gc_slice:Holes_exp.Fleet_figure.inc_budget
  in
  { p with Holes_fleet.Sim.cfg = { p.Holes_fleet.Sim.cfg with Cfg.seed } }

(** Independent fleets per pass (seeds [seed * fleet_runs + k]): their
    shards pool into one report, so the latency and pause tails rest
    on several fleets' storms rather than one. *)
let fleet_runs = 8

let fleet_pass (p : Probe.t) ~(seed : int) : pass =
  let violations = ref [] and busy = ref 0 in
  let fleets =
    List.init fleet_runs (fun k ->
        let params = fleet_params ~seed:((seed * fleet_runs) + k) in
        (* the last fleet's VMs are garbage by now: collect them, so the
           peak resident set is one fleet's own and not an accident of
           when the major GC last finished across the two domains *)
        Gc.full_major ();
        let setup_ns = List.init setup_reps (fun _ -> Drive.pool_start_ns ~jobs:fleet_jobs) in
        let t0 = Clock.now () in
        let run = Drive.fleet ~jobs:fleet_jobs params in
        let engine_span =
          if p.Probe.on then
            Probe.add_span p ~name:"engine.run" ~parent:p.Probe.parent ~trial:k ~t0
              ~t1:(Clock.now ())
          else -1
        in
        Array.iteri
          (fun i (t : Drive.shard Engine.trial) ->
            match t.Engine.outcome with
            | EPool.Failed { exn; _ } ->
                violations :=
                  Printf.sprintf "fleet %d shard %d (%s) crashed: %s" k i
                    (Job.label t.Engine.spec) exn
                  :: !violations
            | EPool.Done s ->
                busy := !busy + (s.Drive.t1 - s.Drive.t0);
                if p.Probe.on then
                  ignore
                    (Probe.add_span p ~name:"shard" ~parent:engine_span ~trial:k
                       ~t0:s.Drive.t0 ~t1:s.Drive.t1))
          run.Drive.shards;
        (params, setup_ns, run))
  in
  let params, _, _ = List.hd fleets in
  let r =
    Report.merge ~duration_ms:params.Holes_fleet.Sim.duration_ms
      ~tenants:(fleet_runs * params.Holes_fleet.Sim.tenants)
      (List.concat_map (fun (_, _, run) -> run.Drive.parts) fleets)
  in
  let offered = r.Report.completed + r.Report.failed + r.Report.dropped in
  let tail, tail_note =
    pause_tail_ms ~n:(Stats.count r.Report.gc_pause) (Stats.quantile ~interp:true r.Report.gc_pause)
  in
  let f = float_of_int in
  {
    setup_ns = Array.of_list (List.map (fun (_, setup_ns, _) -> setup_ns) fleets);
    work_ns =
      Array.of_list
        (List.map
           (fun (_, _, run) ->
             Array.map
               (fun (t : Drive.shard Engine.trial) ->
                 match t.Engine.outcome with
                 | EPool.Done s -> s.Drive.t1 - s.Drive.t0
                 | EPool.Failed _ -> 0)
               run.Drive.shards)
           fleets);
    work = f r.Report.completed;
    words =
      List.fold_left
        (fun a (_, _, run) ->
          Array.fold_left
            (fun a (t : Drive.shard Engine.trial) ->
              match t.Engine.outcome with EPool.Done s -> a +. s.Drive.words | EPool.Failed _ -> a)
            a run.Drive.shards)
        0.0 fleets;
    sim =
      [
        ("sim_pause_ms_tail", tail);
        ("sim_ms_per_work", Stats.mean r.Report.latency /. 1e6);
        ("sim.fleet_p50_ms", r.Report.p50_ms);
        ("sim.fleet_p99_ms", r.Report.p99_ms);
        ("sim.fleet_goodput", if offered = 0 then 0.0 else f r.Report.good /. f offered);
        ("fleet.requests_arrived", f r.Report.arrived);
        ("fleet.requests_completed", f r.Report.completed);
        ("fleet.requests_failed", f r.Report.failed);
        ("fleet.requests_dropped", f r.Report.dropped);
        ("fleet.evictions", f r.Report.evictions);
        ("fleet.dead_tenants", f r.Report.dead_tenants);
        ("fleet.sim.gc_ms", r.Report.gc_ms);
        ("fleet.device_writes", f r.Report.device_writes);
        ("fleet.device_failures", f r.Report.device_failures);
        ("pcm.device_writes", f r.Report.device_writes);
        ("pcm.line_failures", f r.Report.device_failures);
        ("pcm.wear_cov", r.Report.wear_cov_mean);
      ];
    digest = digest (Report.fields r, r.Report.latency, r.Report.gc_pause, r.Report.epoch);
    host =
      ("fleet.shard.busy_s", Clock.s_of_ns !busy)
      :: engine_host ~domains:fleet_jobs
           (List.map (fun (_, _, run) -> (run.Drive.wall_ns, run.Drive.shards)) fleets);
    attempted = fleet_runs * params.Holes_fleet.Sim.devices;
    violations = List.rev !violations;
    notes = [ tail_note ];
  }

let all : t list =
  [
    {
      name = "dacapo-static";
      work_unit = "MB";
      run_pass = dacapo_pass;
    };
    {
      name = "wear-aging";
      work_unit = "MB";
      run_pass = wear_pass;
    };
    {
      name = "fleet-storm";
      work_unit = "request";
      run_pass = fleet_pass;
    };
  ]

let find (name : string) : t option = List.find_opt (fun w -> w.name = name) all
