(** The benchmark's drivers: they issue the simulator's calls
    themselves so each one can be timed from outside.

    Each driver replays one of the library's own drivers call for call
    — {!run_profile} is [Holes_workload.Generator.run], {!lifetime} is
    [Holes_exp.Wear_policies.lifetime_run] and {!fleet} is
    [Holes_fleet.Sim.run] — and the fidelity tests hold them to
    identical simulated results for a fixed seed.  With the probe off
    the wrappers call straight through. *)

open Holes_stdx
module Vm = Holes.Vm
module Metrics = Holes.Metrics
module Generator = Holes_workload.Generator
module Profile = Holes_workload.Profile
module Engine = Holes_engine.Engine
module Job = Holes_engine.Job
module EPool = Holes_engine.Pool
module Sim = Holes_fleet.Sim
module Report = Holes_fleet.Report

(* ---- timed calls into the VM ---- *)

let create (p : Probe.t) ~(cfg : Holes.Config.t) ~(min_heap_bytes : int) : Vm.t =
  let t0 = Clock.now () in
  let vm = Vm.create ~cfg ~min_heap_bytes () in
  p.Probe.create_ns <- p.Probe.create_ns + (Clock.now () - t0);
  vm

(** Host ns of a [Vm.create] whose VM is thrown away: a repetition of a
    set-up call, made only to time it (the probe does not count it). *)
let create_ns ~(cfg : Holes.Config.t) ~(min_heap_bytes : int) : int =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (Vm.create ~cfg ~min_heap_bytes ()));
  Clock.now () - t0

let[@inline] collections (m : Metrics.t) : int =
  m.Metrics.full_gcs + m.Metrics.nursery_gcs + m.Metrics.gc_increments

(* A call counts as collecting when a collection counter advanced
   during it; otherwise it is an allocation-path sample. *)
let alloc_done (p : Probe.t) (vm : Vm.t) ~(gcs0 : int) ~(t0 : int) ~(t1 : int) ~(words : int) :
    unit =
  if collections (Vm.metrics vm) <> gcs0 then Probe.gc_call p ~t0 ~t1
  else begin
    p.Probe.alloc_calls <- p.Probe.alloc_calls + 1;
    p.Probe.alloc_ns <- p.Probe.alloc_ns + (t1 - t0);
    p.Probe.alloc_words <- p.Probe.alloc_words + words;
    Holes_obs.Stats.observe p.Probe.alloc_hist (float_of_int (t1 - t0))
  end

let alloc (p : Probe.t) (vm : Vm.t) ~(pinned : bool) ~(size : int) : int =
  if not p.Probe.on then Vm.alloc vm ~pinned ~size ()
  else begin
    let gcs0 = collections (Vm.metrics vm) in
    let w0 = Clock.minor_words () in
    let t0 = Clock.now () in
    match Vm.alloc vm ~pinned ~size () with
    | id ->
        let t1 = Clock.now () in
        let words = int_of_float (Clock.minor_words () -. w0) in
        alloc_done p vm ~gcs0 ~t0 ~t1 ~words;
        id
    | exception e ->
        let t1 = Clock.now () in
        let words = int_of_float (Clock.minor_words () -. w0) in
        alloc_done p vm ~gcs0 ~t0 ~t1 ~words;
        raise e
  end

let collect (p : Probe.t) (vm : Vm.t) ~(full : bool) : unit =
  if not p.Probe.on then Vm.collect vm ~full
  else begin
    let gcs0 = collections (Vm.metrics vm) in
    let t0 = Clock.now () in
    let finish () =
      let t1 = Clock.now () in
      if collections (Vm.metrics vm) <> gcs0 then Probe.gc_call p ~t0 ~t1
    in
    match Vm.collect vm ~full with
    | () -> finish ()
    | exception e ->
        finish ();
        raise e
  end

let kill (p : Probe.t) (vm : Vm.t) (id : int) : unit =
  if not p.Probe.on then Vm.kill vm id
  else begin
    let t0 = Clock.now () in
    Vm.kill vm id;
    p.Probe.kill_ns <- p.Probe.kill_ns + (Clock.now () - t0)
  end

let write_ref (p : Probe.t) (vm : Vm.t) ~(src : int) ~(dst : int) : unit =
  if not p.Probe.on then Vm.write_ref vm ~src ~dst
  else begin
    let t0 = Clock.now () in
    Vm.write_ref vm ~src ~dst;
    p.Probe.write_ref_ns <- p.Probe.write_ref_ns + (Clock.now () - t0)
  end

(** The end-of-trial checks, outside the timed phase: the paranoid
    verifier always, and the post-collection invariants when
    [invariants] (they hold only right after a full collection).
    Returns the violations found. *)
let check (p : Probe.t) (vm : Vm.t) ~(invariants : bool) : string list =
  let t0 = Clock.now () in
  let errors = (Vm.verify vm).Holes.Verify.errors in
  let errors =
    if not invariants then errors
    else match Vm.check_invariants vm with Ok () -> errors | Error e -> errors @ [ e ]
  in
  p.Probe.verify_ns <- p.Probe.verify_ns + (Clock.now () - t0);
  errors

(* ---- Generator.run, call for call ---- *)

(** [Holes_workload.Generator.run ~rng vm profile], issuing every VM
    call through the probe. *)
let run_profile (p : Probe.t) ~(rng : Xrng.t) (vm : Vm.t) (profile : Profile.t) :
    Generator.result =
  let dist = Generator.category_dist profile in
  let deaths : int Heapq.t = Heapq.create ~dummy:(-1) in
  let pool_size = 1024 in
  let pool = Array.make pool_size (-1) in
  let completed = ref true in
  (try
     let imm = ref 0 in
     while !imm < profile.Profile.immortal do
       let size = min 2048 (max 32 (Generator.sample_size rng profile dist)) in
       ignore (alloc p vm ~pinned:false ~size);
       imm := !imm + size
     done;
     let clock = ref 0 in
     while !clock < profile.Profile.volume do
       let size = Generator.sample_size rng profile dist in
       let pinned = Xrng.float rng < profile.Profile.pin_rate in
       let id = alloc p vm ~pinned ~size in
       let lifetime = Generator.sample_lifetime rng profile in
       Heapq.push deaths ~key:(!clock + lifetime) id;
       pool.(Xrng.int rng pool_size) <- id;
       if Xrng.float rng < profile.Profile.mutation_rate then begin
         let src = pool.(Xrng.int rng pool_size) in
         if src >= 0 && src <> id && Holes_heap.Object_table.is_alive (Vm.objects vm) src then
           write_ref p vm ~src ~dst:id
       end;
       clock := !clock + size;
       let rec reap () =
         match Heapq.min_key deaths with
         | Some k when k <= !clock -> (
             match Heapq.pop deaths with
             | Some (_, dead) ->
                 kill p vm dead;
                 reap ()
             | None -> ())
         | _ -> ()
       in
       reap ()
     done
   with Vm.Out_of_memory -> completed := false);
  Vm.sync_backend_stats vm;
  let cost = Vm.cost vm in
  {
    Generator.completed = !completed;
    profile;
    elapsed_ms = Holes.Cost.total_ms cost;
    metrics = Vm.metrics vm;
    mutator_ms = Holes.Cost.mutator_ns cost /. 1e6;
    gc_ms = Holes.Cost.gc_ns cost /. 1e6;
  }

(* ---- Wear_policies.lifetime_run, call for call ---- *)

type lifetime = {
  vm : Vm.t;
  rounds : int;  (** rounds completed before end of life (or the cap) *)
  round_ns : int list;  (** host ns of each round attempted, checks excluded *)
  words : float;  (** minor-heap words the rounds allocated, checks excluded *)
  round_end_ms : float;  (** virtual ms at the end of the last completed round *)
  violations : string list;  (** end-of-round check failures, "round N: ..." *)
}

exception Worn_out

(** [Wear_policies.lifetime_run] on an already created [vm]: rounds of
    [profile] (already scaled) until the device wears out or
    [max_rounds], each round's objects killed and a full collection run
    after it.  With [checks], the verifier and the post-collection
    invariants run after every completed round, outside the work, and
    then [between] with the rounds completed so far. *)
let lifetime ?(between : int -> unit = ignore) (p : Probe.t) ~(cfg : Holes.Config.t) (vm : Vm.t)
    ~(profile : Profile.t) ~(max_rounds : int) ~(checks : bool) : lifetime =
  let rounds = ref 0 and round_end_ms = ref 0.0 and violations = ref [] and round_ns = ref [] in
  let words = ref 0.0 in
  (try
     while !rounds < max_rounds do
       let w0 = Clock.minor_words () in
       let t0 = Clock.now () in
       let timed () =
         round_ns := (Clock.now () - t0) :: !round_ns;
         words := !words +. (Clock.minor_words () -. w0)
       in
       (match
          Probe.span p "round" (fun () ->
              let rng = Xrng.of_seed (cfg.Holes.Config.seed + (31 * !rounds)) in
              let res = run_profile p ~rng vm profile in
              if not res.Generator.completed then raise Worn_out;
              incr rounds;
              let objs = Vm.objects vm in
              Holes_heap.Object_table.iter_slots objs (fun id ->
                  if Holes_heap.Object_table.is_alive objs id then kill p vm id);
              collect p vm ~full:true;
              round_end_ms := Vm.elapsed_ms vm)
        with
       | () -> timed ()
       | exception e ->
           timed ();
           raise e);
       if checks then
         List.iter
           (fun e -> violations := Printf.sprintf "round %d: %s" !rounds e :: !violations)
           (check p vm ~invariants:true);
       between !rounds
     done
   with Worn_out | Vm.Out_of_memory -> ());
  Vm.sync_backend_stats vm;
  {
    vm;
    rounds = !rounds;
    round_ns = List.rev !round_ns;
    words = !words;
    round_end_ms = !round_end_ms;
    violations = List.rev !violations;
  }

(* ---- Fleet.Sim.run, shard by shard ---- *)

type shard = {
  part : Report.partial;
  t0 : int;
  t1 : int;
  words : float;  (** minor-heap words the shard allocated on its domain *)
}

type fleet = {
  report : Report.t;
  parts : Report.partial list;  (** the completed shards, device order *)
  shards : shard Engine.trial array;
  wall_ns : int;  (** host ns of the [Engine.run] call *)
}

(** [Holes_fleet.Sim.run ~jobs p] with each [Sim.run_device] call
    timed on its worker domain: one engine job per device shard, merged
    in device order with crashed shards left out, as [Sim.run] does. *)
let fleet ~(jobs : int) (p : Sim.params) : fleet =
  (match Sim.validate p with Ok () -> () | Error e -> invalid_arg ("Drive.fleet: " ^ e));
  let f (spec : Job.spec) ~(seed : int) : shard =
    let w0 = Clock.minor_words () in
    let t0 = Clock.now () in
    let part =
      Sim.run_device p ~device_index:spec.Job.seed_index ~seed ~view:Holes_obs.Trace.null
    in
    let t1 = Clock.now () in
    { part; t0; t1; words = Clock.minor_words () -. w0 }
  in
  let t0 = Clock.now () in
  let shards = Engine.run ~jobs ~f (Sim.specs p) in
  let wall_ns = Clock.now () - t0 in
  let parts =
    Array.to_list shards
    |> List.filter_map (fun (t : shard Engine.trial) ->
           match t.Engine.outcome with EPool.Done s -> Some s.part | EPool.Failed _ -> None)
  in
  {
    report = Report.merge ~duration_ms:p.Sim.duration_ms ~tenants:p.Sim.tenants parts;
    parts;
    shards;
    wall_ns;
  }

(** Host ns of one engine domain pool started and joined: the set-up
    each [Engine.run] call with [jobs] domains does before its first
    job.  Inside [Sim.run_device] the fleet's own set-up (the device
    node and its tenant VMs) cannot be told apart from its run, so it
    stays in the shard's time. *)
let pool_start_ns ~(jobs : int) : int =
  let t0 = Clock.now () in
  EPool.shutdown (EPool.create ~domains:jobs ());
  Clock.now () - t0
