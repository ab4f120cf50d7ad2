(** The workload executor: drives a {!Holes.Vm} with the allocation,
    lifetime and mutation behaviour described by a {!Profile}.

    Lifetimes are measured in bytes of subsequent allocation (the
    standard GC-literature clock); the executor maintains a death queue
    and kills objects as the clock passes their death time, so the live
    set follows the profile's steady-state target by Little's law.
    Mutation stores references from random older live objects to fresh
    ones, exercising the write barrier and remembered set. *)

open Holes_stdx

type result = {
  completed : bool;  (** false when the VM ran out of memory *)
  profile : Profile.t;
  elapsed_ms : float;
  metrics : Holes.Metrics.t;
  mutator_ms : float;
  gc_ms : float;
}

(* Sampled object size categories.  Medium bounds are fixed (they model
   the workload, not the collector configuration). *)
let medium_lo = 320
let medium_hi = Holes_heap.Units.los_threshold (* 8 KB *)

let sample_log_uniform (rng : Xrng.t) ~(lo : int) ~(hi : int) : int =
  let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
  int_of_float (exp (llo +. (Xrng.float rng *. (lhi -. llo))))

(* mean of a log-uniform distribution on [lo, hi] *)
let log_uniform_mean ~(lo : int) ~(hi : int) : float =
  let a = float_of_int lo and b = float_of_int hi in
  (b -. a) /. (log b -. log a)

type category = Small | Medium | Large

let category_dist (p : Profile.t) : category Dist.Discrete.t =
  let small_frac = max 0.0 (1.0 -. p.Profile.medium_frac -. p.Profile.large_frac) in
  let mean_small = p.Profile.small_mean in
  let mean_medium = log_uniform_mean ~lo:medium_lo ~hi:medium_hi in
  let mean_large = log_uniform_mean ~lo:(medium_hi + 64) ~hi:p.Profile.large_max in
  (* category weights proportional to bytes / mean-size = object counts *)
  Dist.Discrete.make
    [
      (small_frac /. mean_small, Small);
      (p.Profile.medium_frac /. mean_medium, Medium);
      (p.Profile.large_frac /. mean_large, Large);
    ]

let sample_size (rng : Xrng.t) (p : Profile.t) (dist : category Dist.Discrete.t) : int =
  match Dist.Discrete.sample dist rng with
  | Small ->
      (* geometric-ish around the mean, clamped to the small range *)
      let s = int_of_float (Dist.exponential rng ~mean:(p.Profile.small_mean -. 16.0)) + 16 in
      Int.min 304 (Int.max 16 s)
  | Medium -> sample_log_uniform rng ~lo:medium_lo ~hi:medium_hi
  | Large -> sample_log_uniform rng ~lo:(medium_hi + 64) ~hi:p.Profile.large_max

(* Lifetime in bytes-of-allocation: a short/long mixture whose mean is
   the live target (Little's law). *)
let sample_lifetime (rng : Xrng.t) (p : Profile.t) : int =
  let lt = float_of_int p.Profile.live_target in
  let s = p.Profile.short_frac in
  let mean_short = 0.06 *. lt in
  let mean_long = (lt -. (s *. mean_short)) /. (1.0 -. s) in
  (* [Stdlib.max mean_short mean_long] without boxing its float arguments *)
  let mean_long = if mean_short >= mean_long then mean_short else mean_long in
  let mean = if Xrng.float rng < s then mean_short else mean_long in
  1 + int_of_float (Dist.exponential rng ~mean)

(** Run [profile] against [vm].  [rng] drives all sampling.  Returns the
    run's metrics; an out-of-memory VM yields [completed = false] (the
    paper's "some configurations cannot execute some of the
    benchmarks"). *)
let run ?(rng : Xrng.t option) (vm : Holes.Vm.t) (profile : Profile.t) : result =
  let rng = match rng with Some r -> r | None -> Xrng.of_seed 7 in
  let dist = category_dist profile in
  let deaths : int Heapq.t = Heapq.create ~dummy:(-1) in
  (* pool of recent allocations for mutation sources *)
  let pool_size = 1024 in
  let pool = Array.make pool_size (-1) in
  let completed = ref true in
  (try
     (* immortal base: plain small/medium objects that never die *)
     let imm = ref 0 in
     while !imm < profile.Profile.immortal do
       let size = Int.min 2048 (Int.max 32 (sample_size rng profile dist)) in
       ignore (Holes.Vm.alloc vm ~size ());
       imm := !imm + size
     done;
     let clock = ref 0 in
     while !clock < profile.Profile.volume do
       let size = sample_size rng profile dist in
       let pinned = Xrng.float rng < profile.Profile.pin_rate in
       let id = Holes.Vm.alloc vm ~pinned ~size () in
       let lifetime = sample_lifetime rng profile in
       Heapq.push deaths ~key:(!clock + lifetime) id;
       pool.(Xrng.int rng pool_size) <- id;
       (* mutation: a random older object references the new one *)
       if Xrng.float rng < profile.Profile.mutation_rate then begin
         let src = pool.(Xrng.int rng pool_size) in
         if src >= 0 && src <> id && Holes_heap.Object_table.is_alive (Holes.Vm.objects vm) src
         then Holes.Vm.write_ref vm ~src ~dst:id
       end;
       clock := !clock + size;
       (* process deaths due by now *)
       let rec reap () =
         match Heapq.min_key deaths with
         | Some k when k <= !clock -> (
             match Heapq.pop deaths with
             | Some (_, dead) ->
                 Holes.Vm.kill vm dead;
                 reap ()
             | None -> ())
         | _ -> ()
       in
       reap ()
     done
   with Holes.Vm.Out_of_memory -> completed := false);
  Holes.Vm.sync_backend_stats vm;
  let cost = Holes.Vm.cost vm in
  {
    completed = !completed;
    profile;
    elapsed_ms = Holes.Cost.total_ms cost;
    metrics = Holes.Vm.metrics vm;
    mutator_ms = Holes.Cost.mutator_ns cost /. 1e6;
    gc_ms = Holes.Cost.gc_ns cost /. 1e6;
  }

(** Convenience: build a VM for [profile] under [cfg] (heap sized from
    the profile's minimum) and run it. *)
let run_config ~(cfg : Holes.Config.t) ~(profile : Profile.t) ?(scale = 1.0) () : result =
  let profile = Profile.scaled profile scale in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(Profile.min_heap profile) () in
  let rng = Xrng.of_seed (cfg.Holes.Config.seed lxor 0x5eed) in
  run ~rng vm profile
