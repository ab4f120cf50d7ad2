(** Allocation trace record/replay.

    A trace captures a profile's allocation stream as data, so different
    collector configurations can be driven by *byte-identical* workloads
    (the moral equivalent of the paper's replay-compilation methodology,
    which removes nondeterminism between compared configurations). *)

open Holes_stdx

type event = {
  size : int;
  pinned : bool;
  lifetime : int;  (** bytes of subsequent allocation until death *)
  mutate : bool;  (** store a reference from a random older object *)
}

type t = { profile : Profile.t; events : event array }

(** Record the allocation stream [profile] would produce with [seed]. *)
let record ?(seed = 7) (profile : Profile.t) : t =
  let rng = Xrng.of_seed seed in
  let dist = Generator.category_dist profile in
  let events = ref [] in
  let clock = ref 0 in
  while !clock < profile.Profile.volume do
    let size = Generator.sample_size rng profile dist in
    let lifetime = Generator.sample_lifetime rng profile in
    let pinned = Xrng.float rng < profile.Profile.pin_rate in
    let mutate = Xrng.float rng < profile.Profile.mutation_rate in
    events := { size; pinned; lifetime; mutate } :: !events;
    clock := !clock + size
  done;
  { profile; events = Array.of_list (List.rev !events) }

let length (t : t) : int = Array.length t.events

let total_bytes (t : t) : int =
  Array.fold_left (fun acc e -> acc + e.size) 0 t.events

(** Replay a recorded trace against [vm].  Returns a {!Generator.result}
    with the replayed metrics. *)
let replay (vm : Holes.Vm.t) (t : t) : Generator.result =
  let deaths : int Heapq.t = Heapq.create ~dummy:(-1) in
  let pool_size = 1024 in
  let pool = Array.make pool_size (-1) in
  let pool_rng = Xrng.of_seed 17 in
  let completed = ref true in
  (try
     let clock = ref 0 in
     Array.iter
       (fun e ->
         let id = Holes.Vm.alloc vm ~pinned:e.pinned ~size:e.size () in
         Heapq.push deaths ~key:(!clock + e.lifetime) id;
         pool.(Xrng.int pool_rng pool_size) <- id;
         if e.mutate then begin
           let src = pool.(Xrng.int pool_rng pool_size) in
           if src >= 0 && src <> id
              && Holes_heap.Object_table.is_alive (Holes.Vm.objects vm) src
           then Holes.Vm.write_ref vm ~src ~dst:id
         end;
         clock := !clock + e.size;
         Generator.reap vm deaths ~clock:!clock)
       t.events
   with Holes.Vm.Out_of_memory -> completed := false);
  let cost = Holes.Vm.cost vm in
  {
    Generator.completed = !completed;
    profile = t.profile;
    elapsed_ms = Holes.Cost.total_ms cost;
    metrics = Holes.Vm.metrics vm;
    mutator_ms = Holes.Cost.mutator_ns cost /. 1e6;
    gc_ms = Holes.Cost.gc_ns cost /. 1e6;
  }
