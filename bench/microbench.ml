(* Hot-path microbenchmarks with a tracked JSON baseline.

   Times the kernels that dominate trial throughput (hole search, small
   allocation under failures, full collection — stop-the-world and
   incremental — device writes and OS page-pool frees) plus
   the wall-clock of the reduced `figures-quick` grid, and writes the
   results as `BENCH_hotpath.json`.  The committed copy of that file is
   the perf baseline: CI reruns the kernels and fails when any of them
   regresses by more than the tolerance.

   Usage:
     microbench.exe [--out FILE]        run kernels + grid, write JSON
                                        (default BENCH_hotpath.json)
     microbench.exe --no-grid           skip the grid wall-clock
     microbench.exe --before FILE       embed FILE's ns_per_op values as
                                        before_ns (before/after record)
     microbench.exe --check FILE        rerun kernels and compare against
                                        FILE's ns_per_op; exit 1 when any
                                        kernel is slower by more than
                                        --tolerance (default 0.25)
     microbench.exe --check FILE --retry N
                                        re-measure regressed kernels up to N
                                        extra times before failing (shared CI
                                        runners are noisy; a real regression
                                        reproduces, a scheduling hiccup does
                                        not)
     microbench.exe --check FILE --markdown FILE
                                        also write the before/after table as
                                        a markdown fragment (for CI job
                                        summaries)

   The ns numbers are host wall-clock (best of several repetitions),
   unlike the virtual cost-model times in the figures: this file
   measures the simulator itself, not the simulated machine.  Each
   kernel also records [minor_words_per_op], the OCaml minor-heap words
   one operation allocates ([Gc.minor_words] over the first run after
   the warm-up).  That count does not depend on the host: it is exact
   for a build and a compiler version, so [--check] gates it exactly —
   any change fails, and an intended one is committed with `make
   bench`. *)

let reps = 5

type measurement = { ns : float; words : float }

(* minor words per op of one run of [f] after a warm-up run, then the
   best-of-[reps] wall-clock in ns per op *)
let measure ~(iters : int) (f : unit -> unit) : measurement =
  f ();
  (* warmup: fill caches, trigger any lazy setup *)
  let w0 = Gc.minor_words () in
  f ();
  let words = (Gc.minor_words () -. w0) /. float_of_int iters in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  { ns = !best /. float_of_int iters *. 1e9; words }

(* the exact-gate comparison key of a words-per-op figure *)
let words_key (w : float) : string = Printf.sprintf "%.12g" w

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* hole-search: walk every hole of fragmented 64 B-line blocks — the
   line-map scan underneath every bump-cursor refill.  Four occupancy
   regimes (heavy scatter, moderate scatter, clustered survivors, nearly
   empty) crossed with small (2-line) and medium (8-line) requests, so
   the kernel covers both the overhead-bound short searches of a churning
   nursery and the long skips over dense blocks where the scan itself
   dominates. *)
let hole_search_kernel () : int * (unit -> unit) =
  let line_size = 64 in
  let lines_per_page = Holes_pcm.Geometry.lines_per_page in
  let make_block fill =
    let rng = Holes_stdx.Xrng.of_seed 42 in
    let bitmaps =
      Array.init Holes_heap.Units.pages_per_block (fun _ ->
          let b = Holes_stdx.Bitset.create lines_per_page in
          for i = 0 to lines_per_page - 1 do
            if Holes_stdx.Xrng.float rng < 0.08 then Holes_stdx.Bitset.set b i
          done;
          b)
    in
    let blk =
      Holes_heap.Block.create ~tbl:(Holes_heap.Block.table_create ()) ~index:0 ~base:0 ~line_size
        ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
        ~page_bitmap:(fun id -> bitmaps.(id)) ()
    in
    let nlines = blk.Holes_heap.Block.nlines in
    for l = 0 to nlines - 1 do
      if (not (Holes_heap.Block.is_failed_line blk l)) && fill rng l then
        Holes_heap.Block.add_object_lines blk ~addr:(l * line_size) ~size:line_size
    done;
    blk
  in
  let blocks =
    [|
      (* heavy scatter: short-lived small objects everywhere *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.45);
      (* moderate scatter *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.20);
      (* clustered survivors: 16-line live stripes *)
      make_block (fun rng l -> ignore (Holes_stdx.Xrng.float rng); l land 31 < 16);
      (* nearly empty: holes bounded only by failed lines *)
      make_block (fun rng _ -> Holes_stdx.Xrng.float rng < 0.02);
    |]
  in
  let requests = [| 2 * line_size; 8 * line_size |] in
  let walks = 400 in
  let walk blk min_bytes =
    let from = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let enc = Holes_heap.Block.find_hole_enc blk ~from_line:!from ~min_bytes in
      if enc >= 0 then from := enc land 0x3FFFFFFF else continue_ := false
    done
  in
  let nlines = blocks.(0).Holes_heap.Block.nlines in
  ( walks * nlines * Array.length blocks * Array.length requests,
    fun () ->
      for _ = 1 to walks do
        Array.iter (fun blk -> Array.iter (fun mb -> walk blk mb) requests) blocks
      done )

(* alloc: the end-to-end small-allocation path over a 25%-failed heap —
   bump fast path, hole skips, recycled-block search, collections *)
let alloc_kernel () : int * (unit -> unit) =
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.failure_rate = 0.25;
      failure_dist = Holes.Config.Uniform;
    }
  in
  let iters = 4000 in
  ( iters,
    fun () ->
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      for _ = 1 to iters do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done )

(* full-gc: trace + line-map rebuild + sweep over a half-dead heap *)
let full_gc_kernel () : int * (unit -> unit) =
  ( 1,
    fun () ->
      let vm = Holes.Vm.create ~cfg:Holes.Config.default ~min_heap_bytes:(1 lsl 20) () in
      let ids = Array.init 3000 (fun _ -> Holes.Vm.alloc vm ~size:64 ()) in
      Array.iteri (fun i id -> if i mod 2 = 0 then Holes.Vm.kill vm id) ids;
      Holes.Vm.collect vm ~full:true )

(* gc-pause: the full_gc heap collected incrementally — snapshot,
   budgeted mark slices, then sweep and defrag slices driven to
   completion.  Wall-clocks the whole incremental cycle: a regression in
   the slice machinery (work-queue processing, deferred line retirement,
   per-slice rebuild accounting) lands here, while full_gc above keeps
   the stop-the-world path honest. *)
let gc_pause_kernel () : int * (unit -> unit) =
  let cfg = { Holes.Config.default with Holes.Config.gc_slice = 64 } in
  ( 1,
    fun () ->
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      let ids = Array.init 3000 (fun _ -> Holes.Vm.alloc vm ~size:64 ()) in
      Array.iteri (fun i id -> if i mod 2 = 0 then Holes.Vm.kill vm id) ids;
      Holes.Vm.collect vm ~full:true )

(* gc-slice: one slice of an incremental cycle at the fleet's budget
   (256 mark-queue entries), over a steady heap of 10k live small
   objects — the snapshot, mark and sweep slices and each cycle's
   closing work, per slice.  A slice allocates its pause record;
   everything else a cycle allocates is per cycle. *)
let gc_slice_kernel () : int * (unit -> unit) =
  let cfg = { Holes.Config.default with Holes.Config.gc_slice = 256 } in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(4 lsl 20) () in
  let ids = Array.init 20_000 (fun _ -> Holes.Vm.alloc vm ~size:48 ()) in
  Array.iteri (fun i id -> if i land 1 = 0 then Holes.Vm.kill vm id) ids;
  Holes.Vm.collect vm ~full:true;
  let m = Holes.Vm.metrics vm in
  let s0 = m.Holes.Metrics.gc_increments in
  Holes.Vm.collect vm ~full:true;
  let per_cycle = m.Holes.Metrics.gc_increments - s0 in
  let cycles = 8 in
  ( cycles * per_cycle,
    fun () ->
      for _ = 1 to cycles do
        Holes.Vm.collect vm ~full:true
      done )

(* wear-out: one worn-out line through the whole chain — device write
   path, failure buffer, interrupt queue, OS service and the up-call
   into the runtime's line retirement — per op, including the stores
   that wear the line down (endurance 8, six correction entries).  The
   heap assembles no block, so each retirement lands on a free stock
   page, where most of a failure storm's damage falls.  Setup wears
   out line 0 of every page (committing the arena chunks and moving
   each page to the imperfect pool); the timed ops then take line 1,
   then line 2, of page after page, inside logical lines already
   failed, so no op regrows a pool and each allocates exactly the
   chain's words. *)
let wear_out_kernel () : int * (unit -> unit) =
  let d = Holes.Config.default_device in
  let wear = { d.Holes.Config.wear with Holes_pcm.Wear.mean_endurance = 8.0 } in
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.backend = Holes.Config.Device { d with Holes.Config.wear };
      gc_slice = 256;
    }
  in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(4 lsl 20) () in
  let st = Option.get (Holes.Vm.device_state vm) in
  let module Mb = Holes.Memory_backend in
  let lines = Holes_pcm.Geometry.lines_per_page in
  let npages = Array.length st.Mb.virt_of_stock in
  let wear_out ~stock_page ~line =
    while Mb.device_write st ~stock_page ~line = Mb.Stored do
      ()
    done
  in
  for sp = 0 to npages - 1 do
    wear_out ~stock_page:sp ~line:0
  done;
  let next = ref 0 in
  let per_run = 256 in
  ( per_run,
    fun () ->
      for _ = 1 to per_run do
        let stock_page = !next mod npages and line = 1 + (!next / npages) in
        incr next;
        if line < lines then wear_out ~stock_page ~line
      done )

(* pool-free: one imperfect page's round trip through the OS page
   pools — the grant from the top of the sorted stack and the free that
   sinks the page back below its equals — over a pool of 1,024 pages
   with 59 to 63 usable lines each, as a tenant detach returns them.
   The free shifts the stack in place; the op's words are the grant's
   [Some] (2). *)
let pool_free_kernel () : int * (unit -> unit) =
  let npages = 1024 in
  let pools = Holes_osal.Pools.create ~dram_pages:0 ~pcm_pages:npages in
  for page = 0 to npages - 1 do
    for line = 0 to page mod 5 do
      ignore (Holes_osal.Pools.mark_line_failed pools ~page ~line)
    done
  done;
  let per_run = 256 in
  let taken = Array.make per_run 0 in
  ( per_run,
    fun () ->
      for i = 0 to per_run - 1 do
        match Holes_osal.Pools.alloc_imperfect pools with
        | Some id -> taken.(i) <- id
        | None -> failwith "pool_free: pool ran dry"
      done;
      for i = 0 to per_run - 1 do
        Holes_osal.Pools.free pools taken.(i)
      done )

(* device-write: the payload-store write path (no wear-outs: endurance is
   the production 1e8, so this isolates the arena from failure handling) *)
let device_write_kernel () : int * (unit -> unit) =
  let config =
    { Holes_pcm.Device.default_config with Holes_pcm.Device.pages = 64; wear = Holes_pcm.Wear.default_params }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 'w' in
  let nlines = Holes_pcm.Device.nlines dev in
  let passes = 8 in
  ( passes * nlines,
    fun () ->
      for _ = 1 to passes do
        for l = 0 to nlines - 1 do
          ignore (Holes_pcm.Device.write dev l payload)
        done
      done )

(* translate: the logical→physical pipeline walk with both stage kinds
   live — a start-gap leveling permutation over clustering redirects —
   after enough write churn that the permutation has rotated and the
   redirect maps hold recorded failures.  This is the per-access cost
   the pipeline adds on top of the arena store. *)
let translate_kernel () : int * (unit -> unit) =
  let config =
    {
      Holes_pcm.Device.default_config with
      Holes_pcm.Device.pages = 64;
      wear = { Holes_pcm.Wear.fast_params with Holes_pcm.Wear.mean_endurance = 400.0 };
      wear_level = Some (Holes_pcm.Wear_level.Start_gap { psi = 16 });
    }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 't' in
  let nlines = Holes_pcm.Device.nlines dev in
  (* boot failures populate the redirect maps (and freeze their pairs in
     the leveling stage); churn then rotates the gap through the rest *)
  Holes_pcm.Device.preinstall_failures dev
    (Holes_pcm.Failure_map.uniform (Holes_stdx.Xrng.of_seed 13) ~nlines ~rate:0.10);
  for _ = 1 to 4 do
    for l = 0 to nlines - 1 do
      if Holes_pcm.Device.line_usable dev l then ignore (Holes_pcm.Device.write dev l payload)
    done
  done;
  let passes = 64 in
  ( passes * nlines,
    fun () ->
      let acc = ref 0 in
      for _ = 1 to passes do
        for l = 0 to nlines - 1 do
          acc := !acc + Holes_pcm.Device.physical_of_logical dev l
        done
      done;
      ignore !acc )

(* migrate: the DRAM/PCM tiering hot path end to end — per-page heat
   tracking on every charged line write, promotion (frame grab, Vmm
   retarget, charged page copy), the DRAM-resident fast path, epoch
   decay and cold-page demotion write-backs.  A tiny epoch and a small
   frame pool force the promote/demote cycle to turn over constantly,
   so the kernel times the tiering machinery rather than a settled
   resident set.  device_write and translate above stay tier-free, so
   they keep isolating the arena and pipeline costs. *)
let migrate_kernel () : int * (unit -> unit) =
  let d = Holes.Config.default_device in
  let cfg =
    {
      Holes.Config.default with
      Holes.Config.backend = Holes.Config.Device { d with Holes.Config.dram_pages = 8 };
      hybrid = { Holes_pcm.Hybrid.migrate_epoch = Some 256; caram_ways = None };
    }
  in
  let iters = 4000 in
  ( iters,
    fun () ->
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      for _ = 1 to iters do
        let id = Holes.Vm.alloc vm ~size:48 () in
        Holes.Vm.kill vm id
      done )

(* dedup: the content-store stage in front of the cells — FNV
   fingerprint, set lookup, dedup refcount bump, pattern compression,
   install and LRU eviction — on a write mix of shared, all-same-byte
   and unique payloads.  device_write above stays content-blind, so
   the pair separates the store's cost from the arena's. *)
let dedup_kernel () : int * (unit -> unit) =
  let config =
    {
      Holes_pcm.Device.default_config with
      Holes_pcm.Device.pages = 64;
      wear = Holes_pcm.Wear.default_params;
      caram = Some 8;
    }
  in
  let dev = Holes_pcm.Device.create ~config ~seed:7 () in
  let line_bytes = Holes_pcm.Geometry.line_bytes in
  let nlines = Holes_pcm.Device.nlines dev in
  let shared =
    Array.init 12 (fun k ->
        Bytes.init line_bytes (fun i -> Char.chr (((k * 37) + (i * 11)) land 0xff)))
  in
  let pattern = Bytes.make line_bytes '\xAB' in
  let unique = Bytes.make line_bytes 'u' in
  let passes = 8 in
  ( passes * nlines,
    fun () ->
      for p = 1 to passes do
        for l = 0 to nlines - 1 do
          let payload =
            match l land 3 with
            | 0 | 1 -> shared.(l mod 12)
            | 2 -> pattern
            | _ ->
                Bytes.set_int32_le unique 0 (Int32.of_int ((p * nlines) + l));
                unique
          in
          ignore (Holes_pcm.Device.write dev l payload)
        done
      done )

(* fleet: one small device shard end to end — open-loop Poisson
   arrivals through the virtual-clock event queue, two tenant VMs
   attached to the shared node, request service and the report merge.
   Wall-clocks the serving simulator itself (DESIGN.md §12); the
   simulated latencies inside it are virtual and deterministic. *)
let fleet_kernel () : int * (unit -> unit) =
  let p =
    {
      Holes_fleet.Sim.default with
      Holes_fleet.Sim.tenants = 2;
      devices = 1;
      arrival = Holes_fleet.Arrivals.Poisson { rate = 400.0 };
      duration_ms = 150.0;
    }
  in
  (1, fun () -> ignore (Holes_fleet.Sim.run ~jobs:1 p))

(* gen-step: the workload generator's per-object sampling — one object
   size, one lifetime and the two uniform draws (pin and mutation coins)
   [Generator.run] takes per allocation, over the pmd profile *)
let gen_step_kernel () : int * (unit -> unit) =
  let profile = Holes_workload.Dacapo.pmd in
  let dist = Holes_workload.Generator.category_dist profile in
  let rng = Holes_stdx.Xrng.of_seed 11 in
  let iters = 100_000 in
  let sink = [| 0 |] in
  ( iters,
    fun () ->
      for _ = 1 to iters do
        let size = Holes_workload.Generator.sample_size rng profile dist in
        let life = Holes_workload.Generator.sample_lifetime rng profile in
        let coin = Holes_stdx.Xrng.float rng < 0.5 in
        let coin' = Holes_stdx.Xrng.float rng < 0.5 in
        sink.(0) <- sink.(0) + size + life + Bool.to_int coin + Bool.to_int coin'
      done )

(* stats-observe: one log2-histogram observation — the update behind
   every hole search and every device line write *)
let stats_observe_kernel () : int * (unit -> unit) =
  let h = Holes_obs.Stats.hist () in
  let iters = 100_000 in
  ( iters,
    fun () ->
      for i = 1 to iters do
        Holes_obs.Stats.observe h (float_of_int (i land 1023))
      done )

let kernels : (string * (unit -> int * (unit -> unit))) list =
  [
    ("hole_search", hole_search_kernel);
    ("alloc_small", alloc_kernel);
    ("full_gc", full_gc_kernel);
    ("gc_pause", gc_pause_kernel);
    ("gc_slice", gc_slice_kernel);
    ("device_write", device_write_kernel);
    ("wear_out", wear_out_kernel);
    ("pool_free", pool_free_kernel);
    ("translate", translate_kernel);
    ("migrate", migrate_kernel);
    ("dedup", dedup_kernel);
    ("fleet", fleet_kernel);
    ("gen_step", gen_step_kernel);
    ("stats_observe", stats_observe_kernel);
  ]

let run_kernel (name : string) : measurement =
  let iters, f = (List.assoc name kernels) () in
  measure ~iters f

let run_kernels () : (string * measurement) list =
  List.map
    (fun (name, _) ->
      let m = run_kernel name in
      Printf.printf "%-14s %12.1f ns/op %12s minor words/op\n%!" name m.ns (words_key m.words);
      (name, m))
    kernels

(* the fixed reduced grid (`figures-quick`), timed cold at -j 1 *)
let grid_wall_s () : float =
  Holes_exp.Runner.clear_cache ();
  let params = { Holes_exp.Runner.scale = 0.1; seeds = 2; jobs = 1 } in
  let t0 = Unix.gettimeofday () in
  ignore (Holes_exp.Figures.fig4 ~params ());
  ignore (Holes_exp.Figures.headline ~params ());
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%-14s %12.2f s (figures-quick grid, -j 1, cold cache)\n%!" "grid" dt;
  dt

(* ------------------------------------------------------------------ *)
(* The JSON snapshot (hand-rolled, like lib/engine/sink.ml)            *)
(* ------------------------------------------------------------------ *)

(* Scan [line] for `"key": <float>`; the emitter below writes one kernel
   per line, so line-oriented scanning is a complete parser for it. *)
let find_float ~(key : string) (line : string) : float option =
  let pat = Printf.sprintf "\"%s\":" key in
  match
    let plen = String.length pat and llen = String.length line in
    let rec at i =
      if i + plen > llen then None
      else if String.sub line i plen = pat then Some (i + plen)
      else at (i + 1)
    in
    at 0
  with
  | None -> None
  | Some start ->
      let stop = ref start in
      let llen = String.length line in
      while
        !stop < llen
        && (match line.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '+' | ' ' -> true | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub line start (!stop - start)))

(* a committed kernel entry *)
type entry = { base_ns : float; before_ns : float option; base_words : float option }

let load_snapshot (path : string) : (string * entry) list =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       List.iter
         (fun (name, _) ->
           let pat = Printf.sprintf "\"%s\"" name in
           let has =
             let plen = String.length pat and llen = String.length line in
             let rec at i =
               i + plen <= llen && (String.sub line i plen = pat || at (i + 1))
             in
             at 0
           in
           if has then
             match find_float ~key:"ns_per_op" line with
             | Some ns ->
                 let e =
                   {
                     base_ns = ns;
                     before_ns = find_float ~key:"before_ns" line;
                     base_words = find_float ~key:"minor_words_per_op" line;
                   }
                 in
                 entries := (name, e) :: !entries
             | None -> ())
         kernels
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let write_snapshot ~(path : string) ~(before : (string * float) list)
    ~(results : (string * measurement) list) ~(grid_s : float option)
    ~(grid_before_s : float option) : unit =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"holes-microbench/2\",\n";
  out
    "  \"note\": \"host wall-clock ns/op, best of %d; exact OCaml minor-heap words/op; \
     regenerate with `make bench`\",\n"
    reps;
  out "  \"kernels\": {\n";
  let n = List.length results in
  List.iteri
    (fun i (name, m) ->
      let before_part =
        match List.assoc_opt name before with
        | Some b when b > 0.0 ->
            Printf.sprintf ", \"before_ns\": %.1f, \"speedup\": %.2f" b (b /. m.ns)
        | _ -> ""
      in
      out "    \"%s\": {\"ns_per_op\": %.1f, \"minor_words_per_op\": %s%s}%s\n" name m.ns
        (words_key m.words) before_part
        (if i < n - 1 then "," else ""))
    results;
  out "  }%s\n" (if grid_s <> None then "," else "");
  (match grid_s with
  | Some s ->
      let before_part =
        match grid_before_s with
        | Some b when b > 0.0 ->
            Printf.sprintf ", \"before_wall_s\": %.2f, \"speedup\": %.2f" b (b /. s)
        | _ -> ""
      in
      out "  \"figures_quick\": {\"wall_s\": %.2f%s}\n" s before_part
  | None -> ());
  out "}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n%!" path

(* one kernel's verdict row: committed entry, best fresh ns, fresh
   words, measurement attempts *)
type row = { name : string; base : entry option; ns : float; words : float; attempts : int }

let ns_regressed ~(tolerance : float) (r : row) : bool =
  match r.base with Some b -> r.ns /. b.base_ns > 1.0 +. tolerance | None -> false

(* exact: any change in minor words per op, up or down *)
let words_changed (r : row) : bool =
  match r.base with
  | Some { base_words = Some w; _ } -> words_key w <> words_key r.words
  | _ -> false

let words_cell (r : row) : string =
  match r.base with
  | Some { base_words = Some w; _ } -> words_key w
  | _ -> "—"

let write_markdown ~(path : string) ~(tolerance : float) ~(rows : row list) : unit =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "### Hot-path kernels vs committed baseline (ns tolerance %.0f%%, minor words exact)\n\n"
    (tolerance *. 100.0);
  out
    "| kernel | baseline ns/op | fresh ns/op | ratio | attempts | baseline words/op | fresh \
     words/op | verdict |\n";
  out "|---|---:|---:|---:|---:|---:|---:|---|\n";
  List.iter
    (fun r ->
      let verdict =
        match r.base with
        | None -> "no baseline"
        | Some _ ->
            if words_changed r then "**WORDS CHANGED**"
            else if ns_regressed ~tolerance r then "**REGRESSED**"
            else "ok"
      in
      let base_ns, ratio =
        match r.base with
        | Some b -> (Printf.sprintf "%.1f" b.base_ns, Printf.sprintf "%.2fx" (r.ns /. b.base_ns))
        | None -> ("—", "—")
      in
      out "| `%s` | %s | %.1f | %s | %d | %s | %s | %s |\n" r.name base_ns r.ns ratio r.attempts
        (words_cell r) (words_key r.words) verdict)
    rows;
  close_out oc

let check ~(path : string) ~(tolerance : float) ~(retries : int)
    ~(markdown : string option) : unit =
  let snapshot = load_snapshot path in
  if snapshot = [] then begin
    Printf.eprintf "no kernel entries found in %s\n" path;
    exit 2
  end;
  let rows =
    ref
      (List.map
         (fun (name, (m : measurement)) ->
           { name; base = List.assoc_opt name snapshot; ns = m.ns; words = m.words; attempts = 1 })
         (run_kernels ()))
  in
  let regressed () = List.filter (ns_regressed ~tolerance) !rows in
  (* Re-measure only the kernels whose time regressed: a genuine
     slowdown reproduces, a noisy-neighbour blip on a shared runner does
     not.  Keep the best time seen — the floor is the honest estimate of
     kernel cost.  Minor words need no retry: they are exact. *)
  let attempt = ref 0 in
  while regressed () <> [] && !attempt < retries do
    incr attempt;
    let names = List.map (fun r -> r.name) (regressed ()) in
    Printf.printf "retry %d/%d for noisy kernels: %s\n%!" !attempt retries
      (String.concat ", " names);
    List.iter
      (fun kname ->
        let (m : measurement) = run_kernel kname in
        Printf.printf "%-14s %12.1f ns/op (retry)\n%!" kname m.ns;
        rows :=
          List.map
            (fun r ->
              if r.name = kname then { r with ns = Float.min r.ns m.ns; attempts = r.attempts + 1 }
              else r)
            !rows)
      names
  done;
  List.iter
    (fun r ->
      match r.base with
      | None -> Printf.printf "%-14s (no baseline entry, skipped)\n" r.name
      | Some b ->
          let ratio = r.ns /. b.base_ns in
          Printf.printf "%-14s %10.1f ns vs baseline %10.1f ns (%.2fx) %s; words/op %s vs %s %s\n"
            r.name r.ns b.base_ns ratio
            (if ns_regressed ~tolerance r then "REGRESSED" else "ok")
            (words_key r.words) (words_cell r)
            (if words_changed r then "CHANGED" else "ok"))
    !rows;
  (match markdown with
  | Some md -> write_markdown ~path:md ~tolerance ~rows:!rows
  | None -> ());
  let slow = regressed () and changed = List.filter words_changed !rows in
  if slow <> [] then
    Printf.eprintf "microbench: kernel regression beyond %.0f%% tolerance\n" (tolerance *. 100.0);
  if changed <> [] then
    Printf.eprintf
      "microbench: minor words per op changed (%s); commit an intended change with `make bench`\n"
      (String.concat ", " (List.map (fun r -> r.name) changed));
  if slow <> [] || changed <> [] then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (out, before, check_path, tol, grid, retries, md) = function
    | [] -> (out, before, check_path, tol, grid, retries, md)
    | "--out" :: p :: rest -> parse (p, before, check_path, tol, grid, retries, md) rest
    | "--before" :: p :: rest -> parse (out, Some p, check_path, tol, grid, retries, md) rest
    | "--check" :: p :: rest -> parse (out, before, Some p, tol, grid, retries, md) rest
    | "--tolerance" :: v :: rest ->
        parse (out, before, check_path, float_of_string v, grid, retries, md) rest
    | "--retry" :: v :: rest ->
        parse (out, before, check_path, tol, grid, int_of_string v, md) rest
    | "--markdown" :: p :: rest -> parse (out, before, check_path, tol, grid, retries, Some p) rest
    | "--no-grid" :: rest -> parse (out, before, check_path, tol, false, retries, md) rest
    | a :: _ -> failwith (Printf.sprintf "unknown argument %S" a)
  in
  let out, before_path, check_path, tolerance, grid, retries, markdown =
    parse ("BENCH_hotpath.json", None, None, 0.25, true, 0, None) args
  in
  match check_path with
  | Some path -> check ~path ~tolerance ~retries ~markdown
  | None ->
      let before, grid_before =
        match before_path with
        | None -> ([], None)
        | Some p ->
            (* a baseline that itself has before/after fields keeps its
               original "before" numbers: `make bench` refreshes the
               after side without erasing the tracked baseline *)
            let snap = load_snapshot p in
            let grid_b =
              let ic = open_in p in
              let v = ref None and v0 = ref None in
              (try
                 while true do
                   let line = input_line ic in
                   if !v = None then v := find_float ~key:"wall_s" line;
                   if !v0 = None then v0 := find_float ~key:"before_wall_s" line
                 done
               with End_of_file -> ());
              close_in ic;
              if !v0 <> None then !v0 else !v
            in
            ( List.map (fun (n, e) -> (n, Option.value e.before_ns ~default:e.base_ns)) snap,
              grid_b )
      in
      let results = run_kernels () in
      let grid_s = if grid then Some (grid_wall_s ()) else None in
      write_snapshot ~path:out ~before ~results ~grid_s ~grid_before_s:grid_before
