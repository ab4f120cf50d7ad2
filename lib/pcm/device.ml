(** A whole PCM module: an array of pages of wearable lines, the write
    path with failure detection, the failure buffer, and the composable
    address-translation pipeline (paper Sec. 3.1; DESIGN.md §11).

    Reads and writes address *logical* line indices; the device folds
    them through an ordered list of {!Translate.stage}s — the optional
    wear-leveling permutation ({!Wear_level}) on the logical side, then
    the per-region failure-clustering redirection maps ({!Redirect}) on
    the physical side — exactly as the memory controller and module
    would below the physical address the cache hierarchy issues.  When a
    line wears out, the failure walks the same pipeline in reverse: each
    stage maps the unusable output-domain line back to the input-domain
    lines the OS must publish.  Data payloads are stored per line so the
    failure-buffer forwarding and OS copy-out paths are real, not
    mocked. *)

open Holes_stdx
module Trace = Holes_obs.Trace

type config = {
  pages : int;
  wear : Wear.params;
  clustering : int option;  (** region size in pages; [None] disables clustering *)
  buffer_capacity : int;
  wear_level : Wear_level.policy option;
      (** leveling stage installed at boot; [None] leaves the pipeline
          identity-above-redirect, byte-identical to the unleveled path *)
  caram : int option;
      (** CARAM content-store associativity installed at boot; [None]
          leaves the write path byte-identical to the content-blind
          device (DESIGN.md §16) *)
}

let default_config =
  {
    pages = 64;
    wear = Wear.fast_params;
    clustering = Some Geometry.default_region_pages;
    buffer_capacity = 32;
    wear_level = None;
    caram = None;
  }

(* lines per arena chunk: 1024 × 64 B = 64 KB, so a device that only
   ever touches a few pages commits a few chunks, not the whole module *)
let chunk_lines = 1024

type t = {
  config : config;
  nlines : int;
  seed : int;
  rng : Xrng.t;
  wear : Wear.t;  (** per-line wear state, indexed by physical line *)
  cov_scratch : Holes_obs.Stats.moments;  (** [wear_cov]'s accumulator, reused *)
  arena : Bytes.t option array;
      (** payload store: a flat arena of 64 KB chunks indexed by
          [physical / chunk_lines], committed lazily on first write *)
  buffer : Failure_buffer.t;
  regions : Redirect.t array;  (** empty when clustering is off *)
  region_lines : int;  (** lines per region (or whole device when off) *)
  mutable stages : Translate.stage array;
      (** the translation pipeline, logical side first; empty when both
          clustering and leveling are off (identity translation) *)
  mutable wear_stage : Wear_level.t option;  (** the leveling stage, once installed *)
  mutable write_path : int -> int;
      (** memoized partial evaluation of the write-path pipeline walk
          (hooks then translation, stage by stage); rebuilt whenever
          [stages] changes so the per-write cost of an identity or
          redirect-only pipeline matches the pre-pipeline direct path *)
  unusable : Bitset.t;
      (** logical lines currently unusable (failures, clustering
          metadata, leveling-reserved lines) — maintained incrementally
          by the pipeline so [line_usable] is O(1) on the write path *)
  mutable on_line_failed : addr:int -> unusable:int list -> unit;
      (** OS callback: the logical address whose write failed, and the
          logical line indices newly unusable (with clustering these
          differ: the failed physical line is redirected to the cluster
          end, so the *boundary* slot becomes unusable while [addr]
          is re-backed by a working line) *)
  mutable reads : int;
  mutable writes : int;
  mutable failures : int;
  mutable caram : Caram.t option;
      (** content-aware store consulted before the cell write; not a
          {!Translate} stage because dedup is many-to-one, while the
          pipeline stages must stay bijections *)
  tracer : Trace.view;  (** pcm-lane events: wear-outs, buffer traffic, remaps *)
}

let nlines (t : t) : int = t.nlines

let npages (t : t) : int = t.config.pages

let buffer (t : t) : Failure_buffer.t = t.buffer

(** Failures currently awaiting an OS drain. *)
let buffer_occupancy (t : t) : int = Failure_buffer.occupancy t.buffer

let check_line t l =
  if l < 0 || l >= t.nlines then invalid_arg "Device: line index out of range"

(* logical -> physical through the whole pipeline *)
let physical_of_logical (t : t) (logical : int) : int = Translate.translate t.stages logical

(* like [physical_of_logical], but fires each stage's write hook first:
   a triggered remap relocates the old payload before we translate, so
   the incoming write lands at the post-move location.  [compose_write_path]
   partially evaluates this walk for the common pipeline shapes so the
   hot write path pays no per-stage dispatch when no stage wants hooks. *)
let compose_write_path (stages : Translate.stage array) : int -> int =
  match stages with
  | [||] -> Fun.id
  | [| s |] when s.Translate.on_write == Translate.nop_write -> s.Translate.translate
  | _ ->
      fun logical ->
        (* a loop: a local recursive walk would allocate its closure on
           every write *)
        let l = ref logical in
        for i = 0 to Array.length stages - 1 do
          let s = Array.unsafe_get stages i in
          s.Translate.on_write !l;
          l := s.Translate.translate !l
        done;
        !l

let translate_for_write (t : t) (logical : int) : int = t.write_path logical

(* translation below the wear-leveling stage (used by its data movers):
   slot domain -> physical, i.e. just the redirect maps *)
let downstream (t : t) (m : int) : int =
  if Array.length t.regions = 0 then m
  else
    let r = m / t.region_lines in
    (r * t.region_lines) + Redirect.translate t.regions.(r) (m mod t.region_lines)

(* a physical line became unusable: walk the pipeline in reverse, giving
   each stage a chance to absorb it (clustering swap, leveling freeze),
   and collect the logical lines the OS must now publish *)
let rec chain_from (t : t) (i : int) (lines : int list) : int list =
  if i < 0 then lines
  else
    let stage = t.stages.(i) in
    chain_from t (i - 1) (List.concat_map (fun q -> stage.Translate.on_failure ~physical:q) lines)

let chain_failure (t : t) (physical : int) : int list =
  chain_from t (Array.length t.stages - 1) [ physical ]

let rec mark_unusable (t : t) (lines : int list) : unit =
  match lines with
  | [] -> ()
  | l :: rest ->
      Bitset.set t.unusable l;
      mark_unusable t rest

(* ---- arena payload helpers ------------------------------------------- *)

let chunk_for (t : t) (physical : int) : Bytes.t =
  match t.arena.(physical / chunk_lines) with
  | Some c -> c
  | None ->
      let c = Bytes.make (chunk_lines * Geometry.line_bytes) '\000' in
      t.arena.(physical / chunk_lines) <- Some c;
      c

let line_copy_out (t : t) (physical : int) (buf : Bytes.t) : unit =
  match t.arena.(physical / chunk_lines) with
  | Some c ->
      Bytes.blit c (physical mod chunk_lines * Geometry.line_bytes) buf 0 Geometry.line_bytes
  | None -> Bytes.fill buf 0 Geometry.line_bytes '\000'

let line_copy_in (t : t) (physical : int) (buf : Bytes.t) : unit =
  Bytes.blit buf 0 (chunk_for t physical)
    (physical mod chunk_lines * Geometry.line_bytes)
    Geometry.line_bytes

(* ---- wear-leveling stage install / toggle ---------------------------- *)

(* reserve logical line [r] for the leveler (start-gap's gap owner):
   published to the OS exactly like a failed line *)
let reserve_line (t : t) (r : int) : unit =
  Bitset.set t.unusable r;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_reserve" ~args:[ ("line", float_of_int r) ]

(* Install a leveling core as the first pipeline stage.  Pre-existing
   unusable lines are frozen into it (the fresh map is the identity, so
   logical = slot for each).  Returns the lines the stage reserved for
   itself; at boot the caller just publishes them, mid-run it must also
   evacuate them through the failure up-call. *)
let install_wear_stage (t : t) (policy : Wear_level.policy) : int list =
  let w = Wear_level.create ~policy ~nlines:t.nlines ~seed:(t.seed lxor 0x5747a6) () in
  Bitset.iter_set t.unusable (fun l -> Wear_level.freeze_pair w l);
  let scratch_a = Bytes.create Geometry.line_bytes in
  let scratch_b = Bytes.create Geometry.line_bytes in
  Wear_level.set_io w
    {
      Wear_level.copy =
        (fun ~src ~dst ->
          (* one start-gap step: data moves src -> dst (the gap), wearing
             the destination; the outcome is not checked — a worn-out
             destination surfaces on the next data write to it *)
          let ps = downstream t src and pd = downstream t dst in
          line_copy_out t ps scratch_a;
          line_copy_in t pd scratch_a;
          ignore (Wear.write t.rng t.config.wear t.wear pd);
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_gap_move"
              ~args:[ ("src", float_of_int ps); ("dst", float_of_int pd) ]);
      Wear_level.swap =
        (fun ~a ~b ->
          let pa = downstream t a and pb = downstream t b in
          line_copy_out t pa scratch_a;
          line_copy_out t pb scratch_b;
          line_copy_in t pa scratch_b;
          line_copy_in t pb scratch_a;
          ignore (Wear.write t.rng t.config.wear t.wear pa);
          ignore (Wear.write t.rng t.config.wear t.wear pb);
          if Trace.armed t.tracer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "wl_remap"
              ~args:[ ("a", float_of_int pa); ("b", float_of_int pb) ]);
    };
  t.wear_stage <- Some w;
  t.stages <- Array.append [| Translate.wear_stage w |] t.stages;
  t.write_path <- compose_write_path t.stages;
  match Wear_level.ensure_gap w with
  | None -> []
  | Some r ->
      reserve_line t r;
      [ r ]

let create ?(config = default_config) ?(tracer = Trace.null) ~(seed : int) () : t =
  let nlines = config.pages * Geometry.lines_per_page in
  let rng = Xrng.of_seed seed in
  let wear = Wear.create rng config.wear nlines in
  let regions, region_lines =
    match config.clustering with
    | None -> ([||], nlines)
    | Some region_pages ->
        if config.pages mod region_pages <> 0 then
          invalid_arg "Device.create: pages must be a multiple of the region size";
        let rl = Geometry.lines_per_region ~region_pages in
        ( Array.init (config.pages / region_pages) (fun i ->
              Redirect.create ~region_pages ~region_index:i ()),
          rl )
  in
  let t =
    {
      config;
      nlines;
      seed;
      rng;
      wear;
      cov_scratch = Holes_obs.Stats.moments ();
      arena = Array.make ((nlines + chunk_lines - 1) / chunk_lines) None;
      buffer = Failure_buffer.create ~capacity:config.buffer_capacity ();
      regions;
      region_lines;
      stages =
        (if Array.length regions = 0 then [||]
         else [| Translate.redirect_stage regions ~region_lines |]);
      wear_stage = None;
      write_path = Fun.id;
      unusable = Bitset.create nlines;
      on_line_failed = (fun ~addr:_ ~unusable:_ -> ());
      reads = 0;
      writes = 0;
      failures = 0;
      caram =
        (match config.caram with
        | None -> None
        | Some ways -> Some (Caram.create ~ways ~nlines ()));
      tracer;
    }
  in
  t.write_path <- compose_write_path t.stages;
  (match config.wear_level with
  | None -> ()
  | Some policy -> ignore (install_wear_stage t policy));
  t

(** Pre-install manufacturing-time failures from a bitmap over *physical*
    lines — the boot-time state an OS scan would find.  Each failure
    walks the pipeline in reverse (clustering swaps, leveling freezes),
    so the logically unusable lines land exactly as if the wear process
    had produced them.  No data is buffered and no interrupt fires:
    these lines failed before the machine booted. *)
let preinstall_failures (t : t) (map : Bitset.t) : unit =
  if Bitset.length map > t.nlines then
    invalid_arg "Device.preinstall_failures: map larger than the device";
  Bitset.iter_set map (fun physical ->
      Wear.mark_failed t.wear physical;
      mark_unusable t (chain_failure t physical));
  (* a boot failure can swallow start-gap's freshly reserved gap — in
     particular the clustering metadata freeze lands on region-start
     slots, and mid-device is a region start.  Re-reserve before the OS
     boot scan: nothing is written yet, so no evacuation is needed. *)
  match t.wear_stage with
  | None -> ()
  | Some w -> (
      match Wear_level.ensure_gap w with None -> () | Some r -> reserve_line t r)

(** Register the OS notification callback, called after a write failure
    with the failing logical address and the logical lines that became
    unusable (the clustered slot plus, on a region's first failure, the
    redirection-map metadata). *)
let on_line_failed (t : t) (f : addr:int -> unusable:int list -> unit) : unit =
  t.on_line_failed <- f

(** Is the logical line currently usable (not failed, not metadata, not
    reserved by the leveler)?  O(1): the pipeline maintains the set
    incrementally. *)
let line_usable (t : t) (logical : int) : bool =
  check_line t logical;
  not (Bitset.get t.unusable logical)

(** Read the 64 B payload of logical line [l].  The failure buffer is
    checked in parallel and forwards the latest value for a line whose
    failure the OS has not yet drained. *)
let read (t : t) (logical : int) : Bytes.t =
  check_line t logical;
  t.reads <- t.reads + 1;
  (* a caram binding is always the line's latest write (an absorbed
     write never reaches the cells or the failure buffer), so it wins
     over both *)
  match
    match t.caram with
    | None -> None
    | Some c -> Caram.read c logical ~line_bytes:Geometry.line_bytes
  with
  | Some data -> data
  | None -> (
      let physical = physical_of_logical t logical in
      match Failure_buffer.forward t.buffer ~addr:logical with
      | Some data -> Bytes.copy data
      | None -> (
          match t.arena.(physical / chunk_lines) with
          | Some chunk ->
              Bytes.sub chunk (physical mod chunk_lines * Geometry.line_bytes) Geometry.line_bytes
          | None -> Bytes.make Geometry.line_bytes '\000'))

type write_result =
  | Stored  (** write succeeded (possibly via an ECP correction) *)
  | Write_failed  (** line permanently failed; data preserved in the buffer *)
  | Stalled  (** device is refusing writes until the OS drains the buffer *)

(** Write a 64 B payload to logical line [l], advancing the wear model.
    On a permanent failure the data goes to the failure buffer, the OS
    callback fires with the newly unusable logical lines, and the result
    is [Write_failed]. *)
let write (t : t) (logical : int) (payload : Bytes.t) : write_result =
  check_line t logical;
  if Bytes.length payload <> Geometry.line_bytes then
    invalid_arg "Device.write: payload must be exactly one line";
  if Failure_buffer.is_stalled t.buffer then Stalled
  else begin
    t.writes <- t.writes + 1;
    match t.caram with
    | Some c when Caram.write c logical payload = Caram.Absorbed ->
        (* content dedup/compression: the cells never see this write *)
        Stored
    | _ ->
    let physical = translate_for_write t logical in
    match Wear.write t.rng t.config.wear t.wear physical with
    | Wear.Ok | Wear.Corrected ->
        line_copy_in t physical payload;
        Stored
    | Wear.Failed ->
        t.failures <- t.failures + 1;
        if Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_pcm "wear_out"
            ~args:[ ("line", float_of_int logical) ];
        let inserted = Failure_buffer.insert t.buffer ~addr:logical ~data:payload in
        if not inserted then failwith "Device.write: failure buffer overflow (model error)";
        if Trace.armed t.tracer then begin
          Trace.counter t.tracer ~tid:Trace.tid_pcm "fbuf"
            [ ("occupancy", float_of_int (Failure_buffer.occupancy t.buffer)) ];
          if Failure_buffer.is_stalled t.buffer then
            Trace.instant t.tracer ~tid:Trace.tid_pcm "fbuf_stall"
        end;
        let newly_unusable = chain_failure t physical in
        mark_unusable t newly_unusable;
        (* if the failure swallowed start-gap's gap, re-reserve one so
           leveling keeps running; the new reservation rides the same
           OS notification as the failure itself *)
        let newly_unusable =
          match t.wear_stage with
          | None -> newly_unusable
          | Some w -> (
              match Wear_level.ensure_gap w with
              | None -> newly_unusable
              | Some r ->
                  reserve_line t r;
                  newly_unusable @ [ r ])
        in
        t.on_line_failed ~addr:logical ~unusable:newly_unusable;
        Write_failed
  end

(** Switch the wear-leveling stage mid-run.  [None] pauses the mover
    (the live permutation and every published failure stay put — tearing
    the map down would scramble both data and the OS failure view).
    Enabling a policy installs the stage on first use; a start-gap
    enable that needs a fresh gap reserves a line and retires it through
    the normal failure up-call, so the OS and runtime evacuate it like
    any other dying line. *)
let set_wear_level (t : t) (p : Wear_level.policy option) : unit =
  match t.wear_stage with
  | Some w ->
      Wear_level.set_policy w p;
      (match Wear_level.ensure_gap w with
      | None -> ()
      | Some r ->
          reserve_line t r;
          t.on_line_failed ~addr:r ~unusable:[ r ])
  | None -> (
      match p with
      | None -> ()
      | Some policy ->
          install_wear_stage t policy
          |> List.iter (fun r -> t.on_line_failed ~addr:r ~unusable:[ r ]))

(** The currently configured wear-leveling policy ([None] = identity or
    paused). *)
let wear_level (t : t) : Wear_level.policy option =
  match t.wear_stage with None -> None | Some w -> Wear_level.policy w

(** The leveling core, for property tests. *)
let wear_stage (t : t) : Wear_level.t option = t.wear_stage

(** Switch the CARAM content store mid-run.  Disabling (or changing the
    associativity of) a live store first writes every bound line's
    content through the normal cell path — the store was authoritative
    for those lines, and tearing it down must not lose data.  The
    write-through wears cells and can surface failures, which ride the
    ordinary failure up-call. *)
let set_caram (t : t) (ways : int option) : unit =
  let flush c =
    t.caram <- None;
    List.iter
      (fun (logical, data) ->
        if not (Bitset.get t.unusable logical) then ignore (write t logical data))
      (Caram.flush c ~line_bytes:Geometry.line_bytes)
  in
  match (t.caram, ways) with
  | None, None -> ()
  | None, Some w -> t.caram <- Some (Caram.create ~ways:w ~nlines:t.nlines ())
  | Some c, None -> flush c
  | Some c, Some w ->
      if Caram.(c.ways) <> w then begin
        flush c;
        t.caram <- Some (Caram.create ~ways:w ~nlines:t.nlines ())
      end

(** The content store, for property tests and the verifier. *)
let caram (t : t) : Caram.t option = t.caram

(** CARAM internal-consistency errors (empty when off or consistent);
    touches no counted path. *)
let caram_check (t : t) : string list =
  match t.caram with None -> [] | Some c -> Caram.check c

(** OS drain path: acknowledge (and drop) the buffered failure for the
    failing logical address, after the OS has relocated (or restored)
    the data.  Returns the preserved payload. *)
let drain_failure (t : t) (logical : int) : Bytes.t option =
  check_line t logical;
  match Failure_buffer.take t.buffer ~addr:logical with
  | None -> None
  | Some _ as data ->
      if Trace.armed t.tracer then begin
        Trace.instant t.tracer ~tid:Trace.tid_pcm "fbuf_drain"
          ~args:[ ("line", float_of_int logical) ];
        Trace.counter t.tracer ~tid:Trace.tid_pcm "fbuf"
          [ ("occupancy", float_of_int (Failure_buffer.occupancy t.buffer)) ]
      end;
      data

(** Logical indices of all currently unusable lines, ascending. *)
let unusable_lines (t : t) : int list =
  let acc = ref [] in
  Bitset.iter_set t.unusable (fun i -> acc := i :: !acc);
  List.rev !acc

(** Per-stage permutation invariants plus whole-pipeline bijectivity —
    the translation-consistency check {!Holes.Verify} runs each phase.
    Touches no counted path. *)
let check_translation (t : t) : (unit, string) result =
  Translate.check t.stages ~nlines:t.nlines

(** Coefficient of variation of per-line wear (write counts) across the
    module: ~0 under perfect leveling, large when traffic concentrates.
    The paper's Sec. 7.2 ablation reads this as "how level is the
    wear".  Allocation-free: it folds the flat write counts into the
    device's reused accumulator, and inlines so the result is not boxed
    to cross the call. *)
let[@inline] wear_cov (t : t) : float =
  let m = t.cov_scratch and writes = t.wear.Wear.writes in
  Holes_obs.Stats.reset_moments m;
  for i = 0 to Array.length writes - 1 do
    Holes_obs.Stats.accumulate m (float_of_int (Array.unsafe_get writes i))
  done;
  Holes_obs.Stats.cov m

(** Accumulated write count over the physical lines currently backing
    logical page [page] — the wear signal the OS page allocator consults
    when [Config.wear_aware_pools] orders the free perfect pool.  Walks
    the translation pipeline per line, so a leveling stage's remaps are
    reflected. *)
let page_wear (t : t) (page : int) : int =
  if page < 0 || page >= t.config.pages then invalid_arg "Device.page_wear: page out of range";
  let base = page * Geometry.lines_per_page in
  let acc = ref 0 in
  for i = 0 to Geometry.lines_per_page - 1 do
    acc := !acc + t.wear.Wear.writes.(physical_of_logical t (base + i))
  done;
  !acc

type wl_stats = {
  gap_moves : int;  (** start-gap movements *)
  remaps : int;  (** pair swaps (random remap / decoder swap) *)
  copies : int;  (** overhead line copies charged to the device *)
  meta_writes : int;  (** leveling map / decoder reprogram writes *)
}

type stats = {
  reads : int;
  writes : int;
  failures : int;
  buffer : Failure_buffer.stats;
  wl : wl_stats option;  (** present once a leveling stage is installed *)
  caram : Caram.stats option;  (** present while the content store is live *)
}

let stats (t : t) : stats =
  {
    reads = t.reads;
    writes = t.writes;
    failures = t.failures;
    buffer = Failure_buffer.stats t.buffer;
    caram = (match t.caram with None -> None | Some c -> Some (Caram.stats c));
    wl =
      (match t.wear_stage with
      | None -> None
      | Some w ->
          Some
            {
              gap_moves = Wear_level.gap_moves w;
              remaps = Wear_level.remaps w;
              copies = Wear_level.copies w;
              meta_writes = Wear_level.meta_writes w;
            });
  }
