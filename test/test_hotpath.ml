(* Property tests for the word-level hot paths (DESIGN.md §9): every
   packed-word operation is replayed against a naive per-bit reference
   on thousands of seeded random states, and the experiment pipeline is
   pinned to a committed golden snapshot — the representation change
   must be invisible in both results and the charged cost model.

   To regenerate the golden after an intentional results change:

     HOLES_UPDATE_GOLDEN=test/golden/determinism.jsonl \
       dune exec test/test_main.exe -- test hotpath *)

module B = Holes_stdx.Bitset
module Rng = Holes_stdx.Xrng
module Block = Holes_heap.Block
module R = Holes_exp.Runner
module Sink = Holes_engine.Sink
module Cfg = Holes.Config

let check = Alcotest.check

(* ---- naive per-bit reference ----------------------------------------- *)

let naive_next_set (a : bool array) (from : int) : int option =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) then Some i else go (i + 1) in
  go (max 0 from)

let naive_next_clear (a : bool array) (from : int) : int option =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) then go (i + 1) else Some i in
  go (max 0 from)

(* end (exclusive) of the run of set bits starting at [i] *)
let run_end (a : bool array) (i : int) : int =
  let n = Array.length a in
  let rec go i = if i < n && a.(i) then go (i + 1) else i in
  go i

let naive_next_set_run (a : bool array) (from : int) : (int * int) option =
  match naive_next_set a from with
  | None -> None
  | Some s -> Some (s, run_end a (s + 1))

let naive_find_set_run (a : bool array) ~(from : int) ~(min_len : int) :
    (int * int) option =
  let n = Array.length a in
  let rec go i =
    if i >= n then None
    else if a.(i) then
      let e = run_end a i in
      if e - i >= min_len then Some (i, e) else go e
    else go (i + 1)
  in
  go (max 0 from)

let naive_count (a : bool array) : int =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 a

let naive_count_runs (a : bool array) : int =
  let runs = ref 0 in
  Array.iteri (fun i v -> if v && (i = 0 || not a.(i - 1)) then incr runs) a;
  !runs

let naive_subset (a : bool array) (b : bool array) : bool =
  let ok = ref true in
  Array.iteri (fun i v -> if v && not b.(i) then ok := false) a;
  !ok

(* ---- bitset primitives vs reference ---------------------------------- *)

let opt_pair = Alcotest.(option (pair int int))

let test_bitset_vs_naive () =
  let rng = Rng.of_seed 0xb175 in
  (* word-boundary lengths get extra weight: that is where packed-word
     code goes wrong *)
  let edge_lens = [| 1; 2; 62; 63; 64; 65; 125; 126; 127; 189; 252; 315 |] in
  for case = 1 to 12_000 do
    let len =
      if case land 3 = 0 then edge_lens.(Rng.int rng (Array.length edge_lens))
      else 1 + Rng.int rng 320
    in
    let density = Rng.float rng in
    let a = Array.init len (fun _ -> Rng.float rng < density) in
    let t = B.of_bool_array a in
    (* point mutations exercise set/clear, not just of_bool_array *)
    for _ = 1 to 3 do
      let i = Rng.int rng len in
      let v = Rng.bool rng in
      a.(i) <- v;
      B.assign t i v
    done;
    let from = Rng.int rng (len + 3) - 1 in
    let min_len = 1 + Rng.int rng 130 in
    check Alcotest.(option int) "next_set" (naive_next_set a from) (B.next_set t from);
    check Alcotest.(option int) "next_clear" (naive_next_clear a from) (B.next_clear t from);
    check opt_pair "next_set_run" (naive_next_set_run a from) (B.next_set_run t from);
    check opt_pair "find_set_run"
      (naive_find_set_run a ~from ~min_len)
      (B.find_set_run t ~from ~min_len);
    check Alcotest.int "count" (naive_count a) (B.count t);
    check Alcotest.int "count_runs" (naive_count_runs a) (B.count_runs t);
    (* subset/equal: a perturbed copy is a superset half the time *)
    let b_arr = Array.copy a in
    if Rng.bool rng then
      for _ = 1 to 2 do b_arr.(Rng.int rng len) <- true done
    else begin
      let i = Rng.int rng len in
      b_arr.(i) <- not b_arr.(i)
    end;
    let b = B.of_bool_array b_arr in
    check Alcotest.bool "subset" (naive_subset a b_arr) (B.subset t b);
    check Alcotest.bool "equal" (a = b_arr) (B.equal t b)
  done

(* ---- block hole search vs reference ---------------------------------- *)

(* Random blocks with random failure bitmaps and churning single-line
   objects; [find_hole] (including the charged [lines_examined]) must
   match a per-bit scan of a mirrored free map at every step — in
   particular the [hole_bound] fast path may never reject a request a
   real scan would satisfy. *)
let test_find_hole_vs_naive () =
  let rng = Rng.of_seed 0x401e in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 400 do
    let line_size = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let fail_p = Rng.float rng *. 0.15 in
    let lines_per_page = Holes_pcm.Geometry.lines_per_page in
    let bitmaps =
      Array.init Holes_heap.Units.pages_per_block (fun _ ->
          let b = B.create lines_per_page in
          for i = 0 to lines_per_page - 1 do
            if Rng.float rng < fail_p then B.set b i
          done;
          b)
    in
    let blk =
      Block.create ~tbl:(Block.table_create ()) ~index:0 ~base:0 ~line_size
        ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
        ~page_bitmap:(fun id -> bitmaps.(id)) ()
    in
    let nlines = blk.Block.nlines in
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    let placed = ref [] in
    for _q = 1 to 30 do
      (* churn: place an object on a free line, reclaim one, or fail a
         free line — keeping the mirror in lockstep *)
      (match Rng.int rng 4 with
      | 0 -> (
          match naive_next_set free (Rng.int rng nlines) with
          | Some l ->
              Block.add_object_lines blk ~addr:(l * line_size) ~size:line_size;
              free.(l) <- false;
              placed := l :: !placed
          | None -> ())
      | 1 -> (
          match !placed with
          | l :: rest ->
              Block.remove_object_lines blk ~addr:(l * line_size) ~size:line_size;
              free.(l) <- true;
              placed := rest
          | [] -> ())
      | 2 -> (
          match naive_next_set free (Rng.int rng nlines) with
          | Some l ->
              (match Block.fail_line blk ~line:l with
              | `Was_free -> ()
              | r ->
                  Alcotest.failf "fail_line on free line %d reported %s" l
                    (match r with `Was_live -> "live" | _ -> "failed"));
              free.(l) <- false
          | None -> ())
      | _ -> ());
      let from_line = Rng.int rng (nlines + 3) - 1 in
      let min_bytes = 1 + Rng.int rng (12 * line_size) in
      let needed = (min_bytes + line_size - 1) / line_size in
      let expect =
        match naive_find_set_run free ~from:(max 0 from_line) ~min_len:needed with
        | None -> None
        | Some (s, e) -> Some (s, e, e - max 0 from_line)
      in
      check
        Alcotest.(option (triple int int int))
        "find_hole" expect
        (Block.find_hole blk ~from_line ~min_bytes);
      check Alcotest.int "count_holes" (naive_count_runs free) (Block.count_holes blk)
    done
  done

(* ---- bump fast path vs scan-per-refill reference ---------------------- *)

let naive_longest_free_run (a : bool array) : int =
  let best = ref 0 and cur = ref 0 in
  Array.iter
    (fun v ->
      if v then begin
        incr cur;
        if !cur > !best then best := !cur
      end
      else cur := 0)
    a;
  !best

let make_failed_block (rng : Rng.t) ~(line_size : int) ~(fail_p : float) : Block.t =
  let lines_per_page = Holes_pcm.Geometry.lines_per_page in
  let bitmaps =
    Array.init Holes_heap.Units.pages_per_block (fun _ ->
        let b = B.create lines_per_page in
        for i = 0 to lines_per_page - 1 do
          if Rng.float rng < fail_p then B.set b i
        done;
        b)
  in
  Block.create ~tbl:(Block.table_create ()) ~index:0 ~base:0 ~line_size
    ~pages:(Array.init Holes_heap.Units.pages_per_block Fun.id)
    ~page_bitmap:(fun id -> bitmaps.(id)) ()

(* The allocation fast path bumps a cursor through a previously found
   hole and re-enters [find_hole] only on exhaustion (DESIGN.md §13).
   The reference allocator below follows the identical refill policy —
   scan from the spent hole's limit, wrap to the block start — but
   performs every search as a naive per-bit scan over a mirrored free
   map.  A packed-word scan bug, mis-maintained line accounting, or a
   [hole_bound] cache that decays below the true longest run (rejecting
   a satisfiable refill) all diverge the address sequences.  Churn
   between allocations — object death anywhere, dynamic line failures
   outside the active hole — is what ages the cached bound. *)
let test_bump_vs_reference () =
  let rng = Rng.of_seed 0xb04d in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 60 do
    let ls = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let blk = make_failed_block rng ~line_size:ls ~fail_p:(Rng.float rng *. 0.2) in
    let nlines = blk.Block.nlines in
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    let flty = Array.init nlines (fun l -> Block.line_state blk l = Block.Failed) in
    let live = Array.make nlines 0 in
    let m_add addr size =
      let lo = addr / ls and hi = (addr + size - 1) / ls in
      for l = lo to hi do
        if flty.(l) then Alcotest.failf "placement covers failed line %d" l;
        if live.(l) = 0 then free.(l) <- false;
        live.(l) <- live.(l) + 1
      done
    in
    let m_remove addr size =
      let lo = addr / ls and hi = (addr + size - 1) / ls in
      for l = lo to hi do
        live.(l) <- live.(l) - 1;
        if live.(l) = 0 then free.(l) <- true
      done
    in
    (* real side: Immix's cursor policy over the packed block *)
    let cursor = ref 0 and limit = ref 0 in
    let real_alloc size =
      if !cursor + size <= !limit then begin
        let a = !cursor in
        cursor := a + size;
        Block.add_object_lines blk ~addr:a ~size;
        Some a
      end
      else
        let refill from_line =
          match Block.find_hole blk ~from_line ~min_bytes:size with
          | Some (s, e, _) ->
              cursor := s * ls;
              limit := e * ls;
              true
          | None -> false
        in
        if refill (!limit / ls) || refill 0 then begin
          let a = !cursor in
          cursor := a + size;
          Block.add_object_lines blk ~addr:a ~size;
          Some a
        end
        else None
    in
    (* reference side: the same policy, every search a per-bit scan *)
    let mcursor = ref 0 and mlimit = ref 0 in
    let mirror_alloc size =
      let needed = (size + ls - 1) / ls in
      if !mcursor + size <= !mlimit then begin
        let a = !mcursor in
        mcursor := a + size;
        m_add a size;
        Some a
      end
      else
        let refill from =
          match naive_find_set_run free ~from ~min_len:needed with
          | Some (s, e) ->
              mcursor := s * ls;
              mlimit := e * ls;
              true
          | None -> false
        in
        if refill (!mlimit / ls) || refill 0 then begin
          let a = !mcursor in
          mcursor := a + size;
          m_add a size;
          Some a
        end
        else None
    in
    let placed = ref [] in
    for _op = 1 to 300 do
      (match Rng.int rng 8 with
      | 0 | 1 -> (
          (* object death: reclaim a placed object *)
          match !placed with
          | (a, sz) :: rest ->
              Block.remove_object_lines blk ~addr:a ~size:sz;
              m_remove a sz;
              placed := rest
          | [] -> ())
      | 2 -> (
          (* dynamic failure on a free line outside the active hole *)
          match naive_next_set free (Rng.int rng nlines) with
          | Some l when l < !cursor / ls || l >= !limit / ls ->
              (match Block.fail_line blk ~line:l with
              | `Was_free -> ()
              | _ -> Alcotest.fail "fail_line on mirrored-free line not `Was_free");
              free.(l) <- false;
              flty.(l) <- true
          | _ -> ())
      | _ ->
          let size = 1 + Rng.int rng (4 * ls) in
          let got = real_alloc size and want = mirror_alloc size in
          check Alcotest.(option int) "bump address" want got;
          (match got with Some a -> placed := (a, size) :: !placed | None -> ()));
      check Alcotest.int "free_lines" (naive_count free) (Block.free_lines blk);
      Alcotest.(check bool) "hole_bound is an upper bound" true
        (naive_longest_free_run free <= Block.hole_bound blk)
    done
  done

(* ---- mark deque vs oracle reference ----------------------------------- *)

(* The flat batched mark deque replaced a per-slot recursive walk; the
   observable contract is unchanged: after a full collection exactly the
   oracle-live objects survive, every dead slot is released for reuse,
   and the rebuilt block line accounting matches a naive recomputation
   from the survivors — which is precisely what [Vm.verify] replays
   (per-line live maps, counts, hole bounds, charge conservation). *)
let test_mark_deque_vs_reference () =
  let rng = Rng.of_seed 0x6c01 in
  for _case = 1 to 6 do
    let cfg = { Cfg.default with Cfg.failure_rate = 0.1 } in
    let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(2 * 1024 * 1024) () in
    let objects = Holes.Vm.objects vm in
    let ids = Array.init 800 (fun _ -> Holes.Vm.alloc vm ~size:(16 + Rng.int rng 240) ()) in
    (* random edges, including from and into objects about to die: edge
       charges are per-survivor, dead sources must not resurrect dsts *)
    for _ = 1 to 1200 do
      let s = ids.(Rng.int rng (Array.length ids)) in
      let d = ids.(Rng.int rng (Array.length ids)) in
      if s <> d then Holes.Vm.write_ref vm ~src:s ~dst:d
    done;
    Array.iter (fun id -> if Rng.bool rng then Holes.Vm.kill vm id) ids;
    let expected_alive =
      Array.to_list ids |> List.filter (Holes_heap.Object_table.is_alive objects)
    in
    Holes.Vm.collect vm ~full:true;
    List.iter
      (fun id ->
        Alcotest.(check bool) "survivor alive" true
          (Holes_heap.Object_table.is_alive objects id))
      expected_alive;
    Array.iter
      (fun id ->
        if not (Holes_heap.Object_table.is_alive objects id) then
          check Alcotest.int "dead slot released" (-1)
            (Holes_heap.Object_table.addr objects id))
      ids;
    check Alcotest.int "live_count" (List.length expected_alive)
      (Holes_heap.Object_table.live_count objects);
    match (Holes.Vm.verify vm).Holes.Verify.errors with
    | [] -> ()
    | e :: _ -> Alcotest.failf "verify after collect: %s" e
  done

(* ---- fused sweep vs naive per-line sweep ------------------------------ *)

(* [Block.sweep] recomputes the hole bound in one word-level pass over
   the packed free map.  The reference recomputes it per line from a
   mirror rebuilt the way the mark loop rebuilds the block: clear, then
   re-add the survivors. *)
let test_fused_sweep_vs_naive () =
  let rng = Rng.of_seed 0x53ee in
  let line_sizes = [| 64; 128; 256 |] in
  for _case = 1 to 200 do
    let ls = line_sizes.(Rng.int rng (Array.length line_sizes)) in
    let blk = make_failed_block rng ~line_size:ls ~fail_p:(Rng.float rng *. 0.3) in
    let nlines = blk.Block.nlines in
    Block.clear_marks blk;
    let free = Array.init nlines (fun l -> Block.line_state blk l = Block.Free) in
    (* re-add surviving objects, as the mark loop does *)
    for _ = 1 to 40 do
      let needed = 1 + Rng.int rng 4 in
      match naive_find_set_run free ~from:(Rng.int rng nlines) ~min_len:needed with
      | Some (s, _) ->
          Block.add_object_lines blk ~addr:(s * ls) ~size:(needed * ls);
          for l = s to s + needed - 1 do
            free.(l) <- false
          done
      | None -> ()
    done;
    Block.set_recyclable blk true;
    let freec = Block.sweep blk in
    check Alcotest.int "sweep free count" (naive_count free) freec;
    check Alcotest.int "sweep free_lines" (naive_count free) (Block.free_lines blk);
    check Alcotest.int "sweep exact hole bound" (naive_longest_free_run free)
      (Block.hole_bound blk);
    Alcotest.(check bool) "sweep clears recyclable" false (Block.recyclable blk)
  done

(* ---- experiment-pipeline determinism golden --------------------------- *)


let grid_cfgs = [ Cfg.default; { Cfg.default with Cfg.failure_rate = 0.25 } ]
let grid_profiles = [ Holes_workload.Dacapo.luindex; Holes_workload.Dacapo.avrora ]

let find_sub (haystack : string) (needle : string) : int option =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* drop ["worker":N,"duration_s":F,] — scheduling noise, everything else
   is the deterministic trial outcome *)
let strip_schedule (l : string) : string =
  match find_sub l "\"worker\":" with
  | None -> l
  | Some i ->
      let rec nth_comma j k =
        if l.[j] = ',' then if k = 1 then j else nth_comma (j + 1) (k - 1)
        else nth_comma (j + 1) k
      in
      let j = nth_comma i 2 in
      String.sub l 0 i ^ String.sub l (j + 1) (String.length l - j - 1)

let read_lines (path : string) : string list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let grid_lines ~(jobs : int) : string list =
  let path = Filename.temp_file "holes_golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.clear_cache ();
      let sink = Sink.create ~path ~progress:false () in
      R.set_sink (Some sink);
      Fun.protect
        ~finally:(fun () ->
          R.set_sink None;
          Sink.close sink;
          R.clear_cache ())
        (fun () ->
          let params = { R.scale = 0.05; seeds = 2; jobs } in
          R.prefetch ~params ~cfgs:grid_cfgs ~profiles:grid_profiles ();
          List.iter
            (fun cfg ->
              List.iter
                (fun profile -> ignore (R.run ~params ~cfg ~profile ()))
                grid_profiles)
            grid_cfgs);
      read_lines path |> List.map strip_schedule |> List.sort compare)

let golden_path = "golden/determinism.jsonl"

let test_golden_determinism () =
  let j1 = grid_lines ~jobs:1 in
  let j4 = grid_lines ~jobs:4 in
  check Alcotest.(list string) "-j 4 bit-identical to -j 1" j1 j4;
  match Sys.getenv_opt "HOLES_UPDATE_GOLDEN" with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) j1;
      close_out oc;
      Printf.printf "(wrote %s)\n" out
  | None ->
      check
        Alcotest.(list string)
        "matches committed golden" (read_lines golden_path) j1

(* ---- zero-allocation step ------------------------------------------

   The per-object and per-line-write step allocates no OCaml minor-heap
   words: the workload samplers, the log2 histogram, the small-object
   bump path and the untiered device write.  Each check counts
   [Gc.minor_words] over at least 10k calls and asserts exactly 0.

   The property needs cross-module inlining ([Xrng.float] returns a
   float, which a non-inlined call boxes), so it holds in an optimizing
   build: the repository's default [strict] profile (dune-workspace) or
   [--profile release].
   Dune's dev profile compiles with -opaque, which disables that
   inlining, and these checks fail there by construction. *)

module Dist = Holes_stdx.Dist
module Gen = Holes_workload.Generator
module Stats = Holes_obs.Stats
module Mb = Holes.Memory_backend

let zero_alloc_calls = 10_000

(* minor words allocated by [n] calls of [f] (after one warm-up call) *)
let words_over ~(n : int) (f : int -> unit) : int =
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  int_of_float (Gc.minor_words () -. w0)

let check_zero name f =
  check Alcotest.int
    (Printf.sprintf "%s: minor words over %d calls" name zero_alloc_calls)
    0
    (words_over ~n:zero_alloc_calls f)

let test_zero_alloc_samplers () =
  (* the harness itself allocates nothing *)
  check_zero "empty loop" (fun _ -> ());
  let rng = Rng.of_seed 21 in
  let fsink = [| 0.0 |] and isink = [| 0 |] in
  check_zero "Xrng.float" (fun _ -> fsink.(0) <- fsink.(0) +. Rng.float rng);
  check_zero "Dist.exponential" (fun _ ->
      fsink.(0) <- fsink.(0) +. Dist.exponential rng ~mean:300.0);
  List.iter
    (fun p ->
      let dist = Gen.category_dist p in
      check_zero
        ("Generator.sample_size " ^ p.Holes_workload.Profile.name)
        (fun _ -> isink.(0) <- isink.(0) + Gen.sample_size rng p dist);
      check_zero
        ("Generator.sample_lifetime " ^ p.Holes_workload.Profile.name)
        (fun _ -> isink.(0) <- isink.(0) + Gen.sample_lifetime rng p))
    Holes_workload.Dacapo.suite;
  let h = Stats.hist () in
  check_zero "Stats.observe" (fun i -> Stats.observe h (float_of_int (i * 37)));
  ignore (Sys.opaque_identity (fsink, isink))

(* Small-object [Vm.alloc] on the bump path.  Warm-up rounds fill the
   heap, kill everything and collect, so the dissolved blocks' storage
   is spare and has grown to this workload's object count (a block that
   was dissolved while still small grows once more when reused); the
   measured calls are every one that neither collected nor assembled a
   block (at 25% failures that includes hole skips within the current
   block). *)
let test_zero_alloc_bump () =
  List.iter
    (fun rate ->
      let cfg = { Cfg.default with Cfg.failure_rate = rate; failure_dist = Cfg.Uniform } in
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(8 lsl 20) () in
      let m = Holes.Vm.metrics vm in
      for _ = 1 to 3 do
        let warm = Array.init 40_000 (fun _ -> Holes.Vm.alloc vm ~size:48 ()) in
        Array.iter (Holes.Vm.kill vm) warm;
        Holes.Vm.collect vm ~full:true
      done;
      let measured = ref 0 and words = ref 0 in
      for _ = 1 to zero_alloc_calls + 2_000 do
        let blocks = m.Holes.Metrics.blocks_assembled
        and gcs = m.Holes.Metrics.nursery_gcs + m.Holes.Metrics.full_gcs in
        let w0 = Gc.minor_words () in
        ignore (Holes.Vm.alloc vm ~size:48 ());
        let w = int_of_float (Gc.minor_words () -. w0) in
        if blocks = m.Holes.Metrics.blocks_assembled
           && gcs = m.Holes.Metrics.nursery_gcs + m.Holes.Metrics.full_gcs
        then begin
          incr measured;
          words := !words + w
        end
      done;
      check Alcotest.bool
        (Printf.sprintf "rate %.2f: >= %d bump-path calls" rate zero_alloc_calls)
        true
        (!measured >= zero_alloc_calls);
      check Alcotest.int (Printf.sprintf "rate %.2f: bump-path minor words" rate) 0 !words)
    [ 0.0; 0.25 ]

(* [Memory_backend.device_write] on the untiered identity pipeline (no
   leveling, no clustering, no caram, no migration), then with the
   content store in front of the cells, then with migration on but an
   epoch too long for any page to turn hot (so every write takes
   [Tier.note_pcm_write]'s bump); production endurance, no wear-outs. *)
let test_zero_alloc_device_write () =
  List.iter
    (fun (name, hybrid) ->
      let d = { Cfg.default_device with Cfg.wear = Holes_pcm.Wear.default_params } in
      let cfg = { Cfg.default with Cfg.backend = Cfg.Device d; hybrid } in
      let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
      let st = Option.get (Holes.Vm.device_state vm) in
      let npages = Array.length st.Mb.virt_of_stock in
      let lines = Holes_pcm.Geometry.lines_per_page in
      let write i =
        match Mb.device_write st ~stock_page:(i / lines mod npages) ~line:(i mod lines) with
        | Mb.Stored -> ()
        | Mb.Line_failed | Mb.Skipped -> Alcotest.fail "device write not stored"
      in
      (* warm-up: the arena materializes its chunks, the content store
         fills its ways and the tier learns every page, on first touch *)
      for i = 0 to (2 * npages * lines) - 1 do
        write i
      done;
      check_zero ("Memory_backend.device_write, " ^ name) write)
    [
      ("untiered", Holes_pcm.Hybrid.none);
      ("caram", { Holes_pcm.Hybrid.migrate_epoch = None; caram_ways = Some 8 });
      ("migrate, no page hot", { Holes_pcm.Hybrid.migrate_epoch = Some max_int; caram_ways = None });
    ]

module Immix = Holes.Immix
module M = Holes.Metrics
module Tenant = Holes_fleet.Tenant

let immix_of (vm : Holes.Vm.t) : Immix.t =
  match vm.Holes.Vm.space with Holes.Vm.Ix s -> s | Holes.Vm.Ms _ -> Alcotest.fail "expected Immix"

(* The record every recorded pause leaves: a cons cell on
   [Metrics.pauses_ns] (3 words) holding the boxed float (2 words). *)
let pause_record_words = 5

(* Incremental collection slices.  A sliding window of small objects
   keeps the heap churning until the allocation pulse opens a cycle;
   the cycle then runs one [gc_increment] at a time.  Every mark slice
   and every sweep slice that does not end its phase allocates exactly
   the pause record (the phase-ending slices select the defrag
   candidates and install the recyclable vector).  The first cycle
   grows the work-lists and is not measured. *)
let test_zero_alloc_gc_slices () =
  let cfg = { Cfg.default with Cfg.gc_slice = 256 } in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(4 lsl 20) () in
  let s = immix_of vm in
  let window = Array.make 20_000 (-1) and k = ref 0 in
  let slices = Array.make 4 0 and odd = ref [] in
  for cycle = 1 to 4 do
    while not (Immix.incremental_active s) do
      let i = !k mod Array.length window in
      if window.(i) >= 0 then Holes.Vm.kill vm window.(i);
      window.(i) <- Holes.Vm.alloc vm ~size:(16 + (!k mod 9 * 24)) ();
      incr k
    done;
    while Immix.incremental_active s do
      let phase = s.Immix.inc_phase in
      let w0 = Gc.minor_words () in
      Immix.gc_increment s;
      let w = int_of_float (Gc.minor_words () -. w0) in
      if cycle > 1 && s.Immix.inc_phase = phase && phase <> Immix.inc_defrag then begin
        slices.(phase) <- slices.(phase) + 1;
        if w <> pause_record_words then odd := (phase, w) :: !odd
      end
    done
  done;
  check Alcotest.bool
    (Printf.sprintf "mark slices measured (%d)" slices.(Immix.inc_mark))
    true
    (slices.(Immix.inc_mark) >= 100);
  check Alcotest.bool
    (Printf.sprintf "sweep slices measured (%d)" slices.(Immix.inc_sweep))
    true
    (slices.(Immix.inc_sweep) >= 20);
  check
    Alcotest.(list (pair int int))
    "slices allocating other than the pause record (phase, words)" [] !odd

(* The fleet's serving tenant on its VM configuration (device backend,
   incremental slices), at production endurance so no line wears out.
   After a store to every heap line has committed the device's payload
   arena, and warm-up requests have grown the session vector, the
   object table, the remembered set and the blocks' object lists, a
   request that runs no collection slice, assembles no block and places
   no large object allocates only its outcome: the [Ok] block (2 words)
   and the two-float record (3). *)
let test_zero_alloc_tenant_serve () =
  let d = { Cfg.default_device with Cfg.wear = Holes_pcm.Wear.default_params } in
  let cfg = { Cfg.default with Cfg.backend = Cfg.Device d; gc_slice = 256 } in
  let params = Tenant.default in
  let vm =
    Holes.Vm.create ~cfg
      ~min_heap_bytes:(Holes_workload.Profile.min_heap params.Tenant.profile)
      ()
  in
  let tenant = Tenant.make params (Rng.of_seed 5) in
  let m = Holes.Vm.metrics vm in
  let st = Option.get (Holes.Vm.device_state vm) in
  for sp = 0 to Array.length st.Mb.virt_of_stock - 1 do
    for line = 0 to Holes_pcm.Geometry.lines_per_page - 1 do
      ignore (Mb.device_write st ~stock_page:sp ~line)
    done
  done;
  let serve () =
    match Tenant.serve tenant vm with Ok _ -> () | Error `Oom -> Alcotest.fail "tenant OOM"
  in
  for _ = 1 to 1_000 do
    serve ()
  done;
  let measured = ref 0 and odd = ref [] in
  for _ = 1 to 3_000 do
    let events () =
      m.M.gc_increments + m.M.nursery_gcs + m.M.full_gcs + m.M.blocks_assembled
      + m.M.los_objects + m.M.device_line_failures
    in
    let e0 = events () in
    let w0 = Gc.minor_words () in
    serve ();
    let w = int_of_float (Gc.minor_words () -. w0) in
    if events () = e0 then begin
      incr measured;
      if w <> 5 then odd := w :: !odd
    end
  done;
  check Alcotest.bool (Printf.sprintf "requests measured (%d)" !measured) true (!measured >= 200);
  check Alcotest.(list int) "requests allocating more than their outcome (words)" [] !odd

(* Words one wear-out costs on its way through the whole chain —
   device write, failure buffer, interrupt queue, OS service, up-call,
   and the runtime's retirement of the line — for a free line of an
   assembled block under the incremental regime.  Exactly two
   allocations remain: the device's one-element list of newly unusable
   lines (3 words) and the OS's copy of the buffered payload with its
   option (64 B payload: 10 words, [Some]: 2). *)
let wear_out_words = 15

let test_wear_out_words () =
  let d = Cfg.default_device in
  let wear = { d.Cfg.wear with Holes_pcm.Wear.mean_endurance = 40.0 } in
  let cfg = { Cfg.default with Cfg.backend = Cfg.Device { d with Cfg.wear }; gc_slice = 256 } in
  let vm = Holes.Vm.create ~cfg ~min_heap_bytes:(1 lsl 20) () in
  let s = immix_of vm in
  let st = Option.get (Holes.Vm.device_state vm) in
  let m = Holes.Vm.metrics vm in
  (* one small object assembles a block; its last line stays free *)
  let id = Holes.Vm.alloc vm ~size:32 () in
  let b = Immix.block_of_addr s (Holes_heap.Object_table.addr (Holes.Vm.objects vm) id) in
  let lines = Holes_pcm.Geometry.lines_per_page in
  let stock_page = b.Holes_heap.Block.pages.(Holes_heap.Units.pages_per_block - 1) in
  let costs = ref [] in
  List.iter
    (fun line ->
      (* the first store commits the line's arena chunk *)
      ignore (Mb.device_write st ~stock_page ~line);
      let failed = ref false and n = ref 0 in
      while not !failed do
        incr n;
        if !n > 100_000 then Alcotest.fail "line never wore out";
        let f0 = m.M.dynamic_failures in
        let w0 = Gc.minor_words () in
        let r = Mb.device_write st ~stock_page ~line in
        let w = int_of_float (Gc.minor_words () -. w0) in
        match r with
        | Mb.Stored -> if w <> 0 then Alcotest.failf "a stored write allocated %d words" w
        | Mb.Skipped -> Alcotest.fail "line unusable before wearing out"
        | Mb.Line_failed ->
            failed := true;
            if m.M.dynamic_failures <> f0 + 1 then Alcotest.fail "wear-out did not reach the heap";
            costs := w :: !costs
      done)
    [ lines - 1; lines - 2; lines - 3 ];
  check Alcotest.(list int) "words per wear-out" [ wear_out_words; wear_out_words; wear_out_words ]
    !costs;
  check Alcotest.bool "no cycle opened" false (Immix.incremental_active s)

module Device = Holes_pcm.Device
module Pools = Holes_osal.Pools

(* [Device.wear_cov], which every stats sync of a device-backed VM
   runs, folds the flat per-line write counts into the device's reused
   all-float accumulator and is inlined into its caller: no closure, no
   boxed float, no fresh accumulator. *)
let test_zero_alloc_wear_cov () =
  let config =
    { Device.default_config with Device.pages = 64; clustering = None; wear = Holes_pcm.Wear.default_params }
  in
  let dev = Device.create ~config ~seed:3 () in
  let payload = Bytes.make Holes_pcm.Geometry.line_bytes 'c' in
  (* an uneven write count per line, so the CoV is not 0 *)
  for l = 0 to Device.nlines dev - 1 do
    for _ = 0 to l mod 7 do
      ignore (Device.write dev l payload)
    done
  done;
  let fsink = [| 0.0 |] in
  check_zero "Device.wear_cov" (fun _ -> fsink.(0) <- fsink.(0) +. Device.wear_cov dev);
  check Alcotest.bool "wear CoV is positive" true (fsink.(0) > 0.0)

(* [Pools.free] of an imperfect page shifts the sorted stack in place.
   The pool holds 1,024 pages with 59 to 63 usable lines; each measured
   free returns the page just granted from the top, after one more of
   its lines failed while it was out, so it sinks below its equals. *)
let test_zero_alloc_pool_free () =
  let npages = 1024 in
  let pools = Pools.create ~dram_pages:0 ~pcm_pages:npages in
  for page = 0 to npages - 1 do
    for line = 0 to page mod 5 do
      ignore (Pools.mark_line_failed pools ~page ~line)
    done
  done;
  check Alcotest.int "all pages imperfect" npages (Pools.free_imperfect_count pools);
  let words = ref 0 in
  for _ = 1 to zero_alloc_calls do
    let id = Option.get (Pools.alloc_imperfect pools) in
    let page = Pools.page pools id in
    ignore (Pools.mark_line_failed pools ~page:id ~line:(Holes_osal.Page.failed_lines page));
    let w0 = Gc.minor_words () in
    Pools.free pools id;
    words := !words + int_of_float (Gc.minor_words () -. w0)
  done;
  check Alcotest.int "pool stays whole" npages (Pools.free_imperfect_count pools);
  check Alcotest.int
    (Printf.sprintf "Pools.free: minor words over %d calls" zero_alloc_calls)
    0 !words

(* [Device.create] keeps the wear state in flat arrays, which go
   straight to the major heap once they pass the minor heap's size
   limit, so its minor words do not grow with the device.  What
   remains are the fixed records and closures and the arrays still
   small enough for the minor heap. *)
let test_device_create_words () =
  let words pages =
    let config = { Device.default_config with Device.pages; clustering = None } in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Device.create ~config ~seed:5 ()));
    int_of_float (Gc.minor_words () -. w0)
  in
  let small = words 64 and large = words 8192 in
  check Alcotest.bool
    (Printf.sprintf "Device.create minor words: %d at 8,192 pages, %d at 64" large small)
    true (large <= small)

(* [bucket_of] against the frexp definition it replaced *)
let bucket_of_ref (v : float) : int =
  if not (v >= 1.0) then 0
  else
    let _, e = Float.frexp v in
    if e >= Stats.nbuckets then Stats.nbuckets - 1 else e

let special_floats =
  [
    0.0; -0.0; 5e-324; 2.2250738585072009e-308; 2.2250738585072014e-308; 0.5; 1.0;
    Float.pred 1.0; 2.0; Float.pred 2.0; 3.0; 1000.0; 0x1p62; Float.pred 0x1p62; 0x1p63;
    0x1p64; max_float; infinity; neg_infinity; nan; -1.0; 1e-300; Float.succ 1e-300;
  ]

(* every bit pattern: normals, subnormals, infinities and NaNs *)
let any_float = QCheck.map Int64.float_of_bits QCheck.int64

let prop_bucket_of =
  QCheck.Test.make ~name:"Stats.bucket_of = frexp reference" ~count:20_000 any_float (fun v ->
      Stats.bucket_of v = bucket_of_ref v
      && List.for_all (fun x -> Stats.bucket_of x = bucket_of_ref x) special_floats)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_clamp =
  QCheck.Test.make ~name:"Dist.clamp_tiny = Stdlib.max 1e-300" ~count:20_000 any_float (fun v ->
      same_bits (Dist.clamp_tiny v) (Stdlib.max 1e-300 v)
      && List.for_all (fun x -> same_bits (Dist.clamp_tiny x) (Stdlib.max 1e-300 x)) special_floats)

let suite =
  [
    ("bitset ops vs per-bit reference (12k cases)", `Quick, test_bitset_vs_naive);
    ("find_hole vs per-bit reference (12k queries)", `Quick, test_find_hole_vs_naive);
    ("bump fast path vs scan-per-refill reference", `Quick, test_bump_vs_reference);
    ("mark deque vs oracle reference", `Quick, test_mark_deque_vs_reference);
    ("fused sweep vs naive per-line sweep", `Quick, test_fused_sweep_vs_naive);
    ("experiment grid matches golden, -j independent", `Quick, test_golden_determinism);
    ("zero-allocation step: samplers and histogram", `Quick, test_zero_alloc_samplers);
    ("zero-allocation step: Vm.alloc bump path", `Quick, test_zero_alloc_bump);
    ("zero-allocation step: device_write", `Quick, test_zero_alloc_device_write);
    ("zero-allocation step: GC slices", `Quick, test_zero_alloc_gc_slices);
    ("zero-allocation step: Tenant.serve", `Quick, test_zero_alloc_tenant_serve);
    ("zero-allocation step: one wear-out", `Quick, test_wear_out_words);
    ("zero-allocation step: Device.wear_cov", `Quick, test_zero_alloc_wear_cov);
    ("zero-allocation step: Pools.free", `Quick, test_zero_alloc_pool_free);
    ("zero-allocation step: Device.create words flat", `Quick, test_device_create_words);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 13 |]))
      [ prop_bucket_of; prop_clamp ]
