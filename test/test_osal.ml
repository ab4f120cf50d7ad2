(* Tests for the OS abstraction layer: pools, failure table, VMM,
   interrupt handling, swap policies and debit-credit accounting. *)

open Holes_osal
module Pcm = Holes_pcm
module Bitset = Holes_stdx.Bitset

let check = Alcotest.check

(* ------------------------- Page / Pools ------------------------- *)

let test_page_kinds () =
  let p = Page.create ~id:3 ~kind:Page.Pcm_perfect in
  Alcotest.(check bool) "perfect" true (Page.is_perfect p);
  Alcotest.(check bool) "first failure marks" true (Page.mark_line_failed p ~line:7);
  Alcotest.(check bool) "kind degrades" true (p.Page.kind = Page.Pcm_imperfect);
  Alcotest.(check bool) "duplicate is no-op" false (Page.mark_line_failed p ~line:7);
  check Alcotest.int "usable lines" 63 (Page.usable_lines p)

let test_page_dram_never_fails () =
  let p = Page.create ~id:0 ~kind:Page.Dram in
  Alcotest.check_raises "DRAM cannot fail"
    (Invalid_argument "Page.mark_line_failed: DRAM pages do not fail") (fun () ->
      ignore (Page.mark_line_failed p ~line:0))

let test_pools_alloc_free () =
  let t = Pools.create ~dram_pages:2 ~pcm_pages:4 in
  check Alcotest.int "dram" 2 (Pools.free_dram_count t);
  check Alcotest.int "perfect" 4 (Pools.free_perfect_count t);
  let d = Option.get (Pools.alloc_dram t) in
  let p = Option.get (Pools.alloc_perfect t) in
  check Alcotest.int "dram taken" 1 (Pools.free_dram_count t);
  Pools.free t d;
  Pools.free t p;
  check Alcotest.int "dram back" 2 (Pools.free_dram_count t);
  check Alcotest.int "perfect back" 4 (Pools.free_perfect_count t)

let test_pools_imperfect_migration () =
  let t = Pools.create ~dram_pages:0 ~pcm_pages:3 in
  ignore (Pools.mark_line_failed t ~page:1 ~line:5);
  check Alcotest.int "perfect shrinks" 2 (Pools.free_perfect_count t);
  check Alcotest.int "imperfect grows" 1 (Pools.free_imperfect_count t);
  (* imperfect alloc prefers most-usable page *)
  ignore (Pools.mark_line_failed t ~page:1 ~line:6);
  let got = Option.get (Pools.alloc_imperfect t) in
  check Alcotest.int "degraded page served" 1 got

let test_pools_pcm_any_prefers_imperfect () =
  let t = Pools.create ~dram_pages:0 ~pcm_pages:2 in
  ignore (Pools.mark_line_failed t ~page:0 ~line:0);
  check Alcotest.int "imperfect first" 0 (Option.get (Pools.alloc_pcm_any t))

(* ------------------------- Failure table ------------------------- *)

let test_failure_table () =
  let t = Failure_table.create ~pcm_pages:4 in
  Failure_table.mark_failed t ~page:2 ~line:9;
  Alcotest.(check bool) "marked" true (Failure_table.is_failed t ~page:2 ~line:9);
  check Alcotest.int "count" 1 (Failure_table.failed_lines t ~page:2);
  check Alcotest.int "total" 1 (Failure_table.total_failed_lines t);
  check Alcotest.int "raw bits = 64/page" 256 (Failure_table.raw_bits t)

let test_failure_table_rebuild () =
  let t = Failure_table.create ~pcm_pages:2 in
  let map = Bitset.create 128 in
  Bitset.set map 3;
  Bitset.set map 100;
  Failure_table.rebuild_from t map;
  Alcotest.(check bool) "page0 line3" true (Failure_table.is_failed t ~page:0 ~line:3);
  Alcotest.(check bool) "page1 line36" true (Failure_table.is_failed t ~page:1 ~line:36)

let test_failure_table_compression () =
  let t = Failure_table.create ~pcm_pages:64 in
  Failure_table.mark_failed t ~page:5 ~line:1;
  Alcotest.(check bool) "sparse table compresses" true
    (Failure_table.rle_bits t < Failure_table.raw_bits t);
  Alcotest.(check bool) "overhead ratio matches bitmap" true
    (abs_float (Failure_table.overhead_ratio t -. (64.0 /. (4096.0 *. 8.0))) < 1e-9)

let test_failure_table_save_load () =
  let t = Failure_table.create ~pcm_pages:8 in
  Failure_table.mark_failed t ~page:1 ~line:5;
  Failure_table.mark_failed t ~page:1 ~line:6;
  Failure_table.mark_failed t ~page:7 ~line:63;
  let img = Failure_table.save t in
  match Failure_table.load img with
  | Error m -> Alcotest.fail m
  | Ok t2 ->
      check Alcotest.int "same page count" 8 (Failure_table.npages t2);
      check Alcotest.int "same failures" 3 (Failure_table.total_failed_lines t2);
      Alcotest.(check bool) "same positions" true
        (Failure_table.is_failed t2 ~page:1 ~line:5
        && Failure_table.is_failed t2 ~page:1 ~line:6
        && Failure_table.is_failed t2 ~page:7 ~line:63)

let test_failure_table_load_corrupt () =
  (match Failure_table.load "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match Failure_table.load "holes-ft1 8\no100 " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated image"

(* ------------------------- Accounting ------------------------- *)

let test_accounting_debit_credit () =
  let a = Accounting.create () in
  Accounting.fussy_request a ~pages:3 ~available:1;
  check Alcotest.int "debt = shortfall" 2 (Accounting.debt a);
  check Alcotest.int "borrowed" 2 (Accounting.total_borrowed a);
  check Alcotest.int "satisfied" 1 (Accounting.perfect_satisfied a);
  Alcotest.(check bool) "relaxed declines while in debt" true
    (Accounting.relaxed_offer_perfect a = `Decline);
  check Alcotest.int "debt repaid" 1 (Accounting.debt a);
  Alcotest.(check bool) "second decline" true (Accounting.relaxed_offer_perfect a = `Decline);
  Alcotest.(check bool) "keeps when debt-free" true (Accounting.relaxed_offer_perfect a = `Keep)

let test_accounting_loan_closed () =
  let a = Accounting.create () in
  Accounting.fussy_request a ~pages:1 ~available:0;
  Accounting.loan_closed a;
  check Alcotest.int "loan closure clears debt" 0 (Accounting.debt a);
  Accounting.loan_closed a;
  check Alcotest.int "never negative" 0 (Accounting.debt a)

(* ------------------------- VMM ------------------------- *)

let test_vmm_mmap () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let p = Vmm.spawn vmm in
  match Vmm.mmap vmm p ~pages:3 with
  | Error `Out_of_memory -> Alcotest.fail "should fit"
  | Ok virts ->
      check Alcotest.int "three pages" 3 (List.length virts);
      List.iter
        (fun v ->
          Alcotest.(check bool) "mapped" true (Vmm.translate p ~virt:v <> None);
          Alcotest.(check bool) "rw" true (Vmm.protection p ~virt:v = Vmm.Read_write))
        virts

let test_vmm_mmap_oom_rolls_back () =
  let vmm = Vmm.create ~dram_pages:1 ~pcm_pages:1 () in
  let p = Vmm.spawn vmm in
  (match Vmm.mmap vmm p ~pages:5 with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM");
  (* all pages must have been returned *)
  match Vmm.mmap vmm p ~pages:2 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "rollback leaked pages"

let test_vmm_mmap_imperfect_and_failures () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:2 () in
  (* page 1 (device page 1) is imperfect *)
  Failure_table.mark_failed (Vmm.failure_table vmm) ~page:1 ~line:4;
  ignore (Pools.mark_line_failed (Vmm.pools vmm) ~page:1 ~line:4);
  let p = Vmm.spawn vmm in
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:2) in
  let maps = List.map (fun v -> Vmm.map_failures vmm p ~virt:v) virts in
  let counts = List.map Bitset.count maps |> List.sort compare in
  check (Alcotest.list Alcotest.int) "one perfect, one imperfect" [ 0; 1 ] counts

let test_vmm_reverse_translate () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:2 () in
  let p = Vmm.spawn vmm in
  let v = List.hd (Result.get_ok (Vmm.mmap vmm p ~pages:1)) in
  let phys = Option.get (Vmm.translate p ~virt:v) in
  (match Vmm.reverse_translate vmm ~phys with
  | Some (pid, virt) ->
      check Alcotest.int "pid" p.Vmm.pid pid;
      check Alcotest.int "virt" v virt
  | None -> Alcotest.fail "reverse translation failed");
  Alcotest.(check bool) "counted" true (Vmm.reverse_translations vmm > 0)

let test_vmm_munmap () =
  let vmm = Vmm.create ~dram_pages:0 ~pcm_pages:1 () in
  let p = Vmm.spawn vmm in
  let v = List.hd (Result.get_ok (Vmm.mmap vmm p ~pages:1)) in
  Vmm.munmap vmm p ~virt:v;
  check Alcotest.int "page freed" 1 (Pools.free_perfect_count (Vmm.pools vmm))

(* ------------------------- Interrupts ------------------------- *)

let wear_quick = { Pcm.Wear.mean_endurance = 25.0; sigma = 0.05; ecp_entries = 1; ecp_extension = 0.1 }

let make_failing_device () =
  Pcm.Device.create
    ~config:{ Pcm.Device.default_config with Pcm.Device.pages = 4; wear = wear_quick; clustering = None }
    ~seed:5 ()

let hammer_until_failure device line =
  let rec go n =
    if n > 1_000_000 then Alcotest.fail "device never failed"
    else
      match Pcm.Device.write device line (Bytes.make Pcm.Geometry.line_bytes 'd') with
      | Pcm.Device.Write_failed -> ()
      | _ -> go (n + 1)
  in
  go 0

let test_interrupt_upcall () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:4 () in
  let device = make_failing_device () in
  let h = Interrupts.attach ~vmm ~device ~dram_pages:2 () in
  let p = Vmm.spawn vmm in
  ignore (Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4));
  let upcalls = ref [] in
  Vmm.register_failure_handler p (fun ~virt_page ~line ~data ->
      upcalls := (virt_page, line, data) :: !upcalls);
  hammer_until_failure device (Pcm.Geometry.lines_per_page + 3) (* page 1, line 3 *);
  Alcotest.(check bool) "interrupt pending" true (Interrupts.has_pending h);
  let res = Interrupts.service h in
  Alcotest.(check bool) "upcalled" true
    (List.exists (function Interrupts.Upcalled _ -> true | _ -> false) res);
  (match !upcalls with
  | (virt, line, data) :: _ ->
      check Alcotest.int "line in page" 3 line;
      Alcotest.(check bool) "virt page valid" true (virt >= 0);
      (match data with
      | Some d -> check Alcotest.char "data recovered" 'd' (Bytes.get d 0)
      | None -> Alcotest.fail "expected preserved data")
  | [] -> Alcotest.fail "no upcall recorded");
  (* OS bookkeeping updated *)
  check Alcotest.int "failure table updated" 1
    (Failure_table.total_failed_lines (Vmm.failure_table vmm))

let test_interrupt_page_copy_fallback () =
  let vmm = Vmm.create ~dram_pages:2 ~pcm_pages:8 () in
  let device = make_failing_device () in
  let h = Interrupts.attach ~vmm ~device ~dram_pages:2 () in
  let p = Vmm.spawn vmm in
  (* failure-unaware process: no handler registered; map pages 0..3 *)
  let virts = Result.get_ok (Vmm.mmap_imperfect vmm p ~pages:4) in
  let v0 = List.hd virts in
  let phys_before = Option.get (Vmm.translate p ~virt:v0) in
  hammer_until_failure device 0 (* device page 0, mapped at v0 *);
  let res = Interrupts.service h in
  Alcotest.(check bool) "page copied" true
    (List.exists (function Interrupts.Page_copied _ -> true | _ -> false) res);
  let phys_after = Option.get (Vmm.translate p ~virt:v0) in
  Alcotest.(check bool) "remapped to a different physical page" true (phys_before <> phys_after);
  Alcotest.(check bool) "access restored" true (Vmm.protection p ~virt:v0 = Vmm.Read_write)

(* ------------------------- Swap ------------------------- *)

let test_swap_policies () =
  let pools = Pools.create ~dram_pages:0 ~pcm_pages:4 in
  let table = Failure_table.create ~pcm_pages:4 in
  (* page 1: failure at line 2; page 2: failures at lines 2 and 3 *)
  Failure_table.mark_failed table ~page:1 ~line:2;
  ignore (Pools.mark_line_failed pools ~page:1 ~line:2);
  Failure_table.mark_failed table ~page:2 ~line:2;
  Failure_table.mark_failed table ~page:2 ~line:3;
  ignore (Pools.mark_line_failed pools ~page:2 ~line:2);
  ignore (Pools.mark_line_failed pools ~page:2 ~line:3);
  let src_map = Bitset.create Page.lines_per_page in
  Bitset.set src_map 2;
  Bitset.set src_map 3;
  (* compatible-imperfect: page 1 ({2}) or page 2 ({2,3}) are subsets of src *)
  (match Swap.swap_in pools ~table ~dram_pages:0 ~policy:Swap.Compatible_imperfect ~src_map with
  | Some o -> Alcotest.(check bool) "imperfect dest chosen" true (o.Swap.dest = 1 || o.Swap.dest = 2)
  | None -> Alcotest.fail "no destination");
  (* to-perfect always takes a perfect page *)
  match Swap.swap_in pools ~table ~dram_pages:0 ~policy:Swap.To_perfect ~src_map with
  | Some o ->
      Alcotest.(check bool) "perfect dest" true
        (Page.is_perfect (Pools.page pools o.Swap.dest))
  | None -> Alcotest.fail "no perfect destination"

let test_swap_clustered_count () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.set a 0;
  Bitset.set a 1;
  Bitset.set b 0;
  Alcotest.(check bool) "fewer failures compatible" true
    (Swap.compatible ~policy:Swap.Clustered_count ~src_map:a ~dest_map:b);
  Alcotest.(check bool) "more failures incompatible" false
    (Swap.compatible ~policy:Swap.Clustered_count ~src_map:b ~dest_map:a)

(* ------------------------- Pools vs list reference ------------------------- *)

(* The page pools as singly linked free lists, the head granted next —
   the representation [Pools] replaced with int stacks.  Kept here as
   the reference the stacks must reproduce grant for grant. *)
module Ref_pools = struct
  type t = {
    pages : Page.t array;
    mutable free_dram : int list;
    mutable free_perfect : int list;
    mutable free_imperfect : int list;
    allocated : (int, unit) Hashtbl.t;
    mutable wear_rank : (int -> int) option;
  }

  let create ~dram_pages ~pcm_pages =
    {
      pages =
        Array.init (dram_pages + pcm_pages) (fun id ->
            Page.create ~id ~kind:(if id < dram_pages then Page.Dram else Page.Pcm_perfect));
      free_dram = List.init dram_pages Fun.id;
      free_perfect = List.init pcm_pages (fun i -> dram_pages + i);
      free_imperfect = [];
      allocated = Hashtbl.create 64;
      wear_rank = None;
    }

  let grant t id =
    Hashtbl.replace t.allocated id ();
    Some id

  let alloc_dram t =
    match t.free_dram with
    | [] -> None
    | id :: rest ->
        t.free_dram <- rest;
        grant t id

  let alloc_perfect t =
    match (t.wear_rank, t.free_perfect) with
    | _, [] -> None
    | None, id :: rest ->
        t.free_perfect <- rest;
        grant t id
    | Some rank, first :: rest ->
        let best, _ =
          List.fold_left
            (fun (b, br) id ->
              let r = rank id in
              if r < br then (id, r) else (b, br))
            (first, rank first) rest
        in
        t.free_perfect <- List.filter (fun x -> x <> best) t.free_perfect;
        grant t best

  let alloc_imperfect t =
    match t.free_imperfect with
    | [] -> None
    | id :: rest ->
        t.free_imperfect <- rest;
        grant t id

  let alloc_pcm_any t = match alloc_imperfect t with Some id -> Some id | None -> alloc_perfect t

  let insert_imperfect_sorted t id =
    let u = Page.usable_lines t.pages.(id) in
    let rec ins = function
      | [] -> [ id ]
      | x :: rest as l -> if Page.usable_lines t.pages.(x) < u then id :: l else x :: ins rest
    in
    t.free_imperfect <- ins t.free_imperfect

  let free t id =
    if not (Hashtbl.mem t.allocated id) then invalid_arg "Pools.free: page not allocated";
    Hashtbl.remove t.allocated id;
    match t.pages.(id).Page.kind with
    | Page.Dram -> t.free_dram <- id :: t.free_dram
    | Page.Pcm_perfect -> t.free_perfect <- id :: t.free_perfect
    | Page.Pcm_imperfect -> insert_imperfect_sorted t id

  let renormalize t =
    let dram = ref [] and perfect = ref [] and imperfect = ref [] in
    for id = Array.length t.pages - 1 downto 0 do
      if not (Hashtbl.mem t.allocated id) then
        match t.pages.(id).Page.kind with
        | Page.Dram -> dram := id :: !dram
        | Page.Pcm_perfect -> perfect := id :: !perfect
        | Page.Pcm_imperfect -> imperfect := id :: !imperfect
    done;
    t.free_dram <- !dram;
    t.free_perfect <- !perfect;
    t.free_imperfect <-
      List.stable_sort
        (fun a b -> compare (Page.usable_lines t.pages.(b)) (Page.usable_lines t.pages.(a)))
        !imperfect

  let mark_line_failed t ~page ~line =
    let was_free_perfect = List.mem page t.free_perfect in
    let changed = Page.mark_line_failed t.pages.(page) ~line in
    if changed && was_free_perfect then begin
      t.free_perfect <- List.filter (fun x -> x <> page) t.free_perfect;
      insert_imperfect_sorted t page
    end;
    changed
end

type pool_op =
  | Alloc_dram
  | Alloc_perfect
  | Alloc_imperfect
  | Alloc_pcm_any
  | Free of int  (** the k-th allocated page, ascending, modulo their number *)
  | Fail of int * int  (** [mark_line_failed] on PCM page k (modulo), line *)
  | Fail_free_imperfect of int * int
      (** a failure on the k-th page of the reference's free imperfect
          list: leaves the pool unsorted *)
  | Raw_fail of int * int  (** the page alone, pools left stale (boot-scan import) *)
  | Renormalize
  | Rank of bool  (** install or clear the wear rank *)
  | Wear of int * int  (** add wear to PCM page k *)

let pool_op_gen =
  QCheck.Gen.(
    let k = int_range 0 63 and line = int_range 0 63 in
    frequency
      [
        (4, return Alloc_dram);
        (6, return Alloc_perfect);
        (5, return Alloc_imperfect);
        (4, return Alloc_pcm_any);
        (12, map (fun k -> Free k) k);
        (8, map2 (fun k l -> Fail (k, l)) k line);
        (5, map2 (fun k l -> Fail_free_imperfect (k, l)) k line);
        (1, map2 (fun k l -> Raw_fail (k, l)) k line);
        (1, return Renormalize);
        (2, map (fun b -> Rank b) bool);
        (4, map2 (fun k w -> Wear (k, w)) k (int_range 0 5));
      ])

let pool_op_print = function
  | Alloc_dram -> "alloc_dram"
  | Alloc_perfect -> "alloc_perfect"
  | Alloc_imperfect -> "alloc_imperfect"
  | Alloc_pcm_any -> "alloc_pcm_any"
  | Free k -> Printf.sprintf "free#%d" k
  | Fail (k, l) -> Printf.sprintf "fail(%d,%d)" k l
  | Fail_free_imperfect (k, l) -> Printf.sprintf "fail_free_imperfect(%d,%d)" k l
  | Raw_fail (k, l) -> Printf.sprintf "raw_fail(%d,%d)" k l
  | Renormalize -> "renormalize"
  | Rank b -> Printf.sprintf "rank %b" b
  | Wear (k, w) -> Printf.sprintf "wear(%d,+%d)" k w

(* Random sequences of every pool operation, on pools of 0-3 DRAM and
   1-24 PCM pages, give the same grants, results and counts on the
   stacks as on the lists; draining every pool at the end compares the
   complete free orders. *)
let prop_pools_vs_lists =
  QCheck.Test.make ~name:"pools stacks = list reference" ~count:400
    (QCheck.make
       ~print:(fun (d, p, ops) ->
         Printf.sprintf "dram=%d pcm=%d [%s]" d p (String.concat "; " (List.map pool_op_print ops)))
       QCheck.Gen.(triple (int_range 0 3) (int_range 1 24) (list_size (int_range 0 150) pool_op_gen)))
    (fun (dram_pages, pcm_pages, ops) ->
      let t = Pools.create ~dram_pages ~pcm_pages in
      let r = Ref_pools.create ~dram_pages ~pcm_pages in
      let wear = Array.make (dram_pages + pcm_pages) 0 in
      let rank id = wear.(id) in
      let pcm k = dram_pages + (k mod pcm_pages) in
      let counts () =
        Pools.free_dram_count t = List.length r.Ref_pools.free_dram
        && Pools.free_perfect_count t = List.length r.Ref_pools.free_perfect
        && Pools.free_imperfect_count t = List.length r.Ref_pools.free_imperfect
      in
      let fail page line =
        Pools.mark_line_failed t ~page ~line = Ref_pools.mark_line_failed r ~page ~line
      in
      let step op =
        match op with
        | Alloc_dram -> Pools.alloc_dram t = Ref_pools.alloc_dram r
        | Alloc_perfect -> Pools.alloc_perfect t = Ref_pools.alloc_perfect r
        | Alloc_imperfect -> Pools.alloc_imperfect t = Ref_pools.alloc_imperfect r
        | Alloc_pcm_any -> Pools.alloc_pcm_any t = Ref_pools.alloc_pcm_any r
        | Free k -> (
            match List.sort compare (Hashtbl.fold (fun id () l -> id :: l) r.Ref_pools.allocated []) with
            | [] -> true
            | ids ->
                let id = List.nth ids (k mod List.length ids) in
                Pools.free t id;
                Ref_pools.free r id;
                true)
        | Fail (k, line) -> fail (pcm k) line
        | Fail_free_imperfect (k, line) -> (
            match r.Ref_pools.free_imperfect with
            | [] -> true
            | l -> fail (List.nth l (k mod List.length l)) line)
        | Raw_fail (k, line) ->
            let page = pcm k in
            Page.mark_line_failed (Pools.page t page) ~line
            = Page.mark_line_failed r.Ref_pools.pages.(page) ~line
        | Renormalize ->
            Pools.renormalize t;
            Ref_pools.renormalize r;
            true
        | Rank on ->
            let rank = if on then Some rank else None in
            Pools.set_wear_rank t rank;
            r.Ref_pools.wear_rank <- rank;
            true
        | Wear (k, w) ->
            wear.(pcm k) <- wear.(pcm k) + w;
            true
      in
      let rec drain alloc_t alloc_r =
        let g = alloc_t t in
        g = alloc_r r && (g = None || drain alloc_t alloc_r)
      in
      List.for_all (fun op -> step op && counts ()) ops
      && drain Pools.alloc_imperfect Ref_pools.alloc_imperfect
      && drain Pools.alloc_perfect Ref_pools.alloc_perfect
      && drain Pools.alloc_dram Ref_pools.alloc_dram
      && counts ())

let suite =
  [
    ("page kinds", `Quick, test_page_kinds);
    ("dram never fails", `Quick, test_page_dram_never_fails);
    ("pools alloc/free", `Quick, test_pools_alloc_free);
    ("pools imperfect migration", `Quick, test_pools_imperfect_migration);
    ("pools pcm-any prefers imperfect", `Quick, test_pools_pcm_any_prefers_imperfect);
    ("failure table", `Quick, test_failure_table);
    ("failure table rebuild", `Quick, test_failure_table_rebuild);
    ("failure table compression", `Quick, test_failure_table_compression);
    ("failure table save/load", `Quick, test_failure_table_save_load);
    ("failure table rejects corrupt image", `Quick, test_failure_table_load_corrupt);
    ("accounting debit-credit", `Quick, test_accounting_debit_credit);
    ("accounting loan closed", `Quick, test_accounting_loan_closed);
    ("vmm mmap", `Quick, test_vmm_mmap);
    ("vmm mmap OOM rollback", `Quick, test_vmm_mmap_oom_rolls_back);
    ("vmm mmap_imperfect + map_failures", `Quick, test_vmm_mmap_imperfect_and_failures);
    ("vmm reverse translate", `Quick, test_vmm_reverse_translate);
    ("vmm munmap", `Quick, test_vmm_munmap);
    ("interrupt upcall path", `Quick, test_interrupt_upcall);
    ("interrupt page-copy fallback", `Quick, test_interrupt_page_copy_fallback);
    ("swap policies", `Quick, test_swap_policies);
    ("swap clustered count", `Quick, test_swap_clustered_count);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 17 |]))
      [ prop_pools_vs_lists ]
