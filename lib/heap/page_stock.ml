(** The VM's stock of OS-granted pages, with the fussy/relaxed
    discipline and debit–credit accounting of paper Sec. 5.

    The VM acquires pages via [mmap_imperfect]-style grants; each page
    carries a failure bitmap (one bit per 64 B PCM line).  Virtual
    address translation lets the OS compose any set of physical pages
    into a contiguous virtual range, so *perfect* pages are a fungible
    resource: what matters is how many remain, not where they sit
    ("virtual address translation transparently removes any problem of
    page-level fragmentation", Sec. 6.1).

    - Relaxed allocators (Immix blocks) draw imperfect pages first,
      conserving perfect ones; a perfect page offered to a relaxed
      allocator while debt is outstanding is surrendered to repay one
      page of debt.
    - Fussy allocators (LOS, overflow fallback) demand perfect pages;
      when none remain they receive a borrowed DRAM page and the process
      goes one page into debt. *)

open Holes_stdx

type page = {
  id : int;
  bitmap : Bitset.t;
  mutable failed_lines : int;  (** failed 64 B PCM lines *)
  mutable usable_logical : int;
      (** logical (collector-line-size) lines with no failed PCM line;
          a page with none is *dead* for this run and never circulates *)
}

(* The page pools are LIFO stacks of page ids ([Intvec]s: push and pop
   at the end, no cell allocated per move), the top being the next page
   drawn.  At creation the lowest address is on top. *)
type t = {
  pages : page array;
  line_size : int;  (** collector logical line size, for deadness *)
  free_perfect : Intvec.t;  (** stack; lowest address on top at creation *)
  free_imperfect : Intvec.t;  (** stack; lowest address on top at creation *)
  dead : Intvec.t;  (** pages with no usable logical line *)
  mutable free_usable_lines : int;
      (** sum over free (perfect + imperfect) pages of their non-failed
          PCM lines — kept incrementally so [free_usable_bytes], which
          the LOS consults on every allocation, is O(1) instead of a
          fold over both pools *)
  accounting : Holes_osal.Accounting.t;
  mutable borrowed_in_use : int;
  mutable repaid_pages : int;  (** pages surrendered to repay debt *)
  repaid : Intvec.t;
      (** ids of the surrendered pages: back with the OS, out of
          circulation for the rest of the run (the verifier accounts
          for them as a fourth page-ownership class) *)
  mutable max_borrowed : int;  (** DRAM borrow cap (DRAM is scarce, Sec. 2.3) *)
  mutable extra_free_bytes : unit -> int;
      (** free bytes held outside the stock (e.g. inside partially used
          collector blocks); part of the "has sufficient memory" test *)
}

let lines_per_page = Holes_pcm.Geometry.lines_per_page

(* logical lines per page with no failed PCM line.  At the default
   logical size (one PCM line) this is one word-level popcount; larger
   logical lines accumulate a <=32-bit mask of tainted logical lines
   from the set failure bits only. *)
let count_usable_logical ~(line_size : int) (bitmap : Bitset.t) : int =
  let pcm_per_logical = line_size / Holes_pcm.Geometry.line_bytes in
  let nlogical = Holes_pcm.Geometry.page_bytes / line_size in
  if pcm_per_logical = 1 then nlogical - Bitset.count bitmap
  else begin
    (* logical lines poisoned by any of their PCM lines, word-level *)
    let shift = ref 0 in
    while 1 lsl !shift < pcm_per_logical do
      incr shift
    done;
    nlogical - Bitset.popcount (Bitset.group_mask bitmap ~shift:!shift)
  end

(** Build a stock from per-page failure bitmaps — one [Bitset.t] of 64
    bits per granted page, exactly the shape [Vmm.map_failures] returns
    for each mapped virtual page.  [line_size] is the collector's
    logical line size: pages without a single usable logical line are
    quarantined as dead — they still count against the budget, exactly
    like the paper's unusable memory, but never circulate through the
    allocator. *)
let create_of_bitmaps ?(line_size = Holes_pcm.Geometry.line_bytes)
    ~(bitmaps : Bitset.t array) () : t =
  let npages = Array.length bitmaps in
  let pages =
    Array.init npages (fun p ->
        let bitmap = bitmaps.(p) in
        if Bitset.length bitmap <> lines_per_page then
          invalid_arg "Page_stock.create_of_bitmaps: bitmap is not one page";
        {
          id = p;
          bitmap;
          failed_lines = Bitset.count bitmap;
          usable_logical = count_usable_logical ~line_size bitmap;
        })
  in
  (* size each pool exactly, so filling it never regrows *)
  let n_perfect = ref 0 and n_dead = ref 0 in
  Array.iter
    (fun pg ->
      if pg.failed_lines = 0 then incr n_perfect
      else if pg.usable_logical = 0 then incr n_dead)
    pages;
  let perfect = Intvec.create ~capacity:!n_perfect ()
  and imperfect = Intvec.create ~capacity:(npages - !n_perfect - !n_dead) ()
  and dead = Intvec.create ~capacity:!n_dead () in
  let usable = ref 0 in
  for p = npages - 1 downto 0 do
    if pages.(p).failed_lines = 0 then begin
      Intvec.push perfect p;
      usable := !usable + lines_per_page
    end
    else if pages.(p).usable_logical = 0 then Intvec.push dead p
    else begin
      Intvec.push imperfect p;
      usable := !usable + lines_per_page - pages.(p).failed_lines
    end
  done;
  {
    pages;
    line_size;
    free_perfect = perfect;
    free_imperfect = imperfect;
    dead;
    free_usable_lines = !usable;
    accounting = Holes_osal.Accounting.create ();
    borrowed_in_use = 0;
    repaid_pages = 0;
    repaid = Intvec.create ();
    max_borrowed = max 16 npages;
    extra_free_bytes = (fun () -> 0);
  }

(** Build a stock of [npages] pages whose line failures come from
    [device_map] (a bitmap over [npages * 64] PCM lines) — the static
    fault-injection grant path. *)
let create ?(line_size = Holes_pcm.Geometry.line_bytes) ~(device_map : Bitset.t)
    ~(npages : int) () : t =
  if Bitset.length device_map < npages * lines_per_page then
    invalid_arg "Page_stock.create: failure map too small";
  let bitmaps =
    Array.init npages (fun p ->
        Bitset.sub device_map ~pos:(p * lines_per_page) ~len:lines_per_page)
  in
  create_of_bitmaps ~line_size ~bitmaps ()

(** Register the collector's view of free bytes held outside the stock
    (inside partially used blocks). *)
let set_extra_free (t : t) (f : unit -> int) : unit = t.extra_free_bytes <- f

(** Override the DRAM borrow cap (default: npages/8, min 16). *)
let set_max_borrowed (t : t) (cap : int) : unit = t.max_borrowed <- cap

let page (t : t) (id : int) : page = t.pages.(id)

let npages (t : t) : int = Array.length t.pages

let free_perfect_count (t : t) : int = Intvec.length t.free_perfect

let free_imperfect_count (t : t) : int = Intvec.length t.free_imperfect

let free_pages (t : t) : int = free_perfect_count t + free_imperfect_count t

let accounting (t : t) : Holes_osal.Accounting.t = t.accounting

(** Total usable (non-failed) lines across free pages — the allocator's
    view of how much memory a collection could still yield.  O(1): the
    line total is maintained incrementally as pages enter and leave the
    free pools. *)
let free_usable_bytes (t : t) : int = t.free_usable_lines * Holes_pcm.Geometry.line_bytes

(** Draw one page for a relaxed allocator, or -1 when none is free.
    Imperfect pages first; a perfect page is kept only if no debt is
    outstanding, otherwise it is surrendered as repayment and the next
    page is drawn. *)
let rec take_relaxed (t : t) : int =
  if not (Intvec.is_empty t.free_imperfect) then begin
    let p = Intvec.pop_or t.free_imperfect ~default:(-1) in
    t.free_usable_lines <- t.free_usable_lines - (lines_per_page - t.pages.(p).failed_lines);
    p
  end
  else if Intvec.is_empty t.free_perfect then -1
  else begin
    let p = Intvec.pop_or t.free_perfect ~default:(-1) in
    t.free_usable_lines <- t.free_usable_lines - lines_per_page;
    match Holes_osal.Accounting.relaxed_offer_perfect t.accounting with
    | `Keep -> p
    | `Decline ->
        t.repaid_pages <- t.repaid_pages + 1;
        Intvec.push t.repaid p;
        take_relaxed t
  end

type perfect_grant = Perfect of int | Borrowed | Exhausted

(** Draw one perfect page for a fussy allocator; borrows DRAM (debt)
    when the perfect pool is empty.  Borrowing follows the paper's
    "allocator has sufficient memory" condition: each page of
    outstanding debt docks one page of the process's budget, so a
    borrow is granted only while the debt is covered by free stock
    pages (and within the hard DRAM cap).  Otherwise the grant is
    [Exhausted] and the caller must collect or fail. *)
let take_perfect (t : t) : perfect_grant =
  if not (Intvec.is_empty t.free_perfect) then begin
    let p = Intvec.pop_or t.free_perfect ~default:(-1) in
    t.free_usable_lines <- t.free_usable_lines - lines_per_page;
    Holes_osal.Accounting.fussy_request t.accounting ~pages:1 ~available:1;
    Perfect p
  end
  else
      let free_budget_pages =
        free_pages t + (t.extra_free_bytes () / Holes_pcm.Geometry.page_bytes)
      in
      if
        t.borrowed_in_use >= t.max_borrowed
        || Holes_osal.Accounting.debt t.accounting >= free_budget_pages
      then Exhausted
      else begin
        Holes_osal.Accounting.fussy_request t.accounting ~pages:1 ~available:0;
        t.borrowed_in_use <- t.borrowed_in_use + 1;
        Borrowed
      end

(** Return a stock page to its pool (dead pages are quarantined). *)
let return_page (t : t) (id : int) : unit =
  let p = t.pages.(id) in
  if p.failed_lines = 0 then begin
    Intvec.push t.free_perfect id;
    t.free_usable_lines <- t.free_usable_lines + lines_per_page
  end
  else if p.usable_logical = 0 then Intvec.push t.dead id
  else begin
    Intvec.push t.free_imperfect id;
    t.free_usable_lines <- t.free_usable_lines + (lines_per_page - p.failed_lines)
  end

(** Pages quarantined as fully unusable. *)
let dead_count (t : t) : int = Intvec.length t.dead

(** Return a borrowed DRAM page (it leaves the process; debt remains
    until the relaxed allocator repays it). *)
let return_borrowed (t : t) : unit =
  if t.borrowed_in_use <= 0 then invalid_arg "Page_stock.return_borrowed: none in use";
  t.borrowed_in_use <- t.borrowed_in_use - 1;
  Holes_osal.Accounting.loan_closed t.accounting

let borrowed_in_use (t : t) : int = t.borrowed_in_use

let repaid_pages (t : t) : int = t.repaid_pages

(** Record a *dynamic* failure of 64 B PCM line [line] on page [id], so
    that future users of the page (reassembled blocks, swap decisions)
    see the hole.  A free perfect page that gains its first failure
    migrates to the imperfect pool. *)
let mark_line_failed (t : t) ~(id : int) ~(line : int) : unit =
  let p = t.pages.(id) in
  if not (Bitset.get p.bitmap line) then begin
    let was_perfect = p.failed_lines = 0 in
    let in_perfect = was_perfect && Intvec.mem t.free_perfect id in
    let in_imperfect = (not was_perfect) && Intvec.mem t.free_imperfect id in
    let old_usable = lines_per_page - p.failed_lines in
    Bitset.set p.bitmap line;
    p.failed_lines <- p.failed_lines + 1;
    p.usable_logical <- count_usable_logical ~line_size:t.line_size p.bitmap;
    if in_perfect then begin
      Intvec.filter_in_place t.free_perfect (fun x -> x <> id);
      t.free_usable_lines <- t.free_usable_lines - old_usable;
      (* return_page pushes it to the right pool and recredits *)
      return_page t id
    end
    else if in_imperfect then begin
      if p.usable_logical = 0 then begin
        Intvec.filter_in_place t.free_imperfect (fun x -> x <> id);
        t.free_usable_lines <- t.free_usable_lines - old_usable;
        Intvec.push t.dead id
      end
      else t.free_usable_lines <- t.free_usable_lines - 1
    end
  end
