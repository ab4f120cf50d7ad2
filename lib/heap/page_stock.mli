(** The VM's stock of OS-granted pages, with the fussy/relaxed
    discipline and debit–credit accounting of paper Sec. 5.

    The VM acquires pages via [mmap_imperfect]-style grants; each page
    carries a failure bitmap (one bit per 64 B PCM line).  Virtual
    address translation lets the OS compose any set of physical pages
    into a contiguous virtual range, so {e perfect} pages are a fungible
    resource: what matters is how many remain, not where they sit
    ("virtual address translation transparently removes any problem of
    page-level fragmentation", Sec. 6.1).

    - Relaxed allocators (Immix blocks) draw imperfect pages first,
      conserving perfect ones; a perfect page offered to a relaxed
      allocator while debt is outstanding is surrendered to repay one
      page of debt.
    - Fussy allocators (LOS, overflow fallback) demand perfect pages;
      when none remain they receive a borrowed DRAM page and the process
      goes one page into debt.

    The record fields are exposed for the heap verifier, which replays
    the pool discipline and accounting from scratch; allocators go
    through the functions below. *)

type page = {
  id : int;
  bitmap : Holes_stdx.Bitset.t;
  mutable failed_lines : int;  (** failed 64 B PCM lines *)
  mutable usable_logical : int;
      (** logical (collector-line-size) lines with no failed PCM line;
          a page with none is {e dead} for this run and never circulates *)
}

type t = {
  pages : page array;
  line_size : int;  (** collector logical line size, for deadness *)
  free_perfect : Holes_stdx.Intvec.t;
      (** LIFO stack of page ids, the top drawn next; lowest address on
          top at creation (push/pop allocate no list cells, so a block
          assembly that takes and returns pages allocates nothing) *)
  free_imperfect : Holes_stdx.Intvec.t;  (** same discipline as [free_perfect] *)
  dead : Holes_stdx.Intvec.t;  (** pages with no usable logical line *)
  mutable free_usable_lines : int;
      (** sum over free (perfect + imperfect) pages of their non-failed
          PCM lines — kept incrementally so [free_usable_bytes], which
          the LOS consults on every allocation, is O(1) instead of a
          fold over both pools *)
  accounting : Holes_osal.Accounting.t;
  mutable borrowed_in_use : int;
  mutable repaid_pages : int;  (** pages surrendered to repay debt *)
  repaid : Holes_stdx.Intvec.t;
      (** ids of the surrendered pages: back with the OS, out of
          circulation for the rest of the run (the verifier accounts
          for them as a fourth page-ownership class) *)
  mutable max_borrowed : int;  (** DRAM borrow cap (DRAM is scarce, Sec. 2.3) *)
  mutable extra_free_bytes : unit -> int;
      (** free bytes held outside the stock (e.g. inside partially used
          collector blocks); part of the "has sufficient memory" test *)
}

val count_usable_logical : line_size:int -> Holes_stdx.Bitset.t -> int
(** Logical lines per page with no failed PCM line, from the page's 64-bit
    failure bitmap — one word-level pass (the verifier recomputes this
    per page to cross-check the cached [usable_logical]). *)

val create_of_bitmaps : ?line_size:int -> bitmaps:Holes_stdx.Bitset.t array -> unit -> t
(** Build a stock from per-page failure bitmaps — one [Bitset.t] of 64
    bits per granted page, exactly the shape [Vmm.map_failures] returns
    for each mapped virtual page.  [line_size] is the collector's
    logical line size: pages without a single usable logical line are
    quarantined as dead — they still count against the budget, exactly
    like the paper's unusable memory, but never circulate through the
    allocator. *)

val create : ?line_size:int -> device_map:Holes_stdx.Bitset.t -> npages:int -> unit -> t
(** Build a stock of [npages] pages whose line failures come from
    [device_map] (a bitmap over [npages * 64] PCM lines) — the static
    fault-injection grant path. *)

val set_extra_free : t -> (unit -> int) -> unit
(** Register the collector's view of free bytes held outside the stock
    (inside partially used blocks). *)

val set_max_borrowed : t -> int -> unit
(** Override the DRAM borrow cap. *)

val page : t -> int -> page
val npages : t -> int
val free_perfect_count : t -> int
val free_imperfect_count : t -> int
val free_pages : t -> int
val accounting : t -> Holes_osal.Accounting.t

val free_usable_bytes : t -> int
(** Total usable (non-failed) bytes across free pages — the allocator's
    view of how much memory a collection could still yield.  O(1): the
    line total is maintained incrementally as pages enter and leave the
    free pools. *)

val take_relaxed : t -> int
(** Draw one page for a relaxed allocator, or -1 when none is free.
    Imperfect pages first; a perfect page is kept only if no debt is
    outstanding, otherwise it is surrendered as repayment and the next
    page is drawn. *)

type perfect_grant = Perfect of int | Borrowed | Exhausted

val take_perfect : t -> perfect_grant
(** Draw one perfect page for a fussy allocator; borrows DRAM (debt)
    when the perfect pool is empty.  Borrowing follows the paper's
    "allocator has sufficient memory" condition: each page of
    outstanding debt docks one page of the process's budget, so a
    borrow is granted only while the debt is covered by free stock
    pages (and within the hard DRAM cap).  Otherwise the grant is
    [Exhausted] and the caller must collect or fail. *)

val return_page : t -> int -> unit
(** Return a stock page to its pool (dead pages are quarantined). *)

val dead_count : t -> int
(** Pages quarantined as fully unusable. *)

val return_borrowed : t -> unit
(** Return a borrowed DRAM page (it leaves the process; debt remains
    until the relaxed allocator repays it). *)

val borrowed_in_use : t -> int
val repaid_pages : t -> int

val mark_line_failed : t -> id:int -> line:int -> unit
(** Record a {e dynamic} failure of 64 B PCM line [line] on page [id], so
    that future users of the page (reassembled blocks, swap decisions)
    see the hole.  A free perfect page that gains its first failure
    migrates to the imperfect pool. *)
