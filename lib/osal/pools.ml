(** The three physical page pools (paper Sec. 3.2.1): DRAM, perfect PCM
    and imperfect PCM.  All PCM pages start perfect; the first line
    failure moves a page to the imperfect pool.  Imperfect pages are
    handed out most-usable-first so early allocations see few holes.

    Each pool is a LIFO stack of page ids ([Intvec]: push and pop at the
    end, no cell allocated per move), the top being the next page
    granted; at creation the lowest id is on top.  A per-page byte map
    records where every page is — allocated or in which free pool — so
    the counts, [is_allocated] and the pool checks of [free] and
    [mark_line_failed] are O(1).  Every stack is sized at creation to
    the pages it can ever hold, so no grant or release regrows it. *)

open Holes_stdx

(* where a page is: [where] holds one of these bytes per page *)
let in_allocated = '\000'
let in_dram = '\001'
let in_perfect = '\002'
let in_imperfect = '\003'

type t = {
  pages : Page.t array;  (** all physical pages, indexed by id *)
  free_dram : Intvec.t;
  free_perfect : Intvec.t;
  free_imperfect : Intvec.t;
      (** sorted by usable lines, most on top — except that a failure
          on a page already here does not re-sort it *)
  where : Bytes.t;  (** per page: allocated, or the free pool holding it *)
  mutable wear_rank : (int -> int) option;
      (** wear-aware grant ordering (Config.wear_aware_pools): maps a
          physical page id to its accumulated wear; when installed,
          [alloc_perfect] hands out the least-worn free page instead of
          the top of the stack.  Installed by the device backend at
          boot — the OS has no wear counters of its own *)
}

let create ~(dram_pages : int) ~(pcm_pages : int) : t =
  let pages =
    Array.init (dram_pages + pcm_pages) (fun id ->
        if id < dram_pages then Page.create ~id ~kind:Page.Dram
        else Page.create ~id ~kind:Page.Pcm_perfect)
  in
  let free_dram = Intvec.create ~capacity:dram_pages ()
  and free_perfect = Intvec.create ~capacity:pcm_pages () in
  for id = dram_pages - 1 downto 0 do
    Intvec.push free_dram id
  done;
  for id = dram_pages + pcm_pages - 1 downto dram_pages do
    Intvec.push free_perfect id
  done;
  let where = Bytes.make (dram_pages + pcm_pages) in_perfect in
  Bytes.fill where 0 dram_pages in_dram;
  {
    pages;
    free_dram;
    free_perfect;
    free_imperfect = Intvec.create ~capacity:pcm_pages ();
    where;
    wear_rank = None;
  }

(** Install (or clear) the wear-ordering hook consulted by
    [alloc_perfect].  Deterministic: ties keep free-list order. *)
let set_wear_rank (t : t) (rank : (int -> int) option) : unit = t.wear_rank <- rank

let page (t : t) (id : int) : Page.t = t.pages.(id)

let free_dram_count (t : t) : int = Intvec.length t.free_dram
let free_perfect_count (t : t) : int = Intvec.length t.free_perfect
let free_imperfect_count (t : t) : int = Intvec.length t.free_imperfect

(** Is page [id] currently handed out?  (Verifier support: a tier
    resident's PCM home must stay reserved while promoted.) *)
let is_allocated (t : t) (id : int) : bool =
  id >= 0 && id < Bytes.length t.where && Bytes.unsafe_get t.where id = in_allocated

let grant (t : t) (id : int) : int option =
  Bytes.set t.where id in_allocated;
  Some id

(** Allocate a DRAM page, if any remain. *)
let alloc_dram (t : t) : int option =
  if Intvec.is_empty t.free_dram then None else grant t (Intvec.pop_or t.free_dram ~default:(-1))

(* index of the least-worn page in [v], scanning from the top so the
   first seen wins ties *)
let least_worn (rank : int -> int) (v : Intvec.t) : int =
  let best = ref (Intvec.length v - 1) in
  let best_rank = ref (rank (Intvec.unsafe_get v !best)) in
  for i = Intvec.length v - 2 downto 0 do
    let r = rank (Intvec.unsafe_get v i) in
    if r < !best_rank then begin
      best := i;
      best_rank := r
    end
  done;
  !best

(** Allocate a perfect PCM page, if any remain.  With a wear rank
    installed the least-worn free page is granted (first-seen from the
    top wins ties), spreading fresh traffic across the module;
    otherwise the top of the stack. *)
let alloc_perfect (t : t) : int option =
  if Intvec.is_empty t.free_perfect then None
  else
    match t.wear_rank with
    | None -> grant t (Intvec.pop_or t.free_perfect ~default:(-1))
    | Some rank ->
        let i = least_worn rank t.free_perfect in
        let id = Intvec.unsafe_get t.free_perfect i in
        Intvec.remove_at t.free_perfect i;
        grant t id

(** Allocate an imperfect PCM page (most usable lines first). *)
let alloc_imperfect (t : t) : int option =
  if Intvec.is_empty t.free_imperfect then None
  else grant t (Intvec.pop_or t.free_imperfect ~default:(-1))

(** Allocate any PCM page, preferring imperfect (conserving the scarce
    perfect pool, as a failure-aware process should). *)
let alloc_pcm_any (t : t) : int option =
  match alloc_imperfect t with Some id -> Some id | None -> alloc_perfect t

(* push [id] on free stack [v], recording it as held there *)
let release (t : t) (v : Intvec.t) (where : char) (id : int) : unit =
  Intvec.push v id;
  Bytes.set t.where id where

(* Place [id] below every entry, from the top down, with at least as
   many usable lines — above the first with fewer (on a sorted stack,
   after its equals) — shifting the entries above it up in place. *)
let insert_imperfect_sorted (t : t) (id : int) : unit =
  let u = Page.usable_lines t.pages.(id) in
  let v = t.free_imperfect in
  let i = ref (Intvec.length v - 1) in
  while !i >= 0 && Page.usable_lines t.pages.(Intvec.unsafe_get v !i) >= u do
    decr i
  done;
  Intvec.insert_at v (!i + 1) id;
  Bytes.set t.where id in_imperfect

(** Return a page to the appropriate free pool. *)
let free (t : t) (id : int) : unit =
  if not (is_allocated t id) then invalid_arg "Pools.free: page not allocated";
  match t.pages.(id).Page.kind with
  | Page.Dram -> release t t.free_dram in_dram id
  | Page.Pcm_perfect -> release t t.free_perfect in_perfect id
  | Page.Pcm_imperfect -> insert_imperfect_sorted t id

(** Rebuild the free pools from the pages' current kinds — used after a
    bulk failure import (the OS boot scan of a worn device), where the
    incremental [mark_line_failed] migration would cost a pool shift per
    page.  Allocated pages are untouched; the imperfect pool is
    re-sorted most-usable-first (lowest id first among equals) in one
    pass. *)
let renormalize (t : t) : unit =
  Intvec.clear t.free_dram;
  Intvec.clear t.free_perfect;
  Intvec.clear t.free_imperfect;
  let imperfect = ref [] in
  for id = Array.length t.pages - 1 downto 0 do
    if not (is_allocated t id) then
      match t.pages.(id).Page.kind with
      | Page.Dram -> release t t.free_dram in_dram id
      | Page.Pcm_perfect -> release t t.free_perfect in_perfect id
      | Page.Pcm_imperfect -> imperfect := id :: !imperfect
  done;
  List.stable_sort
    (fun a b -> compare (Page.usable_lines t.pages.(b)) (Page.usable_lines t.pages.(a)))
    !imperfect
  |> List.rev
  |> List.iter (release t t.free_imperfect in_imperfect)

(** Record a line failure on page [id]; if the page was in the free
    perfect pool it migrates to the free imperfect pool. *)
let mark_line_failed (t : t) ~(page : int) ~(line : int) : bool =
  let was_free_perfect = Bytes.get t.where page = in_perfect in
  let changed = Page.mark_line_failed t.pages.(page) ~line in
  if changed && was_free_perfect then begin
    Intvec.remove_all t.free_perfect page;
    insert_imperfect_sorted t page
  end;
  changed
