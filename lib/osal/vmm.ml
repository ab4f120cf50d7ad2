(** Virtual memory manager (paper Secs. 3.2.1–3.2.2).

    Failure-unaware processes allocate perfect memory via the normal
    [mmap]; a failure-aware process uses [mmap_imperfect] to acquire
    imperfect pages (which may contain holes) and [map_failures] to read
    the failure bitmap for a mapped range.  The VMM supports reverse
    translation (physical page -> (process, virtual page)) so the failure
    interrupt handler can revoke access to failing pages. *)

open Holes_stdx
module Trace = Holes_obs.Trace

type prot = No_access | Read_write

type mapping = {
  virt : int;  (** virtual page number *)
  mutable phys : int;  (** physical page id *)
  mutable prot : prot;
}

type process = {
  pid : int;
  page_table : (int, mapping) Hashtbl.t;  (** virtual page -> mapping *)
  mutable next_virt : int;
  mutable failure_handler : (virt_page:int -> line:int -> data:Bytes.t option -> unit) option;
      (** up-call registered by a failure-aware runtime (Sec. 3.2.2) *)
}

type t = {
  pools : Pools.t;
  table : Failure_table.t;
  dram_pages : int;  (** physical ids below this are DRAM *)
  mutable processes : process list;
  mutable next_pid : int;
  reverse : (int, int * int) Hashtbl.t;  (** physical page -> (pid, virtual page) *)
  mutable reverse_translations : int;  (** statistic: the expensive lookups *)
  mutable swap_ins : int;  (** pages moved to a new frame via the swap path *)
  tracer : Trace.view;  (** osal-lane events: map_failures, remaps, swaps *)
}

let create ?(tracer = Trace.null) ~(dram_pages : int) ~(pcm_pages : int) () : t =
  {
    pools = Pools.create ~dram_pages ~pcm_pages;
    table = Failure_table.create ~pcm_pages;
    dram_pages;
    processes = [];
    next_pid = 1;
    reverse = Hashtbl.create 256;
    reverse_translations = 0;
    swap_ins = 0;
    tracer;
  }

let pools (t : t) : Pools.t = t.pools

let failure_table (t : t) : Failure_table.t = t.table

let spawn (t : t) : process =
  let p =
    { pid = t.next_pid; page_table = Hashtbl.create 64; next_virt = 0; failure_handler = None }
  in
  t.next_pid <- t.next_pid + 1;
  t.processes <- p :: t.processes;
  p

(** Register the runtime's dynamic-failure handler; required before a
    process may rely on imperfect memory. *)
let register_failure_handler (p : process)
    (h : virt_page:int -> line:int -> data:Bytes.t option -> unit) : unit =
  p.failure_handler <- Some h

let install_mapping (t : t) (p : process) (phys : int) : mapping =
  let m = { virt = p.next_virt; phys; prot = Read_write } in
  p.next_virt <- p.next_virt + 1;
  Hashtbl.replace p.page_table m.virt m;
  Hashtbl.replace t.reverse phys (p.pid, m.virt);
  m

(** Normal [mmap]: perfect pages only (PCM-perfect first, falling back to
    DRAM).  Returns the virtual page numbers, or [Error `Out_of_memory]
    when neither pool can satisfy the request. *)
let mmap (t : t) (p : process) ~(pages : int) : (int list, [ `Out_of_memory ]) result =
  let rec go n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match Pools.alloc_perfect t.pools with
      | Some phys -> go (n - 1) (install_mapping t p phys :: acc)
      | None -> (
          match Pools.alloc_dram t.pools with
          | Some phys -> go (n - 1) (install_mapping t p phys :: acc)
          | None ->
              (* roll back partial allocation *)
              List.iter
                (fun m ->
                  Hashtbl.remove p.page_table m.virt;
                  Hashtbl.remove t.reverse m.phys;
                  Pools.free t.pools m.phys)
                acc;
              Error `Out_of_memory)
  in
  Result.map (List.map (fun m -> m.virt)) (go pages [])

(** The special mmap variation of Sec. 3.2.1: acquire [pages] pages of
    (possibly) imperfect PCM.  "This call returns the number of pages
    requested, however not all of the allocated memory may be usable." *)
let mmap_imperfect (t : t) (p : process) ~(pages : int) : (int list, [ `Out_of_memory ]) result =
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "mmap_imperfect"
      ~args:[ ("pages", float_of_int pages) ];
  let rec go n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match Pools.alloc_pcm_any t.pools with
      | Some phys -> go (n - 1) (install_mapping t p phys :: acc)
      | None ->
          List.iter
            (fun m ->
              Hashtbl.remove p.page_table m.virt;
              Hashtbl.remove t.reverse m.phys;
              Pools.free t.pools m.phys)
            acc;
          Error `Out_of_memory
  in
  Result.map (List.map (fun m -> m.virt)) (go pages [])

(** [map_failures t p ~virt] returns the failure bitmap of the physical
    page backing virtual page [virt] (all-clear for DRAM). *)
let map_failures (t : t) (p : process) ~(virt : int) : Bitset.t =
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "map_failures"
      ~args:[ ("virt", float_of_int virt) ];
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.map_failures: unmapped virtual page"
  | Some m ->
      if m.phys < t.dram_pages then Bitset.create Page.lines_per_page
      else Bitset.copy (Failure_table.get t.table ~page:(m.phys - t.dram_pages))

(** [translate_phys p ~virt] is the physical page backing virtual page
    [virt], or -1 when it is unmapped — the allocation-free lookup of
    the per-line-write path. *)
let translate_phys (p : process) ~(virt : int) : int =
  match Hashtbl.find p.page_table virt with m -> m.phys | exception Not_found -> -1

let translate (p : process) ~(virt : int) : int option =
  let phys = translate_phys p ~virt in
  if phys < 0 then None else Some phys

(** Reverse address translation (physical -> (pid, virtual)); "relatively
    expensive, but dynamic failures are very rare" (Sec. 3.2.2). *)
let reverse_translate (t : t) ~(phys : int) : (int * int) option =
  t.reverse_translations <- t.reverse_translations + 1;
  if Trace.armed t.tracer then
    Trace.instant t.tracer ~tid:Trace.tid_osal "reverse_translate"
      ~args:[ ("phys", float_of_int phys) ];
  Hashtbl.find_opt t.reverse phys

let reverse_translations (t : t) : int = t.reverse_translations

(** Account one page swapped into a new physical frame (Sec. 3.2.3). *)
let record_swap (t : t) : unit =
  t.swap_ins <- t.swap_ins + 1;
  if Trace.armed t.tracer then Trace.instant t.tracer ~tid:Trace.tid_osal "swap_in"

let swap_ins (t : t) : int = t.swap_ins

let find_process (t : t) (pid : int) : process option =
  List.find_opt (fun p -> p.pid = pid) t.processes

let set_protection (p : process) ~(virt : int) (prot : prot) : unit =
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.set_protection: unmapped virtual page"
  | Some m -> m.prot <- prot

let protection (p : process) ~(virt : int) : prot =
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.protection: unmapped virtual page"
  | Some m -> m.prot

(** Remap virtual page [virt] to a different physical page (used when the
    OS masks a failure by substituting a perfect page). *)
let remap (t : t) (p : process) ~(virt : int) ~(new_phys : int) : unit =
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.remap: unmapped virtual page"
  | Some m ->
      Hashtbl.remove t.reverse m.phys;
      Pools.free t.pools m.phys;
      m.phys <- new_phys;
      m.prot <- Read_write;
      Hashtbl.replace t.reverse new_phys (p.pid, m.virt)

(** Retarget virtual page [virt] to [new_phys] {e without} freeing the
    old frame — the tiering primitive (DESIGN.md §17).  A promotion
    points the mapping at a DRAM frame while the page's PCM home stays
    reserved (its failure bitmap and wear state must survive the
    round-trip); the matching demotion points it back.  The caller owns
    both frames' lifecycles. *)
let migrate (t : t) (p : process) ~(virt : int) ~(new_phys : int) : unit =
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.migrate: unmapped virtual page"
  | Some m ->
      Hashtbl.remove t.reverse m.phys;
      m.phys <- new_phys;
      Hashtbl.replace t.reverse new_phys (p.pid, m.virt);
      if Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "migrate"
          ~args:[ ("virt", float_of_int virt); ("phys", float_of_int new_phys) ]

(** Unmap and free a virtual page. *)
let munmap (t : t) (p : process) ~(virt : int) : unit =
  match Hashtbl.find_opt p.page_table virt with
  | None -> invalid_arg "Vmm.munmap: unmapped virtual page"
  | Some m ->
      Hashtbl.remove p.page_table virt;
      Hashtbl.remove t.reverse m.phys;
      Pools.free t.pools m.phys
