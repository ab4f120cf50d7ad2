(** MigrantStore-style DRAM/PCM page tiering (DESIGN.md §17).

    The OS watches the device-write charge stream and keeps a decayed
    per-page write-frequency count.  A page whose count crosses the
    promotion threshold is {e promoted}: a free DRAM frame is
    allocated, the mapping is retargeted with {!Vmm.migrate} (the PCM
    home stays reserved — its failure bitmap and wear state must
    survive the round trip), and subsequent writes land in DRAM,
    consuming no PCM endurance.  An epoch counter — one tick per
    charged line write through the node — periodically halves every
    frequency count and {e demotes} residents that went cold: the
    mapping flips back to the PCM home, dirty lines are written back
    through the normal device path (wearing cells, possibly surfacing
    failures through the ordinary up-call chain), and the DRAM frame
    returns to the pool.

    Clean lines never leave the PCM arena, so a demotion writes back
    only the lines dirtied while promoted.  Migration copies are
    charged to the requesting VM's cost model through the
    [charge_copy] callback; the tier itself knows nothing about cost
    weights. *)

open Holes_stdx
module Trace = Holes_obs.Trace
module Geometry = Holes_pcm.Geometry

type resident = {
  r_pid : int;
  r_virt : int;
  r_pcm_phys : int;  (** the reserved PCM home (pool page id) *)
  r_dram_phys : int;  (** the DRAM frame now backing the page *)
  dirty : Bitset.t;  (** lines written while promoted *)
  content : Bytes.t;  (** the DRAM frame: only dirty lines are meaningful *)
  mutable dram_writes : int;  (** writes absorbed since the last epoch *)
}

type t = {
  vmm : Vmm.t;
  device : Holes_pcm.Device.t;
  dram_pages : int;
  epoch : int;  (** charged line writes between decay rounds *)
  promote_threshold : int;
  heat : (int, int ref) Hashtbl.t;
      (** [heat_key pid virt] -> decayed write count, bumped in place so
          a write to a known page allocates nothing *)
  decayed : Intvec.t;  (** epoch scratch: heat keys whose count fell to 0 *)
  by_frame : (int, resident) Hashtbl.t;  (** dram frame id -> resident *)
  mutable tick : int;
  mutable promotes : int;
  mutable demotes : int;
  mutable dram_writes : int;  (** total writes absorbed by promoted pages *)
  mutable promote_skips : int;  (** promotions refused for lack of a frame *)
  mutable epochs : int;
  mutable writeback_failures : int;  (** demotion write-backs that wore a line out *)
  mutable on_stall : unit -> unit;
      (** installed by the backend: drain the device's failure buffer so
          a stalled demotion write-back can retry *)
  tracer : Trace.view;
}

type stats = {
  s_promotes : int;
  s_demotes : int;
  s_dram_writes : int;
  s_promote_skips : int;
  s_epochs : int;
  s_writeback_failures : int;
  s_resident : int;
}

let create ?(tracer = Trace.null) ~(vmm : Vmm.t) ~(device : Holes_pcm.Device.t)
    ~(dram_pages : int) ~(epoch : int) () : t =
  if epoch <= 0 then invalid_arg "Tier.create: epoch must be positive";
  {
    vmm;
    device;
    dram_pages;
    epoch;
    (* hot enough to matter within one decay window: 1/256th of the
       epoch's writes on a single page, floored so tiny epochs still
       demand repeated traffic *)
    promote_threshold = max 4 (epoch / 256);
    heat = Hashtbl.create 64;
    decayed = Intvec.create ();
    by_frame = Hashtbl.create 16;
    tick = 0;
    promotes = 0;
    demotes = 0;
    dram_writes = 0;
    promote_skips = 0;
    epochs = 0;
    writeback_failures = 0;
    on_stall = (fun () -> ());
    tracer;
  }

let set_on_stall (t : t) (f : unit -> unit) : unit = t.on_stall <- f

let stats (t : t) : stats =
  {
    s_promotes = t.promotes;
    s_demotes = t.demotes;
    s_dram_writes = t.dram_writes;
    s_promote_skips = t.promote_skips;
    s_epochs = t.epochs;
    s_writeback_failures = t.writeback_failures;
    s_resident = Hashtbl.length t.by_frame;
  }

(** Residents as [(pid, virt, dram_phys, pcm_phys)], ascending by frame
    — non-counted accessors only, safe for the paranoid verifier. *)
let residents (t : t) : (int * int * int * int) list =
  Hashtbl.fold (fun _ r acc -> (r.r_pid, r.r_virt, r.r_dram_phys, r.r_pcm_phys) :: acc) t.by_frame []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b)

let resident_count (t : t) : int = Hashtbl.length t.by_frame

(* One int per (pid, virtual page): virtual page numbers count up from 0
   per process, far below 2^32. *)
let[@inline] heat_key ~(pid : int) ~(virt : int) : int = (pid lsl 32) lor virt

(* ---- demotion --------------------------------------------------------- *)

(* per-domain write-back staging line: engine workers run one tier per
   domain, and a module-level buffer shared across domains would let
   parallel demotions corrupt each other's payloads *)
let scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create Geometry.line_bytes)

(* write one dirty line back to the PCM home, retrying once across a
   buffer stall (the backend's [on_stall] drains the buffer) *)
let write_back (t : t) (logical : int) (data : Bytes.t) : unit =
  match Holes_pcm.Device.write t.device logical data with
  | Holes_pcm.Device.Stored -> ()
  | Holes_pcm.Device.Write_failed -> t.writeback_failures <- t.writeback_failures + 1
  | Holes_pcm.Device.Stalled -> (
      t.on_stall ();
      match Holes_pcm.Device.write t.device logical data with
      | Holes_pcm.Device.Stored -> ()
      | Holes_pcm.Device.Write_failed | Holes_pcm.Device.Stalled ->
          t.writeback_failures <- t.writeback_failures + 1)

let demote (t : t) (r : resident) ~(charge_copy : bytes:int -> unit) : unit =
  (match Vmm.find_process t.vmm r.r_pid with
  | None -> ()  (* process raced away; drop_process handles live exits *)
  | Some proc ->
      Vmm.migrate t.vmm proc ~virt:r.r_virt ~new_phys:r.r_pcm_phys;
      let device_page = r.r_pcm_phys - t.dram_pages in
      let written = ref 0 in
      Bitset.iter_set r.dirty (fun line ->
          let logical = (device_page * Geometry.lines_per_page) + line in
          if Holes_pcm.Device.line_usable t.device logical then begin
            let buf = Domain.DLS.get scratch in
            Bytes.blit r.content (line * Geometry.line_bytes) buf 0 Geometry.line_bytes;
            write_back t logical buf;
            incr written
          end);
      charge_copy ~bytes:(!written * Geometry.line_bytes);
      if Trace.armed t.tracer then
        Trace.instant t.tracer ~tid:Trace.tid_osal "page_demote"
          ~args:
            [
              ("virt", float_of_int r.r_virt);
              ("pcm", float_of_int r.r_pcm_phys);
              ("dirty", float_of_int !written);
            ]);
  Pools.free (Vmm.pools t.vmm) r.r_dram_phys;
  Hashtbl.remove t.by_frame r.r_dram_phys;
  t.demotes <- t.demotes + 1

(** Demote every resident belonging to [pid] — must run before the
    process's pages are unmapped (a munmap of a promoted page would
    free the DRAM frame and leak the reserved PCM home). *)
let drop_process (t : t) ~(pid : int) ~(charge_copy : bytes:int -> unit) : unit =
  let mine =
    Hashtbl.fold (fun _ r acc -> if r.r_pid = pid then r :: acc else acc) t.by_frame []
    |> List.sort (fun a b -> compare a.r_dram_phys b.r_dram_phys)
  in
  List.iter (fun r -> demote t r ~charge_copy) mine

(** Demote every resident (turning migration off mid-run). *)
let drop_all (t : t) ~(charge_copy : bytes:int -> unit) : unit =
  let all =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.by_frame []
    |> List.sort (fun a b -> compare a.r_dram_phys b.r_dram_phys)
  in
  List.iter (fun r -> demote t r ~charge_copy) all

(* ---- promotion -------------------------------------------------------- *)

let promote (t : t) (proc : Vmm.process) ~(virt : int) ~(pcm_phys : int)
    ~(charge_copy : bytes:int -> unit) : unit =
  let pools = Vmm.pools t.vmm in
  (* leave the last frame for the interrupt handler's swap-in fallback *)
  if Pools.free_dram_count pools <= 1 then t.promote_skips <- t.promote_skips + 1
  else
    match Pools.alloc_dram pools with
    | None -> t.promote_skips <- t.promote_skips + 1
    | Some frame ->
        Vmm.migrate t.vmm proc ~virt ~new_phys:frame;
        Hashtbl.replace t.by_frame frame
          {
            r_pid = proc.Vmm.pid;
            r_virt = virt;
            r_pcm_phys = pcm_phys;
            r_dram_phys = frame;
            dirty = Bitset.create Geometry.lines_per_page;
            content = Bytes.make Geometry.page_bytes '\000';
            dram_writes = 0;
          };
        Hashtbl.remove t.heat (heat_key ~pid:proc.Vmm.pid ~virt);
        t.promotes <- t.promotes + 1;
        charge_copy ~bytes:Geometry.page_bytes;
        if Trace.armed t.tracer then
          Trace.instant t.tracer ~tid:Trace.tid_osal "page_promote"
            ~args:[ ("virt", float_of_int virt); ("frame", float_of_int frame) ]

(* ---- the epoch clock -------------------------------------------------- *)

let epoch_tick (t : t) ~(charge_copy : bytes:int -> unit) : unit =
  t.tick <- t.tick + 1;
  if t.tick >= t.epoch then begin
    t.tick <- 0;
    t.epochs <- t.epochs + 1;
    (* halve every count in place; drop the pages that reach 0 *)
    Intvec.clear t.decayed;
    Hashtbl.iter
      (fun k c ->
        c := !c / 2;
        if !c = 0 then Intvec.push t.decayed k)
      t.heat;
    Intvec.iter t.decayed (fun k -> Hashtbl.remove t.heat k);
    let cold =
      Hashtbl.fold
        (fun _ (r : resident) acc ->
          if r.dram_writes < max 2 (t.promote_threshold / 2) then r :: acc else acc)
        t.by_frame []
      |> List.sort (fun a b -> compare a.r_dram_phys b.r_dram_phys)
    in
    List.iter (fun r -> demote t r ~charge_copy) cold;
    Hashtbl.iter (fun _ (r : resident) -> r.dram_writes <- 0) t.by_frame
  end

(** A charged line write that reached the PCM path: bump the page's
    heat and promote it when it crosses the threshold.  Allocation-free
    for a page already in the heat table, outside promotions and epoch
    ends. *)
let note_pcm_write (t : t) (proc : Vmm.process) ~(virt : int) ~(pcm_phys : int)
    ~(charge_copy : bytes:int -> unit) : unit =
  let key = heat_key ~pid:proc.Vmm.pid ~virt in
  let c =
    match Hashtbl.find t.heat key with
    | c ->
        incr c;
        !c
    | exception Not_found ->
        Hashtbl.add t.heat key (ref 1);
        1
  in
  if c >= t.promote_threshold then promote t proc ~virt ~pcm_phys ~charge_copy;
  epoch_tick t ~charge_copy

(** A charged line write whose translation landed in DRAM.  Returns
    [true] when the frame is a tier resident (the write was absorbed
    by the policy and the line dirtied); [false] for frames the
    interrupt handler swapped in, which the tier does not manage. *)
let note_dram_write (t : t) ~(phys : int) ~(line : int) ~(payload : Bytes.t)
    ~(charge_copy : bytes:int -> unit) : bool =
  match Hashtbl.find t.by_frame phys with
  | exception Not_found -> false
  | r ->
      Bitset.set r.dirty line;
      Bytes.blit payload 0 r.content (line * Geometry.line_bytes) Geometry.line_bytes;
      r.dram_writes <- r.dram_writes + 1;
      t.dram_writes <- t.dram_writes + 1;
      epoch_tick t ~charge_copy;
      true

(* ---- verifier support ------------------------------------------------- *)

(** Corrupt the residency map (tests only: the verifier must catch it). *)
let unsafe_poke (t : t) : unit =
  match
    Hashtbl.fold (fun _ r acc -> match acc with None -> Some r | some -> some) t.by_frame None
  with
  | Some r ->
      (* point the reserved PCM home back into the DRAM range: the
         round-trip invariant (home stays a reserved PCM page) breaks *)
      Hashtbl.remove t.by_frame r.r_dram_phys;
      Hashtbl.replace t.by_frame r.r_dram_phys { r with r_pcm_phys = r.r_dram_phys }
  | None ->
      (* no resident yet: invent one — every invariant fails on it *)
      Hashtbl.replace t.by_frame 0
        {
          r_pid = -1;
          r_virt = -1;
          r_pcm_phys = t.dram_pages;
          r_dram_phys = 0;
          dirty = Bitset.create Geometry.lines_per_page;
          content = Bytes.make Geometry.page_bytes '\000';
          dram_writes = 0;
        }
