(** The failure buffer (paper Sec. 3.1.1).

    When a PCM write fails, the module copies the written data and its
    physical address into a small FIFO buffer (SRAM/DRAM on the DIMM or
    memory controller) and interrupts the processor.  Reads check the
    buffer in parallel with the array and the buffer's entry wins, so the
    failed write's data survives until the OS drains it.  An earlier entry
    with the same address is invalidated.  When occupancy crosses a high
    watermark (enough slots reserved to drain outstanding writes), a
    second interrupt fires and the device stops accepting writes until the
    OS clears at least one entry — preventing deadlock and data loss. *)

type entry = { addr : int;  (** physical line index *) data : Bytes.t }

type interrupt =
  | Failure_pending  (** at least one failure awaits OS handling *)
  | Buffer_pressure  (** occupancy crossed the watermark; writes stalled *)

(* A fixed-capacity ring of [capacity] slots, each owning a preallocated
   64 B payload buffer: an insert copies the failed write's data into
   the next free slot, so recording a failure allocates nothing.  Entry
   [i] (0 = oldest) lives in ring slot [(head + i) mod capacity]. *)
type t = {
  capacity : int;
  watermark : int;
  addrs : int array;  (** ring slot -> line address *)
  slots : Bytes.t array;  (** ring slot -> payload buffer *)
  mutable head : int;  (** ring slot of the oldest entry *)
  mutable count : int;  (** occupied slots *)
  mutable stalled : bool;
  mutable raise_interrupt : interrupt -> unit;
  (* statistics *)
  mutable total_insertions : int;
  mutable total_invalidations : int;
  mutable max_occupancy : int;
  mutable stall_events : int;
}

let create ?(capacity = 32) ?(watermark : int option) () : t =
  if capacity <= 0 then invalid_arg "Failure_buffer.create: capacity must be positive";
  let watermark = match watermark with Some w -> w | None -> max 1 (capacity - 4) in
  if watermark > capacity then invalid_arg "Failure_buffer.create: watermark > capacity";
  {
    capacity;
    watermark;
    addrs = Array.make capacity (-1);
    slots = Array.init capacity (fun _ -> Bytes.create Geometry.line_bytes);
    head = 0;
    count = 0;
    stalled = false;
    raise_interrupt = (fun _ -> ());
    total_insertions = 0;
    total_invalidations = 0;
    max_occupancy = 0;
    stall_events = 0;
  }

(** Register the processor-side interrupt line. *)
let on_interrupt (t : t) (f : interrupt -> unit) : unit = t.raise_interrupt <- f

let occupancy (t : t) : int = t.count

let is_stalled (t : t) : bool = t.stalled

(* ring slot of entry [i] (0 = oldest) *)
let[@inline] slot (t : t) (i : int) : int = (t.head + i) mod t.capacity

(* position (0 = oldest) of the entry for [addr], or -1; insert keeps at
   most one entry per address *)
let rec find (t : t) ~(addr : int) (i : int) : int =
  if i >= t.count then -1
  else if Array.unsafe_get t.addrs (slot t i) = addr then i
  else find t ~addr (i + 1)

(* Drop entry [k], keeping the order of the rest: later entries shift
   down one slot and the freed payload buffer moves to the vacated end,
   so every slot keeps a buffer. *)
let remove_at (t : t) (k : int) : unit =
  if k = 0 then t.head <- slot t 1
  else begin
    let freed = t.slots.(slot t k) in
    for j = k to t.count - 2 do
      let a = slot t j and b = slot t (j + 1) in
      t.addrs.(a) <- t.addrs.(b);
      t.slots.(a) <- t.slots.(b)
    done;
    t.slots.(slot t (t.count - 1)) <- freed
  end;
  t.count <- t.count - 1

(** [insert t ~addr ~data] records a failed write.  Returns [false] when
    the buffer is completely full (the device must not have issued the
    write in that state; callers treat it as a fatal model error). *)
let insert (t : t) ~(addr : int) ~(data : Bytes.t) : bool =
  if t.count >= t.capacity then false
  else begin
    (* invalidate an earlier entry with the same address *)
    let k = find t ~addr 0 in
    if k >= 0 then begin
      remove_at t k;
      t.total_invalidations <- t.total_invalidations + 1
    end;
    let s = slot t t.count in
    t.addrs.(s) <- addr;
    let len = Bytes.length data in
    (* a payload of another size (not a 64 B line) takes a buffer of its own *)
    if Bytes.length t.slots.(s) = len then Bytes.blit data 0 t.slots.(s) 0 len
    else t.slots.(s) <- Bytes.copy data;
    t.count <- t.count + 1;
    t.total_insertions <- t.total_insertions + 1;
    let occ = t.count in
    if occ > t.max_occupancy then t.max_occupancy <- occ;
    t.raise_interrupt Failure_pending;
    if occ >= t.watermark && not t.stalled then begin
      t.stalled <- true;
      t.stall_events <- t.stall_events + 1;
      t.raise_interrupt Buffer_pressure
    end;
    true
  end

(** Read-path check: the most recent value written to [addr], if the
    buffer holds one.  Performed "in parallel with the actual access" in
    hardware, so it costs nothing extra on the modeled read path.  The
    bytes are the buffer's own slot: valid until the entry is cleared. *)
let forward (t : t) ~(addr : int) : Bytes.t option =
  let k = find t ~addr 0 in
  if k < 0 then None else Some t.slots.(slot t k)

(** Oldest pending entry, without removing it. *)
let peek (t : t) : entry option =
  if t.count = 0 then None
  else Some { addr = t.addrs.(t.head); data = t.slots.(t.head) }

(* un-stall once occupancy falls below the watermark *)
let remove (t : t) (k : int) : unit =
  remove_at t k;
  if t.stalled && t.count < t.watermark then t.stalled <- false

(** OS-side: remove the entry for [addr] once handled.  Clearing an entry
    may un-stall the device. *)
let clear (t : t) ~(addr : int) : bool =
  let k = find t ~addr 0 in
  if k >= 0 then remove t k;
  k >= 0

(** OS-side drain of one entry: a copy of the payload buffered for
    [addr] (the one allocation of a failure's trip through the buffer),
    removing the entry; [None] when the buffer holds none.  Equivalent
    to [forward] then [clear]. *)
let take (t : t) ~(addr : int) : Bytes.t option =
  let k = find t ~addr 0 in
  if k < 0 then None
  else begin
    let data = Bytes.copy t.slots.(slot t k) in
    remove t k;
    Some data
  end

(** All pending entries, oldest first (the OS drains in FIFO order).
    The entries' data are the buffer's own slots. *)
let pending (t : t) : entry list =
  List.init t.count (fun i -> { addr = t.addrs.(slot t i); data = t.slots.(slot t i) })

type stats = {
  insertions : int;
  invalidations : int;
  max_occupancy : int;
  stall_events : int;
}

let stats (t : t) : stats =
  {
    insertions = t.total_insertions;
    invalidations = t.total_invalidations;
    max_occupancy = t.max_occupancy;
    stall_events = t.stall_events;
  }
