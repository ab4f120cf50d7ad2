(** Growable int vectors — the workhorse container of the heap simulator
    (per-block object lists, nursery lists, remembered sets).  Amortized
    O(1) push; no boxing. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () : t = { data = Array.make (max 1 capacity) 0; len = 0 }

let length (t : t) : int = t.len

let is_empty (t : t) : bool = t.len = 0

let clear (t : t) : unit = t.len <- 0

let push (t : t) (x : int) : unit =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get (t : t) (i : int) : int =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get: out of bounds";
  t.data.(i)

let set (t : t) (i : int) (x : int) : unit =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set: out of bounds";
  t.data.(i) <- x

let pop (t : t) : int option =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end

(** [pop_or t ~default] removes and returns the last element, or
    [default] when empty — the allocation-free pop for hot paths (no
    option box). *)
let[@inline] pop_or (t : t) ~(default : int) : int =
  if t.len = 0 then default
  else begin
    t.len <- t.len - 1;
    Array.unsafe_get t.data t.len
  end

(** Unchecked read — callers guarantee [0 <= i < length t]. *)
let[@inline] unsafe_get (t : t) (i : int) : int = Array.unsafe_get t.data i

(** Iterate without bounds-check overhead. *)
let iter (t : t) (f : int -> unit) : unit =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

(** Drop the first [n] elements, shifting the rest down (order kept).
    [n] is clamped to the length. *)
let drop_prefix (t : t) (n : int) : unit =
  if n > 0 then begin
    let n = min n t.len in
    let keep = t.len - n in
    Array.blit t.data n t.data 0 keep;
    t.len <- keep
  end

(** [insert_at t i x] puts [x] at index [i] ([0 <= i <= length t]),
    shifting the elements from [i] up by one (order kept). *)
let insert_at (t : t) (i : int) (x : int) : unit =
  if i < 0 || i > t.len then invalid_arg "Intvec.insert_at: out of bounds";
  push t x;
  Array.blit t.data i t.data (i + 1) (t.len - 1 - i);
  t.data.(i) <- x

(** [remove_at t i] drops the element at index [i], shifting the ones
    above it down by one (order kept). *)
let remove_at (t : t) (i : int) : unit =
  if i < 0 || i >= t.len then invalid_arg "Intvec.remove_at: out of bounds";
  Array.blit t.data (i + 1) t.data i (t.len - 1 - i);
  t.len <- t.len - 1

(** Keep only the first [n] elements ([n] is clamped to the length). *)
let truncate (t : t) (n : int) : unit = if n < t.len then t.len <- max 0 n

(** Drop every element equal to [x], preserving the order of the rest
    (a loop: [filter_in_place] with a closure over [x] would allocate
    the closure per call). *)
let remove_all (t : t) (x : int) : unit =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let v = Array.unsafe_get t.data i in
    if v <> x then begin
      Array.unsafe_set t.data !j v;
      incr j
    end
  done;
  t.len <- !j

(** Keep only elements satisfying [p], preserving order. *)
let filter_in_place (t : t) (p : int -> bool) : unit =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  t.len <- !j

let rec mem_from (t : t) (x : int) (i : int) : bool =
  i < t.len && (Array.unsafe_get t.data i = x || mem_from t x (i + 1))

(** Does [t] hold [x]?  (Top-level recursion: a local closure would
    allocate on every call.) *)
let mem (t : t) (x : int) : bool = mem_from t x 0

(** [assign dst src] makes [dst] hold [src]'s elements, in order,
    reusing [dst]'s storage when it is large enough. *)
let assign (dst : t) (src : t) : unit =
  if Array.length dst.data < src.len then dst.data <- Array.make (Array.length src.data) 0;
  Array.blit src.data 0 dst.data 0 src.len;
  dst.len <- src.len

let to_list (t : t) : int list =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []
