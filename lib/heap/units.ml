(** Heap geometry shared by every collector.

    The paper's configuration (Sec. 5): Immix blocks of 32 KB, logical
    lines of 64–256 B (256 B default), 4 KB OS pages, 64 B PCM lines. *)

(** Immix block size in bytes (paper default 32 KB). *)
let block_bytes = 32768

(** OS pages per Immix block: 8. *)
let pages_per_block = block_bytes / Holes_pcm.Geometry.page_bytes

(** Object alignment in bytes. *)
let align = 8

(** Objects strictly larger than this go to the large object space.
    Immix delegates objects above 8 KB to the page-grained LOS. *)
let los_threshold = 8192

(** Default Immix logical line size (bytes); the paper also evaluates 64
    and 128. *)
let default_line_size = 256

(** Valid Immix line sizes: multiples of the 64 B PCM line that divide
    the block size. *)
let valid_line_size (l : int) : bool =
  l >= Holes_pcm.Geometry.line_bytes && l mod Holes_pcm.Geometry.line_bytes = 0
  && block_bytes mod l = 0

let lines_per_block ~(line_size : int) : int = block_bytes / line_size

let round_up (n : int) (to_ : int) : int = (n + to_ - 1) / to_ * to_

(** Size of an allocation request after alignment. *)
let aligned_size (n : int) : int = Int.max align (round_up n align)
