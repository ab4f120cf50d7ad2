(** Host clock and allocation counter for the benchmark's probes.

    The monotonic clock is bechamel's C stub, whose [int64] result is
    unboxed, so a reading costs no OCaml allocation and the minor-heap
    words counted around a [Vm.alloc] call are the call's own. *)

(** Monotonic host time, nanoseconds. *)
let[@inline] now () : int = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

(** Words allocated on this domain's minor heap so far (no allocation
    when used directly in float arithmetic). *)
let[@inline] minor_words () : float = Gc.minor_words ()

let s_of_ns (ns : int) : float = float_of_int ns /. 1e9
