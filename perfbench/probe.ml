(** Host-side observation of the calls the benchmark makes into the
    simulator's layers.

    A probe is either off — the drivers then call straight through and
    only whole phases are timed — or on, for the traced run: every
    [Vm] call is timed and folded into per-layer counters and
    histograms (never one record per allocation), and trials, rounds,
    shards and collecting calls leave spans kept in memory until the
    run ends.  The probe only reads the clock, [Gc.minor_words] and the
    VM's public counters, so the simulation cannot see it. *)

module Stats = Holes_obs.Stats

type span = {
  name : string;
  id : int;
  parent : int;  (** enclosing span id; -1 at the root *)
  trial : int;  (** trial (or shard) the span belongs to *)
  t0 : int;  (** host ns, monotonic *)
  t1 : int;
}

type t = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable parent : int;
  mutable trial : int;
  (* host ns and counts; ints so the hot path never boxes *)
  mutable create_ns : int;
  mutable alloc_calls : int;
  mutable alloc_ns : int;
  mutable alloc_words : int;
  mutable gc_calls : int;
  mutable gc_ns : int;
  mutable kill_ns : int;
  mutable write_ref_ns : int;
  mutable verify_ns : int;
  alloc_hist : Stats.hist;  (** ns per non-collecting [Vm.alloc] *)
  gc_hist : Stats.hist;  (** ns per collecting call *)
}

let make ~(on : bool) : t =
  {
    on;
    spans = [];
    next_id = 0;
    parent = -1;
    trial = -1;
    create_ns = 0;
    alloc_calls = 0;
    alloc_ns = 0;
    alloc_words = 0;
    gc_calls = 0;
    gc_ns = 0;
    kill_ns = 0;
    write_ref_ns = 0;
    verify_ns = 0;
    alloc_hist = Stats.hist ();
    gc_hist = Stats.hist ();
  }

(** A probe that records nothing (the untimed drivers and the tests). *)
let off () : t = make ~on:false

let add_span (p : t) ~(name : string) ~(parent : int) ~(trial : int) ~(t0 : int) ~(t1 : int) :
    int =
  let id = p.next_id in
  p.next_id <- id + 1;
  p.spans <- { name; id; parent; trial; t0; t1 } :: p.spans;
  id

(** Run [f] inside a span named [name] (a no-op wrapper when off).  The
    span's id is reserved on entry so children can name it as parent. *)
let span (p : t) ?trial (name : string) (f : unit -> 'a) : 'a =
  if not p.on then f ()
  else begin
    let id = p.next_id in
    p.next_id <- id + 1;
    let parent = p.parent and outer_trial = p.trial in
    (match trial with Some tr -> p.trial <- tr | None -> ());
    let trial = p.trial in
    p.parent <- id;
    let t0 = Clock.now () in
    let finish () =
      p.spans <- { name; id; parent; trial; t0; t1 = Clock.now () } :: p.spans;
      p.parent <- parent;
      p.trial <- outer_trial
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** Record one collecting call (a [Vm.alloc] or [Vm.collect] during
    which a collection counter advanced) as a span and a sample. *)
let gc_call (p : t) ~(t0 : int) ~(t1 : int) : unit =
  p.gc_calls <- p.gc_calls + 1;
  p.gc_ns <- p.gc_ns + (t1 - t0);
  Stats.observe p.gc_hist (float_of_int (t1 - t0));
  ignore (add_span p ~name:"gc" ~parent:p.parent ~trial:p.trial ~t0 ~t1)

(** The highest of a fixed ladder of quantiles that still has at least
    ten samples beyond it, for [n] samples; [None] below ten samples. *)
let tail_q (n : int) : float option =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0)
    [ 0.9999; 0.999; 0.99; 0.95; 0.9; 0.5 ]

let q_label (q : float) : string = Printf.sprintf "p%g" (q *. 100.0)

(** The probe's per-layer host metrics.  [passes] normalizes call
    counts and busy times to one pass of the workload. *)
let metrics (p : t) ~(passes : int) : (string * float) list =
  let per_pass ns = Clock.s_of_ns ns /. float_of_int (max 1 passes) in
  let tail h =
    match tail_q (Stats.count h) with
    | Some q -> Stats.quantile ~interp:true h q
    | None -> 0.0
  in
  [
    ("core.create.busy_s", per_pass p.create_ns);
    ("core.alloc.calls", float_of_int p.alloc_calls /. float_of_int (max 1 passes));
    ("core.alloc.busy_s", per_pass p.alloc_ns);
    ("core.alloc.ns_p50", Stats.quantile ~interp:true p.alloc_hist 0.5);
    ("core.alloc.ns_tail", tail p.alloc_hist);
    ( "core.alloc.minor_words_per_call",
      if p.alloc_calls = 0 then 0.0
      else float_of_int p.alloc_words /. float_of_int p.alloc_calls );
    ("core.gc.calls", float_of_int p.gc_calls /. float_of_int (max 1 passes));
    ("core.gc.busy_s", per_pass p.gc_ns);
    ("core.gc.ms_p50", Stats.quantile ~interp:true p.gc_hist 0.5 /. 1e6);
    ("core.gc.ms_tail", tail p.gc_hist /. 1e6);
    ("core.kill.busy_s", per_pass p.kill_ns);
    ("core.write_ref.busy_s", per_pass p.write_ref_ns);
    ("core.verify.busy_s", per_pass p.verify_ns);
  ]

(** Which quantile each tail metric above reports, and over how many
    samples (printed beside the numbers). *)
let tail_notes (p : t) : string list =
  let note name h =
    let n = Stats.count h in
    match tail_q n with
    | Some q -> Printf.sprintf "%s = %s of %d calls" name (q_label q) n
    | None -> Printf.sprintf "%s = 0 (%d calls, fewer than 10)" name n
  in
  [ note "core.alloc.ns_tail" p.alloc_hist; note "core.gc.ms_tail" p.gc_hist ]

(** Write the spans as JSON lines in the order they ended, after a
    header line. *)
let write_spans (p : t) ~(header : string) (path : string) : unit =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"trial\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.name s.id s.parent s.trial s.t0 s.t1)
    (List.rev p.spans);
  close_out oc
