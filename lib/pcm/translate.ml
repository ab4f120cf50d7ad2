(** The device's composable logical→physical address-translation
    pipeline (DESIGN.md §11).

    Every device access flows through an ordered list of {!stage}s, each
    a bijection from its input line domain onto its output line domain.
    Translation folds the stages left to right; failure reporting walks
    them right to left (a physical line that becomes unusable is mapped
    back through each stage's [on_failure] to the logical lines the OS
    must publish).  Two stages exist today:

    - the {e wear-leveling} stage ({!Wear_level}): a live permutation
      perturbed by a pluggable mover (start-gap / random remap /
      decoder swap), sitting on the logical side — it models a
      controller-side leveler above the memory module;
    - the {e redirect} stage ({!Redirect}): the paper's per-region
      failure-clustering maps (Sec. 3.1.2), sitting on the physical
      side inside the module.

    Stage order is load-bearing: with leveling above clustering,
    failures still cluster in the {e intermediate} domain, but the
    leveler's time-varying permutation scatters them across the logical
    view the OS sees — which is exactly the fragmentation the paper's
    Sec. 7.2 argues makes leveling harmful to failure-aware runtimes. *)

(** Shared no-op write hook.  Stages with no per-write behaviour use
    this exact closure so the device can recognize them (physical
    equality) and partially evaluate the write path. *)
let nop_write : int -> unit = fun _ -> ()

type stage = {
  name : string;
  translate : int -> int;  (** input-domain line -> output-domain line *)
  inverse : int -> int;  (** output-domain line -> input-domain line *)
  on_write : int -> unit;
      (** account one data write to an input-domain line; called before
          [translate] on the write path so a triggered remap relocates
          the old payload and the incoming write lands post-move *)
  on_failure : physical:int -> int list;
      (** an output-domain line became unusable: update internal state
          (clustering swap / freeze) and return the input-domain lines
          newly unusable as a result *)
  overhead_writes : unit -> int;  (** data-copy line writes performed by the stage *)
  meta_writes : unit -> int;  (** map/metadata writes performed by the stage *)
  check : unit -> (unit, string) result;  (** permutation invariant *)
}

(** Wrap a wear-leveling core as a pipeline stage. *)
let wear_stage (w : Wear_level.t) : stage =
  {
    name = "wear-level";
    translate = Wear_level.translate w;
    inverse = Wear_level.inverse w;
    on_write = Wear_level.on_data_write w;
    on_failure =
      (fun ~physical ->
        match Wear_level.on_slot_unusable w ~slot:physical with
        | Some l -> [ l ]
        | None -> []);
    overhead_writes = (fun () -> Wear_level.copies w);
    meta_writes = (fun () -> Wear_level.meta_writes w);
    check = (fun () -> Wear_level.check w);
  }

(** Wrap the per-region redirection maps as a pipeline stage over the
    whole device ([region_lines] lines per region). *)
let redirect_stage (regions : Redirect.t array) ~(region_lines : int) : stage =
  {
    name = "redirect";
    translate =
      (fun l ->
        let r = l / region_lines in
        (r * region_lines) + Redirect.translate regions.(r) (l mod region_lines));
    inverse =
      (fun p ->
        let r = p / region_lines in
        (r * region_lines) + Redirect.inverse regions.(r) (p mod region_lines));
    on_write = nop_write;
    on_failure =
      (fun ~physical ->
        let r = physical / region_lines in
        let base = r * region_lines in
        Redirect.record_failure regions.(r) ~physical:(physical - base)
        |> List.map (fun off -> base + off));
    overhead_writes = (fun () -> 0);
    meta_writes = (fun () -> Array.fold_left (fun a r -> a + Redirect.redirections r) 0 regions);
    check =
      (fun () ->
        let bad = ref None in
        Array.iteri
          (fun i r -> if !bad = None && not (Redirect.is_permutation r) then bad := Some i)
          regions;
        match !bad with
        | None -> Ok ()
        | Some i -> Error (Printf.sprintf "redirect stage: region %d is not a permutation" i));
  }

(** Fold a line forward through the pipeline. *)
let translate (stages : stage array) (l : int) : int =
  (* a loop, not a local recursive function: its closure over [stages]
     would allocate on every translation *)
  let l = ref l in
  for i = 0 to Array.length stages - 1 do
    l := (Array.unsafe_get stages i).translate !l
  done;
  !l

(** Fold a physical line backward through the pipeline. *)
let inverse (stages : stage array) (p : int) : int =
  let p = ref p in
  for i = Array.length stages - 1 downto 0 do
    p := stages.(i).inverse !p
  done;
  !p

(** Per-stage invariants plus whole-pipeline consistency over [nlines]
    lines: the composition is a bijection and [inverse] really inverts
    [translate]. *)
let check (stages : stage array) ~(nlines : int) : (unit, string) result =
  let rec stages_ok i =
    if i >= Array.length stages then Ok ()
    else match stages.(i).check () with Ok () -> stages_ok (i + 1) | Error _ as e -> e
  in
  match stages_ok 0 with
  | Error _ as e -> e
  | Ok () ->
      let seen = Array.make nlines false in
      let rec lines l =
        if l >= nlines then Ok ()
        else
          let p = translate stages l in
          if p < 0 || p >= nlines then
            Error (Printf.sprintf "pipeline: line %d translates out of range (%d)" l p)
          else if seen.(p) then
            Error (Printf.sprintf "pipeline: physical line %d reached twice" p)
          else if inverse stages p <> l then
            Error (Printf.sprintf "pipeline: inverse(translate %d) = %d" l (inverse stages p))
          else begin
            seen.(p) <- true;
            lines (l + 1)
          end
      in
      lines 0

(* ---- wear-level policy CLI (mirrors Failure_model.of_cli) ------------- *)

let default_psi = 100

(** Parse a wear-level policy: [none], [startgap[:PSI]], [random[:PSI]]
    or [decoder[:PSI]] (PSI = writes between moves, default 100). *)
let of_cli (s : string) : (Wear_level.policy option, string) result =
  let fail () =
    Error
      (Printf.sprintf "expected none | startgap[:PSI] | random[:PSI] | decoder[:PSI], got %S" s)
  in
  let psi_of = function
    | [] -> Ok default_psi
    | [ p ] -> (
        match int_of_string_opt p with
        | Some v when v > 0 -> Ok v
        | _ -> Error (Printf.sprintf "bad psi %S (want a positive integer)" p))
    | _ -> Error "too many ':' fields"
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "none" ] -> Ok None
  | "startgap" :: rest ->
      Result.map (fun psi -> Some (Wear_level.Start_gap { psi })) (psi_of rest)
  | "random" :: rest ->
      Result.map (fun psi -> Some (Wear_level.Random_remap { psi })) (psi_of rest)
  | "decoder" :: rest ->
      Result.map (fun psi -> Some (Wear_level.Decoder_swap { psi })) (psi_of rest)
  | _ -> fail ()

let to_cli (p : Wear_level.policy option) : string =
  match p with
  | None -> "none"
  | Some (Wear_level.Start_gap { psi }) -> Printf.sprintf "startgap:%d" psi
  | Some (Wear_level.Random_remap { psi }) -> Printf.sprintf "random:%d" psi
  | Some (Wear_level.Decoder_swap { psi }) -> Printf.sprintf "decoder:%d" psi

(** Compact policy tag for config names / file paths. *)
let short_name (p : Wear_level.policy option) : string =
  match p with
  | None -> "none"
  | Some (Wear_level.Start_gap { psi }) -> Printf.sprintf "sg%d" psi
  | Some (Wear_level.Random_remap { psi }) -> Printf.sprintf "rr%d" psi
  | Some (Wear_level.Decoder_swap { psi }) -> Printf.sprintf "ds%d" psi
