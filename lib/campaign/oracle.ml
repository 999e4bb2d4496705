(* Differential cross-substrate oracle.

   Gauntlet-style differential execution: the same program is run on every
   execution substrate available and all runs must produce the same output
   trace and final state; any divergence is a bug in the simulator stack
   itself (optimizer, closure compiler, interpreter, or the dRMT scheduler)
   and is reported as its own failure class, distinct from the spec
   mismatches of Fig. 5.

   The oracle is polymorphic over a {!Druzhba_dsim.Substrate.packed} list:
   the head of the list is the reference configuration and every other
   entry is judged against it.  Two canonical substrate sets ship here:

   - {!rmt_substrates}: the interpreter ({!Druzhba_dsim.Engine}) and the
     closure-compiled pipeline ({!Druzhba_dsim.Compiled}) at all three
     optimization levels of the paper's Table 1, referenced by the
     interpreter on the unoptimized description (the most literal rendering
     of the hardware semantics) — six configurations;
   - {!drmt_substrates}: the event-driven dRMT model judged against the
     sequential P4 reference semantics — two configurations. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Substrate = Druzhba_dsim.Substrate
module Native_substrate = Druzhba_dsim.Native_substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Phv = Druzhba_dsim.Phv
module Trace = Druzhba_dsim.Trace

let all_levels = [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ]

(* Where and how a non-reference configuration departed from the reference
   trace.  [dv_config] is the diverging substrate's label (e.g.
   ["closures@scc"] or ["drmt@event"]).  [`Shape] covers the pathological
   case of a different number of outputs (a pipeline-depth bug would show
   up this way). *)
type divergence = {
  dv_config : string;
  dv_kind : [ `Output of int * int (* phv index, container *) | `State of string * int | `Shape ];
  dv_expected : int; (* reference value; 0 for `Shape *)
  dv_actual : int; (* diverging value; 0 for `Shape *)
}

type outcome =
  | Agree of { configs : int; phvs : int }
  | Invalid_mc of Machine_code.violation list (* validation failed; nothing was run *)
  | Divergence of divergence

let pp_divergence ppf d =
  let where =
    match d.dv_kind with
    | `Output (i, c) -> Fmt.str "output phv %d container %d" i c
    | `State (alu, slot) -> Fmt.str "state %s[%d]" alu slot
    | `Shape -> "trace shape"
  in
  Fmt.pf ppf "%s diverges from reference at %s: expected %d, got %d" d.dv_config where
    d.dv_expected d.dv_actual

let pp_outcome ppf = function
  | Agree { configs; phvs } -> Fmt.pf ppf "agree (%d configurations, %d PHVs)" configs phvs
  | Invalid_mc violations ->
    Fmt.pf ppf "invalid machine code: %a"
      Fmt.(list ~sep:(any ", ") Machine_code.pp_violation)
      violations
  | Divergence d -> pp_divergence ppf d

let outcome_agrees = function Agree _ -> true | Invalid_mc _ | Divergence _ -> false

(* First divergence in the final state vectors (missing state in [actual]
   reads as min_int, like the fuzz harness). *)
let diff_states ~(reference : (string * int array) list) ~(actual : (string * int array) list) :
    ([ `Output of int * int | `State of string * int | `Shape ] * int * int) option =
  List.find_map
    (fun (alu, expected) ->
      let got = match List.assoc_opt alu actual with Some v -> v | None -> [| min_int |] in
      let n = Array.length expected in
      let rec scan slot =
        if slot >= n then None
        else
          let actual_v = if slot < Array.length got then got.(slot) else min_int in
          if expected.(slot) <> actual_v then Some (`State (alu, slot), expected.(slot), actual_v)
          else scan (slot + 1)
      in
      scan 0)
    reference

(* First point where [actual] departs from [reference].  Output containers
   are scanned in trace order, then final state vectors. *)
let diff_traces ~(reference : Trace.t) ~(actual : Trace.t) :
    ([ `Output of int * int | `State of string * int | `Shape ] * int * int) option =
  if List.length reference.Trace.outputs <> List.length actual.Trace.outputs then
    Some (`Shape, 0, 0)
  else begin
    let rec diff_outputs i expected_rest got_rest =
      match (expected_rest, got_rest) with
      | [], [] -> None
      | expected :: expected_rest, got :: got_rest ->
        let width = min (Array.length expected) (Array.length got) in
        let rec scan c =
          if c >= width then diff_outputs (i + 1) expected_rest got_rest
          else if expected.(c) <> got.(c) then Some (`Output (i, c), expected.(c), got.(c))
          else scan (c + 1)
        in
        scan 0
      | _ -> Some (`Shape, 0, 0)
    in
    let output_diff = diff_outputs 0 reference.Trace.outputs actual.Trace.outputs in
    match output_diff with
    | Some _ as d -> d
    | None -> diff_states ~reference:reference.Trace.final_state ~actual:actual.Trace.final_state
  end

(* As {!diff_traces}, but over the substrates' preallocated output buffers —
   the oracle's hot path never freezes a {!Trace.t}. *)
let diff_runs ~(ref_buf : Trace.Buffer.t) ~ref_state ~(act_buf : Trace.Buffer.t) ~act_state :
    ([ `Output of int * int | `State of string * int | `Shape ] * int * int) option =
  let n = Trace.Buffer.length ref_buf in
  if Trace.Buffer.length act_buf <> n then Some (`Shape, 0, 0)
  else begin
    let rec rows i =
      if i >= n then None
      else begin
        let expected = Trace.Buffer.row ref_buf i and got = Trace.Buffer.row act_buf i in
        let width = min (Array.length expected) (Array.length got) in
        let rec scan c =
          if c >= width then rows (i + 1)
          else if expected.(c) <> got.(c) then Some (`Output (i, c), expected.(c), got.(c))
          else scan (c + 1)
        in
        scan 0
      end
    in
    match rows 0 with
    | Some _ as d -> d
    | None -> diff_states ~reference:ref_state ~actual:act_state
  end

(* --- Substrate sets ---------------------------------------------------------- *)

(* The six RMT configurations, reference (interpreter on the unoptimized
   description) first.  The per-level optimized descriptions are shared
   between the two backends, so the optimizer runs once per level.

   [transform] (if any) rewrites each optimized description before the
   candidate substrates are built from it — the reference never sees it.
   This is the seam campaign sabotage mode uses to plant a buggy optimizer
   pass: both backends at the affected level inherit the bug, exactly as a
   real mis-compiling pass would propagate. *)
let rmt_substrates ?(init = []) ?transform ~(desc : Ir.t) ~mc () : Substrate.packed list =
  let apply_transform level d =
    match transform with None -> d | Some f -> f level d
  in
  Substrate.of_engine ~label:"interpreter@unoptimized" ~init desc ~mc
  :: List.concat_map
       (fun level ->
         let optimized = apply_transform level (Optimizer.apply ~level ~mc desc) in
         let compiled = Compile.compile optimized ~mc in
         let interp =
           if level = Optimizer.Unoptimized then []
           else
             [
               Substrate.of_engine
                 ~label:("interpreter@" ^ Optimizer.level_name level)
                 ~init optimized ~mc;
             ]
         in
         interp
         @ [ Substrate.of_compiled ~label:("closures@" ^ Optimizer.level_name level) ~init compiled ])
       all_levels

(* The two dRMT configurations, sequential P4 reference semantics first.
   @raise Druzhba_drmt.Scheduler.Infeasible if the program cannot be
   scheduled under [cfg]. *)
let drmt_substrates ?cfg ~entries (p : Druzhba_drmt.P4.t) : Substrate.packed list =
  [
    Drmt_substrate.of_p4 ~mode:Drmt_substrate.Sequential ~entries p;
    Drmt_substrate.of_p4 ?cfg ~mode:Drmt_substrate.Event ~entries p;
  ]

(* --- Differential check ------------------------------------------------------- *)

(* Runs [inputs] through every substrate and diffs each candidate against
   the head of the list.  All runs stream through preallocated output
   buffers, so the simulation hot loop never allocates per PHV and no
   intermediate trace is materialized.

   [budget] (if any) is shared by all runs: one unit of fuel per simulation
   tick (or scheduled event), {!Druzhba_dsim.Budget.Exhausted} escaping to
   the caller — the campaign runner turns it into a timeout outcome.

   Runs go through the substrates' batched entry points ([batch] lanes,
   default {!Substrate.default_batch}).  The interpreter and native
   substrates sweep lanes through {!Druzhba_dsim.Batch}; the closures and
   dRMT run their sequential loops.  Either way the result is bit-identical
   to the sequential tick loop (enforced by the cross-path property
   tests), so outcomes do not depend on [batch]. *)
let diff_substrates ?budget ?batch ~(substrates : Substrate.packed list) ~inputs () : outcome =
  match substrates with
  | [] | [ _ ] ->
    invalid_arg "Oracle.diff_substrates: need a reference and at least one candidate"
  | reference :: candidates ->
    let capacity = List.length inputs in
    let ref_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    Substrate.run_batch_into ?budget ?batch reference ~inputs ref_buf;
    let ref_state = Substrate.current_state reference in
    let act_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    let rec judge = function
      | [] -> Agree { configs = 1 + List.length candidates; phvs = capacity }
      | sub :: rest -> (
        Substrate.run_batch_into ?budget ?batch sub ~inputs act_buf;
        let act_state = Substrate.current_state sub in
        match diff_runs ~ref_buf ~ref_state ~act_buf ~act_state with
        | None -> judge rest
        | Some (dv_kind, dv_expected, dv_actual) ->
          Divergence { dv_config = Substrate.name sub; dv_kind; dv_expected; dv_actual })
    in
    judge candidates

(* Validates [mc] then runs the six-configuration RMT differential check.
   [transform] is threaded to {!rmt_substrates} (candidate descriptions
   only). *)
let check ?(init = []) ?budget ?batch ?transform ~(desc : Ir.t) ~mc ~inputs () : outcome =
  match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
  | Error violations -> Invalid_mc violations
  | Ok () ->
    diff_substrates ?budget ?batch
      ~substrates:(rmt_substrates ~init ?transform ~desc ~mc ())
      ~inputs ()

(* Event-driven dRMT vs sequential reference on a P4 program. *)
let check_drmt ?budget ?batch ?cfg ~entries ~(p : Druzhba_drmt.P4.t) ~inputs () : outcome =
  diff_substrates ?budget ?batch ~substrates:(drmt_substrates ?cfg ~entries p) ~inputs ()

(* --- Native-codegen check ----------------------------------------------------

   Three configurations: the interpreter on the unoptimized description
   (reference), the closure backend at scc+inline, and the Dynlinked
   native module emitted from the same scc+inline description.  The two
   interpreted configurations keep the generated artifact honest — this is
   the paper's discipline of diffing dsim against the dgen-generated code
   it is supposed to match. *)

let native_level = Optimizer.Scc_inline

(* [Error reason] means the native toolchain is unavailable or the
   out-of-process compile failed; nothing was run.  [build_with] is
   {!Native_substrate.create}'s: programs, already at {!native_level}, to
   build together with this one. *)
let native_substrates ?(init = []) ?build_with ~(desc : Ir.t) ~mc () :
    (Substrate.packed list, string) result =
  let optimized = Optimizer.apply ~level:native_level ~mc desc in
  match Native_substrate.create ~label:"native@scc-inline" ~init ?build_with optimized ~mc with
  | Error e -> Error e
  | Ok native ->
    Ok
      [
        Substrate.of_engine ~label:"interpreter@unoptimized" ~init desc ~mc;
        Substrate.of_compiled ~label:"closures@scc-inline" ~init (Compile.compile optimized ~mc);
        native;
      ]

(* The degraded set: the closure backend stands in for the native artifact
   under the label ["native-fallback@scc-inline"], so a toolchain-less host
   still runs a three-configuration differential trial (same configs count,
   same seeds, same classification space) and the report's notes carry the
   reason. *)
let native_fallback_substrates ?(init = []) ~(desc : Ir.t) ~mc () : Substrate.packed list =
  let optimized = Optimizer.apply ~level:native_level ~mc desc in
  [
    Substrate.of_engine ~label:"interpreter@unoptimized" ~init desc ~mc;
    Substrate.of_compiled ~label:"closures@scc-inline" ~init (Compile.compile optimized ~mc);
    Substrate.of_compiled ~label:"native-fallback@scc-inline" ~init (Compile.compile optimized ~mc);
  ]

(* Validates [mc] (before emission — so invalid machine code classifies as
   [Invalid_mc], never as a native build failure), then runs the
   three-configuration native differential check.  [Error reason] only when
   the toolchain is unavailable. *)
let check_native ?(init = []) ?budget ?batch ?build_with ~(desc : Ir.t) ~mc ~inputs () :
    (outcome, string) result =
  match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
  | Error violations -> Ok (Invalid_mc violations)
  | Ok () -> (
    match native_substrates ~init ?build_with ~desc ~mc () with
    | Error e -> Error e
    | Ok substrates -> Ok (diff_substrates ?budget ?batch ~substrates ~inputs ()))

(* The degraded twin of {!check_native}: always runs, on interpreted
   substrates only. *)
let check_native_fallback ?(init = []) ?budget ?batch ~(desc : Ir.t) ~mc ~inputs () : outcome =
  match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
  | Error violations -> Invalid_mc violations
  | Ok () ->
    diff_substrates ?budget ?batch
      ~substrates:(native_fallback_substrates ~init ~desc ~mc ())
      ~inputs ()
