(* Differential cross-substrate oracle.

   Gauntlet-style differential execution: the same program is run on every
   execution substrate available and all runs must produce the same output
   trace and final state; any divergence is a bug in the simulator stack
   itself (optimizer, closure compiler, interpreter, or the dRMT scheduler)
   and is reported as its own failure class, distinct from the spec
   mismatches of Fig. 5.

   The oracle is polymorphic over a {!Druzhba_dsim.Substrate.packed} list:
   the head of the list is the reference configuration and every other
   entry is judged against it.  An RMT program's list is built from a
   configuration list — (label, backend, optimization level), reference
   first — and three ship here: {!rmt_configs} (six configurations),
   {!native_configs} and {!native_fallback_configs} (three each).  dRMT
   trials hand {!diff_substrates} their two substrates directly. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Optimizer = Druzhba_optimizer.Optimizer
module Substrate = Druzhba_dsim.Substrate
module Backends = Druzhba_dsim.Backends
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

(* --- Configurations ----------------------------------------------------------- *)

(* One oracle configuration: the substrate label reports key divergences
   on, the {!Backends} registry entry that executes it, and the
   optimization level of the description it runs. *)
type configuration = { cf_label : string; cf_backend : Backends.t; cf_level : Optimizer.level }

let configuration cf_label cf_backend cf_level = { cf_label; cf_backend; cf_level }

(* The level the native-codegen configurations run at. *)
let native_level = Optimizer.Scc_inline

(* The head of every list: the interpreter on the unoptimized description,
   the most literal rendering of the hardware semantics. *)
let reference = configuration "interpreter@unoptimized" Backends.Interpreter Optimizer.Unoptimized

let closures_unoptimized =
  configuration "closures@unoptimized" Backends.Closures Optimizer.Unoptimized

let closures_native = configuration "closures@scc-inline" Backends.Closures native_level
let native = configuration "native@scc-inline" Backends.Native native_level

(* The stand-in for the emitted module on a host without the native
   toolchain: the interpreter at the native level, so the list keeps its
   size and every configuration in it can still disagree with the others.
   The label stays so degraded reports match the toolchain's. *)
let native_fallback = configuration "native-fallback@scc-inline" Backends.Interpreter native_level

(* Both in-process backends at all three levels of the paper's Table 1. *)
let rmt_configs =
  [
    reference;
    closures_unoptimized;
    configuration "interpreter@scc" Backends.Interpreter Optimizer.Scc;
    configuration "closures@scc" Backends.Closures Optimizer.Scc;
    configuration "interpreter@scc+inline" Backends.Interpreter Optimizer.Scc_inline;
    configuration "closures@scc+inline" Backends.Closures Optimizer.Scc_inline;
  ]

(* The paper's discipline of diffing dsim against the code dgen generates:
   the emitted module, kept honest by both in-process backends. *)
let native_configs = [ reference; closures_native; native ]
let native_fallback_configs = [ reference; closures_native; native_fallback ]

(* Builds [configs]' substrates, reference first.  The optimizer runs once
   per level and the configurations at one level share its description.
   The reference runs on the description as optimized; every candidate
   runs on it after [transform] (if any).  That is the seam campaign
   sabotage mode plants a buggy optimizer pass in: every candidate at the
   affected level inherits the bug, as a real mis-compiling pass would
   propagate it.  [build_with] is {!Backends.create}'s.

   @raise Failure if a native configuration's module does not build; the
   message leaves out ocamlopt's output, which names per-process staging
   paths, so it is deterministic. *)
let substrates ?(init = []) ?transform ?build_with ~configs ~(desc : Ir.t) ~mc () :
    Substrate.packed list =
  let levels = List.sort_uniq compare (List.map (fun c -> c.cf_level) configs) in
  let optimized = List.map (fun level -> (level, Optimizer.apply ~level ~mc desc)) levels in
  let transformed =
    match transform with
    | None -> optimized
    | Some f -> List.map (fun (level, d) -> (level, f level d)) optimized
  in
  let build descs c =
    let d = List.assoc c.cf_level descs in
    match Backends.create ~label:c.cf_label ~init ?build_with c.cf_backend d ~mc with
    | Ok sub -> sub
    | Error _ -> failwith (c.cf_label ^ ": the emitted module did not build")
  in
  match configs with
  | [] -> invalid_arg "Oracle.substrates: empty configuration list"
  | reference :: candidates -> build optimized reference :: List.map (build transformed) candidates

(* --- Differential check ------------------------------------------------------- *)

(* Runs [inputs] through every substrate and diffs each candidate against
   the head of the list.  All runs stream through preallocated output
   buffers, so the simulation hot loop never allocates per PHV and no
   intermediate trace is materialized.

   [budget] (if any) is shared by all runs: one unit of fuel per simulation
   tick (or scheduled event), {!Druzhba_dsim.Budget.Exhausted} escaping to
   the caller — the campaign runner turns it into a timeout outcome.

   Runs go through the substrates' batched entry points: the interpreter
   sweeps {!Substrate.default_batch} lanes through {!Druzhba_dsim.Batch};
   every other substrate runs its sequential loop.  The lane path is
   bit-identical to the sequential tick loop (enforced by the cross-path
   property tests). *)
let diff_substrates ?budget ~(substrates : Substrate.packed list) ~inputs () : outcome =
  match substrates with
  | [] | [ _ ] ->
    invalid_arg "Oracle.diff_substrates: need a reference and at least one candidate"
  | reference :: candidates ->
    let capacity = List.length inputs in
    let ref_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    Substrate.run_batch_into ?budget reference ~inputs ref_buf;
    let ref_state = Substrate.current_state reference in
    let act_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    let rec judge = function
      | [] -> Agree { configs = 1 + List.length candidates; phvs = capacity }
      | sub :: rest -> (
        Substrate.run_batch_into ?budget sub ~inputs act_buf;
        let act_state = Substrate.current_state sub in
        match diff_runs ~ref_buf ~ref_state ~act_buf ~act_state with
        | None -> judge rest
        | Some (dv_kind, dv_expected, dv_actual) ->
          Divergence { dv_config = Substrate.name sub; dv_kind; dv_expected; dv_actual })
    in
    judge candidates

(* Validates [mc] (before any substrate is built, so invalid machine code
   classifies as [Invalid_mc], never as a native build failure), then runs
   the differential check over [configs] (default {!rmt_configs}).
   [transform] and [build_with] are threaded to {!substrates}. *)
let check ?init ?budget ?transform ?build_with ?(configs = rmt_configs) ~(desc : Ir.t) ~mc ~inputs
    () : outcome =
  match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
  | Error violations -> Invalid_mc violations
  | Ok () ->
    diff_substrates ?budget
      ~substrates:(substrates ?init ?transform ?build_with ~configs ~desc ~mc ())
      ~inputs ()
