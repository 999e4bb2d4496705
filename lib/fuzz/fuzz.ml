(* Fuzzing-based compiler testing (paper §3.3, Fig. 5).

   The workflow: machine code produced by the compiler under test is loaded
   into a pipeline description; the traffic generator produces random PHVs;
   the pipeline's output trace is compared against the trace produced by a
   high-level specification of the intended algorithm.  Assertion failures
   mean the compiler mis-mapped the program.

   The outcome type encodes the paper's observed failure classes (§5.2):
   missing machine-code pairs, and output mismatches (which is how
   insufficient machine code that only satisfies narrow inputs shows up when
   fuzzing at the full datapath width). *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Optimizer = Druzhba_optimizer.Optimizer
module Phv = Druzhba_dsim.Phv
module Substrate = Druzhba_dsim.Substrate
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace

(* --- Random machine code --------------------------------------------------

   For pure simulator fuzzing (no compiler in the loop) we draw a random but
   well-formed machine-code program: every control the description requires
   gets a value from its domain. *)

let random_mc ?(imm_bits = 8) prng (desc : Ir.t) : Machine_code.t =
  let imm_bits = min imm_bits desc.Ir.d_bits in
  let pairs =
    List.map
      (fun (name, domain) ->
        match (domain : Ir.control_domain) with
        | Ir.Selector n -> (name, Prng.int prng n)
        | Ir.Immediate -> (name, Prng.bits prng imm_bits))
      (Ir.control_domains desc)
  in
  Machine_code.of_list pairs

(* --- Specifications -------------------------------------------------------

   A specification consumes input PHVs one at a time, carrying its own state,
   and produces the expected output PHV.  [observed] restricts trace
   comparison to the containers the program actually defines (the rest hold
   simulator-internal intermediate values). *)

type spec = {
  spec_init : unit -> int array; (* fresh specification state *)
  spec_step : int array -> Phv.t -> Phv.t; (* may mutate the state vector *)
}

(* Maps pipeline state back to specification state for final-state
   comparison: (stateful ALU name, state slot, spec state index). *)
type state_layout = (string * int * int) list

type mismatch = {
  mm_kind : [ `Output of int (* container *) | `State of int (* spec state index *) ];
  mm_index : int; (* PHV position in the trace; -1 for final state *)
  mm_expected : int;
  mm_actual : int;
  mm_input : Phv.t option; (* the PHV that exposed the divergence *)
  mm_seed : int; (* traffic seed of the failing trial, for replay *)
}

type outcome =
  | Pass of { phvs : int }
  | Missing_pairs of string list (* §5.2 failure class 1 *)
  | Out_of_range_selectors of (string * int * int) list (* (name, value, bound) *)
  | Mismatch of mismatch (* §5.2 failure class 2 shows up here *)

let pp_outcome ppf = function
  | Pass { phvs } -> Fmt.pf ppf "pass (%d PHVs)" phvs
  | Missing_pairs names ->
    Fmt.pf ppf "missing machine code pairs: %a" Fmt.(list ~sep:(any ", ") string) names
  | Out_of_range_selectors sels ->
    Fmt.pf ppf "out-of-range selectors: %a"
      Fmt.(
        list ~sep:(any ", ") (fun ppf (name, v, bound) ->
            pf ppf "%s = %d (domain [0, %d))" name v bound))
      sels
  | Mismatch { mm_kind; mm_index; mm_expected; mm_actual; mm_input; mm_seed } -> (
    match mm_kind with
    | `Output c ->
      Fmt.pf ppf "output mismatch at phv %d, container %d: expected %d, got %d (input %a, seed %d)"
        mm_index c mm_expected mm_actual (Fmt.option Phv.pp) mm_input mm_seed
    | `State i ->
      Fmt.pf ppf "final state mismatch at spec slot %d: expected %d, got %d (seed %d)" i
        mm_expected mm_actual mm_seed)

let outcome_is_pass = function
  | Pass _ -> true
  | Missing_pairs _ | Out_of_range_selectors _ | Mismatch _ -> false

(* --- Equivalence testing --------------------------------------------------- *)

let compare_traces ?(seed = 0) ~observed ~(spec : spec) ~state_layout ~(trace : Trace.t) () =
  let state = spec.spec_init () in
  let rec go index inputs outputs =
    match (inputs, outputs) with
    | [], [] -> None
    | input :: inputs, output :: outputs -> (
      let expected = spec.spec_step state input in
      let bad =
        List.find_opt (fun c -> expected.(c) <> output.(c)) observed
      in
      match bad with
      | Some c ->
        Some
          {
            mm_kind = `Output c;
            mm_index = index;
            mm_expected = expected.(c);
            mm_actual = output.(c);
            mm_input = Some input;
            mm_seed = seed;
          }
      | None -> go (index + 1) inputs outputs)
    | _ ->
      (* the engine produces exactly one output per input *)
      invalid_arg "Fuzz.compare_traces: trace length mismatch"
  in
  match go 0 trace.Trace.inputs trace.Trace.outputs with
  | Some mm -> Some mm
  | None ->
    (* final state *)
    List.find_map
      (fun (alu_name, slot, spec_index) ->
        match Trace.find_state trace alu_name with
        | None ->
          Some
            {
              mm_kind = `State spec_index;
              mm_index = -1;
              mm_expected = state.(spec_index);
              mm_actual = min_int;
              mm_input = None;
              mm_seed = seed;
            }
        | Some vec ->
          if vec.(slot) <> state.(spec_index) then
            Some
              {
                mm_kind = `State spec_index;
                mm_index = -1;
                mm_expected = state.(spec_index);
                mm_actual = vec.(slot);
                mm_input = None;
                mm_seed = seed;
              }
          else None)
      state_layout

(* Runs the full Fig. 5 workflow for one machine-code program: validate the
   machine code, optimize the description at [level], simulate [n] random
   PHVs, and compare the output trace (restricted to [observed] containers
   and [state_layout] state) against the specification.

   [prefix] PHVs are fed before the [n] random ones: directed trials (e.g.
   witness candidates from translation validation) hit their target packet
   first, from the reset state, then keep fuzzing from wherever it led. *)
let run_equivalence ?(level = Optimizer.Scc) ?(seed = 0xD52ba) ?(prefix = []) ?init
    ~desc ~mc ~spec ~observed ~state_layout ~n () =
  match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
  | Error violations -> (
    let missing =
      List.filter_map
        (function Machine_code.Missing_pair n -> Some n | Machine_code.Out_of_range _ -> None)
        violations
    in
    match missing with
    | _ :: _ -> Missing_pairs missing
    | [] ->
      Out_of_range_selectors
        (List.filter_map
           (function
             | Machine_code.Out_of_range { vi_name; vi_value; vi_bound } ->
               Some (vi_name, vi_value, vi_bound)
             | Machine_code.Missing_pair _ -> None)
           violations))
  | Ok () -> (
    let optimized = Optimizer.apply ~level ~mc desc in
    let substrate = Substrate.of_engine ?init optimized ~mc in
    let traffic =
      Traffic.create ~seed ~width:desc.Ir.d_width ~bits:desc.Ir.d_bits
    in
    let inputs = prefix @ Traffic.phvs traffic n in
    let total = List.length inputs in
    let buf = Trace.Buffer.create ~width:(Substrate.width substrate) ~capacity:total in
    match Substrate.run_into substrate ~inputs buf with
    | () -> (
      let trace =
        {
          Trace.inputs;
          outputs = Trace.Buffer.contents buf;
          final_state = Substrate.current_state substrate;
        }
      in
      match compare_traces ~seed ~observed ~spec ~state_layout ~trace () with
      | None -> Pass { phvs = total }
      | Some mm -> Mismatch mm)
    | exception Machine_code.Missing name -> Missing_pairs [ name ])
