(** Fuzzing-based compiler testing (paper §3.3, Fig. 5).

    The workflow: machine code produced by a compiler under test is loaded
    into a pipeline description; the traffic generator produces random PHVs;
    the pipeline's output trace is compared against the trace the program's
    specification produces on the same inputs.  Divergence means the
    compiler mis-mapped the program.

    {!outcome} encodes the case study's failure taxonomy (§5.2): machine
    code missing required pairs, and output/state mismatches (which is how
    narrow-range machine code surfaces under wide fuzzing). *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Optimizer = Druzhba_optimizer.Optimizer
module Phv = Druzhba_dsim.Phv
module Trace = Druzhba_dsim.Trace

val random_mc : ?imm_bits:int -> Prng.t -> Ir.t -> Machine_code.t
(** A random but well-formed machine-code program for a description: every
    selector is drawn from its domain, every immediate from [imm_bits]
    (default 8, clamped to the datapath width).  Used for pure simulator
    fuzzing and differential testing of the optimizer. *)

(** A specification: carries its own state and maps each input PHV to the
    expected output PHV. *)
type spec = {
  spec_init : unit -> int array;  (** fresh specification state *)
  spec_step : int array -> Phv.t -> Phv.t;  (** may mutate the state vector *)
}

type state_layout = (string * int * int) list
(** How pipeline state maps back to specification state:
    [(stateful ALU name, state slot, spec state index)]. *)

type mismatch = {
  mm_kind : [ `Output of int | `State of int ];
  mm_index : int;  (** PHV position in the trace; [-1] for final state *)
  mm_expected : int;
  mm_actual : int;
  mm_input : Phv.t option;  (** the PHV that exposed the divergence *)
  mm_seed : int;
      (** traffic seed of the failing trial — printed by {!pp_outcome} so
          any reported failure is reproducible from the message alone *)
}

type outcome =
  | Pass of { phvs : int }
  | Missing_pairs of string list  (** §5.2 failure class 1 *)
  | Out_of_range_selectors of (string * int * int) list
      (** selector values outside their control domain:
          [(name, value, bound)] with valid range [[0, bound)] *)
  | Mismatch of mismatch  (** §5.2 failure class 2 shows up here *)

val pp_outcome : outcome Fmt.t
val outcome_is_pass : outcome -> bool

val compare_traces :
  ?seed:int ->
  observed:int list ->
  spec:spec ->
  state_layout:state_layout ->
  trace:Trace.t ->
  unit ->
  mismatch option
(** Replays [spec] over the trace's inputs and compares outputs (restricted
    to the [observed] containers) and final state.  [seed] (default 0) is
    recorded in any mismatch so the report identifies the failing trial. *)

val run_equivalence :
  ?level:Optimizer.level ->
  ?seed:int ->
  ?prefix:Druzhba_dsim.Phv.t list ->
  ?init:(string * int array) list ->
  desc:Ir.t ->
  mc:Machine_code.t ->
  spec:spec ->
  observed:int list ->
  state_layout:state_layout ->
  n:int ->
  unit ->
  outcome
(** The full Fig. 5 workflow for one machine-code program: validate the
    machine code against the description's required names, optimize at
    [level] (default {!Optimizer.Scc}), simulate [n] random PHVs from
    [seed] — after the directed [prefix] PHVs, if any, which run first from
    the reset state — and compare traces.  [init] preloads stateful-ALU state
    (control-plane register initialization).  The optimized description
    runs on the interpreter engine ({!Druzhba_dsim.Substrate.of_engine}). *)
