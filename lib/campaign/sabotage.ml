(* A planted optimizer bug for the coverage acceptance gate.

   The point of coverage-guided generation is reaching divergences whose
   trigger needs a specific selector/branch combination that uniform-random
   sampling will not produce.  This module is that divergence class, built
   so the "random provably misses it" half is airtight:

   Trigger — all three must hold for the trial's machine code:
   1. the datapath is wider than 8 bits;
   2. stage 0's container-0 output mux selects a stateful arm (registered
      or new-state), per {!Druzhba_analysis.Dataflow.mux_source_of_ctrl} —
      the selector/branch half of the combination;
   3. some immediate-domain pair holds the all-ones value of the datapath
      ([Value.max_value bits]) — the boundary-value half.

   {!Druzhba_fuzz.Fuzz.random_mc} draws immediates at most [min 8 bits]
   bits wide, so on a >8-bit datapath a random immediate is always at most
   255 < [max_value bits]: condition 3 is {e unreachable} by uniform-random
   generation at any trial budget.  The corpus's boundary-nudge mutation
   sets immediates to exactly [max_value bits], so coverage-guided mode
   reaches the trigger routinely.

   Effect — when the trigger fires, every post-optimizer description (the
   candidates of {!Oracle.rmt_configs}; never the unoptimized reference)
   gets stage 0's container-0 output mux wrapped in an off-by-one, which
   both the interpreter and the closure compiler then faithfully execute:
   the bug is in the "pass", and the oracle reports a backend divergence on
   every PHV.  Shrinking with the transform in the loop pins both halves of
   the trigger as essential pairs: neutralizing either the mux selector or
   the all-ones immediate to 0 disarms the bug and the probe stops
   reproducing. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Names = Druzhba_pipeline.Names
module Optimizer = Druzhba_optimizer.Optimizer
module Dataflow = Druzhba_analysis.Dataflow
module Value = Druzhba_util.Value

let trigger ~(desc : Ir.t) ~mc =
  desc.Ir.d_bits > 8
  && (match Machine_code.find_opt mc (Names.output_mux ~stage:0 ~container:0) with
     | Some v -> (
       match Dataflow.mux_source_of_ctrl ~width:desc.Ir.d_width v with
       | Dataflow.Src_stateful _ | Dataflow.Src_stateful_new _ -> true
       | Dataflow.Src_stateless _ | Dataflow.Src_passthrough -> false)
     | None -> false)
  && List.exists
       (* [transform] sees the post-optimizer description, whose specialized
          helpers no longer declare control domains — so the immediate
          condition reads the machine code directly.  On a >8-bit datapath
          only an immediate pair can hold the all-ones value: selector
          domains top out at [3*width + 1] ≤ 7, far below 65535. *)
       (fun (_, v) -> v = Value.max_value desc.Ir.d_bits)
       (Machine_code.to_alist mc)

(* Wraps the targeted output mux's body in a truncated +1.  The helper
   table is copied first: optimized descriptions share helper tables with
   siblings, and a planted bug must not leak across configurations. *)
let perturb (desc : Ir.t) : Ir.t =
  let name = Names.output_mux ~stage:0 ~container:0 in
  match Hashtbl.find_opt desc.Ir.d_helpers name with
  | None -> desc
  | Some h ->
    let helpers = Hashtbl.copy desc.Ir.d_helpers in
    Hashtbl.replace helpers name
      { h with Ir.h_body = Ir.Trunc (Ir.Binop (Ir.Add, h.Ir.h_body, Ir.Const 1)) };
    { desc with Ir.d_helpers = helpers }

(* The transform {!Oracle.check} threads over post-optimizer candidate
   descriptions.  [mc] must be the machine code of the run being judged —
   shrink probes rebuild the closure per probe so the trigger tracks the
   neutralized code. *)
let transform ~mc (level : Optimizer.level) (desc : Ir.t) : Ir.t =
  match level with
  | Optimizer.Unoptimized -> desc
  | Optimizer.Scc | Optimizer.Scc_inline -> if trigger ~desc ~mc then perturb desc else desc
