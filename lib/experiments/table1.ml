(* Reproduction of the paper's Table 1: RMT simulation runtimes for the 12
   packet programs, unoptimized vs SCC propagation vs SCC + function
   inlining, 50 000 PHVs each (§5.1).

   Each program is compiled by the rule-based backend at the pipeline
   dimensions Table 1 lists; its machine code then drives three simulations
   of the same random PHV trace, one per optimization level of the pipeline
   description.  The execution backend is any {!Druzhba_dsim.Backends}
   entry:

   - [Closures]: the description is compiled to closures beforehand (the
     analogue of the paper's rustc-compiled description; compilation time is
     excluded, as the paper excludes rustc time).  This is the configuration
     Table 1 corresponds to.
   - [Interpreter]: the description IR is interpreted directly.  This is an
     ablation unavailable in the original system: it shows what inlining is
     worth when no compiler cleans up the call structure.
   - [Native]: the description is emitted as real OCaml, compiled
     out-of-process and Dynlinked — the closest analogue of the paper's
     dgen + rustc methodology.  Without the toolchain {!run} returns the
     probe's reason before touching any program. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

type row = {
  row_program : string;
  row_depth : int;
  row_width : int;
  row_alu : string;
  row_unopt_ms : float;
  row_scc_ms : float;
  row_inline_ms : float;
}

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  (Unix.gettimeofday () -. t0) *. 1000.

(* [Error] names the program and the level whose substrate did not build;
   like {!Druzhba_campaign.Oracle.substrates} it leaves out the backend's
   own message, which for native carries ocamlopt's per-process staging
   paths. *)
let run_benchmark ?(phvs = 50_000) ?(seed = 0xD52ba) ~backend (bm : Spec.benchmark) :
    (row, string) result =
  let compiled = Spec.compile_exn bm in
  let mc = compiled.Compiler.Codegen.c_mc in
  let desc = compiled.Compiler.Codegen.c_desc in
  let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
  let inputs = Traffic.phvs (Traffic.create ~seed ~width:bm.Spec.bm_width ~bits:32) phvs in
  let v2 = Optimizer.scc_propagate ~mc desc in
  let v3 = Optimizer.inline_functions v2 in
  (* Substrate construction, output buffer and trace freeze sit outside the
     timer: the measurement is the steady-state tick path (the paper's
     Table 1 likewise excludes rustc compilation time).  Every backend runs
     through the uniform {!Substrate} interface. *)
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:phvs in
  let measure level d =
    match Backends.create ~init backend d ~mc with
    | Error _ ->
      Error
        (Printf.sprintf "backend %s: %s at %s did not build" (Backends.name backend)
           bm.Spec.bm_name (Optimizer.level_name level))
    | Ok substrate ->
      (* warm once outside the timer so the lane driver's lazily built
         register file is excluded, like closure compilation above *)
      Substrate.run_batch_into substrate ~inputs:[] buf;
      Ok (time_ms (fun () -> Substrate.run_batch_into substrate ~inputs buf))
  in
  let ( let* ) = Result.bind in
  let* row_unopt_ms = measure Optimizer.Unoptimized desc in
  let* row_scc_ms = measure Optimizer.Scc v2 in
  let* row_inline_ms = measure Optimizer.Scc_inline v3 in
  Ok
    {
      row_program = bm.Spec.bm_name;
      row_depth = bm.Spec.bm_depth;
      row_width = bm.Spec.bm_width;
      row_alu = bm.Spec.bm_stateful;
      row_unopt_ms;
      row_scc_ms;
      row_inline_ms;
    }

(* Every Table-1 program on [backend] (default the closures).  An
   unavailable backend is refused before the first program is compiled. *)
let run ?phvs ?seed ?(backend = Backends.Closures) () : (row list, string) result =
  match Backends.available backend with
  | Error reason -> Error (Printf.sprintf "backend %s unavailable: %s" (Backends.name backend) reason)
  | Ok () ->
    let rec go rows = function
      | [] -> Ok (List.rev rows)
      | bm :: rest -> Result.bind (run_benchmark ?phvs ?seed ~backend bm) (fun r -> go (r :: rows) rest)
    in
    go [] Spec.all

let pp_row ppf r =
  Fmt.pf ppf "%-18s %d,%-2d %-12s %10.0f %16.0f %21.0f" r.row_program r.row_depth r.row_width
    r.row_alu r.row_unopt_ms r.row_scc_ms r.row_inline_ms

let pp ppf rows =
  Fmt.pf ppf "@[<v>%-18s %-4s %-12s %10s %16s %21s@," "Program" "d,w" "ALU" "Unopt (ms)"
    "SCC prop (ms)" "+ Func inlining (ms)";
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_row r) rows;
  Fmt.pf ppf "@]"

(* Shape checks corresponding to the paper's observations: optimization
   helps everywhere, inlining adds (almost) nothing on the compiled
   substrate, and the biggest pipelines gain the most. *)
let speedup r = r.row_unopt_ms /. r.row_scc_ms

let summary ppf rows =
  let avg f = List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int (List.length rows) in
  Fmt.pf ppf "mean speedup (unopt/scc): %.2fx; mean inline/scc ratio: %.2f@." (avg speedup)
    (avg (fun r -> r.row_inline_ms /. r.row_scc_ms))
